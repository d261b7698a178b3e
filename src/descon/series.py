"""Connected-permutation counts by two independent routes.

A permutation is connected (indecomposable) when its connectivity set is
empty. The count f(n) is obtained either by scanning all n! permutations or
by reading coefficients off the generating-function identity

    sum_{n>=1} f(n) x^n  =  1 - 1 / (sum_{n>=0} n! x^n).

Multiplying out, n! = sum_{k=1..n} f(k) (n-k)!: a permutation splits off
its first connected summand. So f(n) = n! - sum_{k<n} f(k) (n-k)!, in
exact integers, and the two routes must agree coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .permutations import connected_count

__all__ = ["ConnectedCountTable", "connected_counts_enumerated", "connected_counts_series"]


@dataclass(frozen=True)
class ConnectedCountTable:
    """Counts f(1..max_n) of connected permutations, tagged with how they
    were obtained ("enumeration" or "series")."""

    max_n: int
    counts: tuple[int, ...]
    source: str

    def __post_init__(self):
        if self.max_n < 1 or len(self.counts) != self.max_n:
            raise ValueError("counts must cover exactly 1..max_n")
        if self.counts[0] != 1 or any(c < 1 for c in self.counts):
            raise ValueError("connected counts must be positive with f(1) = 1")

    def count(self, n: int) -> int:
        if not 1 <= n <= self.max_n:
            raise IndexError(f"n={n} outside 1..{self.max_n}")
        return self.counts[n - 1]


def connected_counts_enumerated(max_n: int, cap: int | None = None) -> ConnectedCountTable:
    """f(n) for n = 1..max_n by scanning every permutation."""
    counts = tuple(connected_count(n, cap) for n in range(1, max_n + 1))
    return ConnectedCountTable(max_n, counts, "enumeration")


def connected_counts_series(max_n: int) -> ConnectedCountTable:
    """f(n) for n = 1..max_n as coefficients of 1 - 1/(sum of n! x^n), by
    the convolution recurrence f(n) = n! - sum_{k<n} f(k) (n-k)!."""
    if isinstance(max_n, bool) or not isinstance(max_n, int) or max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n!r}")
    factorials = [factorial(k) for k in range(max_n + 1)]
    counts: list[int] = []
    for n in range(1, max_n + 1):
        counts.append(factorials[n] - sum(f * factorials[n - k] for k, f in enumerate(counts, 1)))
    return ConnectedCountTable(max_n, tuple(counts), "series")
