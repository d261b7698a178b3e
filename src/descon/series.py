"""Connected-permutation counts by two independent routes.

A permutation is connected (indecomposable) when its connectivity set is
empty. The count f(n) is read either off the tally of S_n by statistics
or off the coefficients of the generating-function identity

    sum_{n>=1} f(n) x^n  =  1 - 1 / (sum_{n>=0} n! x^n).

Multiplying out, n! = sum_{k=1..n} f(k) (n-k)!: a permutation splits off
its first connected summand. So f(n) = n! - sum_{k<n} f(k) (n-k)!, in
exact integers, and the two routes must agree coefficient for coefficient.
"""

from __future__ import annotations

from math import factorial

from .permutations import connected_count
from .subsets import _Frozen, _require_positive

__all__ = ["ConnectedCountTable", "connected_counts_enumerated", "connected_counts_series"]


class ConnectedCountTable(_Frozen):
    """Counts f(1..max_n) of connected permutations, tagged with how they
    were obtained ("enumeration" or "series")."""

    __slots__ = __match_args__ = ("max_n", "counts", "source")
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


def connected_counts_enumerated(max_n: int) -> ConnectedCountTable:
    """f(n) for n = 1..max_n, each read off the tally of S_n, one n at a time."""
    _require_positive(max_n, "max_n")
    counts = tuple(connected_count(n) for n in range(1, max_n + 1))
    return ConnectedCountTable(max_n, counts, "enumeration")


def connected_counts_series(max_n: int) -> ConnectedCountTable:
    """f(n) for n = 1..max_n as coefficients of 1 - 1/(sum of n! x^n), by
    the convolution recurrence f(n) = n! - sum_{k<n} f(k) (n-k)!."""
    _require_positive(max_n, "max_n")
    factorials = [factorial(k) for k in range(max_n + 1)]
    counts: list[int] = []
    for n in range(1, max_n + 1):
        counts.append(factorials[n] - sum(f * factorials[n - k] for k, f in enumerate(counts, 1)))
    return ConnectedCountTable(max_n, tuple(counts), "series")
