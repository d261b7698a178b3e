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

from .permutations import _require_within_cap, joint_statistics
from .rings import _require_int

__all__ = ["connected_counts_enumerated", "connected_counts_series"]


def connected_counts_enumerated(max_n: int) -> tuple[int, ...]:
    """f(1), ..., f(max_n), each summed off the tally of S_n, one n at a
    time; max_n is checked against the hard ceiling first."""
    _require_within_cap(max_n, "max_n")
    tallies = (joint_statistics(n) for n in range(1, max_n + 1))
    return tuple(sum(v for (c, _d, _inv), v in joint.items() if not c) for joint in tallies)


def connected_counts_series(max_n: int) -> tuple[int, ...]:
    """f(1), ..., f(max_n) as coefficients of 1 - 1/(sum of n! x^n), by
    the convolution recurrence f(n) = n! - sum_{k<n} f(k) (n-k)!."""
    _require_int(max_n, "max_n")
    factorials = [factorial(k) for k in range(max_n + 1)]
    counts: list[int] = []
    for n in range(1, max_n + 1):
        counts.append(factorials[n] - sum(f * factorials[n - k] for k, f in enumerate(counts, 1)))
    return tuple(counts)
