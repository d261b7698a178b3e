"""The identity suite behind ``descon verify``: every counting identity the
package implements, each checked exactly against an independent route, with
the first counterexample (n, S, T) reported on failure.

All checks run for every n from 1 up to the requested bound; the exact
arithmetic means there is no tolerance anywhere, only equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from .matrices import (
    LAURENT,
    POLYNOMIAL,
    SubsetMatrix,
    a_matrix_closed,
    a_q_matrix_closed,
    b_gamma_transform,
    b_matrix_direct,
    b_q_matrix_direct,
    diagonal_conjugation_matrix,
    gamma_matrix,
    gamma_q_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    zeta_matrix,
)
from .permutations import (
    _inverse_sweep,
    _multiset_tuples,
    _reducer,
    connected_count,
    connectivity_mask,
    joint_statistics,
)
from .series import connected_counts_series
from .subsets import SubsetMask, count_descent_subset, eta, min_inversions

__all__ = ["CheckResult", "available_checks", "run_checks"]


@dataclass
class CheckResult:
    name: str
    max_n: int
    passed: bool
    seconds: float
    detail: str = ""


def _fmt(n: int, s: int, t: int) -> str:
    return f"n={n}, S={SubsetMask(n, s)}, T={SubsetMask(n, t)}"


def _first_mismatch(got: SubsetMatrix, want: SubsetMatrix) -> tuple[int, int] | None:
    for s, (grow, wrow) in enumerate(zip(got.rows, want.rows)):
        for t, (g, w) in enumerate(zip(grow, wrow)):
            if g != w:
                return s, t
    return None


def _matrices_equal(n: int, got: SubsetMatrix, want: SubsetMatrix, label: str) -> str | None:
    mm = _first_mismatch(got, want)
    if mm is None:
        return None
    s, t = mm
    return f"{label} at {_fmt(n, s, t)}: {got.rows[s][t]} != {want.rows[s][t]}"


def _check_containment_counts(max_n: int, threads: int) -> str | None:
    """Counting permutations whose connectivity set contains S (resp. whose
    descent set is inside S) against the factorial-product weights."""
    for n in range(1, max_n + 1):
        by_c: dict[int, int] = {}
        by_d: dict[int, int] = {}
        for (c, d, _inv), count in joint_statistics(n, threads).items():
            by_c[c] = by_c.get(c, 0) + count
            by_d[d] = by_d.get(d, 0) + count
        for s in range(1 << (n - 1)):
            subset = SubsetMask(n, s)
            superset_count = sum(v for c, v in by_c.items() if c & s == s)
            if superset_count != eta(subset):
                return f"connectivity-superset count at n={n}, S={subset}: {superset_count} != {eta(subset)}"
            subset_count = sum(v for d, v in by_d.items() if d & ~s == 0)
            if subset_count != count_descent_subset(subset):
                return (
                    f"descent-subset count at n={n}, S={subset}: "
                    f"{subset_count} != {count_descent_subset(subset)}"
                )
        if sum(by_c.values()) != factorial(n):
            return f"total count at n={n} is not n!"
    return None


def _check_least_inversions(max_n: int, threads: int) -> str | None:
    """The binomial-sum weight of T equals the fewest inversions among
    permutations whose descent set contains T."""
    for n in range(1, max_n + 1):
        least_by_d: dict[int, int] = {}
        for (_c, d, inv), _count in joint_statistics(n, threads).items():
            if inv < least_by_d.get(d, inv + 1):
                least_by_d[d] = inv
        for t in range(1 << (n - 1)):
            enumerated = min(v for d, v in least_by_d.items() if d & t == t)
            weight = min_inversions(SubsetMask(n, t))
            if weight != enumerated:
                return (
                    f"least inversions at n={n}, T={SubsetMask(n, t)}: "
                    f"weight {weight} != enumerated {enumerated}"
                )
    return None


def _check_mobius_inverse(max_n: int, threads: int) -> str | None:
    """The signed containment matrix inverts the containment matrix."""
    for n in range(1, max_n + 1):
        product = zeta_matrix(n) @ mobius_matrix(n)
        detail = _matrices_equal(n, product, SubsetMatrix.identity(n), "zeta inverse")
        if detail:
            return detail
    return None


def _check_a_closed_form(max_n: int, threads: int) -> str | None:
    """Closed-form superset counts against the double containment
    relaxation of the enumerated joint counts."""
    for n in range(1, max_n + 1):
        m = zeta_matrix(n)
        enumerated = m @ gamma_matrix(n, threads) @ m
        detail = _matrices_equal(n, a_matrix_closed(n), enumerated, "superset counts")
        if detail:
            return detail
    return None


def _check_conjugation(max_n: int, threads: int) -> str | None:
    """Closed-form superset counts as a diagonal conjugation of the
    containment matrix, with exact entrywise division."""
    for n in range(1, max_n + 1):
        detail = _matrices_equal(
            n, diagonal_conjugation_matrix(n), a_matrix_closed(n), "diagonal conjugation"
        )
        if detail:
            return detail
    return None


def _check_b_factorization(max_n: int, threads: int) -> str | None:
    """The half-relaxed matrix three ways: direct enumeration, containment
    times joint counts, and superset counts times the signed containment;
    then the Moebius-transform routes to ``b`` and ``gamma`` against the
    sweep."""
    for n in range(1, max_n + 1):
        direct = b_matrix_direct(n, threads)
        gamma = gamma_matrix(n, threads)
        b_fast, gamma_fast = b_gamma_transform(n)
        for got, want, label in (
            (direct, zeta_matrix(n) @ gamma, "b enumeration vs zeta*gamma"),
            (direct, a_matrix_closed(n) @ mobius_matrix(n), "b enumeration vs a*mobius"),
            (b_fast, direct, "b transform vs enumeration"),
            (gamma_fast, gamma, "gamma transform vs enumeration"),
        ):
            detail = _matrices_equal(n, got, want, label)
            if detail:
                return detail
    return None


def _check_signed_inverses(max_n: int, threads: int) -> str | None:
    """Each closed-form inverse times its matrix is the identity."""
    for n in range(1, max_n + 1):
        for kind, builder in (
            ("a", a_matrix_closed),
            ("b", lambda k: b_matrix_direct(k, threads)),
            ("gamma", lambda k: gamma_matrix(k, threads)),
        ):
            product = builder(n) @ inverse_closed(kind, n, threads=threads, verify=False)
            detail = _matrices_equal(
                n, product, SubsetMatrix.identity(n), f"{kind} inverse product"
            )
            if detail:
                return detail
    return None


def _check_multiset_counts(max_n: int, threads: int) -> str | None:
    """Connectivity-class sizes over multiset words against the joint-count
    matrix times the containment matrix, with both indices complemented."""
    for n in range(1, max_n + 1):
        counted = multiset_count_matrix(n)
        gm = gamma_matrix(n, threads) @ zeta_matrix(n)
        full = (1 << (n - 1)) - 1
        reindexed = SubsetMatrix(
            n,
            gm.ring,
            [[gm.rows[full ^ s][full ^ t] for t in range(full + 1)] for s in range(full + 1)],
        )
        detail = _matrices_equal(n, counted, reindexed, "multiset counts")
        if detail:
            return detail
    return None


def _group_inverses(n: int) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """One lexicographic pass over the permutations of [n]: the inverse of
    each, grouped by (descent mask, connectivity mask). Groups keep the
    order of their lexicographically first permutation."""
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for d_mask, c_mask, inverse in _inverse_sweep(n):
        groups.setdefault((d_mask, c_mask), []).append(inverse)
    return groups


def _reduce_classes(
    groups: dict[tuple[int, int], list[tuple[int, ...]]], t: SubsetMask
) -> tuple[dict[int, set], dict[int, int]]:
    """Reduce the inverses of the permutations whose descent set contains
    the complement of t, skipping the groups that do not qualify.

    Returns the reduced words and the number of permutations per
    connectivity class. Since the groups come in the order of their first
    permutation, so do the classes, and a failure names the same class as
    a loop over the permutations in lexicographic order would.
    """
    t_bar = ((1 << (t.n - 1)) - 1) ^ t.mask
    reduce = _reducer(t)
    reduced: dict[int, set] = {}
    class_size: dict[int, int] = {}
    for (d_mask, c_mask), inverses in groups.items():
        if d_mask & t_bar == t_bar:
            reduced.setdefault(c_mask, set()).update(map(reduce, inverses))
            class_size[c_mask] = class_size.get(c_mask, 0) + len(inverses)
    return reduced, class_size


def _bijection_detail(
    n: int,
    t_mask: int,
    reduced: dict[int, set],
    class_size: dict[int, int],
    target: dict[int, set],
) -> str | None:
    """The first fault of the reduction at (n, T): a class whose reduced
    words repeat, else the smallest connectivity mask whose reduced words
    differ from the multiset words with that connectivity set."""
    for s_mask, words in reduced.items():
        if len(words) != class_size[s_mask]:
            return f"reduction not injective at {_fmt(n, s_mask, t_mask)}"
    if reduced != target:
        keys = sorted(set(reduced) | set(target))
        bad = next(k for k in keys if reduced.get(k) != target.get(k))
        return f"reduction misses a class at {_fmt(n, bad, t_mask)}"
    return None


def _check_multiset_bijection(max_n: int, threads: int) -> str | None:
    """Letterwise reduction of inverses maps each connectivity class of
    permutations with prescribed descents bijectively onto the matching
    connectivity class of multiset words.

    The permutations of each n are swept once; a permutation w serves
    exactly the T that contain the complement of its descent set. The
    multiset words are enumerated on their own, without any permutation.
    """
    for n in range(1, max_n + 1):
        groups = _group_inverses(n)
        for t_mask in range(1 << (n - 1)):
            t = SubsetMask(n, t_mask)
            reduced, class_size = _reduce_classes(groups, t)
            target: dict[int, set] = {}
            for word in _multiset_tuples(t):
                target.setdefault(connectivity_mask(word), set()).add(word)
            detail = _bijection_detail(n, t_mask, reduced, class_size, target)
            if detail:
                return detail
    return None


def _check_connected_series(max_n: int, threads: int) -> str | None:
    """Connected counts by scan and by the reciprocal-series route agree."""
    top = min(max_n, 9)
    series = connected_counts_series(top)
    for n in range(1, top + 1):
        scanned = connected_count(n)
        if scanned != series.count(n):
            return f"connected counts at n={n}: scan {scanned} != series {series.count(n)}"
    return None


def _check_q_specialization(max_n: int, threads: int) -> str | None:
    """Substituting q = 1 into each weighted matrix recovers its plain
    counting version."""
    for n in range(1, max_n + 1):
        for label, weighted, plain in (
            ("gamma", gamma_q_matrix(n, threads), gamma_matrix(n, threads)),
            ("a", a_q_matrix_closed(n), a_matrix_closed(n)),
            ("b", b_q_matrix_direct(n, threads), b_matrix_direct(n, threads)),
        ):
            detail = _matrices_equal(
                n, weighted.specialize_q1(), plain, f"{label} at q=1"
            )
            if detail:
                return detail
    return None


def _check_q_a_closed_form(max_n: int, threads: int) -> str | None:
    """Weighted closed-form superset counts against the double containment
    relaxation of the weighted joint counts, and the weighted
    Moebius-transform routes to ``b(q)`` and ``gamma(q)`` against the sweep."""
    for n in range(1, max_n + 1):
        m = zeta_matrix(n).lift(POLYNOMIAL)
        gamma = gamma_q_matrix(n, threads)
        b_fast, gamma_fast = b_gamma_transform(n, q=True)
        for got, want, label in (
            (a_q_matrix_closed(n), m @ gamma @ m, "weighted superset counts"),
            (b_fast, b_q_matrix_direct(n, threads), "weighted b transform vs enumeration"),
            (gamma_fast, gamma, "weighted gamma transform vs enumeration"),
        ):
            detail = _matrices_equal(n, got, want, label)
            if detail:
                return detail
    return None


def _check_q_conjugation(max_n: int, threads: int) -> str | None:
    """Weighted diagonal conjugation (with the least-inversion power as a
    column factor) against the weighted closed form."""
    for n in range(1, max_n + 1):
        detail = _matrices_equal(
            n,
            diagonal_conjugation_matrix(n, q=True),
            a_q_matrix_closed(n),
            "weighted diagonal conjugation",
        )
        if detail:
            return detail
    return None


def _check_q_signed_inverses(max_n: int, threads: int) -> str | None:
    """Each weighted inverse times its matrix is the identity over the
    Laurent ring."""
    for n in range(1, max_n + 1):
        identity = SubsetMatrix.identity(n, LAURENT)
        for kind, builder in (
            ("a", a_q_matrix_closed),
            ("b", lambda k: b_q_matrix_direct(k, threads)),
            ("gamma", lambda k: gamma_q_matrix(k, threads)),
        ):
            inverse = inverse_closed(kind, n, q=True, threads=threads, verify=False)
            product = builder(n).lift(LAURENT) @ inverse
            detail = _matrices_equal(n, product, identity, f"weighted {kind} inverse product")
            if detail:
                return detail
    return None


_INTEGER_CHECKS = (
    ("containment-counts", _check_containment_counts),
    ("least-inversions", _check_least_inversions),
    ("zeta-signed-inverse", _check_mobius_inverse),
    ("superset-closed-form", _check_a_closed_form),
    ("diagonal-conjugation", _check_conjugation),
    ("b-factorization", _check_b_factorization),
    ("signed-inverses", _check_signed_inverses),
    ("multiset-counts", _check_multiset_counts),
    ("multiset-bijection", _check_multiset_bijection),
    ("connected-series", _check_connected_series),
)

_Q_CHECKS = (
    ("q-specialization", _check_q_specialization),
    ("q-superset-closed-form", _check_q_a_closed_form),
    ("q-diagonal-conjugation", _check_q_conjugation),
    ("q-signed-inverses", _check_q_signed_inverses),
)


def available_checks(include_q: bool = False) -> tuple[str, ...]:
    checks = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    return tuple(name for name, _fn in checks)


def run_checks(
    max_n: int,
    include_q: bool = False,
    threads: int = 1,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the identity suite for all n up to max_n and return one result
    per check, in a fixed order."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n!r}")
    selected = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    if names is not None:
        wanted = set(names)
        unknown = wanted - {name for name, _fn in selected}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        selected = tuple((name, fn) for name, fn in selected if name in wanted)
    results = []
    for name, fn in selected:
        start = time.perf_counter()
        detail = fn(max_n, threads)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, max_n, detail is None, elapsed, detail or ""))
    return results
