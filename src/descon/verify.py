"""The identity suite behind ``descon verify``: every counting identity the
package implements, each checked exactly against an independent route, with
the first counterexample (n, S, T) reported on failure.

n is the outer loop. The matrices of one n are built on first use, shared
by all its checks and dropped before the next n. A check that fails is not
run for larger n. The exact arithmetic means there is no tolerance anywhere,
only equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from .matrices import (
    INTEGER,
    LAURENT,
    POLYNOMIAL,
    SubsetMatrix,
    a_matrix_closed,
    a_q_matrix_closed,
    b_matrix_direct,
    b_q_matrix_direct,
    block_matrix,
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
    _require_within_cap,
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


# How each shared oracle of one n is built. The lambdas read the module-level
# builders when they run, so substituting one of them takes effect here.
_ORACLES = {
    "joint": lambda o: joint_statistics(o.n, o.threads),
    "zeta": lambda o: zeta_matrix(o.n),
    "zeta_q": lambda o: o.zeta.lift(POLYNOMIAL),
    "identity": lambda o: SubsetMatrix.identity(o.n),
    "mobius": lambda o: mobius_matrix(o.n),
    "gamma": lambda o: gamma_matrix(o.n, o.threads),
    "zeta_gamma": lambda o: o.zeta @ o.gamma,
    "b": lambda o: b_matrix_direct(o.n, o.threads),
    "a": lambda o: a_matrix_closed(o.n),
    "gamma_q": lambda o: gamma_q_matrix(o.n, o.threads),
    "b_q": lambda o: b_q_matrix_direct(o.n, o.threads),
    "a_q": lambda o: a_q_matrix_closed(o.n),
    # (b, gamma) expanded from their top rows, the route of `descon table`
    "tops": lambda o: (block_matrix("b", o.n), block_matrix("gamma", o.n)),
    "tops_q": lambda o: (block_matrix("b", o.n, q=True), block_matrix("gamma", o.n, q=True)),
}


class _Oracles:
    """The oracles of one n, each built on first access and then kept."""

    def __init__(self, n: int, threads: int):
        self.n = n
        self.threads = threads

    def __getattr__(self, name: str):
        if name not in _ORACLES:
            raise AttributeError(name)
        value = self.__dict__[name] = _ORACLES[name](self)
        return value


def _containment_counts(o: _Oracles) -> str | None:
    """Counting permutations whose connectivity set contains S (resp. whose
    descent set is inside S) against the factorial-product weights."""
    n = o.n
    by_c: dict[int, int] = {}
    by_d: dict[int, int] = {}
    for (c, d, _inv), count in o.joint.items():
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


def _least_inversions(o: _Oracles) -> str | None:
    """The binomial-sum weight of T equals the fewest inversions among
    permutations whose descent set contains T."""
    n = o.n
    least_by_d: dict[int, int] = {}
    for (_c, d, inv), _count in o.joint.items():
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


def _multiset_bijection(o: _Oracles) -> str | None:
    """Letterwise reduction of inverses maps each connectivity class of
    permutations with prescribed descents bijectively onto the matching
    connectivity class of multiset words. The permutations are swept once;
    the multiset words are streamed on their own, one T at a time."""
    groups = _group_inverses(o.n)
    for t_mask in range(1 << (o.n - 1)):
        t = SubsetMask(o.n, t_mask)
        reduced, class_size = _reduce_classes(groups, t)
        target: dict[int, set] = {}
        for word in _multiset_tuples(t):
            target.setdefault(connectivity_mask(word), set()).add(word)
        detail = _bijection_detail(o.n, t_mask, reduced, class_size, target)
        if detail:
            return detail
    return None


def _connected_series(o: _Oracles) -> str | None:
    """Connected counts by scan and by the reciprocal-series route agree (n <= 9)."""
    if o.n > 9:
        return None
    scanned, series = connected_count(o.n), connected_counts_series(o.n).count(o.n)
    if scanned != series:
        return f"connected counts at n={o.n}: scan {scanned} != series {series}"
    return None


def _complemented(m: SubsetMatrix) -> SubsetMatrix:
    """Entry (S, T) is entry (complement of S, complement of T) of m."""
    return SubsetMatrix(m.n, m.ring, [row[::-1] for row in reversed(m.rows)])


def _inverse_products(o: _Oracles, q: bool) -> list:
    """Each closed-form inverse times its matrix, against the identity."""
    ring, prefix = (LAURENT, "weighted ") if q else (INTEGER, "")
    bases = (o.a_q, o.b_q, o.gamma_q) if q else (o.a, o.b, o.gamma)
    return [
        (base.lift(ring) @ inverse_closed(kind, o.n, q=q, threads=o.threads, verify=False,
                                          base=base),
         SubsetMatrix.identity(o.n, ring), f"{prefix}{kind} inverse product")
        for kind, base in zip(("a", "b", "gamma"), bases)
    ]


# A check maps the oracles of one n to its first fault (or None), or to a
# list of (got, want, label) comparisons that the runner makes in order.
_INTEGER_CHECKS = (
    ("containment-counts", _containment_counts),
    ("least-inversions", _least_inversions),
    # the signed containment matrix inverts the containment matrix
    ("zeta-signed-inverse", lambda o: [(o.zeta @ o.mobius, o.identity, "zeta inverse")]),
    # closed-form superset counts against the enumerated joint counts relaxed twice
    ("superset-closed-form", lambda o: [(o.a, o.zeta_gamma @ o.zeta, "superset counts")]),
    # the same as a diagonal conjugation of zeta, with exact entrywise division
    ("diagonal-conjugation", lambda o: [
        (diagonal_conjugation_matrix(o.n), o.a, "diagonal conjugation"),
    ]),
    # b three ways (direct enumeration, zeta * gamma, a * mobius), then the
    # top-row routes to b and gamma against the sweep
    ("b-factorization", lambda o: [
        (o.b, o.zeta_gamma, "b enumeration vs zeta*gamma"),
        (o.b, o.a @ o.mobius, "b enumeration vs a*mobius"),
        (o.tops[0], o.b, "b top rows vs enumeration"),
        (o.tops[1], o.gamma, "gamma top rows vs enumeration"),
    ]),
    ("signed-inverses", lambda o: _inverse_products(o, q=False)),
    # connectivity-class sizes over multiset words against gamma * zeta,
    # with both indices complemented
    ("multiset-counts", lambda o: [
        (multiset_count_matrix(o.n), _complemented(o.gamma @ o.zeta), "multiset counts"),
    ]),
    ("multiset-bijection", _multiset_bijection),
    ("connected-series", _connected_series),
)

_Q_CHECKS = (
    # substituting q = 1 into each weighted matrix recovers the plain one
    ("q-specialization", lambda o: [
        (o.gamma_q.specialize_q1(), o.gamma, "gamma at q=1"),
        (o.a_q.specialize_q1(), o.a, "a at q=1"),
        (o.b_q.specialize_q1(), o.b, "b at q=1"),
    ]),
    # the weighted closed form and top-row routes against the sweep
    ("q-superset-closed-form", lambda o: [
        (o.a_q, o.zeta_q @ o.gamma_q @ o.zeta_q, "weighted superset counts"),
        (o.tops_q[0], o.b_q, "weighted b top rows vs enumeration"),
        (o.tops_q[1], o.gamma_q, "weighted gamma top rows vs enumeration"),
    ]),
    # the least-inversion power of q is an extra column factor
    ("q-diagonal-conjugation", lambda o: [
        (diagonal_conjugation_matrix(o.n, q=True), o.a_q, "weighted diagonal conjugation"),
    ]),
    ("q-signed-inverses", lambda o: _inverse_products(o, q=True)),
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
    per check, in a fixed order. A check's seconds are summed over n and
    include every shared oracle it is the first to build."""
    _require_within_cap(max_n, None)
    selected = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    if names is not None:
        wanted = set(names)
        unknown = wanted - {name for name, _fn in selected}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        selected = tuple((name, fn) for name, fn in selected if name in wanted)
    results = [CheckResult(name, max_n, True, 0.0) for name, _fn in selected]
    for n in range(1, max_n + 1):
        oracles = _Oracles(n, threads)
        for result, (_name, check) in zip(results, selected):
            if not result.passed:
                continue
            start = time.perf_counter()
            detail = check(oracles)
            if isinstance(detail, list):
                detail = next(filter(None, (_matrices_equal(n, *c) for c in detail)), None)
            result.seconds += time.perf_counter() - start
            if detail:
                result.passed, result.detail = False, detail
    return results
