"""The identity suite behind ``descon verify``: every counting identity the
package implements, each checked exactly against an independent route, with
the first counterexample (n, S, T) reported on failure.

n is the outer loop. The matrices of one n are built on first use, shared
by all its checks and dropped before the next n. A check that fails is not
run for larger n. The exact arithmetic means there is no tolerance anywhere,
only equality.

The ``q``-checks keep every weighted matrix packed by q -> 2**w, one int a
cell at one width per n, and compare ints; only a cell that a failure
names is unpacked into a polynomial.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import partial
from math import comb, factorial

from .matrices import (
    INTEGER,
    SubsetMatrix,
    _conjugation,
    _expand,
    _family_width,
    _identity_rows,
    _int_product,
    _signed_inverse,
    _tally,
    _unpack,
    a_matrix_closed,
    b_matrix_direct,
    block_matrix,
    diagonal_conjugation_matrix,
    gamma_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    zeta_matrix,
)
from .permutations import (
    _inverse_sweep,
    _letter_table,
    _require_within_cap,
    connected_count,
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


def _first_mismatch(got, want) -> tuple[int, int] | None:
    for s, (grow, wrow) in enumerate(zip(getattr(got, "rows", got), getattr(want, "rows", want))):
        for t, (g, w) in enumerate(zip(grow, wrow)):
            if g != w:
                return s, t
    return None


def _matrices_equal(n: int, got, want, label: str, show=str) -> str | None:
    """The first cell where two matrices (or int grids) differ, each side
    written by ``show``; the cells are walked only if the whole differs."""
    if got == want or (mm := _first_mismatch(got, want)) is None:
        return None
    s, t = mm
    g, w = (getattr(m, "rows", m)[s][t] for m in (got, want))
    return f"{label} at {_fmt(n, s, t)}: {show(g)} != {show(w)}"


# How each shared oracle of one n is built. The lambdas read the module-level
# builders when they run, so substituting one of them takes effect here.
_ORACLES = {
    "joint": lambda o: joint_statistics(o.n),
    "zeta": lambda o: zeta_matrix(o.n),
    "identity": lambda o: SubsetMatrix.identity(o.n),
    "mobius": lambda o: mobius_matrix(o.n),
    "gamma": lambda o: gamma_matrix(o.n),
    "zeta_gamma": lambda o: o.zeta @ o.gamma,
    "b": lambda o: b_matrix_direct(o.n),
    "a": lambda o: a_matrix_closed(o.n),
    "multiset": lambda o: multiset_count_matrix(o.n),
    # (b, gamma) expanded from their top rows, the route of `descon table`
    "tops": lambda o: (block_matrix("b", o.n), block_matrix("gamma", o.n)),
    # the weighted matrices as int grids packed at the width w
    "w": lambda o: _family_width(o.n),
    "gamma_q": lambda o: _tally("gamma", o.n, o.w),
    "b_q": lambda o: _tally("b", o.n, o.w),
    "a_q": lambda o: _expand("a", o.n, o.w),
    "tops_q": lambda o: (_expand("b", o.n, o.w), _expand("gamma", o.n, o.w)),
}


class _Oracles:
    """The oracles of one n, each built on first access and then kept."""

    def __init__(self, n: int):
        self.n = n

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


def _group_inverses(n: int) -> dict[tuple[int, int], bytearray]:
    """One lexicographic pass over the permutations of [n]: the inverses,
    one letter a byte, grouped by (descent mask, connectivity mask) and
    joined into one blob per group, so that collapsing a group is one
    ``translate``. Groups keep the order of their lexicographically first
    permutation."""
    groups: dict[tuple[int, int], bytearray] = {}
    for d_mask, c_mask, inverse in _inverse_sweep(n):
        groups.setdefault((d_mask, c_mask), bytearray()).extend(inverse)
    return groups


def _reduce_classes(groups: dict[tuple[int, int], bytearray], t: SubsetMask) -> dict[int, bytes]:
    """Reduce the inverses of the permutations whose descent set contains
    the complement of t, skipping the groups that do not qualify, and join
    them per connectivity class: the class's reduced words, n bytes each.
    Since the groups come in the order of their first permutation, so do
    the classes, and a failure names the same class as a loop over the
    permutations in lexicographic order would.
    """
    t_bar = ((1 << (t.n - 1)) - 1) ^ t.mask
    table = bytes(_letter_table(t)).ljust(256, b"\0")
    reduced: dict[int, list[bytes]] = {}
    for (d_mask, c_mask), blob in groups.items():
        if d_mask & t_bar == t_bar:
            reduced.setdefault(c_mask, []).append(blob.translate(table))
    return {c_mask: b"".join(blobs) for c_mask, blobs in reduced.items()}


def _late_marks(blob: bytes, n: int, t: SubsetMask) -> dict[int, bytes]:
    """For each element i of t, one byte per word of the blob (n letters
    each): 0 where the first i letters are all at most the letter of value
    i, so that a word of the multiset of t is cut at i, else 1. No other
    position can be a cut. Per column a ``translate`` marks the letters
    above that one with 1, and the first i columns, read as ints, are ORed."""
    marks = {}
    for letter, i in enumerate(t.elements(), start=1):
        above = bytes(letter + 1).ljust(256, b"\1")
        late = 0
        for column in range(i):
            late |= int.from_bytes(blob[column::n].translate(above), "big")
        marks[i] = late.to_bytes(len(blob) // n, "big")
    return marks


def _bijection_detail(n: int, t_mask: int, classes: dict[int, bytes], column: list[int]) -> str | None:
    """The first fault of the reduction at (n, T): a class whose reduced
    words repeat, else the smallest connectivity mask S whose class holds a
    word with another connectivity set or has a size other than entry S of
    ``column``, the count of the multiset words of T with connectivity set
    S. A word in two classes has the wrong connectivity set in one."""
    words = re.compile(b"(?s).{%d}" % n).findall
    blob = b"".join(classes.values())
    if len(set(words(blob))) * n != len(blob):
        for s_mask, reduced in classes.items():
            if len(set(words(reduced))) * n != len(reduced):
                return f"reduction not injective at {_fmt(n, s_mask, t_mask)}"
    sizes = {s_mask: len(reduced) // n for s_mask, reduced in classes.items()}
    counts = {s_mask: count for s_mask, count in enumerate(column) if count}
    bad = {s for s in sizes.keys() | counts.keys() if sizes.get(s) != counts.get(s) or s & ~t_mask}
    for i, late in _late_marks(blob, n, SubsetMask(n, t_mask)).items():
        # the marks of a class whose words all have connectivity set S
        want = b"".join((b"\0" if s >> (i - 1) & 1 else b"\1") * size for s, size in sizes.items())
        if late != want:
            start = 0
            for s_mask, size in sizes.items():
                if late[start:start + size] != want[start:start + size]:
                    bad.add(s_mask)
                start += size
    return f"reduction misses a class at {_fmt(n, min(bad), t_mask)}" if bad else None


def _multiset_bijection(o: _Oracles) -> str | None:
    """Letterwise reduction of inverses maps each connectivity class of
    permutations with prescribed descents bijectively onto the matching
    connectivity class of multiset words. The permutations are swept once
    and no multiset word is listed: per T, each class must be injective,
    inside its connectivity set, and as large as the multiset count matrix says."""
    groups = _group_inverses(o.n)
    for t_mask in range(1 << (o.n - 1)):
        classes = _reduce_classes(groups, SubsetMask(o.n, t_mask))
        column = [row[t_mask] for row in o.multiset.rows]
        detail = _bijection_detail(o.n, t_mask, classes, column)
        if detail:
            return detail
    return None


def _connected_series(o: _Oracles) -> str | None:
    """Connected counts read off the sweep and by the series route agree."""
    swept, series = connected_count(o.n), connected_counts_series(o.n).count(o.n)
    if swept != series:
        return f"connected counts at n={o.n}: sweep {swept} != series {series}"
    return None


def _complemented(m: SubsetMatrix) -> SubsetMatrix:
    """Entry (S, T) is entry (complement of S, complement of T) of m."""
    return SubsetMatrix(m.n, m.ring, [row[::-1] for row in reversed(m.rows)])


def _inverse_products(o: _Oracles) -> list:
    """Each top-row inverse times its matrix (swept for b, gamma) vs the identity."""
    return [
        (base @ inverse_closed(kind, o.n, verify=False), o.identity, f"{kind} inverse product")
        for kind, base in zip(("a", "b", "gamma"), (o.a, o.b, o.gamma))
    ]


def _weighted(o: _Oracles, got, want, label: str, lo: int = 0) -> tuple:
    """A comparison of two grids packed at the width w, slot k of a cell the
    coefficient of q**(lo + k), unpacked only to name a failure."""
    return got, want, label, partial(_unpack, lo=lo, width=o.w)


def _at_q1(o: _Oracles, grid) -> SubsetMatrix:
    """q = 1 in a grid packed at the width w: modulo 2**w - 1 a cell is the
    sum of its slots, which are nonnegative counts summing below that."""
    modulus = (1 << o.w) - 1
    return SubsetMatrix(o.n, INTEGER, [[x % modulus for x in row] for row in grid])


def _weighted_inverse_products(o: _Oracles) -> list:
    """The same with q: an inverse cell, and so a product cell, sits at
    offset -C(n,2), where the identity holds q**0 in slot C(n,2)."""
    lo = -comb(o.n, 2)
    identity = _identity_rows(o.n, 1 << -lo * o.w)
    return [
        _weighted(o, _int_product(base, _signed_inverse(kind, o.n, o.w)), identity,
                  f"weighted {kind} inverse product", lo)
        for kind, base in zip(("a", "b", "gamma"), (o.a_q, o.b_q, o.gamma_q))
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
    ("signed-inverses", _inverse_products),
    # connectivity-class sizes over multiset words against gamma * zeta,
    # with both indices complemented
    ("multiset-counts", lambda o: [
        (o.multiset, _complemented(o.gamma @ o.zeta), "multiset counts"),
    ]),
    ("multiset-bijection", _multiset_bijection),
    ("connected-series", _connected_series),
)

_Q_CHECKS = (
    # substituting q = 1 into each weighted matrix recovers the plain one
    ("q-specialization", lambda o: [
        (_at_q1(o, o.gamma_q), o.gamma, "gamma at q=1"),
        (_at_q1(o, o.a_q), o.a, "a at q=1"),
        (_at_q1(o, o.b_q), o.b, "b at q=1"),
    ]),
    # the weighted closed form and top-row routes against the sweep
    ("q-superset-closed-form", lambda o: [
        _weighted(o, o.a_q, _int_product(_int_product(o.zeta.rows, o.gamma_q), o.zeta.rows),
                  "weighted superset counts"),
        _weighted(o, o.tops_q[0], o.b_q, "weighted b top rows vs enumeration"),
        _weighted(o, o.tops_q[1], o.gamma_q, "weighted gamma top rows vs enumeration"),
    ]),
    # the least-inversion power of q is an extra column factor
    ("q-diagonal-conjugation", lambda o: [
        _weighted(o, _conjugation(o.n, o.w), o.a_q, "weighted diagonal conjugation"),
    ]),
    ("q-signed-inverses", _weighted_inverse_products),
)


def available_checks(include_q: bool = False) -> tuple[str, ...]:
    checks = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    return tuple(name for name, _fn in checks)


def run_checks(
    max_n: int,
    include_q: bool = False,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the identity suite for all n up to max_n and return one result
    per check, in a fixed order. A check's seconds are summed over n and
    include every shared oracle it is the first to build."""
    _require_within_cap(max_n)
    selected = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    if names is not None:
        wanted = set(names)
        unknown = wanted - {name for name, _fn in selected}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        selected = tuple((name, fn) for name, fn in selected if name in wanted)
    results = [CheckResult(name, max_n, True, 0.0) for name, _fn in selected]
    for n in range(1, max_n + 1):
        oracles = _Oracles(n)
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
