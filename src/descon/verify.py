"""The identity suite behind ``descon verify``: every counting identity the
package implements, each checked exactly against an independent route, with
the first counterexample (n, S, T) reported on failure.

n is the outer loop. The tallies of S_n and the matrices of one n are built
on first use, shared by all its checks and dropped before the next n. A
check that fails is not run for larger n. The exact arithmetic means there
is no tolerance anywhere, only equality.

Every check runs up to the hard ceiling n = 12 but ``multiset-bijection``,
whose walk holds the inverses of all n! permutations at once: it stops at
:data:`WALK_MAX_N` = 10 and reports that bound as its own ``max_n``.

Every matrix compared is a list of support rows of ints packed by q -> 2**w
(see :mod:`descon.matrices`), w = 0 for counts and one width per n for the
``q``-checks, so no grid is dense, each identity is one function of w and
each comparison one ``==``; only a cell that a failure names is unpacked.

The primitives that each side of each comparison reads, got | want: "tally" is
``permutations._rank_tally`` at its reader's width, and ``matrices._tally``
scatters it; "tops X" is ``matrices._TOP_ROWS[X]`` expanded by ``_block_cells``
over ``_cut_parts`` (tops b: ``_superset_pass`` of tops a; tops gamma: a
recursion on tops b), and an inverse reverses them (for b ``_h_tops``, the
superset pass of tops gamma). A ``q``-check reads what its plain check reads.

    containment-counts    tally | eta, count_descent_subset
    least-inversions      min_inversions | the lowest slot of tally
    zeta-signed-inverse   the containment rows, plain and signed | the identity
    superset-closed-form  tops a | zeta, tally
    diagonal-conjugation  eta_q, and with q min_inversions | tops a
    b-factorization       tally | zeta, tally; tally | tops a, mobius;
                          tops b, tops gamma | tally
    signed-inverses       tally (tops a for a), the inverse | the identity
    multiset-counts       _cut_paths | tally, zeta
    multiset-bijection    the walk, _letter_table, _late_marks | _cut_paths
    connected-series      tally | the series recurrence
    q-specialization      _at_q1 of tally and tops a | tally and tops a
"""

from __future__ import annotations

import re
import time
from functools import partial
from itertools import permutations
from math import comb, factorial

from .matrices import (
    _conjugation,
    _containment_rows,
    _expand,
    _family_width,
    _identity_rows,
    _multiset_rows,
    _product,
    _signed_inverse,
    _tally,
    _unpack,
)
from .permutations import EnumerationCapError, _letter_table, _rank_tally, _require_within_cap
from .rings import _require_int
from .series import connected_counts_series
from .subsets import SubsetMask, _Record, count_descent_subset, eta, min_inversions

__all__ = ["CheckResult", "run_checks"]

# The walk of multiset-bijection holds all n! inverses at once, n bytes
# each. `verify --max-n 10` took 49-57 s and peaked at 526 MB in a fresh
# process on a shared 2-core machine, nearly all of it this walk; n = 11
# would cost about 11 times both.
WALK_MAX_N = 10


class CheckResult(_Record):
    """The outcome of one check up to ``max_n``; ``detail`` names the
    counterexample of a failure. Mutable, so not hashable."""

    __slots__ = __match_args__ = ("name", "max_n", "passed", "seconds", "detail")

    def __init__(self, name: str, max_n: int, passed: bool, seconds: float, detail: str = ""):
        self.name, self.max_n, self.passed = name, max_n, passed
        self.seconds, self.detail = seconds, detail


def _fmt(n: int, s: int, t: int) -> str:
    return f"n={n}, S={SubsetMask(n, s)}, T={SubsetMask(n, t)}"


def _first_mismatch(got: list[dict], want: list[dict]) -> tuple[int, int] | None:
    for s, (grow, wrow) in enumerate(zip(got, want)):
        if grow != wrow:
            return s, min(t for t in grow.keys() | wrow.keys() if grow.get(t, 0) != wrow.get(t, 0))
    return None


def _matrices_equal(n: int, got, want, label: str, w: int = 0, lo: int = 0) -> str | None:
    """The first cell where two lists of support rows packed at the width w
    differ (0 where not stored), slot k the coefficient of q**(lo + k); the
    rows are walked, and the two cells named are unpacked, only if not equal."""
    if got == want:
        return None
    s, t = _first_mismatch(got, want)
    show = partial(_unpack, lo=lo, width=w) if w else str
    label = f"weighted {label}" if w else label
    return f"{label} at {_fmt(n, s, t)}: {show(got[s].get(t, 0))} != {show(want[s].get(t, 0))}"


# How each shared oracle of one n is built, at a width w for the tally and
# the members of the family (0 for counts). The lambdas read the module-level
# builders when they run, so substituting one of them takes effect here.
_ORACLES = {
    "joint": lambda o, w: _rank_tally(o.n, w),
    # the definitional matrices, read off their definitions as support rows
    "zeta": lambda o, w: _containment_rows(o.n),
    "mobius": lambda o, w: _containment_rows(o.n, signed=True),
    "multiset": lambda o, w: _multiset_rows(o.n),
    # the family at w: gamma and b swept, a expanded from its top rows
    "gamma": lambda o, w: _tally(o("joint", w), "gamma", o.n),
    "b": lambda o, w: _tally(o("joint", w), "b", o.n),
    "a": lambda o, w: _expand("a", o.n, w),
    "zeta*gamma": lambda o, w: _product(o("zeta"), o("gamma", w)),
}


class _Oracles:
    """The oracles of one n, each built on first use of its (name, width)
    and then kept; ``w`` is the width of the ``q``-checks, ``q`` if they run."""

    def __init__(self, n: int, q: bool):
        self.n, self.w, self.q = n, _family_width(n), q
        self.built: dict[tuple[str, int], object] = {}

    def __call__(self, name: str, w: int = 0):
        key = name, w
        if key not in self.built:
            self.built[key] = _ORACLES[name](self, w)
        return self.built[key]


def _containment_counts(o: _Oracles) -> str | None:
    """Counting permutations whose connectivity set contains S (resp. whose
    descent set is inside S) against the factorial-product weights."""
    n = o.n
    by_c: dict[int, int] = {}
    by_d: dict[int, int] = {}
    for (c, d), count in o("joint").items():
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
    w = o.w if o.q else factorial(n).bit_length()  # the q-checks' tally, else the narrowest
    least_by_d: dict[int, int] = {}
    for (_c, d), x in o("joint", w).items():
        inv = ((x & -x).bit_length() - 1) // w  # the lowest nonzero slot
        least_by_d[d] = min(inv, least_by_d.get(d, inv))
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
    """The inverses u = w^-1 of the permutations w of [n], walked in
    lexicographic order, one letter a byte, grouped by (descent mask,
    connectivity mask) of w and joined into one blob per group, so that
    collapsing a group is one ``translate``. w descends at v when v + 1
    comes before v in u, and C(w) = C(u): a cut at i when the first i
    values of u are 1..i. Groups keep the order of their lexicographically
    first inverse. n is checked against :data:`WALK_MAX_N` first."""
    _require_int(n, "n")
    if n > WALK_MAX_N:
        raise EnumerationCapError(
            f"n={n} exceeds the bound {WALK_MAX_N} of the walk over all n! inverses"
        )
    top = 1 << (n - 1)
    groups: dict[tuple[int, int], bytearray] = {}
    for u in permutations(range(1, n + 1)):
        d_mask = c_mask = placed = 0
        for v in u:
            bit = 1 << v - 1
            if placed & bit << 1:
                d_mask |= bit
            placed |= bit
            if not placed & placed + 1:  # placed is 1..i: bit i marks a cut at i
                c_mask |= placed + 1
        # bit i down to bit i - 1, less the cut at n that every u has
        groups.setdefault((d_mask, (c_mask >> 1) ^ top), bytearray()).extend(u)
    return groups


def _reduce_classes(groups: dict[tuple[int, int], bytearray], t: SubsetMask) -> dict[int, bytes]:
    """Reduce the inverses of the permutations whose descent set contains
    the complement of t, skipping the groups that do not qualify, and join
    them per connectivity class: the class's reduced words, n bytes each.
    Since the groups come in the order of their first inverse, so do the
    classes, and a failure names the same class as a loop over the
    inverses in lexicographic order would.
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
    """The first fault of the reduction at (n, T): the first class whose
    reduced words repeat, else the smallest connectivity mask S whose class
    holds a word with another connectivity set, has a size other than
    entry S of ``column``, the count of the multiset words of T with
    connectivity set S, or holds letter j other than part j of T's
    composition times per word. A word in two classes has the wrong
    connectivity set in one."""
    words = re.compile(b"(?s).{%d}" % n).findall
    for s_mask, reduced in classes.items():
        if len(set(words(reduced))) * n != len(reduced):
            return f"reduction not injective at {_fmt(n, s_mask, t_mask)}"
    sizes = {s_mask: len(reduced) // n for s_mask, reduced in classes.items()}
    counts = {s_mask: count for s_mask, count in enumerate(column) if count}
    bad = {s for s in sizes.keys() | counts.keys() if sizes.get(s) != counts.get(s) or s & ~t_mask}
    parts = SubsetMask(n, t_mask).to_composition()
    for s_mask, reduced in classes.items():
        if any(reduced.count(j) != sizes[s_mask] * part for j, part in enumerate(parts, 1)):
            bad.add(s_mask)
    for i, late in _late_marks(b"".join(classes.values()), n, SubsetMask(n, t_mask)).items():
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
    connectivity class of multiset words. The inverses are walked once
    and no multiset word is listed: per T, each class must be injective,
    inside its connectivity set, of T's letter content, and as large as the
    multiset count matrix says."""
    groups = _group_inverses(o.n)
    for t_mask in range(1 << (o.n - 1)):
        classes = _reduce_classes(groups, SubsetMask(o.n, t_mask))
        column = [row.get(t_mask, 0) for row in o("multiset")]
        detail = _bijection_detail(o.n, t_mask, classes, column)
        if detail:
            return detail
    return None


def _connected_series(o: _Oracles) -> str | None:
    """Connected counts read off the tally and by the series route agree."""
    swept = sum(count for (c, _d), count in o("joint").items() if not c)
    series = connected_counts_series(o.n)[-1]
    if swept != series:
        return f"connected counts at n={o.n}: sweep {swept} != series {series}"
    return None


def _complemented(rows: list[dict]) -> list[dict]:
    """Entry (S, T) is entry (complement of S, complement of T) of rows."""
    full = len(rows) - 1
    return [{full ^ t: v for t, v in row.items()} for row in reversed(rows)]


def _at_q1(o: _Oracles, rows: list[dict]) -> list[dict]:
    """q = 1 in support rows packed at the width w: modulo 2**w - 1 a cell is
    the sum of its slots, nonnegative counts summing below that, so not 0."""
    modulus = (1 << o.w) - 1
    return [{t: x % modulus for t, x in row.items()} for row in rows]


# Each identity that holds for counts and with q, as a list of comparisons
# (got, want, label, w[, lo]) of support rows packed at the width w, 0 for counts.
def _superset_closed_form(o: _Oracles, w: int) -> list:
    """Closed-form superset counts against the swept joint counts relaxed twice."""
    return [(o("a", w), _product(o("zeta*gamma", w), o("zeta")), "superset counts", w)]


def _top_rows(o: _Oracles, w: int) -> list:
    """b and gamma expanded from their top rows, the route of ``descon table``,
    against the sweep."""
    return [
        (_expand(kind, o.n, w), o(kind, w), f"{kind} top rows vs enumeration", w)
        for kind in ("b", "gamma")
    ]


def _diagonal_conjugation(o: _Oracles, w: int) -> list:
    """a as a diagonal conjugation of zeta, with exact entrywise division;
    with q the least-inversion power of q is an extra column factor."""
    return [(_conjugation(o.n, w), o("a", w), "diagonal conjugation", w)]


def _signed_inverses(o: _Oracles, w: int) -> list:
    """Each top-row inverse times its matrix (swept for b, gamma) vs the
    identity. With q an inverse cell, and so a product cell, sits at offset
    -C(n,2), where the identity holds q**0 in slot C(n,2)."""
    lo = -comb(o.n, 2)
    identity = _identity_rows(o.n, 1 << -lo * w)
    return [
        (_product(o(kind, w), _signed_inverse(kind, o.n, w)), identity,
         f"{kind} inverse product", w, lo)
        for kind in ("a", "b", "gamma")
    ]


# A check maps the oracles of one n to its first fault (or None), or to a
# list of comparisons that the runner makes in order.
_INTEGER_CHECKS = (
    ("containment-counts", _containment_counts),
    ("least-inversions", _least_inversions),
    ("zeta-signed-inverse", lambda o: [
        (_product(o("zeta"), o("mobius")), _identity_rows(o.n, 1), "zeta inverse"),
    ]),
    ("superset-closed-form", lambda o: _superset_closed_form(o, 0)),
    ("diagonal-conjugation", lambda o: _diagonal_conjugation(o, 0)),
    ("b-factorization", lambda o: [
        (o("b", 0), o("zeta*gamma", 0), "b enumeration vs zeta*gamma"),
        (o("b", 0), _product(o("a", 0), o("mobius")), "b enumeration vs a*mobius"),
        *_top_rows(o, 0),
    ]),
    ("signed-inverses", lambda o: _signed_inverses(o, 0)),
    ("multiset-counts", lambda o: [
        (o("multiset"), _complemented(_product(o("gamma", 0), o("zeta"))), "multiset counts"),
    ]),
    ("multiset-bijection", _multiset_bijection),
    ("connected-series", _connected_series),
)

_Q_CHECKS = (
    ("q-specialization", lambda o: [
        (_at_q1(o, o(kind, o.w)), o(kind, 0), f"{kind} at q=1") for kind in ("gamma", "a", "b")
    ]),
    ("q-superset-closed-form", lambda o: _superset_closed_form(o, o.w) + _top_rows(o, o.w)),
    ("q-diagonal-conjugation", lambda o: _diagonal_conjugation(o, o.w)),
    ("q-signed-inverses", lambda o: _signed_inverses(o, o.w)),
)


def run_checks(
    max_n: int,
    include_q: bool = False,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the identity suite for all n up to max_n and return one result
    per check, in a fixed order; ``multiset-bijection`` runs and reports
    only up to min(max_n, WALK_MAX_N). A check's seconds are summed over n
    and include every shared oracle it is the first to build."""
    _require_within_cap(max_n, "max_n")
    selected = _INTEGER_CHECKS + (_Q_CHECKS if include_q else ())
    if names is not None:
        wanted = set(names)
        unknown = wanted - {name for name, _fn in selected}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        selected = tuple((name, fn) for name, fn in selected if name in wanted)
    walk = min(max_n, WALK_MAX_N)
    results = [
        CheckResult(name, walk if name == "multiset-bijection" else max_n, True, 0.0)
        for name, _fn in selected
    ]
    for n in range(1, max_n + 1):
        oracles = _Oracles(n, include_q)
        for result, (_name, check) in zip(results, selected):
            if not result.passed or n > result.max_n:
                continue
            start = time.perf_counter()
            detail = check(oracles)
            if isinstance(detail, list):
                detail = next(filter(None, (_matrices_equal(n, *c) for c in detail)), None)
            result.seconds += time.perf_counter() - start
            if detail:
                result.passed, result.detail = False, detail
    return results
