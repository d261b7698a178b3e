"""Dense matrices indexed by the subsets of [n-1], and the builders for the
joint-distribution family: the containment (zeta) matrix and its signed
inverse, the joint descent/connectivity count matrix ``gamma``, the
superset-count matrix ``a``, the half-relaxed matrix ``b``, their
inversion-weighted q-analogues, and the closed-form inverses of all of them.

Matrix indexing convention: entry (S, T) sits at ``rows[S.mask][T.mask]``,
rows and columns in ascending-mask order. Row S of ``gamma`` counts the
permutations whose connectivity set is the *complement* of S and whose
descent set is exactly T; ``a`` relaxes both statistics to containments,
``b`` relaxes only the connectivity side. (Some treatments write C for the
joint count matrix; that letter is reserved here for the connectivity
statistic itself.)

Closed-form builders never enumerate and are capped only by matrix side.
``gamma`` and ``b`` (and their q-analogues) are built from the closed-form
``a`` by fast Moebius transforms, reading ``a = M gamma M`` right to left:
``b = a M^-1`` and ``gamma = M^-1 a M^-1``, where ``M`` is the containment
matrix. Each product with ``M^-1`` is one signed subset-sum pass per bit,
with no enumeration. The sweep builders (:func:`gamma_matrix`,
:func:`b_matrix_direct` and their q-versions) all read one shared sweep of
the n! permutations and serve as the independent oracle for that route.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Iterator

from .permutations import (
    _multiset_tuples,
    _require_within_cap,
    connectivity_mask,
    joint_statistics,
)
from .rings import LaurentPolynomial, q_multinomial
from .subsets import SubsetMask, eta, eta_q, min_inversions

__all__ = [
    "INTEGER",
    "POLYNOMIAL",
    "LAURENT",
    "CLOSED_FORM_CAP",
    "SubsetMatrix",
    "zeta_matrix",
    "mobius_matrix",
    "gamma_matrix",
    "gamma_q_matrix",
    "a_matrix_closed",
    "a_q_matrix_closed",
    "b_gamma_transform",
    "b_matrix_direct",
    "b_q_matrix_direct",
    "inverse_closed",
    "diagonal_conjugation_matrix",
    "multiset_count_matrix",
]

# Ring tags, narrowest first. Both polynomial tags hold LaurentPolynomial
# entries; "polynomial" promises that no entry has a negative power.
INTEGER = "integer"
POLYNOMIAL = "polynomial"
LAURENT = "laurent"
_RINGS = (INTEGER, POLYNOMIAL, LAURENT)

# closed-form builders stop here: side 2^(n-1) entries per row get unwieldy
CLOSED_FORM_CAP = 14


def _side(n: int) -> int:
    return 1 << (n - 1)


def _require_ring(ring: str) -> None:
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}")


def ring_zero(ring: str):
    _require_ring(ring)
    return 0 if ring == INTEGER else LaurentPolynomial()


def ring_one(ring: str):
    _require_ring(ring)
    return 1 if ring == INTEGER else LaurentPolynomial((1,))


class SubsetMatrix:
    """Square matrix over one of the exact rings, indexed by subset masks."""

    __slots__ = ("n", "ring", "rows")

    def __init__(self, n: int, ring: str, rows: Iterable[Iterable]):
        _require_ring(ring)
        frozen = tuple(tuple(row) for row in rows)
        side = _side(n)
        if len(frozen) != side or any(len(row) != side for row in frozen):
            raise ValueError(f"matrix for n={n} must be {side}x{side}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("SubsetMatrix is immutable")

    @classmethod
    def identity(cls, n: int, ring: str = INTEGER) -> "SubsetMatrix":
        one, zero = ring_one(ring), ring_zero(ring)
        side = _side(n)
        return cls(n, ring, [[one if i == j else zero for j in range(side)] for i in range(side)])

    @property
    def side(self) -> int:
        return _side(self.n)

    def entry(self, s: SubsetMask, t: SubsetMask):
        if s.n != self.n or t.n != self.n:
            raise ValueError(f"subset ambient size does not match matrix n={self.n}")
        return self.rows[s.mask][t.mask]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsetMatrix):
            return NotImplemented
        return (self.n, self.ring, self.rows) == (other.n, other.ring, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.ring, self.rows))

    def __matmul__(self, other: "SubsetMatrix") -> "SubsetMatrix":
        if not isinstance(other, SubsetMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"matrix sizes differ: n={self.n} vs n={other.n}")
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}; lift one side first")
        side = self.side
        zero = ring_zero(self.ring)
        out = []
        for arow in self.rows:
            acc = [zero] * side
            for k in range(side):
                a = arow[k]
                if not a:
                    continue
                brow = other.rows[k]
                for j in range(side):
                    b = brow[j]
                    if b:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return SubsetMatrix(self.n, self.ring, out)

    def lift(self, ring: str) -> "SubsetMatrix":
        """Reinterpret over a wider ring (integer -> polynomial -> laurent);
        between the two polynomial rings only the tag changes."""
        _require_ring(ring)
        if ring == self.ring:
            return self
        if _RINGS.index(ring) < _RINGS.index(self.ring):
            raise ValueError(f"cannot narrow {self.ring} matrix to {ring}")
        if self.ring == INTEGER:
            return self.map_entries(lambda v: LaurentPolynomial((v,)), ring)
        return SubsetMatrix(self.n, ring, self.rows)

    def map_entries(self, fn: Callable, ring: str) -> "SubsetMatrix":
        return SubsetMatrix(self.n, ring, [[fn(v) for v in row] for row in self.rows])

    def checkerboard_signed(self) -> "SubsetMatrix":
        """Negate every entry whose row and column cardinalities differ in
        parity: entry (S, T) gains the factor (-1)^(#S + #T)."""
        parity = [m.bit_count() & 1 for m in range(self.side)]
        out = []
        for i, row in enumerate(self.rows):
            pi = parity[i]
            out.append([-v if pi ^ parity[j] else v for j, v in enumerate(row)])
        return SubsetMatrix(self.n, self.ring, out)

    def specialize_q1(self) -> "SubsetMatrix":
        """Substitute q = 1, returning an integer matrix."""
        if self.ring == INTEGER:
            return self
        return self.map_entries(lambda p: p.evaluate(1), INTEGER)

    def substitute_reciprocal(self) -> "SubsetMatrix":
        """Apply q -> 1/q entrywise; the result lives in the Laurent ring."""
        lifted = self.lift(LAURENT)
        return lifted.map_entries(lambda p: p.substitute_reciprocal(), LAURENT)

    def is_identity(self) -> bool:
        return self == SubsetMatrix.identity(self.n, self.ring)

    def __repr__(self) -> str:
        return f"SubsetMatrix(n={self.n}, ring={self.ring!r})"


def _require_closed_form_size(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > CLOSED_FORM_CAP:
        raise ValueError(f"n={n} exceeds the closed-form cap {CLOSED_FORM_CAP}")


def zeta_matrix(n: int) -> SubsetMatrix:
    """Containment indicator: entry (S, T) is 1 when S contains T.

    Lower-unitriangular in any order refining cardinality.
    """
    _require_closed_form_size(n)
    side = _side(n)
    rows = [[1 if t & ~s == 0 else 0 for t in range(side)] for s in range(side)]
    return SubsetMatrix(n, INTEGER, rows)


def mobius_matrix(n: int) -> SubsetMatrix:
    """Signed containment matrix: (-1)^(#S + #T) when S contains T.

    Exact inverse of :func:`zeta_matrix`.
    """
    return zeta_matrix(n).checkerboard_signed()


def _complement_elements(n: int, mask: int) -> list[int]:
    return [i + 1 for i in range(n - 1) if not mask >> i & 1]


def _entry_blocks(n: int, s_mask: int, t_mask: int) -> list[tuple[int, list[int]]]:
    """Blocks of [n] cut at the complement of S, each further split at the
    complement of T. Assumes T is a subset of S, so every block boundary is
    itself a split point."""
    tbar = _complement_elements(n, t_mask)
    boundaries = [0, *_complement_elements(n, s_mask), n]
    blocks = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        points = [lo, *(e for e in tbar if lo < e < hi), hi]
        blocks.append((hi - lo, [b - a for a, b in zip(points, points[1:])]))
    return blocks


def _multinomial(parts: list[int]) -> int:
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def _a_rows(n: int) -> list[list[int]]:
    side = _side(n)
    rows = []
    for s in range(side):
        row = []
        for t in range(side):
            if t & ~s:
                row.append(0)
            else:
                value = 1
                for length, parts in _entry_blocks(n, s, t):
                    value *= _multinomial(parts)
                row.append(value)
        rows.append(row)
    return rows


def _a_q_rows(n: int) -> list[list[LaurentPolynomial]]:
    side = _side(n)
    zero = LaurentPolynomial()
    rows = []
    for s in range(side):
        row = []
        for t in range(side):
            if t & ~s:
                row.append(zero)
            else:
                value = LaurentPolynomial((1,))
                shift = 0
                for length, parts in _entry_blocks(n, s, t):
                    shift += sum(comb(p, 2) for p in parts)
                    value = value * q_multinomial(length, parts)
                row.append(value.shifted(shift))
        rows.append(row)
    return rows


def a_matrix_closed(n: int) -> SubsetMatrix:
    """Superset-count matrix: entry (S, T) counts the permutations whose
    connectivity set contains the complement of S and whose descent set
    contains T.

    Assembled blockwise as a product of multinomial coefficients, with no
    division anywhere; the entry is 0 unless T is a subset of S.
    """
    _require_closed_form_size(n)
    return SubsetMatrix(n, INTEGER, _a_rows(n))


def a_q_matrix_closed(n: int) -> SubsetMatrix:
    """Inversion-weighted superset-count matrix.

    Each block contributes a Gaussian multinomial times q to the power of
    the least inversion count its forced descents require; the powers across
    blocks add up to the least inversion count of the whole column subset.
    """
    _require_closed_form_size(n)
    return SubsetMatrix(n, POLYNOMIAL, _a_q_rows(n))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _times_mobius(rows: list[list]) -> None:
    """In place, ``rows <- rows @ mobius``: the superset Moebius transform
    over the columns of each row, one signed pass per bit, so that entry
    (S, T) becomes the sum over U containing T of (-1)^(#U - #T) times
    entry (S, U).

    Reads and writes only the cells with T inside S, where every matrix of
    this family lives; the other cells must be zero and stay untouched.
    """
    for s, row in enumerate(rows):
        bit = 1
        while bit <= s:
            if s & bit:
                for t in _submasks(s ^ bit):
                    v = row[t | bit]
                    if v:
                        row[t] = row[t] - v
            bit <<= 1


def _mobius_times(rows: list[list]) -> None:
    """In place, ``rows <- mobius @ rows``: the subset Moebius transform
    over the rows, one signed pass per bit, so that row S becomes the sum
    over U inside S of (-1)^(#S - #U) times row U.

    Same support condition as :func:`_times_mobius`.
    """
    side = len(rows)
    bit = 1
    while bit < side:
        for s in range(side):
            if s & bit:
                src, dst = rows[s ^ bit], rows[s]
                for t in _submasks(s ^ bit):
                    v = src[t]
                    if v:
                        dst[t] = dst[t] - v
        bit <<= 1


def b_gamma_transform(n: int, q: bool = False) -> Iterator[SubsetMatrix]:
    """Yield the half-relaxed matrix ``b = a @ mobius`` and then the joint
    count matrix ``gamma = mobius @ a @ mobius`` (``b(q)`` and ``gamma(q)``
    with q), both from one closed-form ``a`` and with no enumeration.

    A superset Moebius pass over the columns of each row turns ``a`` into
    ``b``; a subset Moebius pass over the rows then turns ``b`` into
    ``gamma``. Each pass costs at most (n-1) 3^(n-2) ring operations. The
    rows are transformed in place, so no second dense copy of ``a`` is
    kept, and ``gamma`` is only computed when the caller asks for it.

    Equals :func:`b_matrix_direct` and :func:`gamma_matrix` (or
    :func:`b_q_matrix_direct` and :func:`gamma_q_matrix`).
    """
    _require_closed_form_size(n)
    ring = POLYNOMIAL if q else INTEGER
    rows = _a_q_rows(n) if q else _a_rows(n)
    _times_mobius(rows)
    yield SubsetMatrix(n, ring, rows)
    _mobius_times(rows)
    yield SubsetMatrix(n, ring, rows)


def _tally(
    n: int,
    threads: int,
    rows_of: Callable[[int], Iterable[int]],
    cols_of: Callable[[int], Iterable[int]],
    sign: int,
) -> SubsetMatrix:
    """Scatter the shared sweep: each permutation with connectivity mask c
    and descent mask d adds ``q**(sign * inv(w))`` to every cell (S, T)
    whose S is the complement of a mask in ``rows_of(c)`` and whose T is in
    ``cols_of(d)``. With :func:`_single` a statistic is taken exactly, with
    :func:`_submasks` it is relaxed to containment.

    Sign 0 counts (integer ring); +1 weighs by ``q**inv`` (polynomial
    ring) and -1 by ``q**-inv`` (Laurent ring).
    """
    side = _side(n)
    full = side - 1
    cells: list[list[dict[int, int] | None]] = [[None] * side for _ in range(side)]
    for (c, d, inv), count in joint_statistics(n, threads).items():
        exp = sign * inv
        cols = tuple(cols_of(d))
        for x in rows_of(c):
            row = cells[full ^ x]
            for t in cols:
                cell = row[t]
                if cell is None:
                    cell = row[t] = {}
                cell[exp] = cell.get(exp, 0) + count
    if not sign:
        rows = [[0 if cell is None else cell[0] for cell in row] for row in cells]
        return SubsetMatrix(n, INTEGER, rows)
    zero = LaurentPolynomial()
    rows = []
    for row in cells:
        out = []
        for cell in row:
            if cell is None:
                out.append(zero)
                continue
            lo = min(cell)
            coeffs = [0] * (max(cell) - lo + 1)
            for exp, count in cell.items():
                coeffs[exp - lo] = count
            out.append(LaurentPolynomial(coeffs, lo))
        rows.append(out)
    return SubsetMatrix(n, POLYNOMIAL if sign > 0 else LAURENT, rows)


def _single(mask: int) -> tuple[int]:
    return (mask,)


def gamma_matrix(n: int, threads: int = 1) -> SubsetMatrix:
    """Joint count matrix: entry (S, T) counts the permutations whose
    connectivity set is exactly the complement of S and whose descent set is
    exactly T. Built by one pass over all n! permutations."""
    return _tally(n, threads, _single, _single, 0)


def gamma_q_matrix(n: int, threads: int = 1) -> SubsetMatrix:
    """Joint count matrix refined by inversions: each permutation contributes
    q**inv(w) instead of 1. Specializes to :func:`gamma_matrix` at q=1."""
    return _tally(n, threads, _single, _single, 1)


def b_matrix_direct(n: int, threads: int = 1) -> SubsetMatrix:
    """Entry (S, T) counts the permutations whose connectivity set contains
    the complement of S and whose descent set is exactly T; built straight
    from the enumeration sweep, independently of any matrix product."""
    return _tally(n, threads, _submasks, _single, 0)


def b_q_matrix_direct(n: int, threads: int = 1) -> SubsetMatrix:
    """Inversion-weighted version of :func:`b_matrix_direct`."""
    return _tally(n, threads, _submasks, _single, 1)


def _b_inverse(n: int, q: bool, threads: int) -> SubsetMatrix:
    """Signed relaxed-descent counts: entry (S, T) is (-1)^(#S + #T) times
    the number of permutations whose connectivity set is exactly the
    complement of S and whose descent set contains T; with q, each one
    weighs q**(-inv(w))."""
    return _tally(n, threads, _single, _submasks, -1 if q else 0).checkerboard_signed()


def inverse_closed(
    kind: str,
    n: int,
    q: bool = False,
    threads: int = 1,
    verify: bool = True,
) -> SubsetMatrix:
    """Closed-form inverse of one of the matrices ``a``, ``b``, ``gamma``.

    For ``a`` and ``gamma`` the inverse is the checkerboard-signed matrix
    itself (with q replaced by 1/q in the weighted case); for ``b`` it is
    built by a separate signed enumeration, and ``b`` itself is only built
    to verify. q-inverses live in the Laurent ring. With ``verify`` (the
    default) the product with the original is checked to be the identity,
    exactly; failure raises ArithmeticError since it can only mean a
    transcription bug in the formulas.
    """
    if kind == "b":
        inverse = _b_inverse(n, q, threads)
        if not verify:
            return inverse
        base = b_q_matrix_direct(n, threads) if q else b_matrix_direct(n, threads)
    else:
        if kind == "a":
            base = a_q_matrix_closed(n) if q else a_matrix_closed(n)
        elif kind == "gamma":
            base = gamma_q_matrix(n, threads) if q else gamma_matrix(n, threads)
        else:
            raise ValueError(f"unknown matrix kind {kind!r}; expected 'a', 'b' or 'gamma'")
        inverse = (base.substitute_reciprocal() if q else base).checkerboard_signed()
    if verify:
        product = base.lift(inverse.ring) @ inverse
        if not product.is_identity():
            raise ArithmeticError(
                f"closed-form inverse of {kind} (n={n}, q={q}) failed the identity check"
            )
    return inverse


def diagonal_conjugation_matrix(n: int, q: bool = False) -> SubsetMatrix:
    """The containment matrix conjugated by the diagonal of complement
    weights: entry (S, T) is weight(complement S) / weight(complement T)
    when S contains T and 0 otherwise, with the least-inversion power of q
    as an extra column factor in the weighted case.

    Every division is checked exact; a remainder raises, since it would
    contradict the closed form for the superset counts.
    """
    _require_closed_form_size(n)
    side = _side(n)
    zero = ring_zero(POLYNOMIAL if q else INTEGER)
    rows = []
    for s in range(side):
        s_bar = SubsetMask(n, s).complement()
        row = []
        for t in range(side):
            if t & ~s:
                row.append(zero)
                continue
            t_bar = SubsetMask(n, t).complement()
            if q:
                shift = min_inversions(SubsetMask(n, t))
                row.append((eta_q(s_bar).shifted(shift)).exact_div(eta_q(t_bar)))
            else:
                ratio, rem = divmod(eta(s_bar), eta(t_bar))
                if rem:
                    raise ArithmeticError(
                        f"eta ratio not exact at n={n}, S={SubsetMask(n, s)}, T={SubsetMask(n, t)}"
                    )
                row.append(ratio)
        rows.append(row)
    return SubsetMatrix(n, POLYNOMIAL if q else INTEGER, rows)


def multiset_count_matrix(n: int) -> SubsetMatrix:
    """Entry (S, T) counts the words of the multiset of T whose connectivity
    set is exactly S, by streaming every rearrangement as a plain tuple.
    The cap is checked before the matrix is allocated.

    Equals the product (gamma times zeta) with both indices complemented.
    """
    _require_within_cap(n, None)
    side = _side(n)
    rows = [[0] * side for _ in range(side)]
    for t in range(side):
        for word in _multiset_tuples(SubsetMask(n, t)):
            rows[connectivity_mask(word)][t] += 1
    return SubsetMatrix(n, INTEGER, rows)
