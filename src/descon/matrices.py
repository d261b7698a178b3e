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

Every matrix of the family splits over direct sums: a connectivity point
of a permutation is a cut into a direct sum, across which descents and
inversions add. So entry (S, T) is zero unless T is inside S, and then it
is the product, over the blocks of [n] cut at the complement of S, of one
*top-row* value v_L(T restricted to the block). :func:`top_rows` builds
v_1, ..., v_n of ``a``, ``b``, ``gamma`` and the containment matrix, plain
or q-weighted, with no enumeration, and :func:`block_row` expands any row
from them. That is the route of the closed-form builders and of
``descon table``, which writes the rows one at a time. Closed-form
builders are capped only by matrix side.

The sweep builders (:func:`gamma_matrix`, :func:`b_matrix_direct` and
their q-versions) are the oracle that ``verify`` checks the top rows
against; they all read one shared sweep of the n! permutations. The dense
products with the containment matrix ``M`` check the identity
``a = M gamma M`` that ties the family together.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable

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
    "top_rows",
    "block_row",
    "block_matrix",
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


def _cut_parts(length: int, mask: int) -> list[int]:
    """Lengths of the blocks of [length] cut at the elements of [length-1]
    that are not in ``mask`` (element i is bit i-1)."""
    parts, run = [], 1
    for i in range(length - 1):
        if mask >> i & 1:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return parts


# Top-row builders: entry L of the result is the top row v_L (the row
# S = [L-1] of the matrix at size L, indexed by the masks T of [L-1]) for
# L = 1..n; entry 0 is unused.


def _a_tops(n: int, q: bool) -> list[list]:
    """Permutations of [L] whose descent set contains T: the multinomial of
    L cut at the complement of T; with q, the Gaussian multinomial times q to
    the least inversion count of those permutations. The last part p of the
    cut contributes binomial(L, p) (with q, the Gaussian binomial times
    q^binomial(p, 2)) to the entry of the first L - p elements."""
    tops: list[list] = [[]]
    for length in range(1, n + 1):
        last = [None]
        for p in range(1, length + 1):
            if q:
                parts = [length - p, p] if p < length else [p]
                last.append(q_multinomial(length, parts).shifted(comb(p, 2)))
            else:
                last.append(comb(length, p))
        row = []
        for t in range(_side(length)):
            p = _cut_parts(length, t)[-1]
            head = length - p
            row.append(tops[head][t & (_side(head) - 1)] * last[p] if head else last[p])
        tops.append(row)
    return tops


def _b_tops(n: int, q: bool) -> list[list]:
    """beta_L(T), the permutations of [L] with descent set exactly T: the
    superset Moebius transform of the top row of ``a``, one pass per bit."""
    tops = _a_tops(n, q)
    for row in tops:
        bit = 1
        while bit < len(row):
            for t in range(len(row)):
                if not t & bit:
                    row[t] = row[t] - row[t | bit]
            bit <<= 1
    return tops


def _gamma_tops(n: int, q: bool) -> list[list]:
    """The connected permutations of [L] with descent set exactly T, by
    splitting off the first connected summand, of length k:
    ``g_L(T) = beta_L(T) - sum over k < L with k not in T of
    g_k(T & [k-1]) * beta_(L-k)(T shifted down by k)``."""
    beta = _b_tops(n, q)
    tops: list[list] = [[]]
    for length in range(1, n + 1):
        row = list(beta[length])
        for t in range(len(row)):
            acc = row[t]
            for k in range(1, length):
                if not t >> (k - 1) & 1:
                    first = tops[k][t & (_side(k) - 1)]
                    if first:
                        acc = acc - first * beta[length - k][t >> k]
            row[t] = acc
        tops.append(row)
    return tops


def _m_tops(n: int, q: bool) -> list[list]:
    """The containment matrix: every top-row entry is 1."""
    return [[]] + [[1] * _side(length) for length in range(1, n + 1)]


_TOP_ROWS = {"a": _a_tops, "b": _b_tops, "gamma": _gamma_tops, "m": _m_tops}


def top_rows(kind: str, n: int, q: bool = False) -> list[list]:
    """The top rows v_1, ..., v_n (at indices 1..n) of the matrix ``kind``
    (``a``, ``b``, ``gamma`` or ``m``), with q the inversion-weighted ones.

    They fix the whole matrix: see :func:`block_row`. Together they hold
    fewer than 2^n ring values and take no enumeration.
    """
    _require_closed_form_size(n)
    if kind not in _TOP_ROWS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'a', 'b', 'gamma' or 'm'")
    if kind == "m" and q:
        raise ValueError("kind 'm' is the containment matrix; it has no weighted version")
    return _TOP_ROWS[kind](n, q)


def block_row(n: int, tops: list[list], s: int) -> list:
    """Row S (mask ``s``) of the matrix whose top rows are ``tops``.

    A connectivity point is a direct-sum cut, across which descents and
    inversions add. So entry (S, T) is zero unless T is inside S, and then
    it is the product, over the blocks of [n] cut at the complement of S,
    of v_L(T restricted to the block). The row is expanded as a Kronecker
    product over the blocks that forms only the nonzero entries.
    """
    zero = tops[1][0] * 0  # the zero of the tops' ring
    parts = _cut_parts(n, s)
    cells = [(u, v) for u, v in enumerate(tops[parts[0]]) if v]
    lo = parts[0]
    for length in parts[1:]:
        top = tops[length]
        if length > 1 or top[0] != 1:  # else the factor is 1 for every cell
            cells = [(t | u << lo, x * v) for u, v in enumerate(top) if v for t, x in cells]
        lo += length
    row = [zero] * _side(n)
    for t, v in cells:
        row[t] = v
    return row


def block_matrix(kind: str, n: int, q: bool = False) -> SubsetMatrix:
    """The matrix ``kind`` (see :func:`top_rows`) expanded from its top rows."""
    tops = top_rows(kind, n, q)
    rows = [block_row(n, tops, s) for s in range(_side(n))]
    return SubsetMatrix(n, POLYNOMIAL if q else INTEGER, rows)


def a_matrix_closed(n: int) -> SubsetMatrix:
    """Superset-count matrix: entry (S, T) counts the permutations whose
    connectivity set contains the complement of S and whose descent set
    contains T.

    Expanded from its top rows, multinomial coefficients built from
    binomials with no division; the entry is 0 unless T is a subset of S.
    """
    return block_matrix("a", n)


def a_q_matrix_closed(n: int) -> SubsetMatrix:
    """Inversion-weighted superset-count matrix.

    Each block contributes a Gaussian multinomial times q to the power of
    the least inversion count its forced descents require; the powers across
    blocks add up to the least inversion count of the whole column subset.
    """
    return block_matrix("a", n, q=True)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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

    Sign 0 counts (integer ring), summing over the inversion counts first
    and keeping one plain int per cell; +1 weighs by ``q**inv`` (polynomial
    ring) and -1 by ``q**-inv`` (Laurent ring).
    """
    side = _side(n)
    full = side - 1
    if not sign:
        by_masks: dict[tuple[int, int], int] = {}
        for (c, d, _inv), count in joint_statistics(n, threads).items():
            by_masks[c, d] = by_masks.get((c, d), 0) + count
        counts = [[0] * side for _ in range(side)]
        for (c, d), count in by_masks.items():
            cols = tuple(cols_of(d))
            for x in rows_of(c):
                row = counts[full ^ x]
                for t in cols:
                    row[t] += count
        return SubsetMatrix(n, INTEGER, counts)
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
    base: SubsetMatrix | None = None,
) -> SubsetMatrix:
    """Closed-form inverse of one of the matrices ``a``, ``b``, ``gamma``.

    For ``a`` and ``gamma`` the inverse is the checkerboard-signed matrix
    itself (with q replaced by 1/q in the weighted case); for ``b`` it is
    built by a separate signed enumeration, and ``b`` itself is only built
    to verify. ``base`` is the matrix itself when the caller has already
    built it; otherwise it is built here. q-inverses live in the Laurent
    ring. With ``verify`` (the default) the product with the original is
    checked to be the identity, exactly; failure raises ArithmeticError
    since it can only mean a transcription bug in the formulas.
    """
    if kind not in ("a", "b", "gamma"):
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'a', 'b' or 'gamma'")
    ring = POLYNOMIAL if q else INTEGER
    if base is not None and (base.n, base.ring) != (n, ring):
        raise ValueError(f"base must be the {ring} matrix for n={n}, got {base!r}")
    if kind == "b":
        inverse = _b_inverse(n, q, threads)
        if not verify:
            return inverse
        if base is None:
            base = b_q_matrix_direct(n, threads) if q else b_matrix_direct(n, threads)
    else:
        if base is None and kind == "a":
            base = a_q_matrix_closed(n) if q else a_matrix_closed(n)
        elif base is None:
            base = gamma_q_matrix(n, threads) if q else gamma_matrix(n, threads)
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
