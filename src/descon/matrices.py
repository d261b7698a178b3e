"""Dense matrices indexed by the subsets of [n-1], and the builders for the
joint-distribution family: the containment (zeta) matrix and its signed
inverse, the joint descent/connectivity count matrix ``gamma``, the
superset-count matrix ``a``, the half-relaxed matrix ``b``, each plain or
inversion-weighted by a ``q`` flag, and the closed-form inverses of all of them.

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
from them. That is the route of :func:`block_matrix`, the one public
builder of ``a`` and ``b``, of the signed inverses and of ``descon table``,
which writes the rows one at a time. Closed-form builders are capped only
by matrix side.

:func:`gamma_matrix`, plain or with ``q``, is the one public sweep: it
scatters the tally of S_n by statistics through ``_tally``. ``_tally``,
which scatters ``b`` too, is the oracle of ``verify`` for the top rows and
the inverses; ``verify`` hands it the one tally it keeps per n. The dense
products with the containment matrix ``M`` check the identity
``a = M gamma M`` that ties the family together. The multiset count matrix
is a walk over the prefix contents of multiset words, with no word listed;
``verify`` takes its entries as the class sizes of the reduction bijection.

Weighted values are computed on plain ints by Kronecker substitution
q -> 2**w, in signed w-bit slots; a count is the same code at w = 0, where
q -> 1. The packed builders (``_tally``, ``_expand``, ``_signed_inverse``,
``_conjugation``) return int grids at a given w, which the public builders
unpack, each distinct value once. ``verify`` reads the family only through
them, and multiplies and compares grids at w = 0 for counts and, with q, at
a width that holds every product (:func:`_family_width`). A matrix's ring is
the type of all its cells: int for counts, :class:`LaurentPolynomial` with q.
``@`` starts every cell from the zero of both operands, so an integer matrix
times a weighted one needs no cast. ``descon table`` expands packed top rows
into sparse cells (column mask, packed int) and renders each value once.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, product
from math import comb, factorial
from operator import mul
from typing import Callable

from .permutations import _require_within_cap, joint_statistics
from .rings import LaurentPolynomial, _require_int
from .subsets import SubsetMask, _Frozen, eta_q, min_inversions

__all__ = [
    "CLOSED_FORM_CAP",
    "SubsetMatrix",
    "zeta_matrix",
    "mobius_matrix",
    "gamma_matrix",
    "top_rows",
    "block_row",
    "block_matrix",
    "row_stream",
    "inverse_closed",
    "diagonal_conjugation_matrix",
    "multiset_count_matrix",
]

# closed-form builders stop here: side 2^(n-1) entries per row get unwieldy
CLOSED_FORM_CAP = 14


def _side(n: int) -> int:
    return 1 << (n - 1)


def _product(left, right, zero=0) -> list[list]:
    """The product of two square matrices over one ring, summed against the
    nonzero cells of each row of ``right``; ``zero`` starts every cell."""
    nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in right]
    out = []
    for arow in left:
        acc = [zero] * len(right)
        for a, bcells in zip(arow, nonzero):
            if a:
                for j, b in bcells:
                    acc[j] += a * b
        out.append(acc)
    return out


def _family_width(n: int) -> int:
    """One slot width for the weighted matrices at n, their signed inverses
    and every product of two of them: a coefficient counts permutations of
    [n], so is at most n!, and a cell spans at most C(n,2) + 1 powers of q.
    A slot of a product cell sums at most side * span products of two such
    coefficients; two more bits hold its sign."""
    return (factorial(n) ** 2 * (comb(n, 2) + 1) * _side(n)).bit_length() + 2


_ZERO = LaurentPolynomial()


def _unpack(x: int, lo: int, width: int) -> LaurentPolynomial:
    """Read the signed ``width``-bit slots of ``x`` back into the polynomial
    whose slot k is the coefficient of q**(lo + k); a negative slot borrows
    one from the slot above it."""
    if not x:
        return _ZERO
    full = 1 << width
    half = full >> 1
    slot = full - 1
    coeffs = []
    while x:
        c = x & slot
        if c >= half:
            c -= full
        coeffs.append(c)
        x = (x - c) >> width
    return LaurentPolynomial(coeffs, lo)


def _unpacked(n: int, grid: list[list[int]], w: int, lo: int = 0) -> SubsetMatrix:
    """The matrix of a grid packed at slot width ``w`` (0 for counts), slot k
    the coefficient of q**(lo + k); each distinct value is unpacked once."""
    if not w:
        return SubsetMatrix(n, grid)
    values = {x: _unpack(x, lo, w) for x in set().union(*grid)}
    return SubsetMatrix(n, [[values[x] for x in row] for row in grid])


class SubsetMatrix(_Frozen):
    """Square matrix indexed by subset masks. Its ring is the one type of
    all its cells: int, or :class:`LaurentPolynomial` from a builder's ``q``.
    A constant polynomial equals its int, so matrices compare and hash by value."""

    __slots__ = __match_args__ = ("n", "rows")
    n: int
    rows: tuple[tuple, ...]

    def __post_init__(self):
        _require_int(self.n, "n")
        rows = tuple(tuple(row) for row in self.rows)
        side = _side(self.n)
        if len(rows) != side or any(len(row) != side for row in rows):
            raise ValueError(f"matrix for n={self.n} must be {side}x{side}")
        if set(map(type, chain.from_iterable(rows))) not in ({int}, {LaurentPolynomial}):
            raise ValueError("matrix cells must be all int or all LaurentPolynomial")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "SubsetMatrix":
        _require_int(n, "n")
        return cls(n, _identity_rows(n, 1))

    @property
    def side(self) -> int:
        return _side(self.n)

    def entry(self, s: SubsetMask, t: SubsetMask):
        if s.n != self.n or t.n != self.n:
            raise ValueError(f"subset ambient size does not match matrix n={self.n}")
        return self.rows[s.mask][t.mask]

    def __matmul__(self, other: "SubsetMatrix") -> "SubsetMatrix":
        """The product, every cell started from the zero of both operands'
        rings, so an int matrix times a polynomial one has polynomial cells."""
        if not isinstance(other, SubsetMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"matrix sizes differ: n={self.n} vs n={other.n}")
        zero = self.rows[0][0] * 0 + other.rows[0][0] * 0
        return SubsetMatrix(self.n, _product(self.rows, other.rows, zero))

    def checkerboard_signed(self) -> "SubsetMatrix":
        """Negate every entry whose row and column cardinalities differ in
        parity: entry (S, T) gains the factor (-1)^(#S + #T)."""
        parity = [m.bit_count() & 1 for m in range(self.side)]
        out = []
        for i, row in enumerate(self.rows):
            pi = parity[i]
            out.append([-v if pi ^ parity[j] else v for j, v in enumerate(row)])
        return SubsetMatrix(self.n, out)

    def __repr__(self) -> str:
        return f"SubsetMatrix(n={self.n})"


def _require_closed_form_size(n: int) -> None:
    _require_int(n, "n")
    if n > CLOSED_FORM_CAP:
        raise ValueError(f"n={n} exceeds the closed-form cap {CLOSED_FORM_CAP}")


def zeta_matrix(n: int) -> SubsetMatrix:
    """Containment indicator: entry (S, T) is 1 when S contains T.

    Lower-unitriangular in any order refining cardinality.
    """
    _require_closed_form_size(n)
    side = _side(n)
    rows = [[1 if t & ~s == 0 else 0 for t in range(side)] for s in range(side)]
    return SubsetMatrix(n, rows)


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


def _slot_width(n: int, weighted: bool) -> int:
    """The slot width w of q -> 2**w in the builders, 0 for counts. Every
    top-row value, product of them and sweep cell counts permutations of at
    most n letters by inversions, so no coefficient exceeds n! or reaches
    the sign bit of a slot one bit wider than n!."""
    return factorial(n).bit_length() + 1 if weighted else 0


# Top-row builders: entry L of the result is the top row v_L (the row
# S = [L-1] of the matrix at size L, indexed by the masks T of [L-1]) for
# L = 1..n, each value packed by q -> 2**w; entry 0 is unused.
def _a_tops(n: int, w: int) -> list[list[int]]:
    """Permutations of [L] whose descent set contains T, weighted by q**inv:
    the Gaussian multinomial of L cut at the complement of T times q to the
    least inversion count. The last part p of the cut contributes [L, p]
    times q^binomial(p, 2) to the entry of the first L - p elements, with
    the Gaussian binomials from ``[L, p] = [L-1, p-1] + q^p [L-1, p]``."""
    tops: list[list[int]] = [[]]
    binom = [1]  # [L, p] for p = 0..L
    for length in range(1, n + 1):
        binom = [1] + [binom[p - 1] + (binom[p] << w * p) for p in range(1, length)] + [1]
        last = [None] + [binom[p] << w * comb(p, 2) for p in range(1, length + 1)]
        row = []
        for t in range(_side(length)):
            p = _cut_parts(length, t)[-1]
            head = length - p
            row.append(tops[head][t & (_side(head) - 1)] * last[p] if head else last[p])
        tops.append(row)
    return tops


def _superset_pass(tops: list[list[int]], sign: int) -> list[list[int]]:
    """The superset sum (sign +1) or its Moebius inverse (sign -1) of each
    top row, in place, one pass per bit."""
    for row in tops:
        bit = 1
        while bit < len(row):
            for t in range(len(row)):
                if not t & bit:
                    row[t] += sign * row[t | bit]
            bit <<= 1
    return tops


def _b_tops(n: int, w: int) -> list[list[int]]:
    """beta_L(T), the permutations of [L] with descent set exactly T: the
    superset Moebius transform of the top row of ``a``."""
    return _superset_pass(_a_tops(n, w), -1)


def _gamma_tops(n: int, w: int) -> list[list[int]]:
    """The connected permutations of [L] with descent set exactly T, by
    splitting off the first connected summand, of length k:
    ``g_L(T) = beta_L(T) - sum over k < L with k not in T of
    g_k(T & [k-1]) * beta_(L-k)(T shifted down by k)``."""
    beta = _b_tops(n, w)
    tops: list[list[int]] = [[]]
    for length in range(1, n + 1):
        row = list(beta[length])
        for t in range(len(row)):
            acc = row[t]
            for k in range(1, length):
                if not t >> (k - 1) & 1:
                    acc -= tops[k][t & (_side(k) - 1)] * beta[length - k][t >> k]
            row[t] = acc
        tops.append(row)
    return tops


def _h_tops(n: int, w: int) -> list[list[int]]:
    """h_L(T), the connected permutations of [L] whose descent set contains
    T, for the inverse of ``b``: the superset sum of the top row of ``gamma``."""
    return _superset_pass(_gamma_tops(n, w), 1)


def _m_tops(n: int, w: int) -> list[list[int]]:
    """The containment matrix: every top-row entry is 1."""
    return [[]] + [[1] * _side(length) for length in range(1, n + 1)]


_TOP_ROWS = {"a": _a_tops, "b": _b_tops, "gamma": _gamma_tops, "m": _m_tops}


def _packed_tops(kind: str, n: int, q: bool) -> tuple[list[list[int]], int]:
    """The top rows of :func:`top_rows`, every value packed by q -> 2**w,
    and the slot width w (0 for counts)."""
    _require_closed_form_size(n)
    if kind not in _TOP_ROWS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'a', 'b', 'gamma' or 'm'")
    if kind == "m" and q:
        raise ValueError("kind 'm' is the containment matrix; it has no weighted version")
    w = _slot_width(n, q)
    return _TOP_ROWS[kind](n, w), w


def top_rows(kind: str, n: int, q: bool = False) -> list[list]:
    """The top rows v_1, ..., v_n (at indices 1..n) of the matrix ``kind``
    (``a``, ``b``, ``gamma`` or ``m``), with q the inversion-weighted ones.

    They fix the whole matrix: see :func:`block_row`. Together they hold
    fewer than 2^n ring values and take no enumeration.

    >>> top_rows("b", 3)[3]
    [1, 2, 2, 1]
    >>> [str(v) for v in top_rows("b", 3, q=True)[3]]
    ['1', 'q+q^2', 'q+q^2', 'q^3']
    """
    tops, w = _packed_tops(kind, n, q)
    if q:
        return [[_unpack(x, 0, w) for x in row] for row in tops]
    return tops


def _block_cells(n: int, tops: list[list], s: int) -> list[tuple[int, object]]:
    """The nonzero cells ``(column mask, value)`` of row S (mask ``s``) of
    the matrix whose top rows are ``tops``, as a Kronecker product over the
    blocks of [n] cut at the complement of S. On tops packed at the width
    n fixes, the products are the packed products too: every slot of a
    cell counts permutations of [n], so none reaches its sign bit."""
    if not 0 <= s < _side(n):
        raise ValueError(f"row mask {s} out of range for n={n}")
    if len(tops) <= n:
        raise ValueError(f"top rows stop at L={len(tops) - 1}, below n={n}")
    parts = _cut_parts(n, s)
    cells = [(u, v) for u, v in enumerate(tops[parts[0]]) if v]
    lo = parts[0]
    for length in parts[1:]:
        top = tops[length]
        if length > 1 or top[0] != 1:  # else the factor is 1 for every cell
            cells = [(t | u << lo, x * v) for u, v in enumerate(top) if v for t, x in cells]
        lo += length
    return cells


def block_row(n: int, tops: list[list], s: int) -> list:
    """Row S (mask ``s``) of the matrix whose top rows are ``tops``.

    A connectivity point is a direct-sum cut, across which descents and
    inversions add. So entry (S, T) is zero unless T is inside S, and then
    it is the product, over the blocks of [n] cut at the complement of S,
    of v_L(T restricted to the block). Only the nonzero entries are formed
    (:func:`_block_cells`, which checks ``s`` and ``tops``) and scattered.
    """
    cells = _block_cells(n, tops, s)
    row = [tops[1][0] * 0] * _side(n)  # the zero of the tops' ring
    for t, v in cells:
        row[t] = v
    return row


def _expand(kind: str, n: int, w: int) -> list[list[int]]:
    """The rows of the matrix ``kind`` expanded from its top rows packed at
    slot width ``w`` (0 for counts)."""
    tops = _TOP_ROWS[kind](n, w)
    return [block_row(n, tops, s) for s in range(_side(n))]


def block_matrix(kind: str, n: int, q: bool = False) -> SubsetMatrix:
    """The matrix ``kind`` (see :func:`top_rows`) expanded from its top rows,
    with no enumeration. Entry (S, T) of ``a`` counts the permutations whose
    connectivity set contains the complement of S and whose descent set
    contains T, weighted by q**inv with q: per block of the row, a Gaussian
    multinomial times q to the least inversion count its forced descents
    require."""
    tops, w = _packed_tops(kind, n, q)
    return _unpacked(n, [block_row(n, tops, s) for s in range(_side(n))], w)


def row_stream(kind: str, n: int, q: bool = False) -> tuple[Callable, Callable]:
    """``(cells_of, value_of)``: ``cells_of(s)`` lists the nonzero cells
    ``(column mask, key)`` of row S (mask ``s``) of the matrix ``kind`` (see
    :func:`top_rows`), and ``value_of(key)`` is its value; equal values share a key.

    >>> cells_of, value_of = row_stream("b", 3, q=True)
    >>> [(t, str(value_of(key))) for t, key in cells_of(0b11)]
    [(0, '1'), (1, 'q+q^2'), (2, 'q+q^2'), (3, 'q^3')]
    """
    tops, w = _packed_tops(kind, n, q)
    value_of = partial(_unpack, lo=0, width=w) if w else int
    return partial(_block_cells, n, tops), value_of


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _tally(joint: dict[tuple[int, int, int], int], kind: str, n: int, w: int) -> list[list[int]]:
    """Scatter ``joint``, the tally ``joint_statistics(n)``, into the rows of
    ``gamma`` or ``b`` packed at slot width ``w`` (0 for counts): each
    permutation with connectivity mask c, descent mask d and inv inversions
    adds q**inv to the cell (S, d) of every S whose complement is c
    (``gamma``) or inside c (``b``)."""
    side = _side(n)
    full = side - 1
    rows_of = _single if kind == "gamma" else _submasks
    by_masks: dict[tuple[int, int], int] = {}
    for (c, d, inv), count in joint.items():
        by_masks[c, d] = by_masks.get((c, d), 0) + (count << w * inv)
    cells = [[0] * side for _ in range(side)]
    for (c, d), value in by_masks.items():
        for x in rows_of(c):
            cells[full ^ x][d] += value
    return cells


def _single(mask: int) -> tuple[int]:
    return (mask,)


def gamma_matrix(n: int, q: bool = False) -> SubsetMatrix:
    """Joint count matrix: entry (S, T) counts the permutations whose
    connectivity set is exactly the complement of S and whose descent set is
    exactly T; with q each permutation w counts as q**inv(w). Read from the
    tally of all n! permutations."""
    w = _slot_width(n, q)
    return _unpacked(n, _tally(joint_statistics(n), "gamma", n, w), w)


def inverse_closed(kind: str, n: int, q: bool = False) -> SubsetMatrix:
    """Closed-form inverse of one of the matrices ``a``, ``b``, ``gamma``.

    Every inverse is a checkerboard-signed count matrix, with q replaced by
    1/q in the weighted case, expanded from top rows with no enumeration,
    so it is capped only by the closed-form cap. For ``a`` and ``gamma``
    the counts are the matrix itself; for ``b`` they are the relaxed-descent
    counts (connectivity set exactly the complement of S, descent set
    containing T), whose top row is the superset sum of the top row of
    ``gamma``. q-inverses have :class:`LaurentPolynomial` cells with
    powers of q down to -C(n,2). The product with the
    original is checked to be the identity, exactly; failure raises
    ArithmeticError since it can only mean a transcription bug in the
    formulas.
    """
    if kind not in ("a", "b", "gamma"):
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'a', 'b' or 'gamma'")
    _require_closed_form_size(n)
    w = _family_width(n) if q else 0
    inverse = _signed_inverse(kind, n, w)
    if _product(_expand(kind, n, w), inverse) != _identity_rows(n, 1 << w * comb(n, 2)):
        raise ArithmeticError(
            f"closed-form inverse of {kind} (n={n}, q={q}) failed the identity check"
        )
    return _unpacked(n, inverse, w, -comb(n, 2))


def _identity_rows(n: int, one) -> list[list]:
    side = _side(n)
    return [[one if s == t else 0 for t in range(side)] for s in range(side)]


def _signed_inverse(kind: str, n: int, w: int) -> list[list[int]]:
    """The rows of :func:`inverse_closed` packed at slot width ``w`` (0 for
    counts), slot k of a cell the coefficient of q**(k - C(n,2)). Each top
    value v_L, with no negative slot, is reversed over C(L,2) + 1 slots into
    q**C(L,2) v_L(1/q). Each nonzero cell of row S (:func:`_block_cells`)
    then shifts by the C(n,2) - sum C(L_i,2) its blocks L_i leave, and the
    checkerboard sign negates an int."""
    tops = (_h_tops if kind == "b" else _TOP_ROWS[kind])(n, w)
    mask = (1 << w) - 1
    for length, row in enumerate(tops if w else ()):
        top = comb(length, 2)
        row[:] = [sum((x >> w * k & mask) << w * (top - k) for k in range(top + 1)) for x in row]
    rows = []
    for s in range(_side(n)):
        shift = w * (comb(n, 2) - sum(comb(p, 2) for p in _cut_parts(n, s)))
        row = [0] * _side(n)
        for t, x in _block_cells(n, tops, s):
            row[t] = (-x if (s ^ t).bit_count() & 1 else x) << shift
        rows.append(row)
    return rows


def diagonal_conjugation_matrix(n: int, q: bool = False) -> SubsetMatrix:
    """The containment matrix conjugated by the diagonal of complement
    weights: entry (S, T) is weight(complement S) / weight(complement T)
    when S contains T and 0 otherwise, with the least-inversion power of q
    as an extra column factor in the weighted case.

    Every division is checked exact; a remainder raises, since it would
    contradict the closed form for the superset counts.
    """
    _require_closed_form_size(n)
    w = _slot_width(n, q)
    return _unpacked(n, _conjugation(n, w), w)


def _conjugation(n: int, w: int) -> list[list[int]]:
    """The rows of :func:`diagonal_conjugation_matrix` packed at slot width
    ``w`` (0 for counts); no slot of a weight or a ratio is negative."""
    side = _side(n)
    full = side - 1
    # weight[m] is the weight of the complement of the subset with mask m
    weight = [eta_q(SubsetMask(n, full ^ m)).evaluate(1 << w) for m in range(side)]
    shift = [w * min_inversions(SubsetMask(n, t)) for t in range(side)]
    rows = []
    for s in range(side):
        row = [0] * side
        for t in _submasks(s):
            row[t], rem = divmod(weight[s] << shift[t], weight[t])
            if rem:
                raise ArithmeticError(
                    f"eta ratio not exact at n={n}, S={SubsetMask(n, s)}, T={SubsetMask(n, t)}"
                )
        rows.append(row)
    return rows


def multiset_count_matrix(n: int) -> SubsetMatrix:
    """Entry (S, T) counts the words of the multiset of T whose connectivity
    set is exactly S, by a walk over prefix contents (:func:`_cut_paths`)
    with no word listed. The hard ceiling is checked before the matrix is
    allocated.

    Equals the product (gamma times zeta) with both indices complemented.
    Column T = {1} counts 212 and 221 in row {} and 122 in row {1}:

    >>> multiset_count_matrix(3).rows
    ((1, 2, 2, 3), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1))
    """
    _require_within_cap(n)
    side = _side(n)
    w = factorial(n).bit_length()
    rows = [[0] * side for _ in range(side)]
    for t in range(side):
        packed = _cut_paths(SubsetMask(n, t), w)
        for s in _submasks(t):
            rows[s][t] = packed >> s * w & (1 << w) - 1
    return SubsetMatrix(n, rows)


def _cut_paths(t: SubsetMask, w: int) -> int:
    """The words of the multiset of t counted by connectivity mask, in w-bit
    slots: slot S (from bit S*w) counts those with mask S. A word is a path,
    one letter a step, through its prefix contents (how many of each letter
    a prefix uses), here mixed-radix indices that every step raises. Position
    i is a cut exactly when i is in t and the path passes the content with
    every letter up to the one of value i used up and none above."""
    parts = t.to_composition()
    strides = list(accumulate((part + 1 for part in parts), mul, initial=1))
    # strides[j] - 1 is the content with the first j letters used up; no path
    # into it has the bit of its cut yet, so the cut moves every slot up by it
    shifts = {stride - 1: w << (i - 1) for stride, i in zip(strides[1:], t.elements())}
    paths = [0] * strides[-1]
    paths[0] = 1
    for index, used in enumerate(product(*(range(part + 1) for part in reversed(parts)))):
        packed = paths[index] << shifts.get(index, 0)
        for digit, part, stride in zip(reversed(used), parts, strides):
            if digit < part:
                paths[index + stride] += packed
    return packed
