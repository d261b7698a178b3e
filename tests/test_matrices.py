"""Subset-indexed matrices: builders, closed forms, identities, inverses."""

import copy
import pickle
from collections import Counter
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descon.matrices as matrices
from descon.matrices import (
    INTEGER,
    LAURENT,
    POLYNOMIAL,
    SubsetMatrix,
    b_matrix_direct,
    block_matrix,
    block_row,
    diagonal_conjugation_matrix,
    gamma_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    row_stream,
    top_rows,
    zeta_matrix,
)
from descon.permutations import (
    connectivity_mask,
    enumerate_permutations,
    joint_statistics,
    multiset_words,
)
from descon.rings import LaurentPolynomial
from descon.subsets import SubsetMask, cardinality_lex_order, eta

from golden_tables import GOLDEN_GAMMAS

# the one builder of each matrix of the family, each taking (n, q=False)
FAMILY = {"a": partial(block_matrix, "a"), "b": b_matrix_direct, "gamma": gamma_matrix}


def S(n, *elements):
    return SubsetMask.from_elements(n, elements)


def _block_lengths(n, s):
    """The lengths of the blocks of [n] cut at the elements not in mask s."""
    cuts = [i + 1 for i in range(n - 1) if not s >> i & 1]
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def at_q1(matrix):
    return SubsetMatrix(matrix.n, INTEGER, [[v.evaluate(1) for v in row] for row in matrix.rows])


def reordered(matrix, order):
    return tuple(tuple(matrix.rows[r][c] for c in order) for r in order)


class TestSubsetMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SubsetMatrix(3, INTEGER, [[1, 0], [0, 1], [0, 0]])
        with pytest.raises(ValueError):
            SubsetMatrix(3, "rational", [[1]])

    def test_size_validation(self):
        with pytest.raises(ValueError, match="^n must be a positive integer, got True$"):
            SubsetMatrix(True, INTEGER, [[1]])
        for bad in (0, True, 2.0):
            with pytest.raises(ValueError, match="^n must be a positive integer, got "):
                SubsetMatrix.identity(bad)

    def test_immutable(self):
        m = SubsetMatrix.identity(3)
        with pytest.raises(AttributeError):
            m.ring = LAURENT

    def test_weighted_matrices_pickle_and_copy(self):
        for m in (zeta_matrix(3), gamma_matrix(3, q=True), inverse_closed("b", 4, q=True)):
            pickled = [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for back in (*pickled, copy.copy(m), copy.deepcopy(m)):
                assert back == m and hash(back) == hash(m) and back.ring == m.ring

    def test_identity_and_entry(self):
        m = SubsetMatrix.identity(3)
        assert m.entry(S(3, 1), S(3, 1)) == 1
        assert m.entry(S(3, 1), S(3, 2)) == 0
        with pytest.raises(ValueError):
            m.entry(S(4, 1), S(4, 1))

    def test_matmul_takes_the_wider_ring(self):
        # either way round, with the values of the schoolbook product
        z, g, gi = zeta_matrix(3), gamma_matrix(3, q=True), inverse_closed("gamma", 3, q=True)
        for x, y, ring in ((z, g, POLYNOMIAL), (g, z, POLYNOMIAL), (g, gi, LAURENT), (gi, g, LAURENT)):
            assert (x @ y).ring == ring and (x @ y).rows == schoolbook(x, y).rows
        assert g @ gi == SubsetMatrix.identity(3, LAURENT)


def schoolbook(x, y):
    """The dense product with one ring operation per term, zero terms
    included: the reference the sparse product of ``SubsetMatrix.__matmul__``
    is checked against."""
    zero = 0 if x.ring == INTEGER else LaurentPolynomial()
    side = x.side
    rows = [
        [sum((x.rows[i][k] * y.rows[k][j] for k in range(side)), zero) for j in range(side)]
        for i in range(side)
    ]
    return SubsetMatrix(x.n, x.ring, rows)


# small coefficients collide in the slots; huge ones (past 2**64) widen them
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def matrix_pairs(draw):
    """Two matrices of one n and ring; a quarter of the rows are zero."""
    n = draw(st.integers(1, 3))
    ring = draw(st.sampled_from((INTEGER, POLYNOMIAL, LAURENT)))
    side = 1 << (n - 1)
    if ring == INTEGER:
        entry, zero = COEFFS, 0
    else:
        low = -4 if ring == LAURENT else 0
        entry = st.builds(
            LaurentPolynomial, st.lists(COEFFS, max_size=4), st.integers(low, 4)
        )
        zero = LaurentPolynomial()

    def matrix():
        rows = []
        for _ in range(side):
            if draw(st.integers(0, 3)):
                rows.append(draw(st.lists(entry, min_size=side, max_size=side)))
            else:
                rows.append([zero] * side)
        return SubsetMatrix(n, ring, rows)

    return matrix(), matrix()


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(pair=matrix_pairs())
    def test_equals_schoolbook(self, pair):
        x, y = pair
        assert x @ y == schoolbook(x, y)

    @settings(max_examples=30, deadline=None)
    @given(pair=matrix_pairs())
    def test_all_zero_operand(self, pair):
        x, y = pair
        zero = SubsetMatrix(x.n, x.ring, [[v * 0 for v in row] for row in x.rows])
        assert zero @ y == schoolbook(zero, y) == zero
        assert y @ zero == zero

    @pytest.mark.parametrize("c", (1, 3, 2**64 + 1))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_slots_at_their_bound(self, c, sign):
        # the middle coefficient of every cell sums side * span products of
        # two coefficients c, to side * span * c**2 with either sign, past
        # 2**128 for the widest c
        p = LaurentPolynomial((c,) * 5, -2)
        x = SubsetMatrix(3, LAURENT, [[p] * 4] * 4)
        y = SubsetMatrix(3, LAURENT, [[p * sign] * 4] * 4)
        product = x @ y
        assert product == schoolbook(x, y)
        assert product.rows[0][0].coeffs[4] == sign * 4 * 5 * c * c

    def test_cells_stay_in_the_ring(self):
        # int 0 equals the zero polynomial, so only the type shows a cell
        # that no term reached
        for product in (
            zeta_matrix(4) @ gamma_matrix(4, q=True),
            gamma_matrix(4, q=True) @ inverse_closed("gamma", 4, q=True),
        ):
            cells = [v for row in product.rows for v in row]
            assert not all(cells)
            assert all(type(v) is LaurentPolynomial for v in cells)

    def test_ring_and_size_errors(self):
        assert (zeta_matrix(3) @ inverse_closed("a", 3, q=True)).ring == LAURENT  # no ring error
        with pytest.raises(ValueError, match=r"^matrix sizes differ: n=3 vs n=4$"):
            zeta_matrix(3) @ gamma_matrix(4, q=True)
        with pytest.raises(TypeError):
            zeta_matrix(3) @ 2


class TestZetaMobius:
    def test_zeta_entries(self):
        z = zeta_matrix(3)
        assert z.entry(S(3, 1, 2), S(3, 2)) == 1
        assert z.entry(S(3, 1), S(3, 2)) == 0
        full_row = z.rows[S(3, 1, 2).mask]
        assert all(v == 1 for v in full_row)
        assert zeta_matrix(1).rows == ((1,),)

    def test_mobius_entries(self):
        assert mobius_matrix(3).entry(S(3, 1, 2), S(3, 1)) == -1
        assert mobius_matrix(1).rows == ((1,),)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mobius_inverts_zeta(self, n):
        assert zeta_matrix(n) @ mobius_matrix(n) == SubsetMatrix.identity(n)
        assert mobius_matrix(n) @ zeta_matrix(n) == SubsetMatrix.identity(n)


class TestGamma:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_golden_tables(self, n):
        got = reordered(gamma_matrix(n), cardinality_lex_order(n))
        assert got == GOLDEN_GAMMAS[n]

    def test_spot_values(self):
        assert gamma_matrix(4).entry(S(4, 2, 3), S(4, 3)) == 1
        assert gamma_matrix(4).entry(S(4, 1, 2, 3), S(4, 1, 3)) == 4
        assert gamma_matrix(5).entry(S(5, 1, 2, 3, 4), S(5, 1, 3)) == 10
        assert gamma_matrix(1).rows == ((1,),)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_total_and_disjointness(self, n):
        g = gamma_matrix(n)
        assert sum(sum(row) for row in g.rows) == factorial(n)
        # entry (S, T) vanishes when T reaches outside S
        for s in range(g.side):
            for t in range(g.side):
                if t & ~s:
                    assert g.rows[s][t] == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_q_total_is_inversion_generating_function(self, n):
        total = LaurentPolynomial()
        for row in gamma_matrix(n, q=True).rows:
            for cell in row:
                total = total + cell
        expected = LaurentPolynomial((1,))
        for j in range(1, n + 1):
            expected = expected * LaurentPolynomial((1,) * j)
        assert total == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reverse_complement_symmetry(self, n):
        g = gamma_matrix(n)
        width = n - 1

        def reflect(mask):
            out = 0
            for i in range(width):
                if mask >> i & 1:
                    out |= 1 << (width - 1 - i)
            return out

        for s in range(g.side):
            for t in range(g.side):
                assert g.rows[s][t] == g.rows[reflect(s)][reflect(t)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gamma_q_specializes(self, n):
        gq = gamma_matrix(n, q=True)
        assert gq.ring == POLYNOMIAL
        assert at_q1(gq) == gamma_matrix(n)


class TestAClosedForm:
    def test_worked_example(self):
        a = block_matrix("a", 4)
        assert a.entry(S(4, 2, 3), S(4, 3)) == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal_and_corner(self, n):
        a = block_matrix("a", n)
        assert all(a.rows[i][i] == 1 for i in range(a.side))
        assert a.entry(SubsetMask.full(n), SubsetMask.empty(n)) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_enumeration_sandwich(self, n):
        m = zeta_matrix(n)
        assert m @ gamma_matrix(n) @ m == block_matrix("a", n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_entries_re_derived_from_eta_ratio(self, n):
        # independent route: exact division of the complement weights
        a = block_matrix("a", n)
        for s in range(a.side):
            s_weight = eta(SubsetMask(n, s).complement())
            for t in range(a.side):
                if t & ~s:
                    assert a.rows[s][t] == 0
                else:
                    t_weight = eta(SubsetMask(n, t).complement())
                    ratio, rem = divmod(s_weight, t_weight)
                    assert rem == 0
                    assert a.rows[s][t] == ratio

    def test_a_q_spot_value_against_enumeration(self):
        s, t = S(4, 2, 3), S(4, 3)
        s_bar = s.complement()
        weights = LaurentPolynomial()
        witnesses = []
        for w in enumerate_permutations(4):
            if s_bar <= w.connectivity_set() and t <= w.descent_set():
                witnesses.append(str(w))
                weights = weights + LaurentPolynomial((1,), w.inversions())
        assert witnesses == ["1243", "1342", "1432"]
        entry = block_matrix("a", 4, q=True).entry(s, t)
        assert entry == weights == LaurentPolynomial((0, 1, 1, 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_q_matches_enumeration_sandwich(self, n):
        m = zeta_matrix(n)
        assert m @ gamma_matrix(n, q=True) @ m == block_matrix("a", n, q=True)

    def test_a_q_zero_case_and_specialization(self):
        aq = block_matrix("a", 4, q=True)
        assert aq.entry(S(4, 1), S(4, 2)) == LaurentPolynomial()
        assert at_q1(aq) == block_matrix("a", 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonal_conjugation(self, n):
        assert diagonal_conjugation_matrix(n) == block_matrix("a", n)
        assert diagonal_conjugation_matrix(n, q=True) == block_matrix("a", n, q=True)


class TestB:
    def test_spot_values(self):
        b = b_matrix_direct(3)
        assert b.entry(S(3, 1, 2), S(3, 1)) == 2  # 213 and 312
        assert b.entry(SubsetMask.empty(3), SubsetMask.empty(3)) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_three_routes_agree(self, n):
        direct = b_matrix_direct(n)
        assert direct == zeta_matrix(n) @ gamma_matrix(n)
        assert direct == block_matrix("a", n) @ mobius_matrix(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_q_version(self, n):
        direct = b_matrix_direct(n, q=True)
        assert direct == zeta_matrix(n) @ gamma_matrix(n, q=True)
        assert at_q1(direct) == b_matrix_direct(n)


class TestTransformRoute:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 7), q=st.booleans())
    def test_equals_sweep_and_keeps_support(self, n, q):
        routes = (
            (block_matrix("gamma", n, q), gamma_matrix(n, q)),
            (block_matrix("b", n, q), b_matrix_direct(n, q)),
        )
        for expanded, swept in routes:
            assert expanded == swept
            for matrix in (expanded, swept):
                for s in range(matrix.side):
                    for t in range(matrix.side):
                        if t & ~s:
                            assert not matrix.rows[s][t]

    @pytest.mark.parametrize("q", (False, True))
    def test_sampled_row_mobius_check(self, q):
        # gamma = M^-1 b, so row S of gamma is the signed sum of the b rows
        # of the subsets U of S: the check of one sampled row past the cap
        for n in range(1, 6):
            b_tops, gamma_tops = top_rows("b", n, q), top_rows("gamma", n, q)
            for s in range(1 << (n - 1)):
                total = [0] * (1 << (n - 1))
                for u in range(1 << (n - 1)):
                    if not u & ~s:
                        sign = -1 if bin(s ^ u).count("1") % 2 else 1
                        row = block_row(n, b_tops, u)
                        total = [x + sign * y for x, y in zip(total, row)]
                assert total == block_row(n, gamma_tops, s)

    @pytest.mark.parametrize("n", (12, 13))
    def test_packed_expansion_equals_the_laurent_products(self, n):
        # every block product of packed top rows stays inside its slots:
        # a carry past the n!.bit_length() + 1 bits would change a cell, and
        # its value at q = 1, which the unpacked integer expansion pins
        full = (1 << (n - 1)) - 1
        rows = (0, full, 0x555 & full, full & ~(1 << 5), full & ~(1 << 2) & ~(1 << 6))
        for kind in ("gamma", "b", "a"):
            packed, value_of = row_stream(kind, n, q=True)
            laurent, counts = top_rows(kind, n, q=True), row_stream(kind, n)[0]
            for s in rows:
                want = {}
                for t in range(full + 1):
                    if not t & ~s:
                        value, start = LaurentPolynomial((1,)), 0
                        for length in _block_lengths(n, s):
                            value *= laurent[length][t >> start & (1 << (length - 1)) - 1]
                            start += length
                        if value:
                            want[t] = value
                got = {t: value_of(x) for t, x in packed(s)}
                assert got == want, (kind, n, s)
                at_one = {t: v.evaluate(1) for t, v in got.items()}
                assert at_one == dict(counts(s)), (kind, n, s)

    def test_row_mask_and_top_rows_are_checked(self):
        tops = top_rows("b", 3)
        for s in (4, 7, -1):
            with pytest.raises(ValueError, match=f"^row mask {s} out of range for n=3$"):
                block_row(3, tops, s)
        cells_of, _value_of = row_stream("b", 4)
        with pytest.raises(ValueError, match="^row mask 9 out of range for n=4$"):
            cells_of(9)
        # top rows that stop at L=3 cannot fill a row at n=5
        with pytest.raises(ValueError, match="^top rows stop at L=3, below n=5$"):
            block_row(5, tops, 0)
        assert block_row(3, tops, 3) == [1, 2, 2, 1]
        assert [t for t, _key in cells_of(7)] == list(range(8))

    def test_rejects_bool_and_oversized_n(self):
        builders = (
            partial(block_matrix, "a"), partial(block_matrix, "a", q=True), partial(top_rows, "gamma"),
            lambda n: diagonal_conjugation_matrix(n, q=True), lambda n: inverse_closed("a", n, q=True),
        )
        for builder in builders:
            with pytest.raises(ValueError):
                builder(True)
            with pytest.raises(ValueError):
                builder(15)


class TestInverses:
    def test_n1_all_kinds(self):
        for kind in ("a", "b", "gamma"):
            assert inverse_closed(kind, 1).rows == ((1,),)

    def test_gamma_inverse_spot_value(self):
        gi = inverse_closed("gamma", 4)
        assert gi.entry(S(4, 1, 2, 3), S(4, 1, 3)) == -4

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("kind", ("a", "b", "gamma"))
    def test_products_are_identity(self, n, kind):
        base = FAMILY[kind](n)
        inv = inverse_closed(kind, n)
        assert base @ inv == inv @ base == SubsetMatrix.identity(n)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("kind", ("a", "b", "gamma"))
    def test_q_products_are_identity(self, n, kind):
        base = FAMILY[kind](n, q=True)
        inv = inverse_closed(kind, n, q=True)
        assert inv.ring == LAURENT
        assert base @ inv == SubsetMatrix.identity(n, LAURENT)

    @pytest.mark.parametrize("kind", ("a", "b", "gamma"))
    def test_packed_reciprocal_equals_the_laurent_one(self, kind):
        # the counts multiplied out from Laurent top rows (for b the superset
        # sums of those of gamma), then q -> 1/q and the sign cell by cell
        for n in range(1, 7):
            tops = top_rows("gamma" if kind == "b" else kind, n, q=True)
            if kind == "b":
                tops = [
                    [sum((row[u] for u in range(len(row)) if not t & ~u), LaurentPolynomial())
                     for t in range(len(row))]
                    for row in tops
                ]
            rows = [block_row(n, tops, s) for s in range(1 << (n - 1))]
            reciprocal = [[v.substitute_reciprocal() for v in row] for row in rows]
            want = SubsetMatrix(n, LAURENT, reciprocal).checkerboard_signed()
            assert inverse_closed(kind, n, q=True) == want, n

    @pytest.mark.parametrize("q", (False, True))
    def test_b_inverse_counts_are_a_relaxed_descent_tally(self, q):
        # the counts of b's inverse, tallied from the sweep: connectivity set
        # exactly the complement of S, descent set containing T, by inversions
        for n in range(1, 8):
            side = 1 << (n - 1)
            by_inv = [[{} for _t in range(side)] for _s in range(side)]
            for (c, d, inv), count in joint_statistics(n).items():
                row = by_inv[(side - 1) ^ c]
                for t in range(side):
                    if not t & ~d:
                        row[t][inv] = row[t].get(inv, 0) + count
            if q:
                counts = SubsetMatrix(n, LAURENT, [
                    [LaurentPolynomial([cell.get(k, 0) for k in range(max(cell, default=-1) + 1)])
                     .substitute_reciprocal() for cell in row] for row in by_inv
                ])
            else:
                sums = [[sum(cell.values()) for cell in row] for row in by_inv]
                counts = SubsetMatrix(n, INTEGER, sums)
            assert inverse_closed("b", n, q=q) == counts.checkerboard_signed(), n

    @pytest.mark.parametrize("q", (False, True))
    def test_inverses_read_no_sweep(self, monkeypatch, q):
        swept = []
        monkeypatch.setattr(matrices, "joint_statistics", swept.append)
        for kind in ("a", "b", "gamma"):
            assert inverse_closed(kind, 6, q=q).n == 6
        assert swept == []

    def test_b_inverse_spot_value(self):
        # (-1)^(2+0) times the number of connected permutations of [3]
        assert inverse_closed("b", 3).entry(S(3, 1, 2), SubsetMask.empty(3)) == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            inverse_closed("zeta", 3)

    def test_verification_catches_corruption(self):
        good = inverse_closed("gamma", 3)
        bad_rows = [list(row) for row in good.rows]
        bad_rows[0][0] = 2
        bad = SubsetMatrix(3, good.ring, bad_rows)
        assert gamma_matrix(3) @ bad != SubsetMatrix.identity(3)


class TestMultisetCounts:
    def test_spot_values(self):
        mc = multiset_count_matrix(3)
        assert mc.entry(S(3, 1), S(3, 1)) == 1  # the word 122
        assert mc.entry(SubsetMask.empty(3), S(3, 1)) == 2  # 212 and 221

    @pytest.mark.parametrize("n", range(1, 9))
    def test_paths_count_the_streamed_words(self, n):
        # the walk over prefix contents against a tally over every word
        mc = multiset_count_matrix(n)
        for t in range(mc.side):
            streamed = Counter(connectivity_mask(u.word) for u in multiset_words(SubsetMask(n, t)))
            assert {s: row[t] for s, row in enumerate(mc.rows) if row[t]} == streamed, (n, t)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_columns_sum_to_the_rearrangement_count(self, n):
        mc = multiset_count_matrix(n)
        for t in range(mc.side):
            assert sum(row[t] for row in mc.rows) == factorial(n) // eta(SubsetMask(n, t)), (n, t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_complemented_product(self, n):
        mc = multiset_count_matrix(n)
        gm = gamma_matrix(n) @ zeta_matrix(n)
        full = mc.side - 1
        for s in range(mc.side):
            for t in range(mc.side):
                assert mc.rows[s][t] == gm.rows[full ^ s][full ^ t], (n, s, t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_column_recovers_connectivity_classes(self, n):
        # with every letter distinct the words are all of the permutations
        mc = multiset_count_matrix(n)
        g = gamma_matrix(n)
        full = mc.side - 1
        for s in range(mc.side):
            assert mc.rows[s][full] == sum(g.rows[full ^ s])
