"""Exact Laurent polynomial arithmetic and the q-analogues."""

import itertools
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descon.rings import (
    InexactDivisionError,
    LaurentPolynomial,
    q_factorial,
    q_int,
    q_multinomial,
)


def compositions(m):
    """All ordered tuples of positive parts summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first, *rest)


def inversions(word):
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


class TestQPrimitives:
    def test_q_int_examples(self):
        assert q_int(1) == 1
        assert q_int(3).coeffs == (1, 1, 1)
        assert q_int(4).evaluate(1) == 4
        with pytest.raises(ValueError):
            q_int(0)

    def test_q_factorial_examples(self):
        assert q_factorial(0) == 1
        assert q_factorial(3).coeffs == (1, 2, 2, 1)
        assert q_factorial(4).evaluate(1) == 24
        with pytest.raises(ValueError):
            q_factorial(-1)

    def test_q_multinomial_examples(self):
        assert q_multinomial(4, [2, 2]).coeffs == (1, 1, 2, 1, 1)
        assert q_multinomial(5, [5]) == 1
        assert q_multinomial(4, [2, 2]).evaluate(1) == 6

    @pytest.mark.parametrize("m,parts", [(4, [2, 3]), (4, [2, 0, 2]), (4, [])])
    def test_q_multinomial_rejects_bad_parts(self, m, parts):
        with pytest.raises(ValueError):
            q_multinomial(m, parts)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_q_multinomial_counts_multiset_inversions(self, m):
        # independent oracle: sum q^inversions over the distinct words of
        # the multiset with parts[i] copies of letter i
        for parts in compositions(m):
            letters = [i + 1 for i, p in enumerate(parts) for _ in range(p)]
            coeffs = [0] * (inversions(tuple(reversed(letters))) + 1)
            for word in set(itertools.permutations(letters)):
                coeffs[inversions(word)] += 1
            assert q_multinomial(m, list(parts)) == LaurentPolynomial(coeffs), parts

    @pytest.mark.parametrize("m", range(1, 8))
    def test_q_multinomial_palindromic_nonnegative(self, m):
        for parts in compositions(m):
            coeffs = q_multinomial(m, list(parts)).coeffs
            assert all(c >= 0 for c in coeffs)
            assert coeffs == tuple(reversed(coeffs))

    def test_q_factorial_total_at_one(self):
        for j in range(8):
            assert q_factorial(j).evaluate(1) == factorial(j)


class TestIntPolynomial:
    """The polynomial case of the one exact type: no negative power."""

    def test_normalization(self):
        assert LaurentPolynomial((0, 0)) == LaurentPolynomial()
        assert LaurentPolynomial((1, 2, 0)).coeffs == (1, 2)
        assert not LaurentPolynomial()
        assert LaurentPolynomial().max_exp == -1
        q = LaurentPolynomial((0, 1))
        assert (q.coeffs, q.min_exp, q.max_exp) == ((1,), 1, 1)

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            LaurentPolynomial((1.5,))

    def test_arithmetic(self):
        p = LaurentPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p) == 0
        assert (p - 1) == LaurentPolynomial((0, 1))
        assert (1 - p) == LaurentPolynomial((0, -1))
        assert (p + 2).coeffs == (3, 1)
        assert (3 * p).coeffs == (3, 3)
        assert (-p).coeffs == (-1, -1)
        assert p.shifted(2) == LaurentPolynomial((0, 0, 1, 1))

    @given(coeff_lists, coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, j, k):
        p, r = LaurentPolynomial(a, j), LaurentPolynomial(b, k)
        for v in (1, -1, 2):
            assert (p * r).evaluate(v) == p.evaluate(v) * r.evaluate(v)
            assert (p + r).evaluate(v) == p.evaluate(v) + r.evaluate(v)
            assert (p - r).evaluate(v) == p.evaluate(v) - r.evaluate(v)

    def test_exact_div(self):
        p, r = LaurentPolynomial((1, 1)), LaurentPolynomial((1, 1, 1))
        assert (p * r).exact_div(p) == r
        assert LaurentPolynomial().exact_div(p) == 0

    def test_exact_div_remainder_raises(self):
        with pytest.raises(InexactDivisionError):
            LaurentPolynomial((1, 0, 1)).exact_div(LaurentPolynomial((1, 1)))
        with pytest.raises(InexactDivisionError):
            LaurentPolynomial((0, 1)).exact_div(LaurentPolynomial((0, 2)))
        with pytest.raises(InexactDivisionError):
            LaurentPolynomial((1, 0, 1), -2).exact_div(LaurentPolynomial((1, 1), 3))
        with pytest.raises(ZeroDivisionError):
            LaurentPolynomial((1,)).exact_div(LaurentPolynomial())

    def test_substitute_reciprocal_examples(self):
        assert LaurentPolynomial((0, 1, 1, 1)).substitute_reciprocal() == LaurentPolynomial((1, 1, 1), -3)
        assert LaurentPolynomial((5,)).substitute_reciprocal() == 5
        assert LaurentPolynomial((1, 2, 2, 1)).substitute_reciprocal() == LaurentPolynomial((1, 2, 2, 1), -3)

    def test_str(self):
        assert str(LaurentPolynomial()) == "0"
        assert str(LaurentPolynomial((1,))) == "1"
        assert str(LaurentPolynomial((0, 1))) == "q"
        assert str(LaurentPolynomial((1, 2, 2, 1))) == "1+2q+2q^2+q^3"
        assert str(LaurentPolynomial((1, -1, 1))) == "1-q+q^2"

    def test_json_dict(self):
        assert LaurentPolynomial((1, 0, 2)).to_json_dict() == {"min": 0, "coeffs": ["1", "0", "2"]}
        assert LaurentPolynomial().to_json_dict() == {"min": 0, "coeffs": []}
        # no negative power: listed from q^0, leading zeros kept
        assert LaurentPolynomial((0, 0, 3, 1)).to_json_dict() == {"min": 0, "coeffs": ["0", "0", "3", "1"]}


class TestLaurentPolynomial:
    def test_normalization(self):
        assert LaurentPolynomial((0, 1, 0), -2) == LaurentPolynomial((1,), -1)
        zero = LaurentPolynomial((0, 0), 5)
        assert not zero and zero.min_exp == 0

    def test_arithmetic(self):
        a = LaurentPolynomial((1, 1), -1)  # q^-1 + 1
        b = LaurentPolynomial((1, -1), 0)  # 1 - q
        assert a * b == LaurentPolynomial((1, 0, -1), -1)
        assert a + 1 == LaurentPolynomial((1, 2), -1)
        assert a - b == LaurentPolynomial((1, 0, 1), -1)
        assert b - a == LaurentPolynomial((-1, 0, -1), -1)
        assert a - a == 0
        assert a.coeff(-1) == 1 and a.coeff(3) == 0

    def test_mixes_with_polynomials_and_ints(self):
        p = LaurentPolynomial((1, 1))
        lp = LaurentPolynomial((1,), -1)
        assert lp * p == LaurentPolynomial((1, 1), -1)
        assert p * lp == lp * p
        assert lp + p - lp == p
        assert LaurentPolynomial((7,), 0) == 7
        assert 7 - LaurentPolynomial((7,), 0) == 0

    @given(coeff_lists, st.integers(min_value=-5, max_value=5))
    def test_substitute_reciprocal_is_an_involution(self, coeffs, min_exp):
        lp = LaurentPolynomial(coeffs, min_exp)
        assert lp.substitute_reciprocal().substitute_reciprocal() == lp

    def test_evaluate_at_one(self):
        assert LaurentPolynomial((1, 2, 3), -4).evaluate(1) == 6

    def test_str_and_json(self):
        lp = LaurentPolynomial((1, 2, 2, 1), -3)
        assert str(lp) == "q^-3+2q^-2+2q^-1+1"
        assert lp.to_json_dict() == {"min": -3, "coeffs": ["1", "2", "2", "1"]}
        assert LaurentPolynomial((1, 0, 1), -1).to_json_dict() == {"min": -1, "coeffs": ["1", "0", "1"]}
