"""Exact Laurent polynomial arithmetic and the q-analogues."""

from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descon.rings import LaurentPolynomial, q_factorial, q_int


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

    def test_q_int_and_q_factorial_reject_bools(self):
        q_factorial(1), q_factorial(0)  # cached entries that True and False must not hit
        for bad in (True, False):
            with pytest.raises(ValueError):
                q_int(bad)
            with pytest.raises(ValueError):
                q_factorial(bad)

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

    @pytest.mark.parametrize("coeffs, min_exp", [([True, 2], 0), ((1,), False), ([1], 1.5), ((), 0.5)])
    def test_rejects_bools_and_non_integer_exponents(self, coeffs, min_exp):
        # a bool coefficient printed as "True+2q"; a float exponent was stored
        with pytest.raises(TypeError):
            LaurentPolynomial(coeffs, min_exp)

    @pytest.mark.parametrize("flag", (True, False))
    def test_bools_are_no_constants(self, flag):
        # True equals 1 and hashes like it, but is neither 1 nor a coefficient
        p = LaurentPolynomial((int(flag),))
        assert not p == flag and not flag == p
        assert p != flag and flag != p
        assert {p: "p"}.get(flag) is None
        for add in (lambda: p + flag, lambda: flag + p):
            with pytest.raises(TypeError, match="unsupported operand"):
                add()

    def test_arithmetic(self):
        p = LaurentPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p) == 0
        assert (p - 1) == LaurentPolynomial((0, 1))
        assert (1 - p) == LaurentPolynomial((0, -1))
        assert (p + 2).coeffs == (3, 1)
        assert (3 * p).coeffs == (3, 3)
        assert (-p).coeffs == (-1, -1)
        assert LaurentPolynomial((1, 1), 2) == LaurentPolynomial((0, 0, 1, 1))

    @given(coeff_lists, coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, j, k):
        p, r = LaurentPolynomial(a, j), LaurentPolynomial(b, k)
        for v in (1, -1, 2):
            assert (p * r).evaluate(v) == p.evaluate(v) * r.evaluate(v)
            assert (p + r).evaluate(v) == p.evaluate(v) + r.evaluate(v)
            assert (p - r).evaluate(v) == p.evaluate(v) - r.evaluate(v)

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
        assert (a.min_exp, a.coeffs) == (-1, (1, 1))

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
