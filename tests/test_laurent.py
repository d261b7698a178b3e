"""The one exact polynomial type off q**0: shifts of either sign, exact
division and evaluation with a nonzero lowest exponent, hashing that
agrees with equality, and values that refuse change but pickle and copy
(ring operations and formatting are in test_rings.py)."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from hypothesis import given
from hypothesis import strategies as st

from descon.rings import LaurentPolynomial, q_factorial
from descon.subsets import SubsetMask, eta_q

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


class TestShiftedValues:
    def test_shift_of_either_sign_moves_only_the_exponents(self):
        p = LaurentPolynomial((1, 2, 3))
        assert p.shifted(-2) == LaurentPolynomial((1, 2, 3), -2)
        assert p.shifted(-2).coeffs == p.coeffs
        assert p.shifted(-2).shifted(2) == p
        assert p.shifted(0) == p
        assert LaurentPolynomial().shifted(-3) == 0

    def test_exact_div_with_shifted_operands(self):
        p, r = LaurentPolynomial((1, 1)), LaurentPolynomial((1, 1, 1))
        assert (p * r).shifted(3).exact_div(p) == r.shifted(3)
        assert (p * r).exact_div(p.shifted(2)) == r.shifted(-2)
        assert (p * r).shifted(-1).exact_div(r.shifted(4)) == p.shifted(-5)
        assert LaurentPolynomial((0, 0, 6)).exact_div(3) == LaurentPolynomial((0, 0, 2))

    def test_evaluate_with_negative_powers_stays_exact(self):
        assert LaurentPolynomial((1,), -1).evaluate(2) == Fraction(1, 2)
        assert LaurentPolynomial((2, 0, 4), -1).evaluate(2) == 9
        assert isinstance(LaurentPolynomial((2, 0, 4), -1).evaluate(2), int)

    def test_evaluate_returns_a_fraction_where_one_is_proper(self):
        # (1 + q) q^-2 at q = 2, -3 and 5
        for value, want in ((2, Fraction(3, 4)), (-3, Fraction(-2, 9)), (5, Fraction(6, 25))):
            got = LaurentPolynomial((1, 1), -2).evaluate(value)
            assert type(got) is Fraction and got == want
        assert LaurentPolynomial((1, 1), -2).evaluate(-1) == 0
        assert type(LaurentPolynomial((3,), -1).evaluate(1)) is int


class TestHash:
    @given(
        coeff_lists,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-9, max_value=9),
    )
    def test_equal_values_hash_equal(self, coeffs, min_exp, pad_low, pad_high, k):
        value = LaurentPolynomial(coeffs, min_exp)
        padded = LaurentPolynomial([0] * pad_low + coeffs + [0] * pad_high, min_exp - pad_low)
        assert padded == value and hash(padded) == hash(value)
        assert len({value, padded}) == 1
        if min_exp >= 0:
            # the same value written densely from q^0
            dense = LaurentPolynomial([0] * min_exp + coeffs)
            assert dense == value and hash(dense) == hash(value)
        constant = LaurentPolynomial([0] * pad_low + [k], -pad_low)
        assert constant == k and hash(constant) == hash(k)
        assert len({constant, k}) == 1


class TestSealed:
    def test_slots_refuse_assignment_and_deletion(self):
        for name in ("_coeffs", "_min_exp"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q_factorial(3), name, (9,))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(q_factorial(3), name)
        # the cached value is shared, so a write that went through would
        # change every weight built from it
        assert str(eta_q(SubsetMask.from_elements(4, [3]))) == "1+2q+2q^2+q^3"

    def test_negative_powers_survive_pickle_and_copy(self):
        value = LaurentPolynomial((1, 0, -2), -3)
        pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in (*pickled, copy.copy(value), copy.deepcopy(value)):
            assert type(back) is LaurentPolynomial
            assert back == value and hash(back) == hash(value) and repr(back) == repr(value)
