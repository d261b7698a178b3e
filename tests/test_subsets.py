"""Bitmask subsets, compositions, and the factorial weights."""

import itertools
from math import factorial

import pytest

from descon.subsets import (
    SubsetMask,
    cardinality_lex_order,
    count_descent_subset,
    eta,
    eta_q,
    min_inversions,
)


def all_subsets(n):
    return [SubsetMask(n, mask) for mask in range(1 << (n - 1))]


def descent_set(word):
    return {i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]}


def connectivity_set(word):
    # definitional (quadratic) form, independent of the package's scan
    n = len(word)
    return {
        i
        for i in range(1, n)
        if all(word[j] < word[k] for j in range(i) for k in range(i, n))
    }


class TestSubsetMask:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetMask(0, 0)
        with pytest.raises(ValueError):
            SubsetMask(3, 4)
        with pytest.raises(ValueError):
            SubsetMask(3, -1)
        with pytest.raises(ValueError):
            SubsetMask.from_elements(4, [4])

    @pytest.mark.parametrize("n, mask", [(True, 0), (2, True), (3, 1.0)])
    def test_rejects_bools_and_non_integers(self, n, mask):
        with pytest.raises(ValueError):
            SubsetMask(n, mask)

    def test_elements_and_contains(self):
        s = SubsetMask.from_elements(5, [1, 3])
        assert s.elements() == (1, 3)
        assert SubsetMask.from_elements(5, [3]) <= s and not SubsetMask.from_elements(5, [2]) <= s

    def test_bool_elements_are_refused(self):
        with pytest.raises(ValueError, match=r"^element True outside \[2\]$"):
            SubsetMask.from_elements(3, [True])

    def test_complement(self):
        assert SubsetMask.from_elements(4, [2, 3]).complement() == SubsetMask.from_elements(4, [1])
        assert SubsetMask.empty(4).complement() == SubsetMask.full(4)
        for n in range(1, 7):
            for s in all_subsets(n):
                assert s.complement().complement() == s

    def test_set_operations(self):
        a = SubsetMask.from_elements(4, [1])
        b = SubsetMask.from_elements(4, [1, 3])
        assert a <= b and not b <= a
        with pytest.raises(ValueError):
            a <= SubsetMask.empty(5)

    def test_str(self):
        assert str(SubsetMask.empty(4)) == "{}"
        assert str(SubsetMask.from_elements(4, [1, 3])) == "{1,3}"


class TestCompositions:
    def test_subset_to_composition(self):
        assert SubsetMask.from_elements(4, [3]).to_composition() == (3, 1)
        assert SubsetMask.empty(6).to_composition() == (6,)
        assert SubsetMask(1, 0).to_composition() == (1,)

    def test_round_trip_over_all_subsets(self):
        for n in range(1, 11):
            for s in all_subsets(n):
                assert tuple(itertools.accumulate(s.to_composition()))[:-1] == s.elements()

    def test_round_trip_over_all_compositions(self):
        def compositions(m):
            if m == 0:
                yield ()
                return
            for first in range(1, m + 1):
                for rest in compositions(m - first):
                    yield (first, *rest)

        for n in range(1, 11):
            for parts in compositions(n):
                assert SubsetMask.from_elements(n, itertools.accumulate(parts[:-1])).to_composition() == parts


class TestWeights:
    def test_eta_examples(self):
        assert eta(SubsetMask.from_elements(4, [1])) == 6
        assert eta(SubsetMask.from_elements(4, [1, 2])) == 2
        for n in range(1, 8):
            assert eta(SubsetMask.empty(n)) == factorial(n)
            assert eta(SubsetMask.full(n)) == 1

    def test_eta_q_examples(self):
        assert eta_q(SubsetMask.from_elements(4, [1, 2])).coeffs == (1, 1)
        assert eta_q(SubsetMask.empty(3)).coeffs == (1, 2, 2, 1)

    def test_eta_q_specializes_to_eta(self):
        for n in range(1, 11):
            for s in all_subsets(n):
                assert eta_q(s).evaluate(1) == eta(s)

    def test_eta_times_descent_count_is_factorial(self):
        for n in range(1, 11):
            for s in all_subsets(n):
                assert eta(s) * count_descent_subset(s) == factorial(n)

    def test_min_inversions_examples(self):
        for n in range(2, 8):
            assert min_inversions(SubsetMask.empty(n)) == 0
            assert min_inversions(SubsetMask.full(n)) == n * (n - 1) // 2
        assert min_inversions(SubsetMask.from_elements(4, [3])) == 1

    def test_min_inversions_matches_enumeration(self):
        def inversions(word):
            return sum(
                1
                for i in range(len(word))
                for j in range(i + 1, len(word))
                if word[i] > word[j]
            )

        for n in range(1, 7):
            words = list(itertools.permutations(range(1, n + 1)))
            for t in all_subsets(n):
                required = set(t.elements())
                best = min(inversions(w) for w in words if required <= descent_set(w))
                assert min_inversions(t) == best, (n, t)


class TestCounts:
    def test_count_examples(self):
        assert eta(SubsetMask.from_elements(4, [2, 3])) == 2
        assert count_descent_subset(SubsetMask.from_elements(4, [2])) == 6
        for n in range(1, 7):
            assert eta(SubsetMask.empty(n)) == factorial(n)
            assert eta(SubsetMask.full(n)) == 1
            assert count_descent_subset(SubsetMask.full(n)) == factorial(n)
            assert count_descent_subset(SubsetMask.empty(n)) == 1

    def test_counts_match_enumeration(self):
        for n in range(1, 7):
            words = list(itertools.permutations(range(1, n + 1)))
            for s in all_subsets(n):
                wanted = set(s.elements())
                superset = sum(1 for w in words if wanted <= connectivity_set(w))
                subset = sum(1 for w in words if descent_set(w) <= wanted)
                assert superset == eta(s), (n, s)
                assert subset == count_descent_subset(s), (n, s)


def test_cardinality_lex_order():
    assert cardinality_lex_order(4) == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert cardinality_lex_order(1) == [0]
    for bad in (0, -1, True):
        with pytest.raises(ValueError, match="^n must be a positive integer, got "):
            cardinality_lex_order(bad)
    # a permutation of the canonical order, for every n
    for n in range(1, 8):
        assert sorted(cardinality_lex_order(n)) == list(range(1 << (n - 1)))
