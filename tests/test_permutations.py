"""Permutation and multiset-word statistics and enumerators."""

import dataclasses
import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descon import permutations, series, verify
from descon.matrices import gamma_matrix, multiset_count_matrix, top_rows
from descon.permutations import (
    EnumerationCapError,
    MultisetWord,
    Permutation,
    connectivity_mask,
    descent_mask,
    enumerate_permutations,
    inversion_count,
    joint_statistics,
    multiset_words,
    reduce_to_multiset,
)
from descon.rings import q_factorial
from descon.series import connected_counts_enumerated, connected_counts_series
from descon.subsets import SubsetMask, eta
from descon.verify import run_checks


def connectivity_quadratic(word):
    # straight from the defining condition: every entry at or before i is
    # below every entry after i
    n = len(word)
    return sum(
        1 << (i - 1)
        for i in range(1, n)
        if all(word[j] < word[k] for j in range(i) for k in range(i, n))
    )


class TestStatistics:
    def test_descent_examples(self):
        assert Permutation((1, 3, 4, 2)).descent_set() == SubsetMask.from_elements(4, [3])
        for n in range(1, 7):
            identity = Permutation(tuple(range(1, n + 1)))
            reversal = Permutation(tuple(range(n, 0, -1)))
            assert identity.descent_set() == SubsetMask.empty(n)
            assert reversal.descent_set() == SubsetMask.full(n)

    def test_connectivity_examples(self):
        assert Permutation((1, 3, 4, 2)).connectivity_set() == SubsetMask.from_elements(4, [1])
        for n in range(1, 7):
            identity = Permutation(tuple(range(1, n + 1)))
            assert identity.connectivity_set() == SubsetMask.full(n)
        for n in range(2, 7):
            # leading maximum blocks every cut point
            word = (n,) + tuple(range(1, n))
            assert Permutation(word).connectivity_set() == SubsetMask.empty(n)

    def test_connectivity_matches_quadratic_definition(self):
        for n in range(1, 7):
            for word in itertools.permutations(range(1, n + 1)):
                assert connectivity_mask(word) == connectivity_quadratic(word), word

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8))
    def test_multiset_connectivity_matches_quadratic_definition(self, word):
        assert connectivity_mask(word) == connectivity_quadratic(word)

    def test_multiset_connectivity_examples(self):
        assert MultisetWord((1, 2, 2)).connectivity_set() == SubsetMask.from_elements(3, [1])
        assert MultisetWord((2, 1, 2)).connectivity_set() == SubsetMask.empty(3)
        assert MultisetWord((1, 1, 1)).connectivity_set() == SubsetMask.empty(3)

    def test_inversions(self):
        assert Permutation((1, 3, 4, 2)).inversions() == 2
        for n in range(1, 7):
            assert Permutation(tuple(range(1, n + 1))).inversions() == 0
            assert Permutation(tuple(range(n, 0, -1))).inversions() == n * (n - 1) // 2

    def test_inversions_zero_only_for_identity(self):
        for word in itertools.permutations(range(1, 6)):
            expected = word == (1, 2, 3, 4, 5)
            assert (inversion_count(word) == 0) == expected

    def test_descent_composition(self):
        assert Permutation((1, 3, 4, 2)).descent_composition() == (3, 1)
        assert Permutation((3, 2, 1)).descent_composition() == (1, 1, 1)
        for n in range(1, 7):
            assert Permutation(tuple(range(1, n + 1))).descent_composition() == (n,)

    def test_connectivity_and_descents_are_disjoint(self):
        for n in range(1, 8):
            for c, d, _inv in joint_statistics(n):
                assert c & d == 0

    def test_empty_descents_iff_identity_iff_full_connectivity(self):
        for n in range(1, 7):
            for word in itertools.permutations(range(1, n + 1)):
                ascending = word == tuple(range(1, n + 1))
                assert (descent_mask(word) == 0) == ascending
                full = (1 << (n - 1)) - 1
                assert (connectivity_mask(word) == full) == ascending


class TestPermutationType:
    def test_validation_reports_position(self):
        with pytest.raises(ValueError, match="position 3"):
            Permutation((1, 2, 5, 3))
        with pytest.raises(ValueError, match="repeated at position 4"):
            Permutation((1, 3, 2, 3))
        with pytest.raises(ValueError):
            Permutation(())

    def test_bool_letters_are_refused(self):
        # True would equal 1, and print as "True"
        with pytest.raises(ValueError, match="^value True at position 1 is not a positive integer$"):
            Permutation((True, 2))
        with pytest.raises(ValueError, match="^value True at position 2 is not a positive integer$"):
            MultisetWord((2, True, 2))

    def test_parse_and_format(self):
        assert Permutation.from_text("1342").word == (1, 3, 4, 2)
        assert Permutation.from_text("1").word == (1,)
        long = "10,3,1,2,4,5,6,7,8,9"
        assert str(Permutation.from_text(long)) == long
        assert str(Permutation((1, 3, 4, 2))) == "1342"

    def test_parse_errors_report_position(self):
        with pytest.raises(ValueError, match="position 3"):
            Permutation.from_text("13a2")
        with pytest.raises(ValueError, match="position 2"):
            Permutation.from_text("10")
        with pytest.raises(ValueError, match="position 2"):
            Permutation.from_text("10,x,3")
        with pytest.raises(ValueError):
            Permutation.from_text("")

    @pytest.mark.parametrize(
        "text, message",
        (
            # a superscript and fullwidth digits pass str.isdigit()
            ("1\u00b2", "character '\u00b2' at position 2 is not a digit 1-9"),
            ("\uff11\uff12\uff13", "character '\uff11' at position 1 is not a digit 1-9"),
            ("2,\u00b9", "entry '\u00b9' at position 2 is not a number"),
            ("1,\uff12", "entry '\uff12' at position 2 is not a number"),
        ),
        ids=("superscript", "fullwidth", "superscript-entry", "fullwidth-entry"),
    )
    def test_only_ascii_digits_parse(self, text, message):
        with pytest.raises(ValueError) as caught:
            Permutation.from_text(text)
        assert str(caught.value) == message

    def test_inverse(self):
        assert Permutation((2, 3, 1)).inverse().word == (3, 1, 2)
        for word in itertools.permutations(range(1, 6)):
            p = Permutation(word)
            assert p.inverse().inverse() == p

    def test_is_connected(self):
        assert Permutation((4, 3, 2, 1)).is_connected()
        assert not Permutation((1, 3, 4, 2)).is_connected()
        assert Permutation((1,)).is_connected()

    def test_is_a_frozen_multiset_word(self):
        p = Permutation((2, 3, 1))
        assert isinstance(p, MultisetWord)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.word = (1, 2, 3)
        assert p == Permutation([2, 3, 1])
        assert hash(p) == hash(Permutation((2, 3, 1)))

    @given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_inherited_statistics_agree_with_definitions(self, word):
        p = Permutation(tuple(word))
        n = len(word)
        assert p.n == n
        assert p.descent_set().elements() == tuple(i for i in range(1, n) if word[i - 1] > word[i])
        assert p.connectivity_set().mask == connectivity_quadratic(word)
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if word[i] > word[j])
        assert p.inversions() == inversions
        assert str(p) == str(MultisetWord(tuple(word)))

    def test_text_uses_commas_past_nine(self):
        nine = Permutation(tuple(range(9, 0, -1)))
        assert str(nine) == "987654321"
        ten = Permutation((10, *range(1, 10)))
        assert str(ten) == "10,1,2,3,4,5,6,7,8,9"
        assert Permutation.from_text(str(ten)) == ten


class TestEnumerators:
    def test_lexicographic_order(self):
        assert [str(p) for p in enumerate_permutations(3)] == [
            "123", "132", "213", "231", "312", "321",
        ]
        assert [p.word for p in enumerate_permutations(1)] == [(1,)]

    def test_count_n8(self):
        assert sum(1 for _ in enumerate_permutations(8)) == factorial(8)

    def test_cap_enforcement(self, monkeypatch):
        # the environment sets no cap: 12 is listed lazily, 13 is refused
        monkeypatch.setenv("DESCON_MAX_N", "3")
        assert next(enumerate_permutations(12)).word == tuple(range(1, 13))
        with pytest.raises(EnumerationCapError, match="^n=13 exceeds the hard ceiling 12"):
            enumerate_permutations(13)
        with pytest.raises(EnumerationCapError, match="ceiling"):
            joint_statistics(13)

    def test_multiset_words_examples(self):
        t = SubsetMask.from_elements(3, [1])
        assert [str(w) for w in multiset_words(t)] == ["122", "212", "221"]
        assert [w.word for w in multiset_words(SubsetMask.empty(3))] == [(1, 1, 1)]
        full_words = [w.word for w in multiset_words(SubsetMask.full(4))]
        assert full_words == sorted(itertools.permutations(range(1, 5)))

    def test_multiset_words_count_and_order(self):
        for n in range(1, 7):
            for mask in range(1 << (n - 1)):
                t = SubsetMask(n, mask)
                words = [w.word for w in multiset_words(t)]
                assert len(words) == factorial(n) // eta(t)
                assert words == sorted(words)
                assert len(set(words)) == len(words)

    def test_multiset_words_equal_distinct_rearrangements(self):
        # lexicographic order, no repeats and n!/eta(t) words in one comparison
        for n in range(1, 9):
            for mask in range(1 << (n - 1)):
                t = SubsetMask(n, mask)
                multiset = [
                    letter
                    for letter, part in enumerate(t.to_composition(), start=1)
                    for _ in range(part)
                ]
                expected = sorted(set(itertools.permutations(multiset)))
                assert [u.word for u in multiset_words(t)] == expected, (n, mask)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stream_is_every_distinct_rearrangement_with_its_mask(self, n):
        # the words and their order are pinned above; here each of the
        # n!/eta(t) words carries the connectivity set of the defining rule:
        # a cut at i only where the letter changes in the sorted word, when
        # the first i letters are all at most the i-th smallest
        for mask in range(1 << (n - 1)):
            t = SubsetMask(n, mask)
            multiset = [
                letter
                for letter, part in enumerate(t.to_composition(), start=1)
                for _ in range(part)
            ]
            changes = [(i, multiset[i - 1]) for i in range(1, n) if multiset[i - 1] < multiset[i]]
            words = list(multiset_words(t))
            assert len(words) == factorial(n) // eta(t)
            for u in words:
                cuts = sum(1 << (i - 1) for i, letter in changes if max(u.word[:i]) == letter)
                assert u.connectivity_set().mask == cuts, u.word

    def test_multiset_enumerators_refuse_oversized_n_at_call_time(self):
        with pytest.raises(EnumerationCapError):
            multiset_words(SubsetMask(13, 0))  # never iterated
        with pytest.raises(EnumerationCapError):
            multiset_count_matrix(13)

    def test_reduce_to_multiset_examples(self):
        w = Permutation((1, 3, 2))
        assert reduce_to_multiset(w, SubsetMask.from_elements(3, [1])).word == (1, 2, 2)
        assert reduce_to_multiset(Permutation((2, 3, 1)), SubsetMask.from_elements(3, [1])).word == (2, 1, 2)
        for n in range(1, 6):
            identity = Permutation(tuple(range(1, n + 1)))
            assert reduce_to_multiset(identity, SubsetMask.full(n)).word == identity.word
        with pytest.raises(ValueError):
            reduce_to_multiset(Permutation((1, 2)), SubsetMask.empty(3))


class TestJointStatistics:
    def test_total_is_factorial(self):
        for n in range(1, 11):
            assert sum(joint_statistics(n).values()) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_marginals_match_independent_routes(self, n):
        # past the per-word oracle's reach: the inversion, connected and
        # descent marginals by routes that share no code with the tally
        by_inv = [0] * (n * (n - 1) // 2 + 1)
        by_d = [0] * (1 << (n - 1))
        connected = 0
        for (c, d, inv), count in joint_statistics(n).items():
            assert c & d == 0, (c, d)
            by_inv[inv] += count
            by_d[d] += count
            connected += 0 if c else count
        assert by_inv == list(q_factorial(n).coeffs)
        assert connected == connected_counts_series(n)[-1]
        assert by_d == top_rows("b", n)[n]

    def test_lists_no_permutation(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the tally must not list permutations")

        monkeypatch.setattr(permutations, "_lex_permutations", refuse)
        assert sum(joint_statistics(9).values()) == factorial(9)

    def test_walk_matches_every_permutation_tallied(self, monkeypatch):
        # the statistics of each word by the public one-word functions
        for n in range(1, 8):
            want = Counter(
                (connectivity_mask(word), descent_mask(word), inversion_count(word))
                for word in itertools.permutations(range(1, n + 1))
            )
            assert dict(joint_statistics(n)) == want, n

    def test_rejects_bool_sizes(self):
        with pytest.raises(ValueError):
            joint_statistics(True)

    def test_each_call_returns_a_tally_of_its_own(self):
        # a caller owns the dict it gets: changing it changes no later tally
        joint = joint_statistics(4)
        want = dict(joint)
        joint[0, 0, 0] = 100
        del joint[next(iter(want))]
        assert joint_statistics(4) == want
        assert sum(sum(row) for row in gamma_matrix(4).rows) == factorial(4)


def test_connected_counts_read_the_shared_sweep(monkeypatch):
    # no pass over the permutations: the counts read the tally of each n as
    # counts (w = 0), and the check that compares them with the series reads
    # the tally that containment-counts made for the same n
    def refuse(*_args):
        raise AssertionError("connected counts must not enumerate permutations")

    tallied = []
    original = permutations._rank_tally

    def recorded(n, w):
        tallied.append((n, w))
        return original(n, w)

    monkeypatch.setattr(permutations, "_lex_permutations", refuse)
    for module in (series, verify):
        monkeypatch.setattr(module, "_rank_tally", recorded)
    assert connected_counts_enumerated(7) == (1, 1, 3, 13, 71, 461, 3447)
    results = run_checks(7, names=("containment-counts", "connected-series"))
    assert [(r.name, r.passed) for r in results] == [
        ("containment-counts", True), ("connected-series", True),
    ]
    assert tallied == [(n, 0) for n in range(1, 8)] * 2


def test_reduction_bijection_through_n7():
    from descon.verify import run_checks

    (result,) = run_checks(7, names=("multiset-bijection",))
    assert result.passed, result.detail
