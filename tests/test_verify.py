"""The identity-check runner."""

import pytest

from descon import verify
from descon.matrices import _containment_rows
from descon.permutations import Permutation, enumerate_permutations, reduce_to_multiset
from descon.subsets import SubsetMask
from descon.verify import (
    _bijection_detail,
    _first_mismatch,
    _group_inverses,
    _late_marks,
    _reduce_classes,
    run_checks,
)


def test_all_checks_pass_through_n3():
    results = run_checks(3, include_q=True)
    assert tuple(r.name for r in results) == (
        "containment-counts", "least-inversions", "zeta-signed-inverse", "superset-closed-form",
        "diagonal-conjugation", "b-factorization", "signed-inverses", "multiset-counts",
        "multiset-bijection", "connected-series",
        "q-specialization", "q-superset-closed-form", "q-diagonal-conjugation", "q-signed-inverses",
    )
    assert all(r.passed for r in results)
    assert all(r.detail == "" for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_names_filter():
    results = run_checks(2, names=("connected-series",))
    assert len(results) == 1 and results[0].name == "connected-series"
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(2, names=("no-such-check",))
    with pytest.raises(ValueError):
        run_checks(0)


def test_connected_series_scans_every_n_it_reports(monkeypatch):
    # a tally whose connected count is wrong only at n = 10 must fail a
    # check reported as n <= 10
    scanned = []
    original = verify._rank_tally

    def recording(n, w):
        scanned.append(n)
        tally = original(n, w)
        if n == 10:
            tally[0, 0] = 1  # no permutation has c = d = 0
        return tally

    monkeypatch.setattr(verify, "_rank_tally", recording)
    (result,) = run_checks(10, names=("connected-series",))
    assert scanned == list(range(1, 11))
    assert not result.passed
    assert result.detail == "connected counts at n=10: sweep 2829326 != series 2829325"


def test_first_mismatch_locates_entry():
    # cell (2, 1) is off the support of zeta(3): a cell on one side only is found
    z = _containment_rows(3)
    tweaked = [dict(row) for row in z]
    tweaked[2][1] = 5
    assert _first_mismatch(z, tweaked) == (2, 1)
    assert _first_mismatch(z, z) is None


def _words(blob, n):
    return [tuple(blob[i:i + n]) for i in range(0, len(blob), n)]


def test_sweep_reduction_is_the_public_one():
    for n in range(1, 6):
        perms = list(enumerate_permutations(n))
        subsets = [SubsetMask(n, mask) for mask in range(1 << (n - 1))]
        groups = _group_inverses(n)
        stored = []
        for (d_mask, c_mask), blob in groups.items():
            for inverse in _words(blob, n):
                w = Permutation(inverse).inverse()
                stored.append(w.word)
                assert (w.descent_set().mask, w.connectivity_set().mask) == (d_mask, c_mask)
        # one entry per permutation, groups in the order of their first inverse
        assert sorted(stored) == [w.word for w in perms]
        firsts = [tuple(blob[:n]) for blob in groups.values()]
        assert firsts == sorted(firsts)
        # per T, the classes as the object-level loop over the public API
        # meets them, in lexicographic order of their first inverse
        full = (1 << (n - 1)) - 1
        for t in subsets:
            t_bar = full ^ t.mask
            reduced: dict[int, list] = {}
            for w in (u.inverse() for u in perms):
                if w.descent_set().mask & t_bar == t_bar:
                    s_mask = w.connectivity_set().mask
                    reduced.setdefault(s_mask, []).append(reduce_to_multiset(w, t).word)
            got = _reduce_classes(groups, t)
            assert list(got) == list(reduced), (n, t.mask)
            for s_mask, words in reduced.items():
                assert sorted(_words(got[s_mask], n)) == sorted(words), (n, t.mask, s_mask)


# T = {1} at n = 3: the multiset {1, 2, 2} has the word 122 with connectivity
# set {1} and the words 212 and 221 with the empty one, so column T of the
# multiset count matrix reads 2, 1, 0, 0 over S = {}, {1}, {2}, {1,2}.
_COLUMN_N3_T1 = [2, 1, 0, 0]


def test_bijection_detail_passes_a_true_bijection():
    classes = {0b1: bytes((1, 2, 2)), 0b0: bytes((2, 1, 2, 2, 2, 1))}
    assert _bijection_detail(3, 0b1, classes, _COLUMN_N3_T1) is None


def test_bijection_detail_reports_a_collision():
    classes = {0b1: bytes((1, 2, 2)), 0b0: bytes((2, 1, 2, 2, 1, 2))}
    detail = _bijection_detail(3, 0b1, classes, _COLUMN_N3_T1)
    assert detail == "reduction not injective at n=3, S={}, T={1}"


def test_bijection_detail_reports_a_missed_class():
    classes = {0b0: bytes((2, 1, 2, 2, 2, 1))}
    detail = _bijection_detail(3, 0b1, classes, _COLUMN_N3_T1)
    assert detail == "reduction misses a class at n=3, S={1}, T={1}"


def test_bijection_detail_reports_a_collision_before_a_missed_class():
    classes = {0b0: bytes((2, 1, 2, 2, 1, 2))}
    detail = _bijection_detail(3, 0b1, classes, _COLUMN_N3_T1)
    assert detail == "reduction not injective at n=3, S={}, T={1}"


def test_late_marks_read_every_word():
    # at n = 4, T = {1,3}: 1223 is cut at 1 and 3, 2123 at 3 only, 2132 nowhere
    t = SubsetMask.from_elements(4, [1, 3])
    blob = bytes((1, 2, 2, 3, 2, 1, 2, 3, 2, 1, 3, 2))
    assert _late_marks(blob, 4, t) == {1: b"\0\1\1", 3: b"\0\0\1"}


def _substitute_inverse(monkeypatch, inverse):
    """Make the inverse of 321 read ``inverse`` in the n = 3 sweep of the
    bijection check; 321 is the one permutation of its group (3, 0)."""
    original = verify._group_inverses

    def altered(n):
        groups = original(n)
        if n == 3:
            groups[0b11, 0] = bytes(inverse)
        return groups

    monkeypatch.setattr(verify, "_group_inverses", altered)


def test_bijection_check_reports_a_collision(monkeypatch):
    # 312 is the inverse of 231 too: both reduce to 212 for T = {1}
    _substitute_inverse(monkeypatch, (3, 1, 2))
    (result,) = run_checks(3, names=("multiset-bijection",))
    assert (result.passed, result.detail) == (False, "reduction not injective at n=3, S={}, T={1}")


def test_bijection_check_reports_a_word_of_another_class(monkeypatch):
    # 132 reduces to 122 for T = {1}, cut at 1, in the class of S = {}
    _substitute_inverse(monkeypatch, (1, 3, 2))
    (result,) = run_checks(3, names=("multiset-bijection",))
    assert (result.passed, result.detail) == (
        False, "reduction misses a class at n=3, S={}, T={1}",
    )
