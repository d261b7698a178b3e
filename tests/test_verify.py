"""The identity-check runner."""

import pytest

from descon import verify
from descon.matrices import SubsetMatrix, zeta_matrix
from descon.permutations import Permutation, enumerate_permutations, reduce_to_multiset
from descon.series import connected_counts_series
from descon.subsets import SubsetMask
from descon.verify import (
    _bijection_detail,
    _first_mismatch,
    _group_inverses,
    _reduce_classes,
    available_checks,
    run_checks,
)


def test_all_checks_pass_through_n3():
    results = run_checks(3, include_q=True)
    assert [r.name for r in results] == list(available_checks(include_q=True))
    assert all(r.passed for r in results)
    assert all(r.detail == "" for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_check_names():
    names = available_checks()
    assert names[0] == "containment-counts"
    assert "signed-inverses" in names
    assert len(available_checks(include_q=True)) == len(names) + 4


def test_names_filter():
    results = run_checks(2, names=("connected-series",))
    assert len(results) == 1 and results[0].name == "connected-series"
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(2, names=("no-such-check",))
    with pytest.raises(ValueError):
        run_checks(0)


def test_connected_series_scans_every_n_it_reports(monkeypatch):
    # a scan that is wrong only at n = 10 must fail a check reported as n <= 10
    scanned = []

    def recording(n):
        scanned.append(n)
        return connected_counts_series(n).count(n) + (n == 10)

    monkeypatch.delenv("DESCON_MAX_N", raising=False)
    monkeypatch.setattr(verify, "connected_count", recording)
    (result,) = run_checks(10, names=("connected-series",))
    assert scanned == list(range(1, 11))
    assert not result.passed
    assert result.detail == "connected counts at n=10: scan 2829326 != series 2829325"


def test_first_mismatch_locates_entry():
    z = zeta_matrix(3)
    rows = [list(row) for row in z.rows]
    rows[2][1] = 5
    tweaked = SubsetMatrix(3, z.ring, rows)
    assert _first_mismatch(z, tweaked) == (2, 1)
    assert _first_mismatch(z, z) is None


def test_sweep_reduction_is_the_public_one():
    for n in range(1, 6):
        perms = list(enumerate_permutations(n))
        subsets = [SubsetMask(n, mask) for mask in range(1 << (n - 1))]
        groups = _group_inverses(n)
        stored = []
        for (d_mask, c_mask), inverses in groups.items():
            for inverse in inverses:
                w = Permutation(inverse).inverse()
                stored.append(w.word)
                assert (w.descent_set().mask, w.connectivity_set().mask) == (d_mask, c_mask)
        # one entry per permutation, groups in the order of their first one
        assert sorted(stored) == [w.word for w in perms]
        firsts = [Permutation(inverses[0]).inverse().word for inverses in groups.values()]
        assert firsts == sorted(firsts)
        # per T, the classes as the object-level loop over the public API
        # meets them, in lexicographic order of their first permutation
        full = (1 << (n - 1)) - 1
        for t in subsets:
            t_bar = full ^ t.mask
            reduced: dict[int, set] = {}
            class_size: dict[int, int] = {}
            for w in perms:
                if w.descent_set().mask & t_bar == t_bar:
                    s_mask = w.connectivity_set().mask
                    reduced.setdefault(s_mask, set()).add(bytes(reduce_to_multiset(w, t).word))
                    class_size[s_mask] = class_size.get(s_mask, 0) + 1
            got_reduced, got_size = _reduce_classes(groups, t)
            assert list(got_reduced.items()) == list(reduced.items()), (n, t.mask)
            assert got_size == class_size, (n, t.mask)


# T = {1} at n = 3: the multiset {1, 2, 2} has the word 122 with connectivity
# set {1} and the words 212 and 221 with the empty one.
_TARGET_N3_T1 = {0b1: {(1, 2, 2)}, 0b0: {(2, 1, 2), (2, 2, 1)}}


def test_bijection_detail_passes_a_true_bijection():
    reduced = {mask: set(words) for mask, words in _TARGET_N3_T1.items()}
    assert _bijection_detail(3, 0b1, reduced, {0b1: 1, 0b0: 2}, _TARGET_N3_T1) is None


def test_bijection_detail_reports_a_collision():
    reduced = {0b1: {(1, 2, 2)}, 0b0: {(2, 1, 2)}}
    detail = _bijection_detail(3, 0b1, reduced, {0b1: 1, 0b0: 2}, _TARGET_N3_T1)
    assert detail == "reduction not injective at n=3, S={}, T={1}"


def test_bijection_detail_reports_a_missed_class():
    reduced = {0b0: {(2, 1, 2), (2, 2, 1)}}
    detail = _bijection_detail(3, 0b1, reduced, {0b0: 2}, _TARGET_N3_T1)
    assert detail == "reduction misses a class at n=3, S={1}, T={1}"


def test_bijection_detail_reports_a_collision_before_a_missed_class():
    reduced = {0b0: {(2, 1, 2)}}
    detail = _bijection_detail(3, 0b1, reduced, {0b0: 2}, _TARGET_N3_T1)
    assert detail == "reduction not injective at n=3, S={}, T={1}"
