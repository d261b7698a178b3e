"""The verify runner with substituted builders: the counterexample text of
every matrix comparison, the first failing n, the cap check, and which
oracles a run builds and how often."""

from collections import Counter

import pytest

import descon.matrices as matrices
import descon.permutations as permutations
import descon.verify as verify
from descon.permutations import EnumerationCapError
from descon.verify import run_checks

_ORACLE_BUILDERS = (
    "joint_statistics", "zeta_matrix", "mobius_matrix", "gamma_matrix", "b_matrix_direct",
    "a_matrix_closed", "gamma_q_matrix", "b_q_matrix_direct", "a_q_matrix_closed",
    "block_matrix", "multiset_count_matrix",
)
_AT = "at n=3, S={1,2}, T={1}"


def _bump(m):
    rows = [list(row) for row in m.rows]
    rows[3][1] = rows[3][1] + 1
    return matrices.SubsetMatrix(m.n, m.ring, rows)


def _alter(monkeypatch, name, part=None, sizes=(3,)):
    """Substitute verify.<name> by a copy whose entry (S, T) = ({1,2}, {1})
    is one more at the given sizes. ``part`` picks one matrix kind of a
    builder that takes the kind first (``block_matrix``, ``inverse_closed``)."""
    original = getattr(verify, name)

    def altered(*args, **kwargs):
        out = original(*args, **kwargs)
        if part is not None:
            return _bump(out) if args[:2] == (part, 3) else out
        return _bump(out) if args[0] in sizes else out

    monkeypatch.setattr(verify, name, altered)


def _record(monkeypatch, names):
    calls = []
    for name in names:
        def recorded(*args, _name=name, _original=getattr(verify, name), **kwargs):
            calls.append((_name, args, tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, recorded)
    return calls


@pytest.mark.parametrize(
    "check, name, part, detail",
    [
        ("zeta-signed-inverse", "mobius_matrix", None, f"zeta inverse {_AT}: 1 != 0"),
        ("superset-closed-form", "a_matrix_closed", None, f"superset counts {_AT}: 4 != 3"),
        ("diagonal-conjugation", "diagonal_conjugation_matrix", None,
         f"diagonal conjugation {_AT}: 4 != 3"),
        ("b-factorization", "b_matrix_direct", None, f"b enumeration vs zeta*gamma {_AT}: 3 != 2"),
        ("b-factorization", "a_matrix_closed", None,
         "b enumeration vs a*mobius at n=3, S={1,2}, T={}: 1 != 0"),
        ("b-factorization", "block_matrix", "b", f"b top rows vs enumeration {_AT}: 3 != 2"),
        ("b-factorization", "block_matrix", "gamma",
         f"gamma top rows vs enumeration {_AT}: 2 != 1"),
        ("signed-inverses", "inverse_closed", "a", f"a inverse product {_AT}: 1 != 0"),
        ("signed-inverses", "inverse_closed", "b", f"b inverse product {_AT}: 1 != 0"),
        ("signed-inverses", "inverse_closed", "gamma", f"gamma inverse product {_AT}: 1 != 0"),
        ("multiset-counts", "multiset_count_matrix", None, f"multiset counts {_AT}: 1 != 0"),
        # a count off by one leaves its class the wrong size
        ("multiset-bijection", "multiset_count_matrix", None, f"reduction misses a class {_AT}"),
        ("q-specialization", "gamma_q_matrix", None, f"gamma at q=1 {_AT}: 2 != 1"),
        ("q-specialization", "a_q_matrix_closed", None, f"a at q=1 {_AT}: 4 != 3"),
        ("q-specialization", "b_q_matrix_direct", None, f"b at q=1 {_AT}: 3 != 2"),
        ("q-superset-closed-form", "a_q_matrix_closed", None,
         f"weighted superset counts {_AT}: 1+q+q^2+q^3 != q+q^2+q^3"),
        ("q-superset-closed-form", "block_matrix", "b",
         f"weighted b top rows vs enumeration {_AT}: 1+q+q^2 != q+q^2"),
        ("q-superset-closed-form", "block_matrix", "gamma",
         f"weighted gamma top rows vs enumeration {_AT}: 1+q^2 != q^2"),
        ("q-diagonal-conjugation", "diagonal_conjugation_matrix", None,
         f"weighted diagonal conjugation {_AT}: 1+q+q^2+q^3 != q+q^2+q^3"),
        ("q-signed-inverses", "inverse_closed", "a", f"weighted a inverse product {_AT}: q^3 != 0"),
        ("q-signed-inverses", "inverse_closed", "b", f"weighted b inverse product {_AT}: q^3 != 0"),
        ("q-signed-inverses", "inverse_closed", "gamma",
         f"weighted gamma inverse product {_AT}: q^3 != 0"),
    ],
)
def test_each_comparison_names_its_counterexample(monkeypatch, check, name, part, detail):
    _alter(monkeypatch, name, part)
    (result,) = run_checks(3, include_q=check.startswith("q-"), names=(check,))
    assert (result.passed, result.detail) == (False, detail)


def test_first_failing_n_is_reported_and_other_checks_pass(monkeypatch):
    _alter(monkeypatch, "diagonal_conjugation_matrix", sizes=(3, 4))
    results = run_checks(4)
    failed = [(r.name, r.max_n, r.detail) for r in results if not r.passed]
    assert failed == [("diagonal-conjugation", 4, f"diagonal conjugation {_AT}: 4 != 3")]


def test_multiset_checks_build_no_closed_form(monkeypatch):
    calls = _record(monkeypatch, ("a_q_matrix_closed", "a_matrix_closed", "block_matrix"))
    assert all(r.passed for r in run_checks(5, names=("multiset-counts", "multiset-bijection")))
    assert calls == []


def test_each_oracle_is_built_once_per_n(monkeypatch):
    calls = _record(monkeypatch, _ORACLE_BUILDERS)
    assert all(r.passed for r in run_checks(4, include_q=True))
    assert {name for name, _args, _kw in calls} == set(_ORACLE_BUILDERS)
    assert max(Counter(calls).values()) == 1


def test_bijection_check_starts_no_sweep(monkeypatch):
    monkeypatch.setattr(permutations, "_SWEEPS", {})
    calls = _record(monkeypatch, ("joint_statistics",))
    assert all(r.passed for r in run_checks(4, names=("multiset-bijection",)))
    assert calls == [] and permutations._SWEEPS == {}


def test_max_n_is_checked_before_any_check_runs(monkeypatch):
    calls = _record(monkeypatch, _ORACLE_BUILDERS)
    monkeypatch.setenv("DESCON_MAX_N", "3")
    with pytest.raises(EnumerationCapError, match="n=4 exceeds the enumeration cap 3"):
        run_checks(4)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="positive integer"):
            run_checks(bad)
    assert calls == []


def test_b_inverse_without_verify_builds_no_b(monkeypatch):
    # the counts of a and gamma are the matrix itself, so with verify only
    # b expands a second matrix, and no inverse reads the sweep
    monkeypatch.setattr(permutations, "_SWEEPS", {})
    calls = []
    original = matrices.block_matrix

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(matrices, "block_matrix", recorded)
    for check, want in ((False, []), (True, [(("b", 5, q), {}) for q in (False, True)])):
        calls.clear()
        for q in (False, True):
            for kind in ("a", "b", "gamma"):
                matrices.inverse_closed(kind, 5, q, verify=check)
        assert calls == want, check
        assert permutations._SWEEPS == {}


def test_signed_inverses_reuse_the_oracles(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("matrix rebuilt for its inverse")

    for name in ("a_matrix_closed", "a_q_matrix_closed", "gamma_matrix", "gamma_q_matrix"):
        monkeypatch.setattr(matrices, name, refuse)
    results = run_checks(4, include_q=True, names=("signed-inverses", "q-signed-inverses"))
    assert all(r.passed for r in results)
