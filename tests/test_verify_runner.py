"""The verify runner with substituted builders: the counterexample text of
every matrix comparison, the first failing n, the cap check, and which
oracles a run builds and how often."""

from collections import Counter

import pytest

import descon.matrices as matrices
import descon.permutations as permutations
import descon.verify as verify
from descon.permutations import EnumerationCapError
from descon.rings import LaurentPolynomial
from descon.verify import run_checks

_ORACLE_BUILDERS = (
    "joint_statistics", "zeta_matrix", "mobius_matrix", "multiset_count_matrix", "_tally", "_expand",
)
_AT = "at n=3, S={1,2}, T={1}"
_Q_CHECKS = ("q-specialization", "q-superset-closed-form", "q-diagonal-conjugation", "q-signed-inverses")

# Each matrix that a row names by its public builder is built in verify by
# the builder here: (name in verify, matrix kind, or None where the row
# gives the kind). The packed builders take the slot width last, and
# ``_tally`` takes the tally of S_n first.
_PACKED = {
    "mobius_matrix": ("mobius_matrix", None),
    "multiset_count_matrix": ("multiset_count_matrix", None),
    "b_matrix_direct": ("_tally", "b"),
    "gamma_q_matrix": ("_tally", "gamma"),
    "b_q_matrix_direct": ("_tally", "b"),
    "a_matrix_closed": ("_expand", "a"),
    "a_q_matrix_closed": ("_expand", "a"),
    "block_matrix": ("_expand", None),
    "diagonal_conjugation_matrix": ("_conjugation", None),
    "inverse_closed": ("_signed_inverse", None),
}


def _bump(m, unit=1):
    """m with ``unit`` added to entry ({1,2}, {1}); m is a matrix or an int grid."""
    rows = [list(row) for row in getattr(m, "rows", m)]
    rows[3][1] = rows[3][1] + unit
    return matrices.SubsetMatrix(m.n, m.ring, rows) if hasattr(m, "rows") else rows


def _alter(monkeypatch, name, part=None, sizes=(3,), width=0):
    """Substitute the builder behind verify's matrix ``name`` (see _PACKED)
    by a copy whose entry (S, T) = ({1,2}, {1}) is one more in its constant
    term at the given sizes and, for a packed builder, at slot width
    ``width``. ``part`` picks one matrix kind of a builder that takes the
    kind first. A packed inverse holds q**0 in slot C(3,2) = 3."""
    builder, kind = _PACKED[name]
    kind = part or kind
    tail = (width,) if builder.startswith("_") else ()
    picked = {(kind, n, *tail) if kind else (n, *tail) for n in sizes}
    original = getattr(verify, builder)

    def altered(*args):
        out = original(*args)
        if _key(args) not in picked:
            return out
        return _bump(out, 1 << 3 * width if builder == "_signed_inverse" else 1)

    monkeypatch.setattr(verify, builder, altered)


def _key(args):
    """The arguments of a builder call without the tally of S_n that
    ``_tally`` takes, which is a dict and cannot be hashed."""
    return tuple(a for a in args if not isinstance(a, dict))


def _record(monkeypatch, names):
    calls = []
    for name in names:
        def recorded(*args, _name=name, _original=getattr(verify, name), **kwargs):
            calls.append((_name, _key(args), tuple(sorted(kwargs.items()))))
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
    # a q-check faults its matrices at the width of the q-checks only, since
    # q-specialization compares each with the same builder at width 0
    weighted = check.startswith("q-")
    _alter(monkeypatch, name, part, width=matrices._family_width(3) if weighted else 0)
    (result,) = run_checks(3, include_q=weighted, names=(check,))
    assert (result.passed, result.detail) == (False, detail)


def test_first_failing_n_is_reported_and_other_checks_pass(monkeypatch):
    _alter(monkeypatch, "diagonal_conjugation_matrix", sizes=(3, 4))
    results = run_checks(4)
    failed = [(r.name, r.max_n, r.detail) for r in results if not r.passed]
    assert failed == [("diagonal-conjugation", 4, f"diagonal conjugation {_AT}: 4 != 3")]


def test_multiset_checks_build_no_closed_form(monkeypatch):
    calls = _record(monkeypatch, ("_expand", "_conjugation", "_signed_inverse"))
    assert all(r.passed for r in run_checks(5, names=("multiset-counts", "multiset-bijection")))
    assert calls == []


def test_each_oracle_is_built_once_per_n(monkeypatch):
    calls = _record(monkeypatch, _ORACLE_BUILDERS)
    assert all(r.passed for r in run_checks(4, include_q=True))
    assert {name for name, _args, _kw in calls} == set(_ORACLE_BUILDERS)
    assert max(Counter(calls).values()) == 1


def test_bijection_check_starts_no_sweep(monkeypatch):
    calls = _record(monkeypatch, ("joint_statistics",))
    assert all(r.passed for r in run_checks(4, names=("multiset-bijection",)))
    assert calls == []


def test_the_tally_is_made_once_per_n(monkeypatch):
    # every check of one n reads the one tally of S_n that the runner keeps
    tallied = []
    original = permutations._rank_tally

    def recorded(n):
        tallied.append(n)
        return original(n)

    monkeypatch.setattr(permutations, "_rank_tally", recorded)
    assert all(r.passed for r in run_checks(7, include_q=True))
    assert tallied == list(range(1, 8))


def test_max_n_is_checked_before_any_check_runs(monkeypatch):
    calls = _record(monkeypatch, _ORACLE_BUILDERS)
    monkeypatch.setenv("DESCON_MAX_N", "3")
    with pytest.raises(EnumerationCapError, match="n=4 exceeds the enumeration cap 3"):
        run_checks(4)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="positive integer"):
            run_checks(bad)
    assert calls == []


def test_each_inverse_expands_its_matrix_once(monkeypatch):
    # an inverse is expanded from top rows reversed in q, so its self-check
    # expands the matrix it inverts once, at the width of its products, and
    # no inverse reads the sweep
    swept = []
    monkeypatch.setattr(matrices, "joint_statistics", swept.append)
    calls = []
    original = matrices._expand

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(matrices, "_expand", recorded)
    for q in (False, True):
        for kind in ("a", "b", "gamma"):
            matrices.inverse_closed(kind, 5, q)
    widths = (0, matrices._family_width(5))
    assert calls == [((k, 5, w), {}) for w in widths for k in ("a", "b", "gamma")]
    assert swept == []


def test_signed_inverses_reuse_the_oracles(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("matrix rebuilt for its inverse")

    for name in ("a_matrix_closed", "a_q_matrix_closed", "gamma_matrix", "gamma_q_matrix"):
        monkeypatch.setattr(matrices, name, refuse)
    results = run_checks(4, include_q=True, names=("signed-inverses", "q-signed-inverses"))
    assert all(r.passed for r in results)


def test_passing_q_checks_unpack_no_cell(monkeypatch):
    calls = []
    original = matrices._unpack

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(matrices, "_unpack", counted)
    monkeypatch.setattr(verify, "_unpack", counted)
    assert all(r.passed for r in run_checks(5, include_q=True, names=_Q_CHECKS))
    assert calls == []


def test_passing_checks_walk_no_cell(monkeypatch):
    # every side of every comparison is a list of int lists, so a passing
    # comparison is one ==; a tuple grid against a list grid walks every cell
    def refuse(*_args):
        raise AssertionError("a passing comparison walked its cells")

    monkeypatch.setattr(verify, "_first_mismatch", refuse)
    assert all(r.passed for r in run_checks(6, include_q=True))


@pytest.mark.parametrize("power, detail", [(0, "q^3 != 0"), (-3, "1 != 0")])
def test_inverse_fault_at_an_end_of_the_packed_range(monkeypatch, power, detail):
    # a's inverse at ({1,2}, {}) is 1 + 2/q + 2/q^2 + 1/q^3, which fills every
    # slot from q^-3 = q^-C(3,2) to q^0; a fault at either end reaches the
    # product cell ({1,2}, {}) times a({1,2}, {1,2}) = q^3
    assert matrices.inverse_closed("a", 3, q=True).rows[3][0] == LaurentPolynomial((1, 2, 2, 1), -3)
    original = verify._signed_inverse

    def faulty(kind, n, w):
        rows = original(kind, n, w)
        if (kind, n) == ("a", 3):
            rows[3][0] += 1 << w * (power + 3)
        return rows

    monkeypatch.setattr(verify, "_signed_inverse", faulty)
    (result,) = run_checks(3, include_q=True, names=("q-signed-inverses",))
    assert (result.passed, result.detail) == (
        False, f"weighted a inverse product at n=3, S={{1,2}}, T={{}}: {detail}",
    )
