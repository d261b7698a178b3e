"""The verify runner with substituted builders: the counterexample text of
every matrix comparison, the first failing n, the cap check, and which
oracles a run builds and how often."""

from collections import Counter
from math import factorial

import pytest

import descon.matrices as matrices
import descon.verify as verify
from descon.permutations import EnumerationCapError
from descon.rings import LaurentPolynomial
from descon.subsets import SubsetMask
from descon.verify import run_checks

_ORACLE_BUILDERS = ("_rank_tally", "_containment_rows", "_multiset_rows", "_tally", "_expand")
_AT = "at n=3, S={1,2}, T={1}"
_Q_CHECKS = ("q-specialization", "q-superset-closed-form", "q-diagonal-conjugation", "q-signed-inverses")

# Each matrix that a row names by its public builder is built in verify as
# support rows by the builder here: (name in verify, the arguments of its
# call for a matrix kind at size n and slot width w). ``_tally`` takes the
# tally of S_n at a width, so the oracle of its kind is substituted instead.
_PACKED = {
    "mobius_matrix": ("_containment_rows", lambda kind, n, w: (n, True)),
    "multiset_count_matrix": ("_multiset_rows", lambda kind, n, w: (n,)),
    "b_matrix_direct": ("_tally", "b"),
    "gamma_matrix": ("_tally", "gamma"),
    "block_matrix": ("_expand", lambda kind, n, w: (kind, n, w)),
    "diagonal_conjugation_matrix": ("_conjugation", lambda kind, n, w: (n, w)),
    "inverse_closed": ("_signed_inverse", lambda kind, n, w: (kind, n, w)),
}


def _bump(rows, unit=1):
    """Support rows with ``unit`` added to entry ({1,2}, {1})."""
    rows[3][1] = rows[3].get(1, 0) + unit
    return rows


def _alter(monkeypatch, name, part=None, sizes=(3,), width=0):
    """Substitute the builder behind verify's matrix ``name`` (see _PACKED)
    by a copy whose entry (S, T) = ({1,2}, {1}) is one more in its constant
    term at the given sizes and, for a packed builder, at slot width
    ``width``. ``part`` picks one matrix kind of a builder that takes the
    kind first. A packed inverse holds q**0 in slot C(3,2) = 3."""
    builder, call = _PACKED[name]
    if builder == "_tally":
        oracle = verify._ORACLES[call]
        monkeypatch.setitem(verify._ORACLES, call, lambda o, w: (
            _bump(oracle(o, w)) if o.n in sizes and w == width else oracle(o, w)))
        return
    picked = {call(part, n, width) for n in sizes}
    original = getattr(verify, builder)

    def altered(*args, **kwargs):
        out = original(*args, **kwargs)
        if (*args, *kwargs.values()) not in picked:
            return out
        return _bump(out, 1 << 3 * width if builder == "_signed_inverse" else 1)

    monkeypatch.setattr(verify, builder, altered)


def _key(args):
    """The arguments of a builder call, a tally of S_n (which ``_tally``
    takes, a dict that cannot be hashed) by its identity."""
    return tuple(id(a) if isinstance(a, dict) else a for a in args)


def _record(monkeypatch, names):
    calls = []
    for name in names:
        def recorded(*args, _name=name, _original=getattr(verify, name), **kwargs):
            calls.append((_name, _key(args), tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, recorded)
    return calls


def _a_row(check, detail):
    """The row that faults the a matrix of ``block_matrix``; its id names the
    a matrix's closed form, weighted in a q-check."""
    closed = "a_q_matrix_closed" if check.startswith("q-") else "a_matrix_closed"
    return pytest.param(check, "block_matrix", "a", detail, id=f"{check}-{closed}-None-{detail}")


@pytest.mark.parametrize(
    "check, name, part, detail",
    [
        ("zeta-signed-inverse", "mobius_matrix", None, f"zeta inverse {_AT}: 1 != 0"),
        _a_row("superset-closed-form", f"superset counts {_AT}: 4 != 3"),
        ("diagonal-conjugation", "diagonal_conjugation_matrix", None,
         f"diagonal conjugation {_AT}: 4 != 3"),
        ("b-factorization", "b_matrix_direct", None, f"b enumeration vs zeta*gamma {_AT}: 3 != 2"),
        _a_row("b-factorization", "b enumeration vs a*mobius at n=3, S={1,2}, T={}: 1 != 0"),
        ("b-factorization", "block_matrix", "b", f"b top rows vs enumeration {_AT}: 3 != 2"),
        ("b-factorization", "block_matrix", "gamma",
         f"gamma top rows vs enumeration {_AT}: 2 != 1"),
        ("signed-inverses", "inverse_closed", "a", f"a inverse product {_AT}: 1 != 0"),
        ("signed-inverses", "inverse_closed", "b", f"b inverse product {_AT}: 1 != 0"),
        ("signed-inverses", "inverse_closed", "gamma", f"gamma inverse product {_AT}: 1 != 0"),
        ("multiset-counts", "multiset_count_matrix", None, f"multiset counts {_AT}: 1 != 0"),
        # a count off by one leaves its class the wrong size
        ("multiset-bijection", "multiset_count_matrix", None, f"reduction misses a class {_AT}"),
        ("q-specialization", "gamma_matrix", None, f"gamma at q=1 {_AT}: 2 != 1"),
        _a_row("q-specialization", f"a at q=1 {_AT}: 4 != 3"),
        ("q-specialization", "b_matrix_direct", None, f"b at q=1 {_AT}: 3 != 2"),
        _a_row("q-superset-closed-form",
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
    calls = _record(monkeypatch, ("_rank_tally",))
    assert all(r.passed for r in run_checks(4, names=("multiset-bijection",)))
    assert calls == []


def test_the_tally_is_made_once_per_n(monkeypatch):
    # every check of one n reads the tally of S_n that the runner keeps per
    # width: counts and the q-checks' width, whose lowest slots least-inversions
    # reads too; without q it reads the narrowest width that holds a count
    calls = _record(monkeypatch, ("_rank_tally",))
    assert all(r.passed for r in run_checks(7, include_q=True))
    assert calls == [("_rank_tally", (n, w), ()) for n in range(1, 8)
                     for w in (0, matrices._family_width(n))]
    calls.clear()
    assert all(r.passed for r in run_checks(7))
    assert calls == [("_rank_tally", (n, w), ()) for n in range(1, 8)
                     for w in (0, factorial(n).bit_length())]


def test_max_n_is_checked_before_any_check_runs(monkeypatch):
    calls = _record(monkeypatch, _ORACLE_BUILDERS)
    with pytest.raises(EnumerationCapError, match="^max_n=13 exceeds the hard ceiling 12"):
        run_checks(13)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="positive integer"):
            run_checks(bad)
    assert calls == []


def test_bijection_runs_and_reports_to_its_own_bound(monkeypatch):
    calls = _record(monkeypatch, ("_group_inverses",))
    monkeypatch.setattr(verify, "WALK_MAX_N", 3)
    results = run_checks(5, names=("multiset-counts", "multiset-bijection"))
    assert [(r.name, r.max_n, r.passed) for r in results] == [
        ("multiset-counts", 5, True), ("multiset-bijection", 3, True),
    ]
    assert calls == [("_group_inverses", (n,), ()) for n in (1, 2, 3)]


def test_walk_refuses_past_its_bound_before_walking(monkeypatch):
    monkeypatch.setattr(verify, "permutations", pytest.fail)
    with pytest.raises(EnumerationCapError, match="^n=11 exceeds the bound 10 of the walk"):
        verify._group_inverses(11)


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

    for name in ("block_matrix", "gamma_matrix"):
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
    # a passing comparison is one == of support rows: no row stores a zero,
    # and no check makes a dense matrix
    def refuse(*_args):
        raise AssertionError("a passing check walked its cells or made a SubsetMatrix")

    monkeypatch.setattr(verify, "_first_mismatch", refuse)
    monkeypatch.setattr(matrices.SubsetMatrix, "__post_init__", refuse)
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


def _one_more_at(arg):
    """The fault of one value: the value at ``arg`` one more."""
    return lambda original: lambda x: original(x) + int(x == arg)


def _cell_off(row, col, by=1):
    """The fault of one cell: cell (row, col) of each grid that has it off by
    ``by``; in a list of top rows, row L is the top row v_L."""
    def faulty(grid):
        if row < len(grid):
            grid[row][col] += by
        return grid

    return lambda original: lambda *args: faulty(original(*args))


# (target[-what], fault, n, first failing check, its counterexample): each
# fault puts one value off where the code reads it, at the smallest n where
# it shows, and the checks run to that n. ``matrices._TOP_ROWS`` holds the
# top-row builders themselves, so a builder is faulted through its entry.
_FAULTS = [
    ("verify.eta", _one_more_at(SubsetMask(1, 0)), 1, "containment-counts",
     "connectivity-superset count at n=1, S={}: 1 != 2"),
    ("verify.min_inversions", _one_more_at(SubsetMask(1, 0)), 1, "least-inversions",
     "least inversions at n=1, T={}: weight 1 != enumerated 0"),
    ("matrices.eta_q", _one_more_at(SubsetMask(2, 0)), 2, "diagonal-conjugation",
     "diagonal conjugation at n=2, S={1}, T={}: 3 != 2"),
    ("matrices.min_inversions", _one_more_at(SubsetMask(1, 0)), 1, "q-diagonal-conjugation",
     "weighted diagonal conjugation at n=1, S={}, T={}: q != 1"),
    ("verify._at_q1", _cell_off(0, 0), 1, "q-specialization",
     "gamma at q=1 at n=1, S={}, T={}: 2 != 1"),
    # for each element of T, the mark of the first word flipped
    ("verify._late_marks", lambda original: lambda blob, n, t: {
        i: bytes([late[0] ^ 1]) + late[1:] for i, late in original(blob, n, t).items()
    }, 2, "multiset-bijection", "reduction misses a class at n=2, S={1}, T={1}"),
    # every value of T's last block, letter k + 1, collapses to k + 2 instead:
    # classes keep their sizes, their injectivity and their cuts
    ("verify._letter_table", lambda original: lambda t: tuple(
        x + (x > len(t.elements())) for x in original(t)
    ), 1, "multiset-bijection", "reduction misses a class at n=1, S={}, T={}"),
    # the blocks of [3] cut at the complement of {1}, 2 then 1, reversed
    ("matrices._cut_parts", lambda original: lambda *args: original(*args)[::-1 if args == (3, 1) else 1],
     3, "superset-closed-form", "superset counts at n=3, S={1}, T={1}: 0 != 1"),
    # beta_3({1}) and h_3({1}) one less
    ("matrices._superset_pass", _cell_off(3, 0b1, -1), 3, "b-factorization",
     "b top rows vs enumeration at n=3, S={1,2}, T={1}: 1 != 2"),
    # the last cell of row {1,2} at n=3, T = {1,2}, one more
    ("matrices._block_cells", lambda original: lambda n, tops, s: [
        (t, v + ((n, s, t) == (3, 3, 3))) for t, v in original(n, tops, s)
    ], 3, "superset-closed-form", "superset counts at n=3, S={1,2}, T={1,2}: 2 != 1"),
    # slot 0, the words of the multiset of T = {1} with no cut, one more
    ("matrices._cut_paths", lambda original: lambda t, w: original(t, w) + (t.mask == 1),
     2, "multiset-counts", "multiset counts at n=2, S={}, T={1}: 2 != 1"),
    # 321, alone at (c, d) = ({}, {1,2}), with 3 inversions, counted twice
    ("verify._rank_tally-count", lambda original: lambda n, w: (
        {**original(n, w), (0, 0b11): 2 << 3 * w} if n == 3 else original(n, w)
    ), 3, "containment-counts", "connectivity-superset count at n=3, S={}: 7 != 6"),
    # 4123, alone at ({}, {1}), one inversion up, above its descent set's least: only q shows it
    ("verify._rank_tally-inversion", lambda original: lambda n, w: (
        {**original(n, w), (0, 0b1): 1 << 4 * w} if n == 4 else original(n, w)
    ), 4, "q-superset-closed-form", "weighted superset counts at n=4, S={1,2,3}, T={}: "
       "1+3q+5q^2+6q^3+5q^4+3q^5+q^6 != 1+3q+5q^2+5q^3+6q^4+3q^5+q^6"),
    # a_3({2}) one more; the top rows of b call _a_tops by name and keep theirs
    ("matrices._TOP_ROWS", lambda rows: {**rows, "a": _cell_off(3, 0b10)(rows["a"])},
     3, "superset-closed-form", "superset counts at n=3, S={1,2}, T={2}: 4 != 3"),
    # gamma_3({1,2}) one more: 321 counted twice among the connected
    ("matrices._TOP_ROWS-gamma", lambda rows: {**rows, "gamma": _cell_off(3, 0b11)(rows["gamma"])},
     3, "b-factorization", "gamma top rows vs enumeration at n=3, S={1,2}, T={1,2}: 2 != 1"),
    # h_3({1}) one more; _signed_inverse calls _h_tops by name for b
    ("matrices._h_tops", _cell_off(3, 0b1), 3, "signed-inverses",
     "b inverse product at n=3, S={1,2}, T={1}: -1 != 0"),
]


@pytest.mark.parametrize("target, fault, n, check, detail", _FAULTS, ids=[row[0] for row in _FAULTS])
def test_a_fault_where_the_code_reads_it_fails_a_check(monkeypatch, target, fault, n, check, detail):
    module, name = target.split("-")[0].split(".")
    owner = {"verify": verify, "matrices": matrices}[module]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    failed = [(r.name, r.detail) for r in run_checks(n, include_q=True) if not r.passed]
    assert failed[:1] == [(check, detail)]
