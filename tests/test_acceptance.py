"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its runtime (run with ``pytest -s`` to see the lines live).

Everything here is exact integer or polynomial arithmetic; every comparison
is equality, tolerance zero. The runtime bounds are asserted too.
"""

import csv
import io
import time
from contextlib import contextmanager
from functools import partial
from math import factorial

import pytest

import descon.permutations as permutations
from descon.cli import main
from descon.matrices import (
    SubsetMatrix,
    block_matrix,
    diagonal_conjugation_matrix,
    gamma_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    zeta_matrix,
)
from descon.permutations import (
    enumerate_permutations,
    joint_statistics,
    multiset_words,
    reduce_to_multiset,
)
from descon.rings import LaurentPolynomial
from descon.series import connected_counts_enumerated, connected_counts_series
from descon.subsets import SubsetMask, cardinality_lex_order, eta, min_inversions

from golden_tables import CONNECTED_COUNTS, GOLDEN_GAMMAS
from sweeps import b_swept


@contextmanager
def criterion(number, limit_seconds, description):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
    )
    print(f"PASS criterion {number:2d} [{elapsed:6.2f}s < {limit_seconds:3d}s] {description}")


def S(n, *elements):
    return SubsetMask.from_elements(n, elements)


# the one builder of each matrix of the family, each taking (n, q=False)
FAMILY = {"a": partial(block_matrix, "a"), "b": b_swept, "gamma": gamma_matrix}


def test_criterion_01_golden_tables(capsys):
    with capsys.disabled(), criterion(1, 1, "joint-count tables match the reference tables"):
        for n, golden in GOLDEN_GAMMAS.items():
            order = cardinality_lex_order(n)
            g = gamma_matrix(n)
            got = tuple(tuple(g.rows[r][c] for c in order) for r in order)
            assert got == golden, f"n={n}"
        assert gamma_matrix(4).entry(S(4, 1, 2, 3), S(4, 1, 3)) == 4
        assert gamma_matrix(5).entry(S(5, 1, 2, 3, 4), S(5, 1, 3)) == 10
        # same cells through the CLI path with --paper-order
        import contextlib, io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["table", "gamma", "--n", "5", "--format", "csv", "--paper-order"]) == 0
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        values = tuple(tuple(int(v) for v in row[1:]) for row in rows[1:])
        assert values == GOLDEN_GAMMAS[5]


def test_criterion_02_worked_example(capsys):
    with capsys.disabled(), criterion(2, 1, "worked n=4 entry with witnesses from enumeration"):
        s, t = S(4, 2, 3), S(4, 3)
        assert block_matrix("a", 4).entry(s, t) == 3
        assert gamma_matrix(4).entry(s, t) == 1
        s_bar = s.complement()
        relaxed, exact = [], []
        for w in enumerate_permutations(4):
            if s_bar <= w.connectivity_set() and t <= w.descent_set():
                relaxed.append(str(w))
            if w.connectivity_set() == s_bar and w.descent_set() == t:
                exact.append(str(w))
        assert relaxed == ["1243", "1342", "1432"]
        assert exact == ["1342"]


def test_criterion_03_containment_counts(capsys):
    with capsys.disabled(), criterion(3, 30, "containment counts equal the factorial weights, n<=8"):
        for n in range(1, 9):
            by_c: dict[int, int] = {}
            by_d: dict[int, int] = {}
            for (c, d, _inv), count in joint_statistics(n).items():
                by_c[c] = by_c.get(c, 0) + count
                by_d[d] = by_d.get(d, 0) + count
            for mask in range(1 << (n - 1)):
                subset = SubsetMask(n, mask)
                superset_count = sum(v for c, v in by_c.items() if c & mask == mask)
                assert superset_count == eta(subset), (n, subset)
                subset_count = sum(v for d, v in by_d.items() if d & ~mask == 0)
                assert subset_count * eta(subset) == factorial(n), (n, subset)


def test_criterion_04_closed_form_equals_sandwich(capsys):
    with capsys.disabled(), criterion(4, 30, "closed-form superset counts equal M*Gamma*M, n<=7"):
        for n in range(1, 8):
            m = zeta_matrix(n)
            assert block_matrix("a", n) == m @ gamma_matrix(n) @ m, n


def test_criterion_05_matrix_identities(capsys):
    with capsys.disabled(), criterion(5, 60, "conjugation, b factorizations, zeta inverse, n<=7"):
        for n in range(1, 8):
            assert diagonal_conjugation_matrix(n) == block_matrix("a", n), n
            direct = b_swept(n)
            assert direct == zeta_matrix(n) @ gamma_matrix(n), n
            assert direct == block_matrix("a", n) @ mobius_matrix(n), n
            assert zeta_matrix(n) @ mobius_matrix(n) == SubsetMatrix.identity(n), n


def test_criterion_06_signed_inverses(capsys):
    with capsys.disabled(), criterion(6, 60, "signed inverses multiply to the identity, n<=7"):
        for n in range(1, 8):
            for kind, builder in FAMILY.items():
                assert builder(n) @ inverse_closed(kind, n) == SubsetMatrix.identity(n), (n, kind)


def test_criterion_07_q_suite(capsys):
    with capsys.disabled(), criterion(7, 120, "inversion-weighted suite, n<=6"):
        for n in range(1, 7):
            at_q1 = [[v.evaluate(1) for v in row] for row in gamma_matrix(n, q=True).rows]
            assert SubsetMatrix(n, at_q1) == gamma_matrix(n), n
            m = zeta_matrix(n)
            assert block_matrix("a", n, q=True) == m @ gamma_matrix(n, q=True) @ m, n
            for kind, builder in FAMILY.items():
                inverse = inverse_closed(kind, n, q=True)
                assert all(type(v) is LaurentPolynomial for row in inverse.rows for v in row)
                assert builder(n, q=True) @ inverse == SubsetMatrix.identity(n), (n, kind)
        assert block_matrix("a", 4, q=True).entry(S(4, 2, 3), S(4, 3)) == LaurentPolynomial((0, 1, 1, 1))


def test_criterion_08_least_inversions(capsys):
    with capsys.disabled(), criterion(8, 10, "binomial weight equals least inversions, n<=7"):
        for n in range(1, 8):
            least_by_d: dict[int, int] = {}
            for (_c, d, inv), _count in joint_statistics(n).items():
                if inv < least_by_d.get(d, inv + 1):
                    least_by_d[d] = inv
            for t in range(1 << (n - 1)):
                enumerated = min(v for d, v in least_by_d.items() if d & t == t)
                assert min_inversions(SubsetMask(n, t)) == enumerated, (n, t)


def test_criterion_09_multiset_correspondence(capsys):
    with capsys.disabled(), criterion(9, 60, "multiset counts and the reduction bijection"):
        for n in range(1, 8):
            counted = multiset_count_matrix(n)
            gm = gamma_matrix(n) @ zeta_matrix(n)
            full = counted.side - 1
            for s in range(counted.side):
                for t in range(counted.side):
                    assert counted.rows[s][t] == gm.rows[full ^ s][full ^ t], (n, s, t)
        for n in range(1, 7):
            _check_reduction(n)


def _check_reduction(n):
    """Criterion 09's bijection at n: for each T, the permutations whose
    descent set contains the complement of T reduce, class by connectivity
    set, one to one onto the listed words of T's multiset."""
    full = (1 << (n - 1)) - 1
    for t_mask in range(full + 1):
        t = SubsetMask(n, t_mask)
        t_bar = full ^ t_mask
        reduced: dict[int, set] = {}
        class_size: dict[int, int] = {}
        for w in enumerate_permutations(n):
            if w.descent_set().mask & t_bar != t_bar:
                continue
            s_mask = w.connectivity_set().mask
            reduced.setdefault(s_mask, set()).add(reduce_to_multiset(w, t).word)
            class_size[s_mask] = class_size.get(s_mask, 0) + 1
        target: dict[int, set] = {}
        for u in multiset_words(t):
            target.setdefault(u.connectivity_set().mask, set()).add(u.word)
        assert reduced == target, (n, t_mask)
        for s_mask, words in reduced.items():
            assert len(words) == class_size[s_mask], (n, t_mask, s_mask)


def test_criterion_09_lists_the_words_without_the_reduction(monkeypatch):
    # every value of T's last block, letter k + 1, collapses to k + 2
    # instead; the listing must not read the collapse's table, or it moves
    # with it and the comparison cannot fail
    original = permutations._letter_table
    monkeypatch.setattr(permutations, "_letter_table", lambda t: tuple(
        x + (x > len(t.elements())) for x in original(t)
    ))
    with pytest.raises(AssertionError, match=r"^\(1, 0\)\n"):
        _check_reduction(1)


def test_criterion_10_connected_series(capsys):
    with capsys.disabled(), criterion(10, 60, "connected counts by both routes, n<=9"):
        enumerated = connected_counts_enumerated(9)
        series = connected_counts_series(9)
        assert enumerated == series == CONNECTED_COUNTS
        assert series[:6] == (1, 1, 3, 13, 71, 461)


def test_criterion_11_determinism(capsys, tmp_path):
    with capsys.disabled(), criterion(11, 60, "tables byte-identical across runs and workers"):
        specs = [
            ("gamma", ["--q"], "json"),
            ("gamma", [], "csv"),
            ("a", ["--paper-order"], "text"),
        ]
        for kind, extra, fmt in specs:
            blobs = []
            for run, threads in enumerate((1, 1, 3)):
                path = tmp_path / f"{kind}-{fmt}-{run}"
                argv = [
                    "table", kind, "--n", "5", "--format", fmt,
                    "--threads", str(threads), "--out", str(path), *extra,
                ]
                assert main(argv) == 0
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], (kind, fmt)
