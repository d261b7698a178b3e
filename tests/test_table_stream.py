"""`descon table` streamed row by row from top rows: the bytes against the
dense matrices, the CSV cells read back against them, `--out` against
stdout, the top rows against the paper's counts beyond the enumeration cap,
and the benchmark's pinned digests."""

import csv
import hashlib
import io
import json
from functools import partial
from math import factorial
from pathlib import Path

import pytest

from descon.cli import _emit_matrix, main
from descon.matrices import block_matrix, gamma_matrix, top_rows, zeta_matrix
from descon.rings import q_factorial
from descon.series import connected_counts_series
from descon.subsets import SubsetMask, cardinality_lex_order

from sweeps import b_swept

REFERENCES = {
    ("gamma", False): gamma_matrix,
    ("gamma", True): partial(gamma_matrix, q=True),
    ("b", False): b_swept,
    ("b", True): partial(b_swept, q=True),
    ("a", False): partial(block_matrix, "a"),
    ("a", True): partial(block_matrix, "a", q=True),
    ("m", False): zeta_matrix,
}

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
TABLE_COMMANDS = sorted(command for command in PINS if command.startswith("table "))


def _table(kind, n, q, fmt, paper):
    return ["table", kind, "--n", str(n), "--format", fmt] + ["--q"] * q + ["--paper-order"] * paper


@pytest.mark.parametrize("kind, q", sorted(REFERENCES))
def test_bytes_equal_the_dense_reference(capsys, kind, q):
    for n in range(1, 9):
        reference = REFERENCES[kind, q](n)
        for fmt in ("text", "csv", "json"):
            for paper in (False, True):
                assert main(_table(kind, n, q, fmt, paper)) == 0
                streamed = capsys.readouterr().out
                _emit_matrix(reference, fmt, paper, None)
                assert streamed == capsys.readouterr().out, (n, fmt, paper)


@pytest.mark.parametrize("paper", (False, True))
@pytest.mark.parametrize("kind, q", sorted(REFERENCES))
def test_csv_cells_are_the_reference_entries(capsys, kind, q, paper):
    # read back by the csv module, independently of the writer
    for n in range(1, 7):
        reference = REFERENCES[kind, q](n)
        masks = cardinality_lex_order(n) if paper else list(range(1 << (n - 1)))
        labels = [str(SubsetMask(n, m)) for m in masks]
        assert main(_table(kind, n, q, "csv", paper)) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["S\\T", *labels]
        assert [row[0] for row in rows] == labels
        for row, s in zip(rows, masks):
            assert row[1:] == [str(reference.rows[s][t]) for t in masks], (n, s)


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("kind, q", (("gamma", True), ("a", False)))
def test_out_file_equals_stdout(tmp_path, capsys, fmt, kind, q):
    argv = _table(kind, 7, q, fmt, True)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "table"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode()


def test_top_rows_give_the_paper_counts_without_enumeration():
    # row [L-1] of gamma sums to f(L), of b to L!; the q-rows sum to the
    # inversion generating functions, which at q = 1 give the same counts
    f = connected_counts_series(13)
    gamma, beta = top_rows("gamma", 13), top_rows("b", 13)
    for length in range(1, 14):
        assert sum(gamma[length]) == f[length - 1]
        assert sum(beta[length]) == factorial(length)
    gamma_q, beta_q = top_rows("gamma", 13, q=True), top_rows("b", 13, q=True)
    for length in range(1, 14):
        assert [v.evaluate(1) for v in gamma_q[length]] == gamma[length]
        assert [v.evaluate(1) for v in beta_q[length]] == beta[length]
        assert sum(beta_q[length], 0) == q_factorial(length)
        assert sum(gamma_q[length], 0).evaluate(1) == f[length - 1]


class _Digest:
    """A stdout that keeps only the sha256 and the size of what is written."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_pinned_table_digest(monkeypatch, command):
    digest = _Digest()
    monkeypatch.setattr("sys.stdout", digest)
    assert main(command.split()) == PINS[command]["exit"]
    assert (digest.sha.hexdigest(), digest.size) == (PINS[command]["sha256"], PINS[command]["bytes"])
