"""Command-line interface: subcommands, formats, caps, determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import descon
from descon.cli import _cell_renderer, _emit_matrix, _json, main
from descon.matrices import gamma_matrix
from descon.rings import LaurentPolynomial

from golden_tables import GAMMA_N5
from sweeps import b_swept


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_text(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "1342")
        assert code == 0
        assert "descents      {3}" in out
        assert "connectivity  {1}" in out
        assert "inversions    2" in out
        assert "composition   (3,1)" in out
        assert "connected     no" in out

    def test_singleton(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "1")
        assert code == 0
        assert "descents      {}" in out
        assert "connectivity  {}" in out
        assert "connected     yes" in out

    def test_reversal_json(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "4321", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "word": "4321",
            "n": 4,
            "descents": [1, 2, 3],
            "connectivity": [],
            "inversions": 6,
            "composition": [1, 1, 1, 1],
            "connected": True,
        }

    def test_csv(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "1342", "--format", "csv")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, row))
        assert record["descents"] == "{3}"
        assert record["composition"] == "(3,1)"

    def test_formats_carry_the_same_values(self, capsys):
        word = "10,3,1,2,4,5,6,7,8,9"
        _code, text, _err = run_cli(capsys, "stats", word)
        _code, out, _err = run_cli(capsys, "stats", word, "--format", "csv")
        header, row = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, row))
        payload = json.loads(run_cli(capsys, "stats", word, "--format", "json")[1])
        assert list(payload) == header
        assert text.splitlines() == [f"{name.ljust(12)}  {record[name]}" for name in header]
        assert record == {
            "word": word, "n": "10", "descents": "{1,2}", "connectivity": "{}",
            "inversions": "11", "composition": "(1,1,8)", "connected": "yes",
        }
        assert payload == {
            "word": word, "n": 10, "descents": [1, 2], "connectivity": [],
            "inversions": 11, "composition": [1, 1, 8], "connected": True,
        }

    def test_parse_error_has_position(self, capsys):
        code, _out, err = run_cli(capsys, "stats", "13a2")
        assert code == 2
        assert "position 3" in err

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "stats", "1\u00b2")
        assert code == 2
        assert out == ""
        assert err == "error: character '\u00b2' at position 2 is not a digit 1-9\n"

    def test_non_bijective_word(self, capsys):
        code, _out, err = run_cli(capsys, "stats", "1322")
        assert code == 2
        assert "position" in err


class TestTable:
    def test_gamma_paper_order_csv_matches_golden(self, capsys):
        code, out, _err = run_cli(
            capsys, "table", "gamma", "--n", "5", "--format", "csv", "--paper-order"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "S\\T"
        assert rows[0][1:] == [
            "{}", "{1}", "{2}", "{3}", "{4}", "{1,2}", "{1,3}", "{1,4}", "{2,3}",
            "{2,4}", "{3,4}", "{1,2,3}", "{1,2,4}", "{1,3,4}", "{2,3,4}", "{1,2,3,4}",
        ]
        values = tuple(tuple(int(v) for v in row[1:]) for row in rows[1:])
        assert values == GAMMA_N5

    def test_json_schema_integer(self, capsys):
        code, out, _err = run_cli(capsys, "table", "m", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["entries", "n", "order", "ring"]
        assert payload["n"] == 3
        assert payload["order"] == "ascending-bitmask"
        assert payload["ring"] == "integer"
        assert payload["entries"][0] == ["1", "0", "0", "0"]
        assert all(isinstance(v, str) for row in payload["entries"] for v in row)

    def test_json_schema_weighted(self, capsys):
        code, out, _err = run_cli(
            capsys, "table", "gamma", "--n", "3", "--q", "--format", "json", "--paper-order"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"] == "polynomial"
        assert payload["order"] == "cardinality-lex"
        cell = payload["entries"][1][1]  # lone descent at 1 comes from 213, one inversion
        assert cell == {"min": 0, "coeffs": ["0", "1"]}

    @pytest.mark.parametrize(
        "value",
        (
            (LaurentPolynomial(), '{"min":0,"coeffs":[]}'),
            # the wire form starts at q**0: leading "0"s
            (LaurentPolynomial((1, -2), 3), '{"min":0,"coeffs":["0","0","0","1","-2"]}'),
            (LaurentPolynomial((4, 0, -5), -2), '{"min":-2,"coeffs":["4","0","-5"]}'),
            (LaurentPolynomial((2**70, 1)), '{"min":0,"coeffs":["1180591620717411303424","1"]}'),
        ),
    )
    def test_weighted_json_cell_is_the_wire_form(self, value):
        polynomial, wire = value
        assert _cell_renderer("json", True)(polynomial) == wire

    def test_a_table_text(self, capsys):
        code, out, _err = run_cli(capsys, "table", "a", "--n", "4", "--paper-order")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[0] == "S\\T"
        # row of {2,3} in cardinality-lex column order: the complement {1}
        # carries weight 6, divided by the column complement weights
        row = next(line for line in lines if line.startswith("{2,3}"))
        assert row.split()[1:] == ["6", "0", "3", "3", "0", "0", "1", "0"]

    def test_weighted_b_table(self, capsys):
        code, out, _err = run_cli(capsys, "table", "b", "--n", "3", "--q", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"] == "polynomial"
        # row {1,2}, column {1}: 213 and 312 carry 1 and 2 inversions
        assert payload["entries"][3][1] == {"min": 0, "coeffs": ["0", "1", "1"]}

    def test_m_rejects_q(self, capsys, tmp_path):
        # the library refuses it before --out is opened
        target = tmp_path / "X"
        code, _out, err = run_cli(capsys, "table", "m", "--n", "3", "--q", "--out", str(target))
        assert code == 2 and "no weighted version" in err
        assert not target.exists()

    def test_cap_violations(self, capsys, tmp_path):
        # every kind stops at the hard ceiling, refused before --out opens
        target = tmp_path / "X"
        for kind in ("gamma", "a", "b", "m"):
            code, _out, err = run_cli(capsys, "table", kind, "--n", "13", "--out", str(target))
            assert (code, err) == (2, "error: --n must be in 1..12, got 13\n")
        code, _out, err = run_cli(capsys, "verify", "--max-n", "13")
        assert code == 2 and "max_n=13 exceeds the hard ceiling 12" in err
        assert not target.exists()

    def test_environment_sets_no_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DESCON_MAX_N", "3")
        code, out, _err = run_cli(capsys, "table", "gamma", "--n", "11", "--format", "csv")
        assert code == 0
        _emit_matrix(gamma_matrix(11), "csv", False, None)
        assert out.splitlines()[-1] == capsys.readouterr().out.splitlines()[-1]

    def test_out_file_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "m.csv"
        code, out, err = run_cli(capsys, "table", "m", "--n", "3", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert len(err.splitlines()) == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "m.csv"
        code, out, _err = run_cli(
            capsys, "table", "m", "--n", "3", "--format", "csv", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("S\\T,")


SWEEP_BUILDERS = {"gamma": gamma_matrix, "b": b_swept}


@pytest.mark.parametrize("kind", ("gamma", "b"))
@pytest.mark.parametrize("q", (False, True))
@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("paper", (False, True))
def test_table_bytes_match_sweep(capsys, kind, q, fmt, paper):
    for n in range(1, 7):
        argv = ["table", kind, "--n", str(n), "--format", fmt]
        argv += ["--q"] * q + ["--paper-order"] * paper
        code, out, _err = run_cli(capsys, *argv)
        assert code == 0
        _emit_matrix(SWEEP_BUILDERS[kind](n, q), fmt, paper, None)
        assert out == capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ("text", "csv", "json"))
    def test_repeat_runs_identical(self, fmt, tmp_path, capsys):
        paths = [tmp_path / f"{i}.{fmt}" for i in range(2)]
        for path in paths:
            code, _out, _err = run_cli(
                capsys, "table", "gamma", "--n", "5", "--q", "--format", fmt,
                "--paper-order", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_thread_counts_identical(self, tmp_path, capsys):
        blobs = []
        for threads in (1, 2, 4):
            path = tmp_path / f"t{threads}.csv"
            code, _out, _err = run_cli(
                capsys, "table", "b", "--n", "5", "--format", "csv",
                "--threads", str(threads), "--out", str(path),
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestVerify:
    def test_passes(self, capsys):
        code, out, _err = run_cli(capsys, "verify", "--max-n", "3", "--q")
        assert code == 0
        assert "all 14 checks passed" in out
        assert out.count("pass") >= 14
        assert "FAIL" not in out

    def test_without_q(self, capsys):
        code, out, _err = run_cli(capsys, "verify", "--max-n", "2")
        assert code == 0
        assert "all 10 checks passed" in out

    def test_max_n_validation(self, capsys):
        code, _out, err = run_cli(capsys, "verify", "--max-n", "0")
        assert (code, err) == (2, "error: max_n must be a positive integer, got 0\n")

    def test_failure_reporting(self, capsys):
        from descon.cli import _report_checks
        from descon.verify import CheckResult

        results = [
            CheckResult("demo-pass", 3, True, 0.01),
            CheckResult("demo-fail", 3, False, 0.01, "n=3, S={1}, T={2}: 1 != 2"),
        ]
        assert _report_checks(results) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counterexample: n=3, S={1}, T={2}: 1 != 2" in out


class TestConnected:
    def test_text(self, capsys):
        code, out, _err = run_cli(capsys, "connected", "--max-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "enumerated", "series", "agree"]
        assert lines[5].split() == ["5", "71", "71", "yes"]

    def test_json(self, capsys):
        code, out, _err = run_cli(capsys, "connected", "--max-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][2] == {"n": 3, "enumerated": "3", "series": "3", "agree": True}

    def test_rejects_past_dual_route_cap(self, capsys):
        code, _out, err = run_cli(capsys, "connected", "--max-n", "13")
        assert code == 2 and "max_n=13 exceeds the hard ceiling 12" in err

    def test_agrees_at_the_default_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DESCON_MAX_N", "3")  # sets nothing
        code, out, _err = run_cli(capsys, "connected", "--max-n", "11", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "11,31998903,31998903,yes"


class TestMultiset:
    def test_passes(self, capsys):
        code, out, _err = run_cli(capsys, "multiset", "--max-n", "4")
        assert code == 0
        assert "multiset-counts" in out
        assert "multiset-bijection" in out
        assert "all 2 checks passed" in out


def _child_env():
    """The environment of a child that imports descon from where this
    process found it."""
    src = os.path.dirname(os.path.dirname(descon.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "descon", "stats", "1342"],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    assert "inversions    2" in proc.stdout


def test_closed_stdout_pipe_exits_without_traceback():
    # the table is megabytes, far more than a pipe buffers, so the writer
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "descon", "table", "a", "--n", "11", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.read(10) == b"S\\T,{},{1}"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"
