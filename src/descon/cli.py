"""Command-line front end: permutation statistics, matrix tables in three
formats, the connected-count table, and the exact verification suite.

All emitted tables are deterministic: fixed orders, no timestamps, and
output that is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from contextlib import contextmanager

from .matrices import (
    INTEGER,
    POLYNOMIAL,
    SubsetMatrix,
    b_matrix_direct,
    gamma_matrix,
    ring_zero,
    row_stream,
)
from .permutations import HARD_CEILING, Permutation
from .series import connected_counts_enumerated, connected_counts_series
from .subsets import SubsetMask, cardinality_lex_order
from .verify import WALK_MAX_N, run_checks

__all__ = ["main"]

# Up to this n, `table gamma|b` still sweeps the n! permutations; above
# it every table is streamed from top rows. The benchmark's self-test
# (perfbench/tests/test_perfbench.py::test_traced_run_reports_every_layer)
# expects `table gamma --n 4` to sweep once; ROADMAP item 1 makes that
# assertion route-agnostic, and then this branch can go.
SWEEP_MAX_N = 5

CANONICAL_ORDER = "ascending-bitmask"
PAPER_ORDER = "cardinality-lex"


@contextmanager
def _sink(out: str | None):
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as handle:
            yield handle


def _write(text: str, out: str | None) -> None:
    with _sink(out) as stream:
        stream.write(text)


def _json(value) -> str:
    import json  # imported here, off the start-up of commands that print none
    return json.dumps(value, separators=(",", ":"))


def _csv_text(rows: list[list[str]]) -> str:
    import csv  # imported here, off the start-up of commands that print none
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return _json(payload) + "\n"


def _grid_text(header: list[str], rows: list[list[str]]) -> str:
    table = [header] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[col]) for col, cell in enumerate(row) if col
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _matrix_order(n: int, paper: bool) -> tuple[str, list[int]]:
    if paper:
        return PAPER_ORDER, cardinality_lex_order(n)
    return CANONICAL_ORDER, list(range(1 << (n - 1)))


def _cell_renderer(fmt: str, ring: str):
    if fmt != "json":
        return str
    if ring == INTEGER:
        return lambda v: f'"{v}"'  # the JSON string of the decimal digits
    return lambda v: _json(v.to_json_dict())


class _Texts(dict):
    """The text of each distinct cell value of one table, rendered on its
    first lookup."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, value):
        text = self[value] = self.render(value)
        return text


def _emit_rows(
    n: int, ring: str, cells_of, value_of, fmt: str, paper: bool, out: str | None
) -> None:
    """Write a matrix one row at a time: ``cells_of(S)`` lists the nonzero
    cells ``(column mask, key)`` of row S, and ``value_of(key)`` is the
    value of a key (see :func:`descon.matrices.row_stream`). Each distinct
    key is rendered once, and every zero gets one constant text. Text
    output needs every column's width before its first row, so it holds
    each row's nonzero texts from the width pass to the write pass."""
    order_name, masks = _matrix_order(n, paper)
    labels = [str(SubsetMask(n, m)) for m in masks]
    side = len(masks)
    column = sorted(range(side), key=masks.__getitem__)  # the position of each mask
    render = _cell_renderer(fmt, ring)
    zero = render(ring_zero(ring))
    texts = _Texts(lambda key: render(value_of(key)))

    def row_texts(s: int) -> list[str]:
        row = [zero] * side
        for t, x in cells_of(s):
            row[column[t]] = texts[x]
        return row

    with _sink(out) as stream:
        if fmt == "csv":
            stream.write(_csv_text([["S\\T", *labels]]))
            # cell texts hold no comma, quote or space (rings._format_terms),
            # so only the labels need the csv module's quoting
            quoted = _csv_text([[label] for label in labels]).splitlines()
            for label, s in zip(quoted, masks):
                stream.write(label + "," + ",".join(row_texts(s)) + "\n")
        elif fmt == "json":
            head = _json({"n": n, "order": order_name, "ring": ring, "entries": []})
            stream.write(head[:-2])  # up to the opening bracket of the entries
            for i, s in enumerate(masks):
                stream.write(("," if i else "") + "[" + ",".join(row_texts(s)) + "]")
            stream.write("]}\n")
        else:
            # every label is at least "{}", wider than any zero text
            widths = [len(label) for label in labels]
            rows = []  # each row's nonzero cells as two flat lists, positions and texts
            for s in masks:
                nonzero = cells_of(s)
                row = [column[t] for t, _x in nonzero], [texts[x] for _t, x in nonzero]
                for pos, text in zip(*row):
                    widths[pos] = max(widths[pos], len(text))
                rows.append(row)
            first = max(len("S\\T"), *map(len, labels))
            cells = [label.rjust(width) for label, width in zip(labels, widths)]
            stream.write("S\\T".ljust(first) + "  " + "  ".join(cells) + "\n")
            blank = [zero.rjust(width) for width in widths]
            for label, row in zip(labels, rows):
                cells = blank.copy()
                for pos, text in zip(*row):
                    cells[pos] = text.rjust(widths[pos])
                stream.write(label.ljust(first) + "  " + "  ".join(cells) + "\n")


def _emit_matrix(matrix: SubsetMatrix, fmt: str, paper: bool, out: str | None) -> None:
    def cells_of(s: int) -> list:
        return [(t, v) for t, v in enumerate(matrix.rows[s]) if v]

    _emit_rows(matrix.n, matrix.ring, cells_of, lambda v: v, fmt, paper, out)


def _cmd_stats(args) -> int:
    w = Permutation.from_text(args.word)
    descents = w.descent_set()
    connectivity = w.connectivity_set()
    composition = w.descent_composition()
    fields = [
        ("word", str(w)),
        ("n", w.n),
        ("descents", descents),
        ("connectivity", connectivity),
        ("inversions", w.inversions()),
        ("composition", composition),
        ("connected", w.is_connected()),
    ]
    if args.format == "json":
        # the same values, with the sets and the composition as arrays
        payload = dict(fields)
        payload["descents"] = descents.elements()
        payload["connectivity"] = connectivity.elements()
        payload["composition"] = composition.parts
        _write(_json_text(payload), None)
    elif args.format == "csv":
        rows = [
            [name for name, _value in fields],
            [_stat_text(value) for _name, value in fields],
        ]
        _write(_csv_text(rows), None)
    else:
        width = max(len(name) for name, _value in fields)
        lines = [f"{name.ljust(width)}  {_stat_text(value)}" for name, value in fields]
        _write("\n".join(lines) + "\n", None)
    return 0


def _stat_text(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _sweep_matrix(kind: str, n: int, q: bool) -> SubsetMatrix:
    return (gamma_matrix if kind == "gamma" else b_matrix_direct)(n, q)


def _cmd_table(args) -> int:
    n, kind = args.n, args.kind
    if not 1 <= n <= HARD_CEILING:
        raise ValueError(f"--n must be in 1..{HARD_CEILING}, got {n}")
    if args.threads < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    if kind in ("gamma", "b") and n <= SWEEP_MAX_N:
        _emit_matrix(_sweep_matrix(kind, n, args.q), args.format, args.paper_order, args.out)
        return 0
    ring = POLYNOMIAL if args.q else INTEGER
    _emit_rows(n, ring, *row_stream(kind, n, args.q), args.format, args.paper_order, args.out)
    return 0


def _cmd_checks(args) -> int:
    """``verify`` and ``multiset``: the checks ``args.names`` (None for
    all) of the identity suite."""
    results = run_checks(args.max_n, include_q=args.q, names=args.names)
    return 1 if _report_checks(results) else 0


def _report_checks(results) -> int:
    """Print one line per check and a summary; return the number failed."""
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<24} n<={r.max_n:<3} {status}  {r.seconds:7.3f}s")
        if not r.passed:
            failed += 1
            print(f"  counterexample: {r.detail}")
    if failed:
        print(f"{failed} of {len(results)} checks failed")
    else:
        print(f"all {len(results)} checks passed")
    return failed


def _cmd_connected(args) -> int:
    start = time.perf_counter()
    enumerated = connected_counts_enumerated(args.max_n)
    series = connected_counts_series(args.max_n)
    agree_all = enumerated.counts == series.counts
    # timing goes to stderr so the emitted table stays byte-deterministic
    print(f"both routes computed in {time.perf_counter() - start:.3f}s", file=sys.stderr)
    if args.format == "json":
        payload = {
            "max_n": args.max_n,
            "rows": [
                {
                    "n": n,
                    "enumerated": str(enumerated.count(n)),
                    "series": str(series.count(n)),
                    "agree": enumerated.count(n) == series.count(n),
                }
                for n in range(1, args.max_n + 1)
            ],
        }
        _write(_json_text(payload), args.out)
    else:
        header = ["n", "enumerated", "series", "agree"]
        rows = [
            [
                str(n),
                str(enumerated.count(n)),
                str(series.count(n)),
                "yes" if enumerated.count(n) == series.count(n) else "NO",
            ]
            for n in range(1, args.max_n + 1)
        ]
        if args.format == "csv":
            _write(_csv_text([header] + rows), args.out)
        else:
            _write(_grid_text(header, rows), args.out)
    return 0 if agree_all else 1


_CHECKS_MAX_N_HELP = (
    f"run each check for n = 1..max-n, at most {HARD_CEILING}; "
    f"multiset-bijection stops at {WALK_MAX_N}"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descon",
        description=(
            "Exact tables and checks for the joint distribution of the descent "
            "and connectivity statistics of permutations."
        ),
        epilog=f"Every size is bounded by the hard ceiling n <= {HARD_CEILING}; the "
        f"multiset-bijection check, which walks all n! permutations, stops at n = {WALK_MAX_N}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="statistics of one permutation")
    p_stats.add_argument("word", help='one-line notation: "1342", or comma-separated for n > 9')
    p_stats.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_stats.set_defaults(handler=_cmd_stats)

    p_table = sub.add_parser("table", help="emit one of the subset-indexed matrices")
    p_table.add_argument(
        "kind",
        choices=("gamma", "a", "b", "m"),
        help="gamma: joint counts; a: superset counts; b: half-relaxed counts; m: containment",
    )
    p_table.add_argument(
        "--n", type=int, required=True, help=f"ambient permutation size, 1..{HARD_CEILING}"
    )
    p_table.add_argument("--q", action="store_true", help="weight each permutation by q^inversions")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument(
        "--paper-order",
        action="store_true",
        help="order subsets by cardinality then lexicographically instead of by ascending bitmask",
    )
    p_table.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; every table is made in one process",
    )
    p_table.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run every identity check up to a bound")
    p_verify.add_argument("--max-n", type=int, default=5, help=_CHECKS_MAX_N_HELP)
    p_verify.add_argument("--q", action="store_true", help="include the inversion-weighted checks")
    p_verify.set_defaults(handler=_cmd_checks, names=None)

    p_conn = sub.add_parser("connected", help="connected-permutation counts by two routes")
    p_conn.add_argument(
        "--max-n", type=int, default=9, help=f"rows n = 1..max-n, at most {HARD_CEILING}"
    )
    p_conn.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_conn.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p_conn.set_defaults(handler=_cmd_connected)

    p_multi = sub.add_parser("multiset", help="check the multiset-word correspondence")
    p_multi.add_argument("--max-n", type=int, default=6, help=_CHECKS_MAX_N_HELP)
    p_multi.set_defaults(
        handler=_cmd_checks, q=False, names=("multiset-counts", "multiset-bijection")
    )

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a write error is reported here, not at exit
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # a closed pipe or a full device: put devnull under stdout, so
            # that the interpreter's final flush does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
