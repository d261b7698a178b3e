"""Command-line front end: permutation statistics, matrix tables in three
formats, the connected-count table, and the exact verification suite.

All emitted tables are deterministic: fixed orders, no timestamps, and
output that is byte-identical across runs and across --threads settings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from .matrices import (
    SubsetMatrix,
    a_matrix_closed,
    a_q_matrix_closed,
    b_gamma_transform,
    b_matrix_direct,
    b_q_matrix_direct,
    gamma_matrix,
    gamma_q_matrix,
    zeta_matrix,
)
from .permutations import CAP_ENV_VAR, Permutation, enumeration_cap
from .series import connected_counts_enumerated, connected_counts_series
from .subsets import SubsetMask, cardinality_lex_order
from .verify import run_checks

__all__ = ["main", "HARD_CEILING"]

# no CLI run may sweep more than 12! permutations, whatever the env says
HARD_CEILING = 12

# Up to this n one sweep of the n! permutations costs less than the
# closed-form a plus the Moebius passes (fresh process, 2-core machine:
# gamma(5) 0.4 ms by sweep against 0.6 ms by transforms, gamma(6) 3.2 against
# 2.9 ms). q-tables cross over later, at n=8, but by at most 30 ms, which
# does not pay for a second cutoff.
SWEEP_MAX_N = 5

CANONICAL_ORDER = "ascending-bitmask"
PAPER_ORDER = "cardinality-lex"


def _session_cap() -> int:
    cap = enumeration_cap()
    if cap > HARD_CEILING:
        raise ValueError(f"{CAP_ENV_VAR}={cap} exceeds the hard ceiling {HARD_CEILING}")
    return cap


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


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


def _emit_matrix(matrix: SubsetMatrix, fmt: str, paper: bool, out: str | None) -> None:
    order_name, masks = _matrix_order(matrix.n, paper)
    labels = [str(SubsetMask(matrix.n, m)) for m in masks]
    grid = [[matrix.rows[r][c] for c in masks] for r in masks]
    if fmt == "json":
        if matrix.ring == "integer":
            entries = [[str(v) for v in row] for row in grid]
        else:
            entries = [[v.to_json_dict() for v in row] for row in grid]
        payload = {"n": matrix.n, "order": order_name, "ring": matrix.ring, "entries": entries}
        _write(_json_text(payload), out)
        return
    cells = [[str(v) for v in row] for row in grid]
    if fmt == "csv":
        rows = [["S\\T"] + labels] + [[labels[i]] + row for i, row in enumerate(cells)]
        _write(_csv_text(rows), out)
        return
    _write(_grid_text(["S\\T"] + labels, [[labels[i]] + row for i, row in enumerate(cells)]), out)


def _cmd_stats(args) -> int:
    w = Permutation.from_text(args.word)
    descents = w.descent_set()
    connectivity = w.connectivity_set()
    fields = [
        ("word", w.to_text()),
        ("n", w.n),
        ("descents", descents),
        ("connectivity", connectivity),
        ("inversions", w.inversions()),
        ("composition", w.descent_composition()),
        ("connected", w.is_connected()),
    ]
    if args.format == "json":
        payload = {
            "word": w.to_text(),
            "n": w.n,
            "descents": list(descents.elements()),
            "connectivity": list(connectivity.elements()),
            "inversions": w.inversions(),
            "composition": list(w.descent_composition().parts),
            "connected": w.is_connected(),
        }
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


def _joint_matrix(kind: str, n: int, q: bool) -> SubsetMatrix:
    if n <= SWEEP_MAX_N:
        if kind == "gamma":
            return gamma_q_matrix(n) if q else gamma_matrix(n)
        return b_q_matrix_direct(n) if q else b_matrix_direct(n)
    # returning drops the suspended generator, and with it the work rows
    stages = b_gamma_transform(n, q)
    if kind == "gamma":
        next(stages)
    return next(stages)


def _cmd_table(args) -> int:
    cap = _session_cap()
    n, kind = args.n, args.kind
    if n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    if args.threads < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    if kind == "m" and args.q:
        raise ValueError("kind 'm' is the containment matrix; it has no weighted version")
    if kind in ("gamma", "b"):
        if n > cap:
            raise ValueError(
                f"kind '{kind}' is checked against the sweep only up to the "
                f"enumeration cap; n={n} exceeds the cap {cap}"
            )
    elif n > HARD_CEILING:
        raise ValueError(f"n={n} exceeds the hard ceiling {HARD_CEILING}")
    if kind in ("gamma", "b"):
        matrix = _joint_matrix(kind, n, args.q)
    elif kind == "a":
        matrix = a_q_matrix_closed(n) if args.q else a_matrix_closed(n)
    else:
        matrix = zeta_matrix(n)
    _emit_matrix(matrix, args.format, args.paper_order, args.out)
    return 0


def _cmd_verify(args) -> int:
    cap = _session_cap()
    if not 1 <= args.max_n <= cap:
        raise ValueError(f"--max-n must be in 1..{cap}, got {args.max_n}")
    if args.threads < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    results = run_checks(args.max_n, include_q=args.q, threads=args.threads)
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
    cap = min(_session_cap(), 9)
    if not 1 <= args.max_n <= cap:
        raise ValueError(f"--max-n must be in 1..{cap} for the dual-route table, got {args.max_n}")
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


def _cmd_multiset(args) -> int:
    cap = _session_cap()
    if not 1 <= args.max_n <= cap:
        raise ValueError(f"--max-n must be in 1..{cap}, got {args.max_n}")
    if args.threads < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    results = run_checks(
        args.max_n,
        threads=args.threads,
        names=("multiset-counts", "multiset-bijection"),
    )
    return 1 if _report_checks(results) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descon",
        description=(
            "Exact tables and checks for the joint distribution of the descent "
            "and connectivity statistics of permutations."
        ),
        epilog=f"The {CAP_ENV_VAR} environment variable overrides the enumeration cap "
        f"(default 10, hard ceiling {HARD_CEILING}).",
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
    p_table.add_argument("--n", type=int, required=True, help="ambient permutation size")
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
        help="accepted but unused: tables start no sweep workers; "
        "only the verify and multiset sweeps use them",
    )
    p_table.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run every identity check up to a bound")
    p_verify.add_argument("--max-n", type=int, default=5, help="run each check for n = 1..max-n")
    p_verify.add_argument("--q", action="store_true", help="include the inversion-weighted checks")
    p_verify.add_argument("--threads", type=int, default=1, help="parallel sweep workers")
    p_verify.set_defaults(handler=_cmd_verify)

    p_conn = sub.add_parser("connected", help="connected-permutation counts by two routes")
    p_conn.add_argument("--max-n", type=int, default=9, help="table rows n = 1..max-n (at most 9)")
    p_conn.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_conn.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p_conn.set_defaults(handler=_cmd_connected)

    p_multi = sub.add_parser("multiset", help="check the multiset-word correspondence")
    p_multi.add_argument("--max-n", type=int, default=6, help="check n = 1..max-n")
    p_multi.add_argument(
        "--threads",
        type=int,
        default=1,
        help="sweep workers for the gamma matrix of the multiset-counts check; "
        "the bijection check always runs in one process",
    )
    p_multi.set_defaults(handler=_cmd_multiset)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
