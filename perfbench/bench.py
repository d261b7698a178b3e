"""The descon benchmark: fixed lists of CLI commands, each run in a fresh
``python -m descon`` process, timed end to end and checked against pinned
output digests.

    python3 perfbench/bench.py --workload enum_tables --seed 1 --seconds 30 --trace 0

Commands run one at a time from this single parent process. A run first
times ``setup_s`` probes, then repeats passes over the workload's commands
(in an order shuffled by the seed) until ``--seconds`` is spent, and reports
each command's median over the passes. With ``--trace 1`` it alternates an untraced pass with a
traced one (see ``spans.py``) and reports the per-layer metrics instead.
The last line of standard output is one JSON object; the lines before it
give every metric by name with its unit. ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"

VERIFY_PASSED = "all 14 checks passed"


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[str, ...]


WORKLOADS = {
    "enum_tables": Workload(
        "n!-sweep tables: almost all time is permutations.joint_statistics, "
        "the layer the subset-transform route replaces",
        (
            "table gamma --n 9 --format csv",
            "table gamma --n 8 --q --format json",
            "table b --n 8 --q --format json",
            "table gamma --n 9 --format csv --threads 2",
        ),
    ),
    "closed_tables": Workload(
        "closed-form tables: no permutation sweep; time is matrix assembly, "
        "Gaussian multinomials and emission, memory is dense storage",
        (
            "table a --n 11 --format csv",
            "table a --q --n 10 --format json",
            "table m --n 11 --paper-order",
        ),
    ),
    "verify_suite": Workload(
        "identity suite: Permutation objects, multiset words, dense matrix "
        "products and Laurent arithmetic; multiset-bijection dominates",
        ("verify --max-n 7 --q",),
    ),
}

# Words for the setup_s probe (`descon stats WORD`); the seed picks among them.
PROBE_WORDS = ("1342", "2413", "31524", "4321", "123456", "654321", "2143", "51423")
PROBES_PER_RUN = 9

# Every command gets killed at this many seconds after the run starts, so
# a run ends well within three minutes even if a command hangs.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

VERIFY_CHECKS = (
    "containment-counts",
    "least-inversions",
    "zeta-signed-inverse",
    "superset-closed-form",
    "diagonal-conjugation",
    "b-factorization",
    "signed-inverses",
    "multiset-counts",
    "multiset-bijection",
    "connected-series",
    "q-specialization",
    "q-superset-closed-form",
    "q-diagonal-conjugation",
    "q-signed-inverses",
)

PER_LAYER = (
    ("permutations.joint_statistics.self_s", "s"),
    ("permutations.joint_statistics.calls", "count"),
    ("permutations.enumerate_permutations.words", "count"),
    ("permutations.multiset_words.words", "count"),
    ("permutations.reduce_to_multiset.calls", "count"),
    ("permutations.connected_count.self_s", "s"),
    ("matrices.gamma_matrix.self_s", "s"),
    ("matrices.gamma_q_matrix.self_s", "s"),
    ("matrices.b_matrix_direct.self_s", "s"),
    ("matrices.b_q_matrix_direct.self_s", "s"),
    ("matrices.a_matrix_closed.self_s", "s"),
    ("matrices.a_q_matrix_closed.self_s", "s"),
    ("matrices.zeta_matrix.self_s", "s"),
    ("matrices.matmul.self_s", "s"),
    ("matrices.matmul.calls", "count"),
    ("matrices.inverse_closed.self_s", "s"),
    ("matrices.multiset_count_matrix.self_s", "s"),
    ("matrices.diagonal_conjugation_matrix.self_s", "s"),
    ("matrices.entries", "count"),
    ("matrices.nonzero_ratio", "ratio"),
    ("rings.q_multinomial.self_s", "s"),
    ("rings.q_multinomial.calls", "count"),
    ("rings.poly_mul.calls", "count"),
    ("rings.poly_add.calls", "count"),
    ("subsets.eta.calls", "count"),
    ("subsets.eta_q.calls", "count"),
    ("subsets.min_inversions.calls", "count"),
    ("subsets.cardinality_lex_order.self_s", "s"),
    ("series.connected_counts_series.self_s", "s"),
    ("verify.run_checks.self_s", "s"),
    *((f"verify.{check}.s", "s") for check in VERIFY_CHECKS),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.inspect.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Outcome:
    """One finished command: wall and CPU seconds, peak RSS of that process
    alone, bytes written to stdout, and why it failed (None when it passed)."""

    command: str
    wall: float
    cpu: float
    rss_mb: float
    out_bytes: int
    error: str | None


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def is_report(command: str) -> bool:
    # `verify` prints per-check timings, so its pin covers the text without them.
    return command.split()[0] == "verify"


_TIMING = re.compile(rb"\s+[0-9]+\.[0-9]+s$")


def digest_stream(stream, report: bool) -> tuple[str, int, bool]:
    """sha256 of a child's stdout, read in chunks; for a verify report, of
    its lines with the timing column removed. Also returns the byte count and
    whether the report's summary line says every check passed."""
    digest, size, passed = hashlib.sha256(), 0, False
    if report:
        for line in stream:
            size += len(line)
            text = line.rstrip(b"\n")
            passed = passed or text == VERIFY_PASSED.encode()
            digest.update(_TIMING.sub(b"", text) + b"\n")
    else:
        while chunk := stream.read(1 << 20):
            size += len(chunk)
            digest.update(chunk)
    return digest.hexdigest(), size, passed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DESCON_MAX_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_command(
    command: str,
    pins: dict,
    deadline: float,
    trace_out: Path | None = None,
    command_id: int = 0,
    prefix: list[str] | None = None,
) -> Outcome:
    """Run one CLI command in a fresh process and check it against its pin.

    Peak RSS and CPU come from ``os.wait4`` on this child, so neither earlier
    children nor this harness's own memory leak into them. A nonzero exit, a
    digest mismatch or a timeout is returned as the outcome's error, never
    raised. ``prefix`` replaces ``python -m descon`` (the self-test uses it).
    """
    argv = command.split()
    if prefix is not None:
        head = prefix
    elif trace_out is not None:
        head = [sys.executable, str(HERE / "spans.py"), str(trace_out), str(command_id)]
    else:
        head = [sys.executable, "-m", "descon"]
    report = is_report(command)
    start = time.perf_counter()
    proc = subprocess.Popen(
        head + argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.perf_counter(), 0.5), kill)
    timer.start()
    try:
        with proc.stdout:
            digest, size, passed = digest_stream(proc.stdout, report)
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    pin = pins.get(command)
    if timed_out.is_set():
        error = "timeout"
    elif pin is None:
        error = "no pinned digest"
    elif code != pin["exit"]:
        error = f"exit code {code}, pinned {pin['exit']}"
    elif digest != pin["sha256"]:
        error = f"stdout sha256 {digest[:12]}, pinned {pin['sha256'][:12]}"
    elif report and not passed:
        error = f"missing line {VERIFY_PASSED!r}"
    else:
        error = None
    return Outcome(
        command,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        size,
        error,
    )


class Run:
    """Commands of one benchmark run, with their outcomes and failures."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.outcomes: list[Outcome] = []

    def command(self, command: str, **kwargs) -> Outcome:
        outcome = run_command(command, self.pins, self.deadline, **kwargs)
        if outcome.error:
            print(f"FAILED {command}: {outcome.error}", file=sys.stderr)
        self.outcomes.append(outcome)
        return outcome

    def workload_pass(self, commands, trace_dir: Path | None = None) -> list[Outcome]:
        out = []
        for command in commands:
            if trace_dir is None:
                out.append(self.command(command))
            else:
                cid = len(self.outcomes)
                out.append(self.command(command, trace_out=trace_dir / f"{cid}.json", command_id=cid))
        return out

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error)


def end_to_end(passes: list[list[Outcome]], probes: list[Outcome]) -> dict[str, float]:
    """Each command's median over the passes, summed over the commands for
    wall and CPU time and maximised for peak RSS; and the median probe time.

    Taking each command's median before summing keeps one slow moment of a
    shared machine from spoiling a whole pass.
    """
    by_command: dict[str, list[Outcome]] = {}
    for outcome in (o for p in passes for o in p):
        by_command.setdefault(outcome.command, []).append(outcome)

    def medians(field: str) -> list[float]:
        return [statistics.median(getattr(o, field) for o in runs) for runs in by_command.values()]

    return {
        "wall_s": sum(medians("wall")),
        "cpu_s": sum(medians("cpu")),
        "peak_rss_mb": max(medians("rss_mb")),
        "setup_s": statistics.median(o.wall for o in probes),
    }


def per_layer(dumps, traced_passes, untraced_passes) -> dict[str, float]:
    """Per-layer metrics averaged over the traced passes."""
    self_s, calls, values = spans.summarize(dumps)
    k = len(traced_passes)
    traced_wall = statistics.median(sum(o.wall for o in p) for p in traced_passes)
    untraced_wall = statistics.median(sum(o.wall for o in p) for p in untraced_passes)
    entries = calls["matrices.entries"]
    derived = {
        "matrices.entries": entries / k,
        "matrices.nonzero_ratio": calls["matrices.nonzero"] / entries if entries else 0.0,
        "cli.out_bytes": sum(o.out_bytes for p in traced_passes for o in p) / k,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    out = {}
    for name, _unit in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif suffix == "self_s":
            out[name] = self_s.get(base, 0.0) / k
        elif suffix == "calls":
            out[name] = calls[base] / k
        elif name.startswith("verify."):
            out[name] = values.get(name, 0.0) / k
        else:
            out[name] = calls[name] / k
    return out


def _repeat(seconds: float, body) -> None:
    """Call body() at least once, and again while another call of the last
    one's length still fits in the given seconds."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure(name: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    """One benchmark run of one workload; returns the result object."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    run = Run(pins)
    untraced: list[list[Outcome]] = []

    def shuffled():
        return rng.sample(workload.commands, len(workload.commands))

    if trace:
        traced: list[list[Outcome]] = []
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            trace_dir = Path(tmp)

            def pair():
                untraced.append(run.workload_pass(shuffled()))
                traced.append(run.workload_pass(shuffled(), trace_dir))

            _repeat(seconds, pair)
            dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        metrics = per_layer(dumps, traced, untraced)
        units = dict(PER_LAYER)
        detail = f"{len(traced)} traced passes"
    else:
        run.command(f"stats {PROBE_WORDS[0]}")  # fills __pycache__ before timing
        probes = [run.command(f"stats {rng.choice(PROBE_WORDS)}") for _ in range(PROBES_PER_RUN)]
        _repeat(seconds, lambda: untraced.append(run.workload_pass(shuffled())))
        metrics = end_to_end(untraced, probes)
        units = dict(END_TO_END)
        detail = f"medians over {len(untraced)} passes and {len(probes)} probes"
        for command in workload.commands:
            walls = [o.wall for p in untraced for o in p if o.command == command]
            print(
                f"{name:14} {command:44} wall median {statistics.median(walls):.4g} s, "
                f"range {min(walls):.4g}-{max(walls):.4g} s"
            )
    attempted = len(run.outcomes)
    for metric, value in metrics.items():
        print(f"{name:14} {metric:44} {value:.6g} {units[metric]}")
    print(f"{name:14} {'failed_ratio':44} {run.failed / attempted:.6g} ratio")
    print(f"{name:14} ({detail}; {attempted} commands attempted, {run.failed} failed)")
    return {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "descon" / "__main__.py").is_file():
        print(f"error: no descon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = load_pins()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace), pins) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
