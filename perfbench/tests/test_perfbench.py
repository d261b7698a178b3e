"""Self-test of the benchmark harness at tiny sizes (n <= 5)."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from descon.matrices import gamma_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import pin  # noqa: E402
import spans  # noqa: E402

TINY = "table gamma --n 4 --format csv"


def _deadline() -> float:
    return time.perf_counter() + 60


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", bench.Workload("tiny", (TINY,)))
    return "tiny"


def test_wrong_digest_is_counted_not_raised(tiny_workload):
    pins = bench.load_pins()
    pins[TINY] = {"exit": 0, "sha256": "0" * 64}
    result = bench.measure(tiny_workload, seed=3, seconds=0.01, trace=False, pins=pins)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 1 + bench.PROBES_PER_RUN + 1
    assert set(result["metrics"]) == {name for name, _unit in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exit_code_and_missing_pin_are_failures():
    pins = {TINY: {"exit": 1, "sha256": pin.pin(TINY)["sha256"]}}
    assert bench.run_command(TINY, pins, _deadline()).error == "exit code 0, pinned 1"
    assert bench.run_command("stats 1342", pins, _deadline()).error == "no pinned digest"


def test_verify_pin_ignores_timings():
    command = "verify --max-n 3 --q"
    pins = {command: pin.pin(command)}
    first = bench.run_command(command, pins, _deadline())
    second = bench.run_command(command, pins, _deadline())
    assert first.error is None and second.error is None


def test_traced_run_reports_every_layer(tiny_workload):
    pins = {TINY: pin.pin(TINY)}
    result = bench.measure(tiny_workload, seed=1, seconds=0.01, trace=True, pins=pins)
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _unit in bench.PER_LAYER]
    assert metrics["permutations.joint_statistics.calls"] == 1
    assert metrics["matrices.entries"] == 64
    gamma = gamma_matrix(4)
    nonzero = sum(1 for row in gamma.rows for v in row if v)
    assert metrics["matrices.nonzero_ratio"] == nonzero / 64
    assert metrics["cli.out_bytes"] == pins[TINY]["bytes"]
    assert metrics["permutations.reduce_to_multiset.calls"] == 0


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 6], a child [5.5, 7] that
    # overlaps its sibling, and one [9, 12] that outlives its parent;
    # [1, 4] has a child [2, 3].
    tree = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 5.0, 6.0),
        (3, 1, "c", 2.0, 3.0),
        (4, 0, "d", 5.5, 7.0),
        (5, 0, "e", 9.0, 12.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 10 - 3 - 2 - 1, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5, 5: 3.0}


def test_tracer_nesting_with_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: [inner(), inner()])
    outer()
    self_s, calls, _values = spans.summarize([tracer.dump(0)])
    # clock reads: outer 0, inner 1..2, inner 3..4, outer end 5
    assert self_s == {"outer": 3.0, "inner": 2.0}
    assert calls == {"outer": 1, "inner": 2}


def test_peak_rss_is_per_child():
    pins = bench.load_pins()
    hog = [sys.executable, "-c", "import sys; b = b'x' * (int(sys.argv[1]) << 20)"]
    before = bench.run_command("stats 1342", pins, _deadline())
    big = bench.run_command("80", pins, _deadline(), prefix=hog)
    after = bench.run_command("stats 1342", pins, _deadline())
    assert big.rss_mb > 80
    assert before.error is None and after.error is None
    assert after.rss_mb < 50
    assert abs(after.rss_mb - before.rss_mb) < 5


def test_benchmark_json_matches_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_every_command_is_pinned():
    pins = bench.load_pins()
    for workload in bench.WORKLOADS.values():
        for command in workload.commands:
            assert pins[command]["exit"] == 0
    for word in bench.PROBE_WORDS:
        assert pins[f"stats {word}"]["exit"] == 0
