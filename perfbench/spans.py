"""Span tracing for the benchmark, installed from outside the program.

``Tracer.install()`` replaces the public functions of each ``descon`` module
with wrappers that record a span (name, start, end, parent) or bump a
counter, and patches every ``descon`` module that imported the same
function, so calls between modules are seen too. Nothing under ``src/`` is
changed; the untraced benchmark run installs none of this.

Run as a script, this file executes one CLI command traced and writes its
spans and counters as JSON when the command ends::

    PYTHONPATH=src python3 perfbench/spans.py OUT.json CMD_ID table gamma --n 5

Two limits of tracing from outside:

- ``enumerate_permutations`` and ``multiset_words`` return iterators. Their
  span covers only the call; the items are counted as the caller consumes
  them, and the time spent consuming them belongs to the caller's span.
- With ``--threads 2`` the sweep runs in pool worker processes, whose spans
  are not collected. The parent's ``joint_statistics`` span covers the
  pool's wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Public functions timed as spans, by module.
SPAN_TARGETS = {
    "permutations": (
        "joint_statistics",
        "enumerate_permutations",
        "multiset_words",
        "connected_count",
    ),
    "matrices": (
        "gamma_matrix",
        "gamma_q_matrix",
        "b_matrix_direct",
        "b_q_matrix_direct",
        "a_matrix_closed",
        "a_q_matrix_closed",
        "zeta_matrix",
        "inverse_closed",
        "multiset_count_matrix",
        "diagonal_conjugation_matrix",
    ),
    "rings": ("q_multinomial",),
    "subsets": ("cardinality_lex_order",),
    "series": ("connected_counts_series",),
    "verify": ("run_checks",),
    "cli": ("main",),
}

# Hot functions that are only counted: a span per call would cost more
# than the call itself.
COUNT_TARGETS = {
    "permutations": ("reduce_to_multiset",),
    "subsets": ("eta", "eta_q", "min_inversions"),
}

# Functions returning an iterator whose items are counted as "<span>.words".
ITERATOR_TARGETS = {"permutations.enumerate_permutations", "permutations.multiset_words"}

# Builders whose returned matrices are inspected for matrices.entries and
# matrices.nonzero_ratio.
MATRIX_BUILDERS = {f"matrices.{name}" for name in SPAN_TARGETS["matrices"]}

# Ring operators counted together for both polynomial types.
POLYNOMIAL_TYPES = ("IntPolynomial", "LaurentPolynomial")
RING_OPERATORS = {"poly_mul": ("__mul__", "__rmul__"), "poly_add": ("__add__", "__radd__")}

INSPECT = "trace.inspect"
# The identity suite; each check's own timing is recorded as verify.<check>.s.
CHECKS = "verify.run_checks"


class Tracer:
    """Spans and counters of one traced process, kept in memory.

    A span is ``(span_id, parent_id, name, start, end)``; the parent of a
    top-level span is -1. ``dump`` prefixes each with the command id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, self.clock())

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if name in ITERATOR_TARGETS:
                return self._count_items(f"{name}.words", result)
            if name in MATRIX_BUILDERS:
                self._inspect_matrix(result)
            elif name == CHECKS:
                for check in result:
                    self.values[f"verify.{check.name}.s"] = check.seconds
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_items(self, name: str, items):
        counts = self.counts
        for item in items:
            counts[name] += 1
            yield item

    def _inspect_matrix(self, matrix) -> None:
        rows = getattr(matrix, "rows", None)
        if rows is None:
            return
        # A span of its own, so its cost is not charged to the caller's self time.
        sid, parent = self._open()
        start = self.clock()
        try:
            self.counts["matrices.entries"] += sum(len(row) for row in rows)
            self.counts["matrices.nonzero"] += sum(1 for row in rows for v in row if v)
        finally:
            self._close(sid, parent, INSPECT, start)

    def install(self) -> None:
        """Wrap the targets in every loaded ``descon`` module.

        A target the program no longer has is skipped, so its metrics read 0
        instead of the traced run failing.
        """
        import descon.cli  # noqa: F401  (loads every module of the package)

        replacements = {}
        for targets, make in ((SPAN_TARGETS, self.span), (COUNT_TARGETS, self.counted)):
            for module_name, names in targets.items():
                module = sys.modules.get(f"descon.{module_name}")
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        continue
                    replacements[id(original)] = (
                        original,
                        make(f"{module_name}.{name}", original),
                    )
        for module_name, module in list(sys.modules.items()):
            if module_name != "descon" and not module_name.startswith("descon."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        matrix_cls = getattr(sys.modules.get("descon.matrices"), "SubsetMatrix", None)
        if matrix_cls is not None and "__matmul__" in vars(matrix_cls):
            matrix_cls.__matmul__ = self.span("matrices.matmul", matrix_cls.__matmul__)
        rings = sys.modules.get("descon.rings")
        for cls_name in POLYNOMIAL_TYPES:
            cls = getattr(rings, cls_name, None)
            for metric, dunders in RING_OPERATORS.items():
                for dunder in dunders:
                    if cls is not None and dunder in vars(cls):
                        setattr(cls, dunder, self.counted(f"rings.{metric}", vars(cls)[dunder]))

    def dump(self, command_id: int) -> dict:
        return {
            "spans": [[command_id, *s] for s in self.spans if s is not None],
            "counts": dict(self.counts),
            "values": self.values,
        }


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def summarize(dumps) -> tuple[dict[str, float], Counter, dict[str, float]]:
    """Per-name self time, per-name call counts and summed recorded values
    over the span dumps of several commands."""
    self_s: dict[str, float] = {}
    calls: Counter = Counter()
    values: dict[str, float] = {}
    for dump in dumps:
        spans = [tuple(s[1:]) for s in dump["spans"]]
        own = self_times(spans)
        for sid, _parent, name, _start, _end in spans:
            self_s[name] = self_s.get(name, 0.0) + own[sid]
            calls[name] += 1
        calls.update(dump["counts"])
        for key, value in dump["values"].items():
            values[key] = values.get(key, 0.0) + value
    return self_s, calls, values


def _main(argv: list[str]) -> int:
    out_path, command_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    import descon.cli

    try:
        code = descon.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(command_id), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
