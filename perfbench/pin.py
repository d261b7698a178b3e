"""Regenerate ``pins.json``: the exit code and stdout sha256 of every
command the benchmark runs, taken from the current source tree.

    python3 perfbench/pin.py

Run it only on a tree whose output is known to be right: the pins are what
the benchmark checks every later tree against. For ``verify`` the digest
covers the report with its per-check timing column removed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import bench


def pin(command: str) -> dict:
    proc = subprocess.Popen(
        [sys.executable, "-m", "descon", *command.split()],
        cwd=bench.ROOT,
        env=bench.child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    with proc.stdout:
        digest, size, passed = bench.digest_stream(proc.stdout, bench.is_report(command))
    code = proc.wait()
    if bench.is_report(command) and not passed:
        raise SystemExit(f"{command}: report lacks {bench.VERIFY_PASSED!r}; refusing to pin")
    return {"exit": code, "sha256": digest, "bytes": size}


def main() -> int:
    commands = [f"stats {word}" for word in bench.PROBE_WORDS]
    for workload in bench.WORKLOADS.values():
        commands.extend(workload.commands)
    pins = {}
    for command in commands:
        pins[command] = pin(command)
        print(command, pins[command], flush=True)
    bench.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
