#!/usr/bin/env python3
"""One benchmark for every user path of the TxSampler reproduction.

Run from the repository root (``README.md`` in this directory explains
the workloads, metrics and comparison protocol)::

    python3 perfbench/run.py                     # all five workloads, seed 0
    python3 perfbench/run.py --workload native-14t --seed 3 --seconds 10
    python3 perfbench/run.py --trace 1           # per-layer split + Chrome traces
    python3 perfbench/run.py --regen-expected    # re-pin expected.json

Each workload runs in child processes of its own: set-up is repeated
:data:`SETUP_RUNS` times in fresh children (``setup_s`` is the median,
from spawn until the child is ready), and the last child goes on to the
timed window and the output checks.  The last line of standard output
for ``--workload`` is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The exit code is 1 when any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from catalog import END_TO_END, PER_LAYER, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: outputs (Chrome traces, per-layer tables, serve stores) go here
OUT = ROOT / ".perfbench"
#: set-ups per run; the median is ``setup_s``
SETUP_RUNS = 5
#: a run is killed past this, under the 180 s every run must end within
RUN_TIMEOUT_S = 170.0
DEFAULT_SECONDS = 15


class BenchError(RuntimeError):
    """A child failed to set up or to report."""


# ---------------------------------------------------------------------------
# parent: spawn children, time set-up, assemble the result
# ---------------------------------------------------------------------------


def _child(mode: str, workload: str, seed: int, seconds: float,
           trace: int, deadline: float) -> tuple[float, str]:
    """Run one child to completion; returns (seconds until it was
    ready, what it printed after that)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} {mode} child exited with {code}")
    return setup, rest


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict[str, Any], list[str]]:
    """Measure one workload; returns the result object and the report
    lines that go before it."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = 1 if trace else SETUP_RUNS
    setups = []
    for i in range(runs):
        mode = "run" if i == runs - 1 else "setup"
        setup, rest = _child(mode, workload, seed, seconds, trace, deadline)
        setups.append(setup)
    try:
        outcome = json.loads(rest.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload}: child printed no result") from exc
    return assemble(workload, seed, seconds, trace, setups, outcome)


def assemble(workload: str, seed: int, seconds: float, trace: int,
             setups: list[float], outcome: dict[str, Any]
             ) -> tuple[dict[str, Any], list[str]]:
    lines = [f"== {workload}  seed {seed}  {seconds:g} s  "
             f"trace {'on' if trace else 'off'}"]
    metrics: dict[str, dict[str, Any]] = {}
    if trace:
        values = outcome["per_layer"]
        for name, unit, *_ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            if values[name]:
                lines.append(f"  {name:36s} {values[name]:14.4f} {unit}")
    else:
        values = dict(outcome["e2e"], setup_s=statistics.median(setups))
        samples = dict(outcome["samples"],
                       setup_s=f"median of {len(setups)} set-ups")
        for name, unit, *_ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"  {name:12s} {values[name]:12.4f} {unit:5s} "
                         f"({samples[name]})")
    lines.extend(f"  {note}" for note in outcome["notes"])
    lines.append(f"  attempted {outcome['attempted']}, "
                 f"failed {outcome['failed']}")
    result = {"correct": outcome["failed"] == 0,
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    return result, lines


def run_all(seed: int, seconds: float, trace: int,
            layers_out: Path | None) -> int:
    """Every workload in turn; one summary; 1 if any output is wrong."""
    merged: dict[str, Any] = {}
    wrong = []
    for workload in WORKLOAD_NAMES:
        result, lines = run_workload(workload, seed, seconds, trace)
        print("\n".join(lines))
        print(json.dumps({"workload": workload, **result}), flush=True)
        if not result["correct"]:
            wrong.append(workload)
        if trace:
            table = OUT / "trace" / f"{workload}-seed{seed}.layers.json"
            merged[workload] = json.loads(table.read_text())
    if layers_out is not None and merged:
        layers_out.write_text(json.dumps(merged, indent=2, sort_keys=True)
                              + "\n")
        print(f"wrote {layers_out}")
    print(f"FAIL: wrong outputs in {wrong}" if wrong else
          f"ok: {len(WORKLOAD_NAMES)} workloads, every output checked")
    return 1 if wrong else 0


# ---------------------------------------------------------------------------
# child: set up, report ready, measure, report
# ---------------------------------------------------------------------------


def child(mode: str, workload: str, seed: int, seconds: float,
          trace: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.make(workload, seed)
    try:
        wl.setup()
        print("READY", flush=True)
        if mode == "setup":
            return 0
        outcome = wl.measure(seconds, bool(trace), OUT / "trace")
    finally:
        wl.close()
    print(json.dumps(asdict(outcome)), flush=True)
    return 0


def regen_expected() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    doc = workloads.regenerate_expected(sorted(workloads.PASS_WORKLOADS))
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    print(f"wrote {workloads.EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, one after "
                             "another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed window per workload "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics, Chrome trace and "
                             "per-layer table instead of end-to-end ones")
    parser.add_argument("--layers-out", type=Path,
                        help="with --trace 1 and all workloads: write the "
                             "merged per-layer tables here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute the pinned digests in "
                             "expected.json (several minutes)")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if args.child:
        return child(args.child, args.workload, args.seed, args.seconds,
                     args.trace)
    if args.regen_expected:
        return regen_expected()
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.trace,
                           args.layers_out)
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
