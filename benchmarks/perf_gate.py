#!/usr/bin/env python3
"""CI speed gate: this tree against its merge base, through perfbench.

Usage (CI runs exactly this, with the pull request's base branch)::

    python benchmarks/perf_gate.py --base origin/main

The gate checks the merge base of ``--base`` and ``HEAD`` out into a
temporary ``git worktree``.  For each workload that both trees'
``perfbench/catalog.py`` list, it runs :data:`PAIRS` alternating pairs:
pair ``i`` runs ``perfbench/run.py --workload W --seed i --seconds
SECONDS --trace 0`` once from each tree, odd pairs parent first, even
pairs change first.  Each tree runs its own ``run.py`` against its own
``expected.json``.  The last output line of every run goes to
perfbench's ``compare.compare()``.

The exit code is 1 when ``compare`` reports a regression or more
failed operations, or when a change-side run exits non-zero or prints
``correct: false``.  A parent-side failure is reported and skips that
workload's comparison, so a change that repairs a broken parent is not
blocked.  A workload only the change lists is reported as not gated.
The worktree is always removed.

Five workloads at 5 pairs is 50 runs of about 8 s: about 7 minutes
on a 2-core host.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import compare  # noqa: E402

#: alternating parent/change pairs per workload; pair i runs seed i.
#: serve-open's op_latency_ms is bimodal on a 2-core host (4.5 or
#: 5.5-6 ms on identical code): drawn from 12 such runs, 3 pairs put
#: the medians past the 24% bound 5.6% of the time, 5 pairs 1.6%
PAIRS = 5
#: each run's timed window
SECONDS = 5

#: one run's exit code and its last output line, parsed (None if absent)
Run = tuple[int, dict[str, Any] | None]


def workload_names(tree: Path) -> tuple[str, ...]:
    """The workloads ``tree``'s ``perfbench/catalog.py`` lists."""
    spec = importlib.util.spec_from_file_location(
        "_gate_catalog", tree / "perfbench" / "catalog.py")
    assert spec is not None and spec.loader is not None
    catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalog)
    return tuple(catalog.WORKLOAD_NAMES)


def run_once(tree: Path, workload: str, seed: int) -> Run:
    """One ``--trace 0`` window of ``workload`` from ``tree``; a failed
    run's output is echoed so the CI log shows what missed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    doc = json.loads(last) if last.startswith("{") else None
    run = proc.returncode, doc
    if _failure(run):
        print(proc.stdout, end="")
    return run


def _failure(run: Run) -> str | None:
    code, doc = run
    if code:
        return f"exited {code}"
    if doc is None:
        return "printed no result line"
    if doc.get("correct") is not True:
        return "printed correct: false"
    return None


def gate_workload(parent: Path, change: Path, workload: str) -> int:
    """:data:`PAIRS` alternating pairs of ``workload``, then compare."""
    trees = {"parent": parent, "change": change}
    runs: dict[str, list[Run]] = {"parent": [], "change": []}
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed))
        why = _failure(runs["change"][-1])
        if why:
            print(f"FAIL: {workload}: the change's seed-{seed} run {why}")
            return 1
    for seed, run in enumerate(runs["parent"], 1):
        why = _failure(run)
        if why:
            print(f"skip: {workload}: the parent's seed-{seed} run {why}; "
                  f"not compared")
            return 0
    parent_docs, change_docs = ([doc for _, doc in runs[side] if doc]
                                for side in ("parent", "change"))
    rc, lines = compare(parent_docs, change_docs)
    print("\n".join(f"  {line}" for line in lines))
    return rc


def gate(parent: Path, change: Path) -> int:
    """Every workload both trees list; 1 if any of them fails."""
    theirs = set(workload_names(parent))
    rc = 0
    for workload in workload_names(change):
        if workload not in theirs:
            print(f"{workload}: not gated (the parent has no such "
                  f"workload)")
            continue
        print(f"=== {workload}: {PAIRS} pairs of {SECONDS} s windows ===")
        rc |= gate_workload(parent, change, workload)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare with; the parent is its "
                             "merge base with HEAD")
    args = parser.parse_args(argv)
    # the runs' stderr is not captured; keep the gate's lines in order
    sys.stdout.reconfigure(line_buffering=True)
    git = ["git", "-C", str(ROOT)]
    merge_base = subprocess.run([*git, "merge-base", args.base, "HEAD"],
                                stdout=subprocess.PIPE, text=True)
    if merge_base.returncode:
        print(f"FAIL: no merge base of {args.base} and HEAD (is the "
              f"history fetched?)")
        return 1
    base = merge_base.stdout.strip()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet",
                        str(parent), base], check=True)
        try:
            print(f"parent: {base[:12]}, the merge base of {args.base} "
                  f"and HEAD")
            rc = gate(parent, ROOT)
        finally:
            subprocess.run([*git, "worktree", "remove", "--force",
                            str(parent)])
    print(f"{'FAIL' if rc else 'ok'}: perf gate "
          f"({time.monotonic() - start:.0f} s)")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
