#!/usr/bin/env python3
"""Compare a change with its parent by the protocol in ``README.md``.

Run the same workload at least ten times on each commit, alternating
which side runs first, and save each run's last output line::

    python3 perfbench/run.py --workload native-14t --seed 7 | tail -1 >> parent.jsonl
    python3 perfbench/run.py --workload native-14t --seed 7 | tail -1 >> change.jsonl

then::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Run ``i`` of one file pairs with run ``i`` of the other.  Per
end-to-end metric this prints each side's median and quartiles and one
verdict:

``regression``
    the change's median is worse than the parent's by more than the
    metric's bound;
``gain``
    the change wins at least 9 of every 10 pairs and the medians differ
    by more than the parent's interquartile range;
``unresolved``
    the parent's own spread is wider than the bound, and not every
    change run beats every parent run;
``same``
    otherwise.

The exit code is 1 on any regression, or when the change fails more
operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

import stats
from catalog import END_TO_END

#: share of pairs the change must win to claim a gain
WIN_SHARE = 0.9


def load(path: Path) -> list[dict[str, Any]]:
    runs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            doc = json.loads(line)
            if "metrics" in doc:
                runs.append(doc)
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    # > 0 when the change is better, as a share of the parent median
    gain = sign * (c_med - p_med) / p_med
    if gain < -bound:
        return "regression"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if (wins >= WIN_SHARE * min(len(parent), len(change))
            and abs(c_med - p_med) > p_q3 - p_q1 and gain > 0):
        return "gain"
    if (p_q3 - p_q1) / p_med > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return "unresolved"
    return "same"


def compare(parent: list[dict[str, Any]],
            change: list[dict[str, Any]]) -> tuple[int, list[str]]:
    lines = [f"{len(parent)} parent runs, {len(change)} change runs"]
    rc = 0
    for name, unit, better, bound in END_TO_END:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = stats.quartiles(p), stats.quartiles(c)
        v = verdict(p, c, better, bound)
        rc |= v == "regression"
        lines.append(
            f"{name:12s} parent {pq[1]:10.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
            f"change {cq[1]:10.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {unit:4s} "
            f"{v}")
    p_failed = sum(r["failed"] for r in parent)
    c_failed = sum(r["failed"] for r in change)
    if c_failed > p_failed or not all(r["correct"] for r in change):
        lines.append(f"FAIL: the change failed {c_failed} operations, the "
                     f"parent {p_failed}")
        rc = 1
    return rc, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rc, lines = compare(load(args.parent), load(args.change))
    print("\n".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
