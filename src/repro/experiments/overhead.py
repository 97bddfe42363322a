"""Figures 5 and 6: TxSampler's runtime overhead.

Figure 5: per-benchmark overhead of running with TxSampler attached,
averaged over several seeds with the paper's trimmed-mean protocol
(drop the smallest and largest of the runs).  Figure 6: the same
overhead averaged over the STAMP suite at 1/2/4/8/14 threads.  Both run
the ``overhead`` campaign suite (:mod:`repro.campaign.suites`) in
process.

Because our simulated executions are ~10^5-10^6 cycles (the paper's are
~10^11), individual high-conflict benchmarks show larger run-to-run
variation: a sampling interrupt perturbs the conflict interleaving enough
to move the makespan either way.  The *suite mean* is the stable,
comparable statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

#: the Figure 5 benchmark list (every non-optimized HTMBench program that
#: the paper's figure covers)
FIG5_BENCHMARKS: tuple[str, ...] = (
    # STAMP
    "vacation", "kmeans", "genome", "labyrinth", "yada", "intruder", "ssca",
    # PARSEC
    "dedup", "netdedup", "netstreamcluster", "netferret",
    # SPLASH-2
    "barnes", "fmm", "ocean", "water", "raytrace",
    # Parboil / NPB / HPCS
    "histo", "ua", "ssca2",
    # Synchrobench
    "linkedlist", "skiplist",
    # RMS-TM
    "utilitymine", "scalparc",
    # applications
    "leveldb", "avltree", "bplustree", "leetm", "kyotocabinet",
    "berkeleydb", "memcached", "pbzip2", "bart", "quaketm",
)

#: the STAMP subset used for Figure 6
FIG6_BENCHMARKS: tuple[str, ...] = (
    "vacation", "kmeans", "genome", "labyrinth", "yada", "intruder", "ssca",
)

FIG6_THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 14)


@dataclass
class OverheadRow:
    """One Figure 5 bar: a benchmark's trimmed-mean overhead + spread."""

    name: str
    mean: float
    min_: float
    max_: float
    runs: list[float]


def figure5(
    benchmarks: Sequence[str] | None = None,
    n_threads: int = 14,
    scale: float = 1.0,
    runs: int = 5,
) -> list[OverheadRow]:
    """Per-benchmark sampling overhead (the bars of Figure 5)."""
    from ..campaign.suites import overhead_rows_from_records, run_suite

    rows = overhead_rows_from_records(*run_suite(
        "overhead", workloads=benchmarks, n_threads=n_threads,
        scale=scale, runs=runs, drop=1,
    ))
    return [
        OverheadRow(name=name, mean=mean, min_=min(all_runs),
                    max_=max(all_runs), runs=all_runs)
        for name, mean, all_runs in rows
    ]


def suite_mean(rows: Sequence[OverheadRow]) -> float:
    return sum(r.mean for r in rows) / len(rows) if rows else 0.0


def figure6(
    thread_counts: Sequence[int] = FIG6_THREAD_COUNTS,
    benchmarks: Sequence[str] = FIG6_BENCHMARKS,
    scale: float = 1.0,
    runs: int = 3,
) -> dict[int, tuple[float, float]]:
    """STAMP-average overhead per thread count: {threads: (mean, spread)}."""
    from ..campaign.suites import overhead_rows_from_records, run_suite

    out: dict[int, tuple[float, float]] = {}
    for n in thread_counts:
        means = [mean for _, mean, _ in overhead_rows_from_records(
            *run_suite("overhead", workloads=benchmarks, n_threads=n,
                       scale=scale, runs=runs, drop=0))]
        avg = sum(means) / len(means)
        var = sum((x - avg) ** 2 for x in means) / len(means)
        out[n] = (avg, math.sqrt(var))
    return out


def render_figure5(rows: Sequence[OverheadRow]) -> str:
    lines = ["=== Figure 5: TxSampler runtime overhead (native vs sampled) ==="]
    for r in rows:
        bar = "#" * max(0, min(40, int(round(r.mean * 400))))
        lines.append(
            f"  {r.name:18s} {r.mean:7.2%}  [{r.min_:+.1%}, {r.max_:+.1%}] {bar}"
        )
    lines.append(f"  {'MEAN':18s} {suite_mean(rows):7.2%}")
    return "\n".join(lines)


def render_figure6(data: dict[int, tuple[float, float]]) -> str:
    lines = ["=== Figure 6: overhead vs thread count (STAMP average) ==="]
    for n, (mean, spread) in sorted(data.items()):
        lines.append(f"  {n:2d} threads: {mean:7.2%} +- {spread:.2%}")
    return "\n".join(lines)
