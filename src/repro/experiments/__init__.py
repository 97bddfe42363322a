"""Experiment harnesses: one module per table/figure of the paper.

==================  ==========================================
module              reproduces
==================  ==========================================
``overhead``        Figure 5 (per-benchmark overhead), Figure 6
                    (overhead vs thread count)
``clomp``           Table 1 + Figure 7 (CLOMP-TM decompositions)
``categorize``      Figure 8 (Type I/II/III quadrants)
``speedup``         Table 2 (optimization overview)
``correctness``     §7.2 (validation against ground truth)
``casestudy``       §8 case studies (Figure 9's dedup view is
                    rendered by its benchmark)
``runner``          build/run/profile one workload
==================  ==========================================

Figures 5-8 and Table 2 run their campaign suite
(:mod:`repro.campaign.suites`) in process, so they share one
implementation of each protocol with ``repro campaign``, the per-figure
commands and ``repro serve``.  §7.2 and §8 call :func:`run_workload`
directly: they read live instrumentation that run records do not carry.
"""

from .runner import Outcome, run_workload

__all__ = [
    "run_workload",
    "Outcome",
]
