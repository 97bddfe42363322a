"""Instrumentation hooks inside the RTM runtime.

Two uses, mirroring the paper:

1. **Ground truth** (§7.2): with zero perturbation (``cost_per_event=0``)
   the recorder sees every begin/commit/abort exactly, giving the oracle
   TxSampler's sampled profiles are validated against.
2. **Instrumentation-based baseline**: with nonzero per-event cost and
   optional write-set perturbation it models what instrumenting
   transactions does to the program being measured (extra cycles, inflated
   footprints → extra capacity aborts) — the reason the paper rejects
   instrumentation for HTM profiling.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.status import AbortStatus
    from ..htm.tsx import Transaction
    from ..sim.thread import ThreadContext
    from .runtime import CriticalSection


class TxnInstrumentation:
    """Per-critical-section exact event recorder with a perturbation model."""

    def __init__(self, cost_per_event: int = 0, extra_wset_lines: int = 0) -> None:
        #: cycles charged to the thread at each instrumented event
        self.cost_per_event = cost_per_event
        #: synthetic cache lines added to each transaction's write set,
        #: modeling instrumentation buffers inflating the footprint
        self.extra_wset_lines = extra_wset_lines
        self.begins: dict[str, int] = defaultdict(int)
        self.commits: dict[str, int] = defaultdict(int)
        self.fallbacks: dict[str, int] = defaultdict(int)
        self.aborts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.abort_weight: dict[str, int] = defaultdict(int)
        #: per-thread commit/abort counts (for §5's contention histograms)
        self.commits_by_thread: dict[int, int] = defaultdict(int)
        self.aborts_by_thread: dict[int, int] = defaultdict(int)
        self._next_fake_line = 1 << 40  # outside any real data line range

    # -- hooks called by the runtime ----------------------------------------

    def on_begin(self, ctx: "ThreadContext", cs: "CriticalSection",
                 txn: "Transaction") -> int:
        self.begins[cs.name] += 1
        if self.extra_wset_lines:
            base = self._next_fake_line + ctx.tid * 64
            ctx.sim.htm.add_write_lines(
                txn, range(base, base + self.extra_wset_lines))
        return self.cost_per_event

    def on_commit(self, ctx: "ThreadContext", cs: "CriticalSection") -> int:
        self.commits[cs.name] += 1
        self.commits_by_thread[ctx.tid] += 1
        return self.cost_per_event

    def on_abort(self, ctx: "ThreadContext", cs: "CriticalSection",
                 status: "AbortStatus", weight: int) -> int:
        self.aborts[cs.name][status.reason] += 1
        self.abort_weight[cs.name] += weight
        self.aborts_by_thread[ctx.tid] += 1
        return self.cost_per_event

    def on_fallback(self, ctx: "ThreadContext", cs: "CriticalSection") -> int:
        self.fallbacks[cs.name] += 1
        return self.cost_per_event

    # -- aggregate views -----------------------------------------------------

    def total_commits(self) -> int:
        return sum(self.commits.values())

    def total_aborts(self, reason: str | None = None) -> int:
        if reason is None:
            return sum(sum(d.values()) for d in self.aborts.values())
        return sum(d.get(reason, 0) for d in self.aborts.values())

    def abort_commit_ratio(self) -> float:
        commits = self.total_commits()
        return self.total_aborts() / commits if commits else float("inf")
