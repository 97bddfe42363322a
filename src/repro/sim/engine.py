"""The discrete-event multicore execution engine.

Scheduling: the runnable thread with the smallest local clock executes one
instruction (deterministic tie-break on thread id), so cross-thread
interleavings respect simulated time — which is what makes conflict
windows, lock convoys and starvation behave like they do on silicon while
every run stays exactly reproducible.

Per step the engine:

1. retires a doomed transaction (rollback cost, RTM_ABORTED count,
   possibly an ``rtm_aborted`` PMU sample) and delivers
   :class:`~repro.sim.errors.AbortSignal` into the thread, or resumes the
   thread's generator with the previous instruction's result;
2. interprets the yielded instruction: costs, memory effects, HTM
   read/write-set tracking, conflict arbitration, page faults, barriers;
3. drives the PMU: counts events, and on counter overflow delivers a
   sampling interrupt — which **aborts an in-flight transaction** before
   the profiler's handler observes the machine (the paper's Challenge I).

Every profile, campaign and served job waits on this loop, so it is
kept lean without changing one simulated cycle, RNG draw, sample or
record: conflict arbitration asks the HTM engine's per-line index
before it scans live transactions (:mod:`repro.htm.tsx`); a step reads
memory, page residency and the write buffer inline; the cost jitter
draws ``randrange``'s bits itself; PMU counting is skipped for threads
with no counters; and :meth:`Simulator.run` keeps stepping a thread for
as long as it still sorts before every other runnable one, which is
exactly when popping the queue would hand it back.
``tests/test_engine_fastpath.py`` checks each against the plain form.

Instruction pointers are ``fn.base + source line`` of the issuing call
(:mod:`repro.sim.thread`), so a profile digest pins the line layout of
every simulated function: moving a line of ``rtm/runtime.py``,
``dslib/``, ``htmbench/`` or a workload changes it, while the engine,
the HTM engine and the PMU may change freely.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from ..htm.status import ABORT_INTERRUPT, ABORT_SYNC, AbortStatus
# tsx / runtime are referenced through their modules (attribute lookup is
# deferred to Simulator construction) so that importing any subpackage
# first — core, htm, rtm or sim — resolves without a circular-import trap.
from ..htm import tsx as _tsx
from ..faults.inject import FaultInjector
from ..obs.hooks import Observability
from ..pmu.counters import PmuBank
from ..pmu.events import CYCLES, MEM_LOADS, MEM_STORES, RTM_ABORTED, RTM_COMMIT
from ..pmu.sampling import Sample
from ..rtm import runtime as _rtm_runtime
from .config import MachineConfig, line_of
from .errors import AbortSignal, SimDeadlock, SimError
from .memory import Memory
from .program import (
    OP_BARRIER,
    OP_CAS,
    OP_COMPUTE,
    OP_LOAD,
    OP_NOP,
    OP_STORE,
    OP_SYSCALL,
    Barrier,
    SimFunction,
)
from .thread import ThreadContext

#: a thread program: (function, positional args, keyword args)
Program = tuple[SimFunction, tuple, dict]


@dataclass
class RunResult:
    """Everything a harness needs after a run."""

    #: wall-clock analogue: the largest per-thread cycle count
    makespan: int
    #: total work W: cycles summed over threads (Equation 1's left side)
    work: int
    per_thread_cycles: list[int]
    #: ground-truth HTM statistics (engine-side, not profiler-visible)
    begins: int
    commits: int
    aborts: int
    aborts_by_reason: dict[str, int]
    #: exact PMU event totals (empty when sampling was off)
    pmu_totals: dict[str, int] = field(default_factory=dict)
    samples_delivered: int = 0
    #: snapshot of the run's metrics registry (empty unless
    #: ``MachineConfig.metrics_enabled``); see :mod:`repro.obs.metrics`
    metrics: dict[str, dict] = field(default_factory=dict)
    #: ground-truth fault-injection counts (empty unless a non-zero
    #: ``MachineConfig.fault_plan`` was active); see :mod:`repro.faults`
    faults: dict[str, int] = field(default_factory=dict)

    @property
    def abort_commit_ratio(self) -> float:
        if self.commits:
            return self.aborts / self.commits
        # no commits: only an all-aborted run is infinite; a run that
        # never transacted (or committed nothing because it never began)
        # has a ratio of zero, not infinity
        return float("inf") if self.aborts else 0.0


class Simulator:
    """One simulated machine executing one multithreaded program."""

    def __init__(
        self,
        config: MachineConfig,
        programs: Sequence[Program] | None = None,
        seed: int = 0,
        profiler: Any = None,
        n_threads: int | None = None,
        obs: Observability | None = None,
        recorder: Any = None,
    ) -> None:
        if programs is None and n_threads is None:
            raise SimError("give either programs or n_threads")
        count = len(programs) if programs is not None else n_threads
        if not count:
            raise SimError("need at least one thread program")
        self.config = config
        self.seed = seed
        self.memory = Memory(track_page_faults=config.page_faults)
        #: observability bundle (tracer/metrics); None when disabled so
        #: the hot paths pay only a pointer test
        self.obs = obs if obs is not None else Observability.from_config(config)
        self.htm = _tsx.TsxEngine(config)
        self.htm.obs = self.obs
        self.threads: list[ThreadContext] = [
            ThreadContext(tid, self, config.lbr_size) for tid in range(count)
        ]
        self.rtm = _rtm_runtime.RtmRuntime(self)
        # tag the fallback-lock line for the engine's ground-truth
        # conflict-edge bookkeeping (subscription aborts vs data aborts)
        self.htm.lock_line = line_of(self.rtm.lock.addr)
        self.profiler = profiler
        #: deterministic fault injection (None when the plan is absent or
        #: all-zero, so the fault-free engine pays only a pointer test)
        self.faults = FaultInjector.from_config(config, count, obs=self.obs)
        self.pmu: PmuBank | None = None
        if profiler is not None:
            self.pmu = PmuBank(count, config.sample_periods, seed=seed)
            for t in self.threads:
                t.counters = self.pmu.banks[t.tid]
        self.samples_delivered = 0
        #: observation recorder (:mod:`repro.replay`) — the dual of the
        #: fault injector on the same boundary; None costs a pointer test
        self.recorder = recorder if profiler is not None else None
        self._programs: list[Program] = list(programs) if programs else []
        self._started = False
        self._heap: list[tuple[int, int]] = []
        #: bits per jitter draw: randrange(n) draws n.bit_length() bits
        self._jitter_bits = (config.cost_jitter + 1).bit_length()
        for tid, t in enumerate(self.threads):
            t.rng = random.Random((seed + 1) * 1_000_003 + tid)
        if profiler is not None and hasattr(profiler, "attach"):
            profiler.attach(self)
        if self.recorder is not None:
            self.recorder.attach(self)

    def set_programs(self, programs: Sequence[Program]) -> None:
        """Install thread programs (one per thread) before :meth:`run`.

        Separate from construction so workloads can allocate their shared
        data in ``sim.memory`` first.
        """
        if len(programs) != len(self.threads):
            raise SimError(
                f"{len(programs)} programs for {len(self.threads)} threads"
            )
        self._programs = list(programs)

    # ------------------------------------------------------------------ run

    def run(self, max_steps: int = 500_000_000) -> RunResult:
        """Execute all thread programs to completion."""
        if self._started:
            raise SimError("a Simulator instance runs once; build a new one")
        if not self._programs:
            raise SimError("no programs installed; call set_programs() first")
        self._started = True
        setup = (self.config.profiler_setup_cost
                 if self.profiler is not None else 0)
        for t, (fn, args, kwargs) in zip(self.threads, self._programs, strict=True):
            t.start(fn, args, kwargs)
            if setup:
                # fixed profiling setup (preload + PMU programming)
                t.clock += setup
            if self.obs is not None:
                self.obs.on_thread_start(t.tid, t.clock)
        heap: list[tuple[int, int]] = [(0, t.tid) for t in self.threads]
        heapq.heapify(heap)
        self._heap = heap
        threads = self.threads
        step = self._step
        push = heapq.heappush
        pop = heapq.heappop
        steps = 0
        while heap:
            _, tid = pop(heap)
            t = threads[tid]
            if t.done:
                continue
            while True:
                step(t)
                steps += 1
                if steps > max_steps:
                    raise SimError(f"exceeded max_steps={max_steps}")
                if t.done or t.blocked:
                    break
                # pushing (clock, tid) and popping would hand the same
                # thread back exactly when it sorts before every entry
                if heap and (t.clock, tid) > heap[0]:
                    push(heap, (t.clock, tid))
                    break
        if any(not t.done for t in self.threads):
            stuck = [t.tid for t in self.threads if not t.done]
            raise SimDeadlock(f"threads {stuck} blocked forever")
        if self.obs is not None:
            self.obs.on_run_end(steps)
        return self._result()

    def _result(self) -> RunResult:
        clocks = [t.clock for t in self.threads]
        totals: dict[str, int] = {}
        if self.pmu is not None:
            for ev in self.config.sample_periods:
                totals[ev] = self.pmu.total(ev)
        metrics: dict[str, dict] = {}
        if self.obs is not None and self.obs.metrics is not None:
            metrics = self.obs.metrics.snapshot()
        return RunResult(
            makespan=max(clocks),
            work=sum(clocks),
            per_thread_cycles=clocks,
            begins=self.htm.total_begins,
            commits=self.htm.total_commits,
            aborts=self.htm.total_aborts,
            aborts_by_reason=dict(self.htm.aborts_by_reason),
            pmu_totals=totals,
            samples_delivered=self.samples_delivered,
            metrics=metrics,
            faults=self.faults.summary() if self.faults is not None else {},
        )

    # ----------------------------------------------------------------- step

    def _step(self, t: ThreadContext) -> None:
        cfg = self.config
        htm = self.htm
        active = htm.active
        tid = t.tid
        counted = t.counters is not None

        # 1. retire a doomed transaction, if any
        txn = active.get(tid)
        throw_sig: AbortSignal | None = None
        if txn is not None and txn.doomed is not None:
            status = htm.rollback(t)
            t.clock += cfg.abort_rollback_cost
            weight = t.clock - txn.start_cycle
            t.last_abort_weight = weight
            t.last_abort_eax = status.eax
            if self.obs is not None:
                self.obs.on_txn_abort(tid, t.clock, txn, status.reason,
                                      weight)
            if counted:
                self._count(t, RTM_ABORTED, 1)
            throw_sig = AbortSignal(status)

        # 2. resume the generator
        try:
            if throw_sig is not None:
                op = t.gen.throw(throw_sig)
            else:
                op = t.gen.send(t.last_value)
        except StopIteration:
            t.done = True
            if self.obs is not None:
                self.obs.on_thread_end(tid, t.clock)
            return

        # 3. interpret the instruction.  The generator may have begun or
        # ended a transaction; arbitration can doom one but never ends it,
        # so one lookup serves the whole instruction.  Memory is read
        # inline: ``data.get(addr, 0)`` is Memory.read, ``addr >> 12`` is
        # page_of, and a transactional load sees its own buffered stores
        # first.
        kind = op[0]
        result = None
        if kind == OP_COMPUTE:
            cost = op[1]
        elif kind in (OP_LOAD, OP_STORE, OP_CAS):
            addr = op[1]
            memory = self.memory
            data = memory.data
            txn = active.get(tid)
            # a first touch faults: a plain access pays for it and makes
            # the page resident, a transactional one aborts (Memory.touch)
            fault = False
            if memory.track_page_faults:
                page = addr >> 12
                if page not in memory.touched_pages:
                    fault = True
                    if txn is None:
                        memory.touched_pages.add(page)
            if kind == OP_LOAD:
                cost = cfg.load_cost
                htm.on_access(tid, addr, False)
                if txn is None:
                    if fault:
                        cost += cfg.pagefault_cost
                    result = data.get(addr, 0)
                elif txn.doomed is not None:
                    # squashed: the abort rewinds control flow next step
                    result = 0
                elif fault:
                    htm.doom(txn, AbortStatus(ABORT_SYNC, detail="pagefault"))
                    result = 0
                else:
                    htm.track_read(txn, addr)
                    writes = txn.writes
                    result = writes[addr] if addr in writes else data.get(addr, 0)
                if counted:
                    self._count_mem(t, MEM_LOADS, addr, False)
            elif kind == OP_STORE:
                cost = cfg.store_cost
                htm.on_access(tid, addr, True)
                if txn is None:
                    if fault:
                        cost += cfg.pagefault_cost
                    data[addr] = op[2]
                elif txn.doomed is not None:
                    pass  # squashed
                elif fault:
                    htm.doom(txn, AbortStatus(ABORT_SYNC, detail="pagefault"))
                else:
                    htm.track_write(txn, addr, op[2])
                if counted:
                    self._count_mem(t, MEM_STORES, addr, True)
            else:
                cost = cfg.cas_cost
                htm.on_access(tid, addr, True)
                if txn is None:
                    if fault:
                        cost += cfg.pagefault_cost
                    result = data.get(addr, 0) == op[2]
                    if result:
                        data[addr] = op[3]
                elif txn.doomed is not None:
                    result = False  # squashed
                elif fault:
                    htm.doom(txn, AbortStatus(ABORT_SYNC, detail="pagefault"))
                    result = False
                else:
                    htm.track_read(txn, addr)
                    writes = txn.writes
                    cur = writes[addr] if addr in writes else data.get(addr, 0)
                    result = cur == op[2]
                    if result:
                        htm.track_write(txn, addr, op[3])
                if counted:
                    self._count_mem(t, MEM_LOADS, addr, False)
                    if result:
                        self._count_mem(t, MEM_STORES, addr, True)
        elif kind == OP_SYSCALL:
            txn = active.get(tid)
            speculative = txn is not None and txn.doomed is None
            if speculative:
                # unfriendly instruction: synchronous abort, syscall does
                # not execute speculatively
                htm.doom(txn, AbortStatus(ABORT_SYNC, detail=op[1]))
                cost = 20
            else:
                cost = cfg.syscall_cost + (op[2] or 0)
            if self.obs is not None:
                self.obs.on_syscall(tid, t.clock, op[1], speculative)
        elif kind == OP_BARRIER:
            self._arrive_barrier(t, op[1])
            return
        elif kind == OP_NOP:
            cost = 1
        else:  # pragma: no cover - op protocol violation
            raise SimError(f"unknown op {op!r} from thread {tid}")

        # 4. account time and drive the PMU
        if t.extra_cost:
            cost += t.extra_cost
            t.extra_cost = 0
        jitter = cfg.cost_jitter
        if jitter:
            # t.rng.randrange(jitter + 1) with its rejection loop written
            # out: the same getrandbits draws, so the same values
            getrandbits = t.rng.getrandbits
            k = self._jitter_bits
            r = getrandbits(k)
            while r > jitter:
                r = getrandbits(k)
            cost += r
        t.clock += cost
        t.last_value = result
        if counted:
            self._count(t, CYCLES, cost)
        if self.faults is not None and self.faults.storms_enabled:
            self._storm_tick(t, cost)

    # -------------------------------------------------------------- barriers

    def _arrive_barrier(self, t: ThreadContext, bar: Barrier) -> None:
        if self.htm.active.get(t.tid) is not None:
            # a barrier cannot complete speculatively
            txn = self.htm.active[t.tid]
            if txn.doomed is None:
                self.htm.doom(txn, AbortStatus(ABORT_SYNC, detail="barrier"))
            t.clock += 1
            t.last_value = None
            return
        bar._waiting.append((t.tid, t.clock))
        t.last_value = None
        if len(bar._waiting) < bar.parties:
            t.blocked = True
            return
        # last arrival releases the cohort at its own clock
        release = max(c for _, c in bar._waiting) + 20
        waiting = bar._waiting
        bar._waiting = []
        bar.generation += 1
        for tid_, arrived in waiting:
            th = self.threads[tid_]
            spun = release - arrived
            th.clock = release
            if self.obs is not None:
                self.obs.on_barrier_wait(tid_, arrived, release,
                                         bar.generation)
            # barrier waits are spin loops: the burnt cycles are PMU-visible
            self._count(th, CYCLES, spun)
            if th.blocked:
                th.blocked = False
                if tid_ != t.tid:
                    # re-enter the run queue (the current thread is pushed
                    # by the main loop)
                    heapq.heappush(self._heap, (th.clock, tid_))

    # ---------------------------------------------------------------- faults

    def _storm_tick(self, t: ThreadContext, elapsed: int) -> None:
        """Timer-interrupt storm (:mod:`repro.faults`): every interrupt
        aborts an in-flight transaction — an *async* abort with no cause
        bits beyond RETRY, exactly like the profiler's own sampling
        interrupts — and burns handler cycles."""
        due = self.faults.storm_due(t.tid, elapsed)
        if not due:
            return
        storm_cost = self.faults.plan.storm_cost
        for _ in range(due):
            txn = self.htm.active.get(t.tid)
            if txn is not None and txn.doomed is None:
                self.htm.doom(txn, AbortStatus(ABORT_INTERRUPT,
                                               detail="storm"))
            t.clock += storm_cost

    # ------------------------------------------------------------------- PMU

    def note_commit(self, ctx: ThreadContext,
                    cs: _rtm_runtime.CriticalSection) -> None:
        """Called by the RTM runtime when a transaction commits."""
        self._count(ctx, RTM_COMMIT, 1)

    def _count(self, t: ThreadContext, event: str, n: int) -> None:
        bank = t.counters
        if bank is None:
            return
        fired = bank.add(event, n)
        while fired > 0:
            fired -= 1
            self._deliver_sample(t, event, None, False)

    def _count_mem(self, t: ThreadContext, event: str, addr: int,
                   is_store: bool) -> None:
        bank = t.counters
        if bank is None:
            return
        fired = bank.add(event, 1)
        while fired > 0:
            fired -= 1
            self._deliver_sample(t, event, addr, is_store)

    def _deliver_sample(self, t: ThreadContext, event: str,
                        eff_addr: int | None, is_store: bool) -> None:
        """A PMU interrupt: abort any in-flight transaction, then let the
        registered profiler observe the machine."""
        cfg = self.config
        txn = self.htm.active.get(t.tid)
        in_tsx = txn is not None and txn.doomed is None
        aborted_now = False
        if in_tsx and cfg.pmu_aborts_txn:
            self.htm.doom(txn, AbortStatus(ABORT_INTERRUPT))
            aborted_now = True
        t.lbr.push_sample(t.cur_ip, aborted_now, in_tsx)
        sample = Sample(
            event=event,
            tid=t.tid,
            ts=t.clock,
            ip=t.cur_ip,
            ustack=t.unwind(),
            resume_ip=t.arch_ip(),
            lbr=t.lbr.snapshot(),
            eff_addr=eff_addr,
            is_store=is_store,
            weight=t.last_abort_weight if event == RTM_ABORTED else 0,
            abort_eax=t.last_abort_eax if event == RTM_ABORTED else 0,
        )
        if self.obs is not None:
            self.obs.on_sample(t.tid, t.clock, sample.trace_fields())
        t.clock += cfg.handler_cost
        self.samples_delivered += 1
        if self.faults is None:
            if self.recorder is not None:
                self.recorder.record(sample)
            self.profiler.on_sample(sample)
            return
        # the observation boundary: the interrupt's machine effects
        # (abort, handler cost) already happened above; only the record
        # the profiler sees is filtered/garbled/duplicated here — and the
        # recorder captures the post-injection stream, so a faulted run
        # replays without the injector in the loop
        for observed in self.faults.observe(t.tid, sample):
            if self.recorder is not None:
                self.recorder.record(observed)
            self.profiler.on_sample(observed)
