"""Symbolic IR extraction: drive ``simfn`` generators without the engine.

Workload code is already an op-level IR — generators yielding the typed
instruction tuples of :mod:`repro.sim.program`.  The extractor runs each
thread's generator against a :class:`SymbolicContext` that mimics the
:class:`~repro.sim.thread.ThreadContext` instruction API but interprets
ops *abstractly*:

* loads return the workload's initial memory image overlaid with this
  thread's own prior stores (a deterministic stub — no interleaving, no
  aborts, no faults), so data-structure traversals follow real pointers;
* CAS succeeds or fails against that same sequential view;
* ``atomic`` bodies execute exactly once (no retry, no fallback) and are
  recorded as :class:`RegionInstance` access sets;
* barriers never block; they advance a per-thread *epoch* counter that
  the race checker uses as a happens-before phase boundary.

The drive is bounded by :class:`AnalysisLimits` — a spin loop that only a
concurrent thread could break (e.g. a consumer polling an empty queue)
burns its op budget and the trace is marked ``truncated`` rather than
hanging.  Instruction pointers are synthesized identically to the real
engine (function base + source line), so the extracted region *sites* are
the very addresses the dynamic profiler keys its critical-section table
by — which is what makes static findings and dynamic profiles joinable.

Ops run inline: ``ctx.load`` and friends interpret their op at the call
and return its value without ever suspending, so an op costs one call
instead of a resume of the whole ``yield from`` chain.  They stay
generators so workload code drives them with ``yield from`` exactly as
under the engine, and :meth:`SymbolicContext.drive` still interprets any
raw op tuple a workload yields itself.

A region records its cacheline sets as it runs.  When it closes, each of
its containers that equals the same container of this thread's previous
region at the same site is replaced by that object, so a spin loop's
thousands of identical regions share a handful of sets.  A closed
region's containers are therefore shared and read-only: analysis passes
read them and build their own sets.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from random import Random
from collections.abc import Callable, Generator
from typing import Any

from ..rtm.runtime import tm_begin
from ..sim.config import MachineConfig, line_of
from ..sim.engine import Program, Simulator
from ..sim.memory import Memory
from ..sim.program import (
    MEMORY_OPS,
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


@dataclass
class AnalysisLimits:
    """Bounds on one symbolic drive (loop-unrolling budget)."""

    #: op budget per thread; a drive that exhausts it is truncated
    max_ops: int = 120_000
    #: ops retained verbatim (kind, ip, addr) per function IR trace
    max_trace_ops: int = 64
    #: concrete addresses retained per function before the whole-program
    #: pass (repro.analysis.races) widens the set to strided intervals
    max_fn_addrs: int = 4096
    #: ops retained verbatim per RegionInstance (witness reconstruction)
    max_region_trace: int = 96
    #: distinct ip-transition edges retained per function / region CFG;
    #: past the cap new edges are dropped and the CFG marked truncated
    max_cfg_edges: int = 2048
    #: access events (mode, ip, epoch, lockset) retained per address
    max_addr_events: int = 8


@dataclass(eq=False)  # identity semantics: the region stack tests membership
class RegionInstance:
    """One symbolic execution of a ``TM_BEGIN`` critical section."""

    #: TM_BEGIN call-site address (joins with the dynamic profile)
    site: int
    #: section name (the ``name=`` given to ``ctx.atomic``)
    name: str
    tid: int
    #: nesting depth at begin (1 = outermost = the hardware transaction)
    depth: int
    #: barrier epoch the region began in
    epoch: int
    read_addrs: set[int] = field(default_factory=set)
    write_addrs: set[int] = field(default_factory=set)
    #: unfriendly ops issued while the region was open: (op, detail, ip)
    unfriendly: list[tuple[str, str, int]] = field(default_factory=list)
    #: deepest nesting observed while this (outermost) region was open
    max_depth: int = 1
    ops: int = 0
    #: estimated body cycles (instruction costs, no aborts/retries) — the
    #: static stand-in for the dynamic T_tx of one attempt
    cycles: int = 0
    truncated: bool = False
    #: intra-region ip-transition counts ((prev_ip, ip) -> times taken);
    #: the dataflow layer recovers this instance's CFG, loops and branch
    #: arms from these edges
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    #: first ``max_region_trace`` ops of the body: (kind, ip, addr|None) —
    #: the raw material witness paths are cut from
    trace: list[tuple[str, int, int | None]] = field(default_factory=list)
    #: cachelines touched per issuing ip (loop-body footprint attribution)
    ip_lines: dict[int, set[int]] = field(default_factory=dict)
    #: last ip issued while this region was open (edge-recording cursor)
    prev_ip: int | None = field(default=None, repr=False)
    #: True when the edge cap dropped at least one transition
    edges_truncated: bool = False
    #: cachelines of ``read_addrs`` / ``write_addrs``, kept by the drive
    read_line_set: set[int] = field(default_factory=set, repr=False)
    write_line_set: set[int] = field(default_factory=set, repr=False)

    def read_lines(self) -> set[int]:
        """The read set's cachelines (shared: do not mutate)."""
        return self.read_line_set

    def write_lines(self) -> set[int]:
        """The write set's cachelines (shared: do not mutate)."""
        return self.write_line_set

    def footprint_lines(self) -> int:
        return len(self.read_line_set | self.write_line_set)


def _share_containers(region: RegionInstance, prev: RegionInstance) -> None:
    """Point ``region`` at each of ``prev``'s containers that it equals.

    Dicts must also match in key order, since iteration order is part of
    what a reader of ``edges`` or ``ip_lines`` sees.
    """
    if region.read_addrs == prev.read_addrs:
        region.read_addrs = prev.read_addrs
        region.read_line_set = prev.read_line_set
    elif region.read_line_set == prev.read_line_set:
        region.read_line_set = prev.read_line_set
    if region.write_addrs == prev.write_addrs:
        region.write_addrs = prev.write_addrs
        region.write_line_set = prev.write_line_set
    elif region.write_line_set == prev.write_line_set:
        region.write_line_set = prev.write_line_set
    if region.unfriendly == prev.unfriendly:
        region.unfriendly = prev.unfriendly
    if region.trace == prev.trace:
        region.trace = prev.trace
    if region.edges == prev.edges and list(region.edges) == list(prev.edges):
        region.edges = prev.edges
    if region.ip_lines == prev.ip_lines and list(region.ip_lines) == list(prev.ip_lines):
        region.ip_lines = prev.ip_lines


@dataclass
class FunctionIR:
    """Per-function op trace recovered from the symbolic drive."""

    name: str
    base: int
    op_counts: dict[str, int] = field(default_factory=dict)
    #: first ``max_trace_ops`` ops issued from this function: (kind, ip, addr)
    trace: list[tuple[str, int, int | None]] = field(default_factory=list)
    callees: set[str] = field(default_factory=set)
    #: concrete addresses touched by ops issued *from this function's
    #: frame* (callee accesses land on the callee), capped at
    #: ``AnalysisLimits.max_fn_addrs``
    read_addrs: set[int] = field(default_factory=set)
    write_addrs: set[int] = field(default_factory=set)
    #: True when the address cap dropped at least one access
    addrs_truncated: bool = False
    #: ip-transition counts within this function's frame ((prev, cur) ->
    #: times taken), aggregated over every thread and every call — the
    #: recovered CFG the fixpoint solver runs on
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    #: True when the edge cap dropped at least one transition
    edges_truncated: bool = False


@dataclass
class ThreadTrace:
    """Everything one thread's drive observed."""

    tid: int
    regions: list[RegionInstance] = field(default_factory=list)
    #: out-of-region accesses: addr -> set of barrier epochs
    out_reads: dict[int, set[int]] = field(default_factory=dict)
    out_writes: dict[int, set[int]] = field(default_factory=dict)
    #: in-region accesses (any region open): addr -> set of barrier epochs
    in_reads: dict[int, set[int]] = field(default_factory=dict)
    in_writes: dict[int, set[int]] = field(default_factory=dict)
    #: out-of-region accesses made while holding a hand-rolled spin lock
    #: (a word CAS-acquired 0 -> nonzero): addr -> lock word -> epochs.
    #: A subset of ``out_*``; the lockset pass subtracts them to find
    #: truly bare accesses.
    locked_reads: dict[int, dict[int, set[int]]] = field(default_factory=dict)
    locked_writes: dict[int, dict[int, set[int]]] = field(default_factory=dict)
    #: exact lockset snapshots per out-of-region access: addr -> sorted
    #: tuple of *all* lock words held at the access -> epochs.  Unlike
    #: ``locked_*`` (one entry per held lock, flow-insensitive), this is
    #: the path-sensitive view: an access under {L1, L2} is safe if a
    #: racing transaction subscribes to *either* lock.
    lockset_reads: dict[int, dict[tuple[int, ...], set[int]]] = field(default_factory=dict)
    lockset_writes: dict[int, dict[tuple[int, ...], set[int]]] = field(default_factory=dict)
    #: bounded per-address event log for witness paths: addr -> list of
    #: (mode, ip, epoch, lockset) where mode is one of ``txn-r``,
    #: ``txn-w``, ``locked-r``, ``locked-w``, ``bare-r``, ``bare-w``
    events: dict[int, list[tuple[str, int, int, tuple[int, ...]]]] = field(default_factory=dict)
    #: words this thread treated as spin locks (acquire-CAS observed)
    lock_words: set[int] = field(default_factory=set)
    total_ops: int = 0
    barriers: int = 0
    #: estimated cycles for the whole drive (instruction costs only)
    est_cycles: int = 0
    truncated: bool = False


@dataclass
class ProgramIR:
    """The whole workload's recovered IR."""

    workload: str
    config: MachineConfig
    threads: list[ThreadTrace] = field(default_factory=list)
    functions: dict[str, FunctionIR] = field(default_factory=dict)
    #: caller-name -> callee-name edges (includes the tm_begin pseudo-edge)
    call_edges: set[tuple[str, str]] = field(default_factory=set)
    #: address of the runtime's global fallback lock word (0 = unknown).
    #: Every hardware transaction subscribes to it, which is what makes
    #: the runtime's own elision race-free — and what the lockset pass
    #: exploits to tell safe elision from hand-rolled variants.
    lock_addr: int = 0

    @property
    def truncated(self) -> bool:
        return any(t.truncated for t in self.threads)


class _DriveStop(BaseException):
    """Internal: the op budget ran out; unwind the drive.

    A ``BaseException`` so that a workload's ``except Exception`` cannot
    swallow it while it unwinds through workload frames.
    """


def _bump_edge(
    edges: dict[tuple[int, int], int], prev: int | None, cur: int, cap: int
) -> bool:
    """Count the ip transition ``prev -> cur``; False when the cap drops it.

    Self-edges are kept: the same source line issuing two ops in a row is
    loop evidence (a one-line loop body), and the trip-count client
    cross-checks against per-instance counts before trusting any edge.
    """
    if prev is None:
        return True
    key = (prev, cur)
    if key in edges:
        edges[key] += 1
        return True
    if len(edges) >= cap:
        return False
    edges[key] = 1
    return True


class SymbolicContext:
    """A :class:`~repro.sim.thread.ThreadContext` stand-in for extraction.

    Exposes the identical instruction API (``load``/``store``/``cas``/
    ``compute``/``syscall``/``barrier``/``nop``/``call``/``atomic``/
    ``add`` plus ``tid`` and ``rng``), synthesizes the same instruction
    pointers, and mirrors the visible ``tm_begin`` frame the runtime
    pushes — so extracted stacks, call edges and region sites line up
    with what the dynamic profiler sees.
    """

    def __init__(
        self,
        tid: int,
        memory: Memory,
        limits: AnalysisLimits,
        seed: int,
        trace: ThreadTrace,
        functions: dict[str, FunctionIR],
        call_edges: set[tuple[str, str]],
        config: MachineConfig | None = None,
    ) -> None:
        self.tid = tid
        # the engine's per-thread stream, reproduced bit-for-bit so data-
        # dependent control flow (striped indices, backoffs) matches runs
        self.rng = Random((seed + 1) * 1_000_003 + tid)
        #: frames: [fn, line, callsite, prev_ip, FunctionIR | None]; the
        #: slot stays None until the function's FunctionIR exists, which
        #: is made when the drive first records something in it, so
        #: ``functions`` keeps that order
        self.stack: list[list[Any]] = []
        self.cur_ip = 0
        self._memory = memory
        self._limits = limits
        self._config = config or MachineConfig()
        self._trace = trace
        self._functions = functions
        self._call_edges = call_edges
        self._overlay: dict[int, int] = {}
        self._open_regions: list[RegionInstance] = []
        #: site -> this thread's last closed region there (sharing source)
        self._last_closed: dict[int, RegionInstance] = {}
        self._epoch = 0
        #: hand-rolled spin locks currently held (CAS 0 -> nonzero seen
        #: outside any region, not yet released by a store of 0)
        self._locks_held: list[int] = []

    # ------------------------------------------------------------- plumbing

    def _fill_ir_slot(self, frame: list[Any]) -> FunctionIR:
        """Fill ``frame``'s empty FunctionIR slot (callers test it first)."""
        fn = frame[0]
        fir = self._functions.get(fn.name)
        if fir is None:
            fir = FunctionIR(name=fn.name, base=fn.base)
            self._functions[fn.name] = fir
        frame[4] = fir
        return fir

    def _record_access(self, addr: int, is_write: bool, fir: FunctionIR) -> None:
        if self._open_regions:
            line = line_of(addr)
            ip = self.cur_ip
            for region in self._open_regions:
                if is_write:
                    region.write_addrs.add(addr)
                    region.write_line_set.add(line)
                else:
                    region.read_addrs.add(addr)
                    region.read_line_set.add(line)
                lines = region.ip_lines.get(ip)
                if lines is None:
                    region.ip_lines[ip] = {line}
                else:
                    lines.add(line)
            target = self._trace.in_writes if is_write else self._trace.in_reads
            mode = "txn"
        else:
            target = self._trace.out_writes if is_write else self._trace.out_reads
            mode = "bare"
            if self._locks_held:
                mode = "locked"
                ldict = self._trace.locked_writes if is_write else self._trace.locked_reads
                per_lock = ldict.setdefault(addr, {})
                lockset = tuple(sorted(self._locks_held))
                lsdict = self._trace.lockset_writes if is_write else self._trace.lockset_reads
                lsdict.setdefault(addr, {}).setdefault(lockset, set()).add(self._epoch)
                for lock in self._locks_held:
                    per_lock.setdefault(lock, set()).add(self._epoch)
        epochs = target.get(addr)
        if epochs is None:
            target[addr] = {self._epoch}
        else:
            epochs.add(self._epoch)
        events = self._trace.events.get(addr)
        if events is None:
            events = self._trace.events[addr] = []
        if len(events) < self._limits.max_addr_events:
            events.append((
                f"{mode}-{'w' if is_write else 'r'}",
                self.cur_ip,
                self._epoch,
                tuple(sorted(self._locks_held)),
            ))
        fn_addrs = fir.write_addrs if is_write else fir.read_addrs
        if len(fn_addrs) < self._limits.max_fn_addrs or addr in fn_addrs:
            fn_addrs.add(addr)
        else:
            fir.addrs_truncated = True

    def _record_unfriendly(self, op: str, detail: str) -> None:
        for region in self._open_regions:
            region.unfriendly.append((op, detail, self.cur_ip))

    def _interpret(self, op: tuple, line: int | None = None) -> Any:
        """Interpret one op issued from source ``line`` of the top frame.

        ``line`` is None for a raw op tuple yielded to :meth:`drive`,
        which keeps the ip of the last issued op, as the engine does.
        """
        frame = self.stack[-1]
        if line is None:
            ip = self.cur_ip
        else:
            frame[1] = line
            ip = self.cur_ip = frame[0].base + line
        trace = self._trace
        limits = self._limits
        trace.total_ops += 1
        if trace.total_ops > limits.max_ops:
            # mark before raising: atomic() drops regions as the stop unwinds
            trace.truncated = True
            for region in self._open_regions:
                region.truncated = True
            raise _DriveStop
        kind = op[0]
        addr = op[1] if kind in MEMORY_OPS else None
        fir = frame[4] or self._fill_ir_slot(frame)
        op_counts = fir.op_counts
        op_counts[kind] = op_counts.get(kind, 0) + 1
        if len(fir.trace) < limits.max_trace_ops:
            fir.trace.append((kind, ip, addr))
        if not _bump_edge(fir.edges, frame[3], ip, limits.max_cfg_edges):
            fir.edges_truncated = True
        frame[3] = ip
        cfg = self._config
        cost = 0
        if kind == OP_COMPUTE:
            cost = op[1]
        elif kind == OP_LOAD:
            cost = cfg.load_cost
        elif kind == OP_STORE:
            cost = cfg.store_cost
        elif kind == OP_CAS:
            cost = cfg.cas_cost
        elif kind == OP_SYSCALL:
            cost = cfg.syscall_cost + (op[2] or 0)
        trace.est_cycles += cost
        for region in self._open_regions:
            region.ops += 1
            region.cycles += cost
            if not _bump_edge(region.edges, region.prev_ip, ip, limits.max_cfg_edges):
                region.edges_truncated = True
            region.prev_ip = ip
            if len(region.trace) < limits.max_region_trace:
                region.trace.append((kind, ip, addr))
        if kind == OP_LOAD:
            self._record_access(addr, False, fir)
            overlay = self._overlay
            return overlay[addr] if addr in overlay else self._memory.read(addr)
        if kind == OP_STORE:
            self._record_access(addr, True, fir)
            self._overlay[addr] = op[2]
            # a store of 0 into a word this thread CAS-acquired is the
            # hand-rolled spin-lock release
            if op[2] == 0 and addr in self._locks_held:
                self._locks_held.remove(addr)
            return None
        if kind == OP_CAS:
            self._record_access(addr, False, fir)
            overlay = self._overlay
            cur = overlay[addr] if addr in overlay else self._memory.read(addr)
            if cur == op[2]:
                self._record_access(addr, True, fir)
                self._overlay[addr] = op[3]
                # acquire-shaped CAS (0 -> nonzero) outside any region:
                # treat the word as a hand-rolled spin lock held from now
                if (
                    not self._open_regions
                    and op[2] == 0
                    and op[3] != 0
                    and addr not in self._locks_held
                ):
                    self._locks_held.append(addr)
                    trace.lock_words.add(addr)
                return True
            return False
        if kind == OP_SYSCALL:
            self._record_unfriendly(OP_SYSCALL, str(op[1]))
            return None
        if kind == OP_BARRIER:
            self._record_unfriendly(OP_BARRIER, "barrier")
            self._epoch += 1
            trace.barriers += 1
            return None
        if kind in (OP_COMPUTE, OP_NOP):
            return None
        raise ValueError(f"unknown op {op!r} in symbolic drive")

    # ------------------------------------------- the ThreadContext op API
    # Each op runs inline and returns its value; the unreachable ``yield``
    # keeps it a generator for the workload's ``yield from``.

    def compute(self, cycles: int) -> Generator[tuple, Any, None]:
        self._interpret((OP_COMPUTE, cycles), sys._getframe(1).f_lineno)
        return
        yield

    def load(self, addr: int) -> Generator[tuple, Any, int]:
        return self._interpret((OP_LOAD, addr), sys._getframe(1).f_lineno)
        yield

    def store(self, addr: int, value: int) -> Generator[tuple, Any, None]:
        self._interpret((OP_STORE, addr, value), sys._getframe(1).f_lineno)
        return
        yield

    def cas(self, addr: int, expected: int, new: int) -> Generator[tuple, Any, bool]:
        return self._interpret(
            (OP_CAS, addr, expected, new), sys._getframe(1).f_lineno
        )
        yield

    def syscall(self, kind: str = "write", cycles: int = 0) -> Generator[tuple, Any, None]:
        self._interpret((OP_SYSCALL, kind, cycles), sys._getframe(1).f_lineno)
        return
        yield

    def barrier(self, barrier: Barrier) -> Generator[tuple, Any, None]:
        self._interpret((OP_BARRIER, barrier), sys._getframe(1).f_lineno)
        return
        yield

    def nop(self) -> Generator[tuple, Any, None]:
        self._interpret((OP_NOP,), sys._getframe(1).f_lineno)
        return
        yield

    def add(self, addr: int, delta: int = 1) -> Generator[tuple, Any, int]:
        value = yield from self.load(addr)
        yield from self.store(addr, value + delta)
        return value + delta

    # ----------------------------------------------------- calls / regions

    def _record_callsite(self, frame: list[Any], callsite: int, callee: str) -> None:
        """Note ``callee`` and thread the callsite into the caller's (and
        open regions') CFG.

        Callsites never reach :meth:`_interpret`, but a loop whose body is
        just a call or an ``atomic`` still needs its back edge counted —
        otherwise trip-count inference goes blind exactly where it
        matters most.
        """
        fir = frame[4] or self._fill_ir_slot(frame)
        fir.callees.add(callee)
        if not _bump_edge(fir.edges, frame[3], callsite, self._limits.max_cfg_edges):
            fir.edges_truncated = True
        frame[3] = callsite
        for region in self._open_regions:
            if not _bump_edge(
                region.edges, region.prev_ip, callsite, self._limits.max_cfg_edges
            ):
                region.edges_truncated = True
            region.prev_ip = callsite

    def call(self, fn: SimFunction, *args: Any, **kwargs: Any) -> Generator[tuple, Any, Any]:
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        callsite = frame[0].base + line
        self.cur_ip = callsite
        self._call_edges.add((frame[0].name, fn.name))
        self._record_callsite(frame, callsite, fn.name)
        self.stack.append([fn, 0, callsite, None, self._functions.get(fn.name)])
        try:
            result = yield from fn.func(self, *args, **kwargs)
        finally:
            self.stack.pop()
        return result

    def atomic(self, body: Callable, name: str | None = None) -> Generator[tuple, Any, Any]:
        """Record a TM_BEGIN region and run ``body`` exactly once.

        Mirrors the real runtime's visible ``tm_begin`` frame so ops in
        the body synthesize the same IPs as under the engine; there is no
        retry loop and no fallback — one symbolic attempt is the IR.
        """
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        callsite = frame[0].base + line
        self.cur_ip = callsite
        self._call_edges.add((frame[0].name, tm_begin.name))
        self._record_callsite(frame, callsite, tm_begin.name)
        region = RegionInstance(
            site=callsite,
            name=name or getattr(body, "__name__", "cs"),
            tid=self.tid,
            depth=len(self._open_regions) + 1,
            epoch=self._epoch,
            # root the region CFG at its own TM_BEGIN site: the edge to
            # the first op makes a body whose arms start at different
            # ips a *visible* branch (divergent-path-footprint)
            prev_ip=callsite,
        )
        if self._open_regions:
            root = self._open_regions[0]
            root.max_depth = max(root.max_depth, region.depth)
        self._open_regions.append(region)
        self._trace.regions.append(region)
        self.stack.append(
            [tm_begin, 0, callsite, None, self._functions.get(tm_begin.name)]
        )
        try:
            result = yield from body(self)
        finally:
            self.stack.pop()
            if region in self._open_regions:
                self._open_regions.remove(region)
        prev = self._last_closed.get(callsite)
        if prev is not None:
            _share_containers(region, prev)
        self._last_closed[callsite] = region
        return result

    # -------------------------------------------------------------- driver

    def drive(self, fn: SimFunction, args: tuple, kwargs: dict) -> None:
        """Run ``fn`` to completion (or budget exhaustion), recording IR."""
        self.stack = [[fn, 0, 0, None, None]]
        self._fill_ir_slot(self.stack[0])
        gen = fn.func(self, *args, **kwargs)
        value: Any = None
        try:
            while True:
                try:
                    op = gen.send(value)
                except StopIteration:
                    break
                value = self._interpret(op)
        except _DriveStop:
            # a stop on a raw op leaves gen suspended at its yield; one
            # inside an inline op has already unwound it
            gen.close()


def extract_workload(
    workload: Any,
    n_threads: int = 14,
    scale: float = 1.0,
    seed: int = 0,
    config: MachineConfig | None = None,
    limits: AnalysisLimits | None = None,
    **params: Any,
) -> ProgramIR:
    """Build a workload and recover its :class:`ProgramIR` symbolically.

    The workload allocates its shared state in a real (never-run)
    simulator's memory, so the extractor sees genuine addresses — the
    same cachelines the dynamic run would touch — while the generators
    are driven by :class:`SymbolicContext` stubs instead of the engine.
    """
    from ..htmbench.base import Workload, get_workload

    cfg = config or MachineConfig(n_threads=n_threads)
    lim = limits or AnalysisLimits()
    wl = workload if isinstance(workload, Workload) else get_workload(str(workload), **params)
    sim = Simulator(cfg, n_threads=n_threads, seed=seed)
    build_rng = Random(seed * 7919 + 13)  # the runner's stream, reproduced
    programs: list[Program] = wl.build(sim, n_threads, scale, build_rng)
    ir = ProgramIR(workload=wl.name or str(workload), config=cfg)
    ir.lock_addr = sim.rtm.lock.addr
    for tid, (fn, args, kwargs) in enumerate(programs):
        trace = ThreadTrace(tid=tid)
        ctx = SymbolicContext(
            tid=tid,
            memory=sim.memory,
            limits=lim,
            seed=seed,
            trace=trace,
            functions=ir.functions,
            call_edges=ir.call_edges,
            config=cfg,
        )
        ctx.drive(fn, args, kwargs)
        ir.threads.append(trace)
    return ir
