"""Per-thread execution context: instruction API, call stack, LBR.

Workload code runs as generators and issues instructions through the
methods here (``yield from ctx.load(addr)`` etc.).  Instruction pointers
are synthesized from the *real Python source line* of the call site
(``fn.base + lineno``), which gives every syntactic operation a stable
address across loop iterations — the property binary code has and the
calling-context tree needs.  Helper generators not invoked through
:meth:`ThreadContext.call` behave like inlined functions in an ``-O3``
binary: their lines attribute to the innermost *visible* frame.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Generator, Iterator
from typing import Any, TYPE_CHECKING

from ..pmu.counters import CounterBank
from ..pmu.lbr import Lbr
from .errors import AbortSignal
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

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.tsx import Transaction
    from .engine import Simulator

#: synthetic call-site address of the thread root frame
THREAD_ROOT = 0

#: a stack frame: [function, current_line, callsite_addr]
Frame = list[Any]
#: an instruction generator: yields op tuples, receives engine results
OpGen = Generator[tuple[Any, ...], Any, Any]
#: immutable snapshot of one frame
FrameSnap = tuple[SimFunction, int, int]


class ThreadContext:
    """One simulated hardware thread.

    The engine owns scheduling (``clock``) and sample delivery; workload
    and runtime-library code uses the ``yield from``-able instruction
    methods.  The call ``stack`` is *architectural* state: it is
    snapshotted at transaction begin and restored on abort, so a
    post-abort unwinder can only ever see the path to the transaction —
    never inside it (the paper's Challenge IV).
    """

    __slots__ = (
        "tid",
        "sim",
        "rng",
        "clock",
        "stack",
        "cur_ip",
        "lbr",
        "state_word",
        "gen",
        "done",
        "blocked",
        "last_value",
        "pending_abort",
        "last_abort_weight",
        "last_abort_eax",
        "counters",
        "extra_cost",
    )

    def __init__(self, tid: int, sim: "Simulator", lbr_size: int) -> None:
        self.tid = tid
        self.sim = sim
        self.rng: Any = None  # random.Random, seeded by the simulator
        self.clock = 0
        self.stack: list[Frame] = []
        self.cur_ip = THREAD_ROOT
        self.lbr = Lbr(lbr_size)
        self.state_word = 0
        self.gen: Iterator | None = None
        self.done = False
        self.blocked = False
        self.last_value: Any = None
        self.pending_abort: AbortSignal | None = None  # delivered at next step
        self.last_abort_weight = 0
        self.last_abort_eax = 0
        self.counters: CounterBank | None = None  # attached when sampling is on
        self.extra_cost = 0  # cycles injected by runtime hooks, folded in
        # by the engine at the end of the current step

    # ------------------------------------------------------------ stack ops

    def start(self, fn: SimFunction, args: tuple, kwargs: dict) -> None:
        """Install the thread's main function and create its generator."""
        self.stack = [[fn, 0, THREAD_ROOT]]
        self.gen = fn.func(self, *args, **kwargs)

    def snapshot_stack(self) -> tuple[FrameSnap, ...]:
        return tuple((f[0], f[1], f[2]) for f in self.stack)

    def restore_stack(self, snap: tuple[FrameSnap, ...]) -> None:
        self.stack = [[fn, line, cs] for fn, line, cs in snap]

    def unwind(self) -> tuple[tuple[int, int], ...]:
        """Architectural call path: ``(callsite, callee_base)`` per frame,
        outermost first — exactly what a signal-context unwinder yields."""
        return tuple((f[2], f[0].base) for f in self.stack)

    @property
    def in_txn(self) -> bool:
        return self.sim.htm.active.get(self.tid) is not None

    @property
    def txn(self) -> "Transaction | None":
        return self.sim.htm.active.get(self.tid)

    # ---------------------------------------------------------- instructions
    # Each method sets the IP of the instruction it issues: the base of
    # the innermost visible frame plus the caller's source line.  The
    # lookup is written out in every method (not shared through a helper)
    # because one more Python call per instruction is measurable.

    def compute(self, cycles: int) -> OpGen:
        """Burn ``cycles`` of pure computation."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        yield (OP_COMPUTE, cycles)

    def load(self, addr: int) -> OpGen:
        """Load the 8-byte word at ``addr``; returns its value."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        value = yield (OP_LOAD, addr)
        return value

    def store(self, addr: int, value: int) -> OpGen:
        """Store ``value`` to the 8-byte word at ``addr``."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        yield (OP_STORE, addr, value)

    def cas(self, addr: int, expected: int, new: int) -> OpGen:
        """Atomic compare-and-swap; returns True on success."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        ok = yield (OP_CAS, addr, expected, new)
        return ok

    def syscall(self, kind: str = "write", cycles: int = 0) -> OpGen:
        """An HTM-unfriendly operation (system call); aborts transactions."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        yield (OP_SYSCALL, kind, cycles)

    def barrier(self, barrier: Barrier) -> OpGen:
        """Block until all parties arrive."""
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        yield (OP_BARRIER, barrier)

    def nop(self) -> OpGen:
        line = sys._getframe(1).f_lineno
        frame = self.stack[-1]
        frame[1] = line
        self.cur_ip = frame[0].base + line
        yield (OP_NOP,)

    # ----------------------------------------------------------------- calls

    def call(self, fn: SimFunction, *args: Any, **kwargs: Any) -> OpGen:
        """Invoke a simulated function: visible to the stack and the LBR."""
        line = sys._getframe(1).f_lineno
        stack = self.stack
        frame = stack[-1]
        frame[1] = line
        callsite = frame[0].base + line
        # the body of _call_at, written out to save a generator layer
        active = self.sim.htm.active
        self.cur_ip = callsite
        self.lbr.push_call(callsite, fn.base, self.tid in active)
        stack.append([fn, 0, callsite])
        result = yield from fn.func(self, *args, **kwargs)
        # an abort may have replaced self.stack by its snapshot
        stack = self.stack
        top = stack[-1]
        ret_ip = top[0].base + top[1]
        stack.pop()
        self.lbr.push_ret(ret_ip, callsite + 1, self.tid in active)
        return result

    def _call_at(self, callsite: int, fn: SimFunction, args: tuple,
                 kwargs: dict) -> OpGen:
        self.cur_ip = callsite
        self.lbr.push_call(callsite, fn.base, self.in_txn)
        self.stack.append([fn, 0, callsite])
        result = yield from fn.func(self, *args, **kwargs)
        # normal return only: on abort, the snapshot restore repairs the
        # stack while AbortSignal propagates through this frame.
        top = self.stack[-1]
        ret_ip = top[0].base + top[1]
        self.stack.pop()
        self.lbr.push_ret(ret_ip, callsite + 1, self.in_txn)
        return result

    # ------------------------------------------------------ critical sections

    def atomic(self, body: Callable[[], Any],
               name: str | None = None) -> OpGen:
        """Run ``body`` as a critical section (TM_BEGIN ... TM_END).

        ``body`` is a callable producing a fresh op generator per attempt;
        it re-executes transactionally, or under the global lock after
        repeated aborts.  Equivalent to the paper's TM_BEGIN/TM_END pair.
        The runtime is entered through a visible ``tm_begin`` frame, so
        profiles show ``caller -> tm_begin -> ...`` exactly like the
        paper's Figure 9.  The frame is pushed here, and the runtime's
        ``execute`` is entered directly: the ``tm_begin`` function only
        lends the frame its identity, never runs.
        """
        line = sys._getframe(1).f_lineno
        stack = self.stack
        frame = stack[-1]
        frame[1] = line
        callsite = frame[0].base + line
        rtm = self.sim.rtm
        fn = rtm.tm_begin_fn
        active = self.sim.htm.active
        self.cur_ip = callsite
        self.lbr.push_call(callsite, fn.base, self.tid in active)
        stack.append([fn, 0, callsite])
        result = yield from rtm.execute(self, body, name=name,
                                        callsite=callsite)
        stack = self.stack
        top = stack[-1]
        ret_ip = top[0].base + top[1]
        stack.pop()
        self.lbr.push_ret(ret_ip, callsite + 1, self.tid in active)
        return result

    def arch_ip(self) -> int:
        """The architectural resume IP (what a signal context reports)."""
        top = self.stack[-1]
        return top[0].base + top[1]

    # --------------------------------------------------------------- helpers

    def add(self, addr: int, delta: int = 1) -> OpGen:
        """Read-modify-write a word (two memory ops, non-atomic)."""
        value = yield from self.load(addr)
        yield from self.store(addr, value + delta)
        return value + delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<thread {self.tid} clock={self.clock} done={self.done}>"
