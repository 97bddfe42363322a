"""Program representation: simulated functions, instruction ops, addresses.

Workloads are written as ordinary Python generator functions decorated with
:func:`simfn`.  Each decorated function receives a synthetic code-address
range so that instruction pointers, call sites, and LBR ``(from, to)``
pairs are plain integers, exactly like the addresses a real profiler deals
with.  The executing :class:`~repro.sim.thread.ThreadContext` assigns every
yielded instruction an IP of ``function_base + statement_offset``.

Ops are small tuples ``(OPCODE, ...)`` rather than objects: the engine's
inner loop dispatches on ``op[0]``, and avoiding per-instruction object
construction keeps the hot path lean (the profiling guides' advice about
allocation in inner loops applies doubly to a simulator that executes
millions of instructions per run).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# opcodes (op tuples start with one of these single-character tags)
# ---------------------------------------------------------------------------

OP_COMPUTE = "c"   # ("c", cycles)
OP_LOAD = "l"      # ("l", addr)
OP_STORE = "s"     # ("s", addr, value)
OP_CAS = "x"       # ("x", addr, expected, new)  -> bool success
OP_SYSCALL = "y"   # ("y", kind)
OP_BARRIER = "b"   # ("b", barrier)
OP_NOP = "n"       # ("n",)

# ---------------------------------------------------------------------------
# op classification (trace-extraction hooks)
#
# Consumers that interpret op streams outside the engine — notably the
# static analyzer (repro.analysis), which drives simfn generators
# symbolically — classify ops through these sets instead of hard-coding
# tag characters, so adding an opcode only requires updating this table.
# ---------------------------------------------------------------------------

#: ops that carry a data address in op[1]
MEMORY_OPS = frozenset((OP_LOAD, OP_STORE, OP_CAS))
#: memory ops that (may) write their target
WRITE_OPS = frozenset((OP_STORE, OP_CAS))
#: ops that abort a hardware transaction synchronously when issued
#: speculatively (TSX "unfriendly instructions")
UNFRIENDLY_OPS = frozenset((OP_SYSCALL, OP_BARRIER))


#: size of the synthetic address range reserved per function
FUNC_ADDR_SPAN = 0x10000
#: base of the code segment (data addresses live far above; see memory.py)
CODE_BASE = 0x40_0000


class SimFunction:
    """A simulated function: a generator factory plus a code-address range.

    Attributes
    ----------
    name:
        Human-readable name used in reports and call paths.
    base:
        Synthetic base code address.  Statement ``k`` of the function has
        IP ``base + k``.
    """

    __slots__ = ("name", "func", "base", "fid")

    def __init__(self, name: str, func: Callable, base: int, fid: int) -> None:
        self.name = name
        self.func = func
        self.base = base
        self.fid = fid

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.func(*args, **kwargs)

    def __repr__(self) -> str:
        return f"<simfn {self.name}@{self.base:#x}>"


class FunctionRegistry:
    """Global mapping between function names, ids and code addresses.

    A single process-wide registry keeps addresses stable across simulator
    instances, which makes profiles comparable between runs (and keeps
    tests deterministic).
    """

    def __init__(self) -> None:
        self._by_name: dict[str, SimFunction] = {}
        self._by_id: list[SimFunction] = []

    def register(self, func: Callable, name: str | None = None) -> SimFunction:
        name = name or func.__name__
        existing = self._by_name.get(name)
        if existing is not None:
            # Re-registration of the *same* source function (module reload,
            # re-executed test body) reuses the slot so addresses remain
            # stable.  A *different* function claiming a taken name would
            # silently alias two code ranges — every profile row and
            # analyzer finding for either function would attribute to
            # whichever registered last — so that is a hard error.
            old = existing.func
            if (getattr(old, "__module__", None) != getattr(func, "__module__", None)
                    or getattr(old, "__qualname__", None) != getattr(func, "__qualname__", None)):
                raise ValueError(
                    f"duplicate simfn name {name!r}: already registered by "
                    f"{getattr(old, '__module__', '?')}."
                    f"{getattr(old, '__qualname__', '?')}, now claimed by "
                    f"{getattr(func, '__module__', '?')}."
                    f"{getattr(func, '__qualname__', '?')}; "
                    f"pass simfn(name=...) to disambiguate"
                )
            existing.func = func  # type: ignore[misc]
            return existing
        fid = len(self._by_id)
        base = CODE_BASE + fid * FUNC_ADDR_SPAN
        sf = SimFunction(name, func, base, fid)
        self._by_id.append(sf)
        self._by_name[name] = sf
        return sf

    def by_name(self, name: str) -> SimFunction:
        return self._by_name[name]

    def functions(self) -> tuple[SimFunction, ...]:
        """All registered functions, in registration (fid) order."""
        return tuple(self._by_id)

    def function_at(self, addr: int) -> SimFunction | None:
        """Resolve a code address to the function containing it."""
        idx = (addr - CODE_BASE) // FUNC_ADDR_SPAN
        if 0 <= idx < len(self._by_id):
            return self._by_id[idx]
        return None

    def describe(self, addr: int) -> str:
        """Render ``addr`` as ``function+offset`` (the report's source loc)."""
        fn = self.function_at(addr)
        if fn is None:
            return f"{addr:#x}"
        return f"{fn.name}+{addr - fn.base}"


#: the process-wide registry used by :func:`simfn`
REGISTRY = FunctionRegistry()


def simfn(func: Callable | None = None, *, name: str | None = None,
          ) -> SimFunction | Callable[[Callable], SimFunction]:
    """Decorator registering a generator function as a simulated function.

    The decorated object is a :class:`SimFunction`; call it through
    ``ctx.call(fn, ...)`` so the call is visible to the call stack and LBR.
    """

    def wrap(f: Callable) -> SimFunction:
        return REGISTRY.register(f, name)

    if func is not None:
        return wrap(func)
    return wrap


def describe_addr(addr: int) -> str:
    """Module-level convenience wrapper over the global registry."""
    return REGISTRY.describe(addr)


class Barrier:
    """A simulation-level barrier: threads yield ``("b", barrier)`` ops.

    The engine parks arriving threads and releases the whole cohort at the
    arrival time of the last one (plus a small synchronization cost).  It is
    reusable (generation-counted), like ``pthread_barrier_t``.
    """

    __slots__ = ("parties", "generation", "_waiting")

    def __init__(self, parties: int) -> None:
        if parties <= 0:
            raise ValueError("barrier needs at least one party")
        self.parties = parties
        self.generation = 0
        self._waiting: list[int] = []  # tids parked on the current generation

    def __repr__(self) -> str:
        return f"Barrier(parties={self.parties}, waiting={len(self._waiting)})"
