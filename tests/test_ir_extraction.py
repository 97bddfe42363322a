"""Symbolic extraction is pinned byte for byte, and its invariants hold.

``tests/golden/ir_digests.json`` holds, per registered workload, the
digest of a canonical dump of its :class:`~repro.analysis.ir.ProgramIR`:
every :class:`ThreadTrace` field, every region's fields in order, the
:class:`FunctionIR` table in insertion order and the sorted call edges.
The findings digests only see what some finding reads; this one sees
every recorded op, so an extractor change that no finding notices still
fails here.  The limits are small enough that the whole suite extracts
in seconds and still large enough that ``dedup``'s empty-queue spin
runs into the op budget.

Regenerate after an intentional extraction change with::

    PYTHONPATH=src python tests/golden/regen_ir_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

import repro.htmbench as hb
from repro.analysis import AnalysisLimits, analyze_workload, extract_workload
from repro.analysis import lint as lint_mod
from repro.analysis.ir import ProgramIR, RegionInstance, SymbolicContext, ThreadTrace
from repro.htmbench.base import Workload
from repro.sim.config import line_of
from repro.sim.memory import Memory
from repro.sim.program import REGISTRY, simfn

GOLDEN = Path(__file__).resolve().parent / "golden" / "ir_digests.json"

N_THREADS = 4
SEED = 0
SCALE = 0.25
LIMITS = AnalysisLimits(max_ops=20_000)

def _ip(ip: int | None) -> str | None:
    """``function+line``: function bases follow simfn registration order,
    which depends on what else the process imported first."""
    return None if ip is None else REGISTRY.describe(ip)


def _sorted(values: Any) -> list[Any]:
    return sorted(values)


def _items(value: dict, key: Any, val: Any) -> list[Any]:
    return [[key(k), val(v)] for k, v in value.items()]


def _ops(trace: list[tuple[str, int, int | None]]) -> list[Any]:
    return [[kind, _ip(ip), addr] for kind, ip, addr in trace]


def _edges(edges: dict[tuple[int, int], int]) -> list[Any]:
    return [[_ip(u), _ip(v), n] for (u, v), n in edges.items()]


def _same(value: Any) -> Any:
    return value


def _epochs(value: dict) -> list[Any]:
    return _items(value, _same, _sorted)


def _nested_epochs(value: dict) -> list[Any]:
    return _items(value, _same, lambda inner: _items(inner, _same, _sorted))


#: every field of each IR class in declaration order, with its dump form
REGION_FIELDS = (
    ("site", _ip), ("name", _same), ("tid", _same), ("depth", _same),
    ("epoch", _same), ("read_addrs", _sorted), ("write_addrs", _sorted),
    ("unfriendly", lambda u: [[op, d, _ip(ip)] for op, d, ip in u]),
    ("max_depth", _same), ("ops", _same), ("cycles", _same),
    ("truncated", _same), ("edges", _edges), ("trace", _ops),
    ("ip_lines", lambda v: _items(v, _ip, _sorted)), ("prev_ip", _ip),
    ("edges_truncated", _same),
)
THREAD_FIELDS = (
    ("tid", _same), ("out_reads", _epochs), ("out_writes", _epochs),
    ("in_reads", _epochs), ("in_writes", _epochs),
    ("locked_reads", _nested_epochs), ("locked_writes", _nested_epochs),
    ("lockset_reads", _nested_epochs), ("lockset_writes", _nested_epochs),
    ("events", lambda v: _items(v, _same, lambda evs: [
        [mode, _ip(ip), epoch, list(locks)]
        for mode, ip, epoch, locks in evs])),
    ("lock_words", _sorted), ("total_ops", _same), ("barriers", _same),
    ("est_cycles", _same), ("truncated", _same),
)
FUNCTION_FIELDS = (
    ("name", _same), ("base", _ip), ("op_counts", lambda v: list(v.items())),
    ("trace", _ops), ("callees", _sorted), ("read_addrs", _sorted),
    ("write_addrs", _sorted), ("addrs_truncated", _same), ("edges", _edges),
    ("edges_truncated", _same),
)


def _fields(obj: Any, fields: tuple[tuple[str, Any], ...]) -> list[Any]:
    return [dump(getattr(obj, name)) for name, dump in fields]


def canonical_ir(ir: ProgramIR) -> str:
    threads = [
        _fields(t, THREAD_FIELDS)
        + [[_fields(r, REGION_FIELDS) for r in t.regions]]
        for t in ir.threads
    ]
    functions = [_fields(f, FUNCTION_FIELDS) for f in ir.functions.values()]
    doc = [ir.workload, ir.lock_addr, threads, functions,
           sorted(ir.call_edges)]
    return json.dumps(doc, separators=(",", ":"))


def ir_digest(ir: ProgramIR) -> str:
    return hashlib.sha256(canonical_ir(ir).encode()).hexdigest()


def ir_entry(ir: ProgramIR) -> dict[str, Any]:
    return {
        "digest": ir_digest(ir),
        "regions": sum(len(t.regions) for t in ir.threads),
        "total_ops": sum(t.total_ops for t in ir.threads),
        "truncated": ir.truncated,
    }


def extract(name: str) -> ProgramIR:
    return extract_workload(name, n_threads=N_THREADS, scale=SCALE,
                            seed=SEED, limits=LIMITS)


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_workload(golden):
    assert set(golden["workloads"]) == set(hb.workload_names())
    assert golden["workloads"]["dedup"]["truncated"], (
        "the limits no longer reach dedup's op budget")


def test_extraction_matches_golden(golden):
    mismatched = {}
    for name in hb.workload_names():
        got = ir_entry(extract(name))
        if got != golden["workloads"][name]:
            mismatched[name] = (golden["workloads"][name], got)
    assert not mismatched, mismatched


def _check_line_sets(ir: ProgramIR) -> None:
    for t in ir.threads:
        for r in t.regions:
            assert r.read_lines() == {line_of(a) for a in r.read_addrs}
            assert r.write_lines() == {line_of(a) for a in r.write_addrs}
            assert r.footprint_lines() == len(
                {line_of(a) for a in r.read_addrs | r.write_addrs})


def test_downstream_passes_leave_the_ir_untouched(monkeypatch):
    """Closed regions share containers, so no pass may write into one."""
    seen: list[tuple[ProgramIR, str]] = []

    def spy(*args: Any, **kwargs: Any) -> ProgramIR:
        ir = extract_workload(*args, **kwargs)
        seen.append((ir, ir_digest(ir)))
        return ir

    monkeypatch.setattr(lint_mod, "extract_workload", spy)
    for name in hb.workload_names():
        analyze_workload(name, n_threads=N_THREADS, scale=SCALE, seed=SEED,
                         limits=LIMITS, races=True, predict=True)
        ir, before = seen.pop()
        _check_line_sets(ir)
        assert ir_digest(ir) == before, name


@simfn
def _spin_in_region(ctx, addr):
    def body(c):
        while True:
            v = yield from c.load(addr)
            if v:  # only another thread could set it
                return v
            yield from c.store(addr + 8, 1)

    yield from ctx.store(addr + 16, 1)
    yield from ctx.atomic(body, name="spin")


@simfn
def _nested_spin(ctx, addr):
    yield from ctx.atomic(lambda c: c.call(_spin_in_region, addr),
                          name="outer")


@simfn
def _swallowing_spin(ctx, addr):
    for _ in range(5_000):  # bounded, so a swallowed stop fails, not hangs
        try:
            v = yield from ctx.load(addr)
        except Exception:
            v = 0
        if v:
            break


def _drive(fn, max_ops: int) -> tuple[SymbolicContext, ThreadTrace, int]:
    memory = Memory()
    addr = memory.alloc(64)
    trace = ThreadTrace(tid=0)
    ctx = SymbolicContext(tid=0, memory=memory,
                          limits=AnalysisLimits(max_ops=max_ops), seed=0,
                          trace=trace, functions={}, call_edges=set())
    ctx.drive(fn, (addr,), {})
    return ctx, trace, addr


def test_budget_stop_marks_thread_and_open_regions_truncated():
    ctx, trace, _addr = _drive(_nested_spin, max_ops=50)
    assert trace.truncated
    assert trace.total_ops == 51
    assert [r.name for r in trace.regions] == ["outer", "spin"]
    assert all(r.truncated for r in trace.regions)
    assert trace.regions[0].max_depth == 2
    assert ctx._open_regions == []
    assert [frame[0] for frame in ctx.stack] == [_nested_spin]


def test_budget_stop_outside_regions_unwinds_to_the_root():
    ctx, trace, _addr = _drive(_swallowing_spin, max_ops=5)
    assert trace.truncated and not trace.regions
    assert trace.total_ops == 6
    assert [frame[0] for frame in ctx.stack] == [_swallowing_spin]


def test_except_exception_cannot_swallow_the_budget():
    class Swallow(Workload):
        name = "test_swallow"
        suite = "test"

        def build(self, sim, n_threads, scale, rng):
            addr = sim.memory.alloc(8)
            return [(_swallowing_spin, (addr,), {})] * n_threads

    ir = extract_workload(Swallow(), n_threads=2, scale=1.0,
                          limits=AnalysisLimits(max_ops=300))
    assert ir.truncated
    assert [t.total_ops for t in ir.threads] == [301, 301]


def test_raw_yielded_ops_are_still_interpreted():
    @simfn
    def _raw(ctx, addr):
        yield ("s", addr, 7)
        v = yield ("l", addr)
        yield from ctx.store(addr + 8, v)

    ctx, trace, addr = _drive(_raw, max_ops=100)
    assert not trace.truncated
    assert trace.total_ops == 3
    assert ctx._overlay == {addr: 7, addr + 8: 7}


def test_repeated_regions_share_equal_containers():
    ir = extract("dedup")
    by_key: dict[tuple[int, int], list[RegionInstance]] = {}
    for t in ir.threads:
        for r in t.regions:
            by_key.setdefault((r.tid, r.site), []).append(r)
    shared = 0
    for regions in by_key.values():
        for prev, cur in zip(regions, regions[1:]):
            if cur.read_addrs == prev.read_addrs:
                assert cur.read_addrs is prev.read_addrs
                shared += 1
    assert shared > 1000
