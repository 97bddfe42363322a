"""The engine's hot path changes no outcome, only its cost.

* the line index (``TsxEngine.readers``/``writers``) equals a
  recomputation from the live transactions after every step of random
  programs: loads, stores, CAS, nested sections, calls, syscalls,
  barriers, first-touch page faults and instrumentation write-set lines;
* the indexed ``on_access`` dooms the same transactions, in the same
  order, with the same ``conflict_edges`` as the plain scan over every
  live transaction, under requester-wins, responder-wins and lazy
  detection;
* the jitter drawn inline equals ``random.Random(s).randrange(j + 1)``;
* ``run`` steps threads in the same (tid, clock) order as popping and
  pushing the run queue once per step.
"""

from __future__ import annotations

import heapq
import random
import types

from hypothesis import given, settings, strategies as st

from repro.htm.status import ABORT_CONFLICT, AbortStatus
from repro.rtm.instrument import TxnInstrumentation
from repro.sim import Barrier, SimError, Simulator, simfn
from repro.sim.config import line_of

from tests.conftest import make_config

#: words the programs touch: two per line, so lines are shared both
#: truly and falsely
N_WORDS = 8
#: of which the last two sit on a page no allocation pretouched
COLD_WORDS = 2

# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------


@simfn
def _fp_thread(ctx, segments, addrs, bar):
    for i, ops in enumerate(segments):
        if i:
            yield from ctx.barrier(bar)
        yield from _fp_ops(ctx, ops, addrs)


@simfn
def _fp_callee(ctx, ops, addrs):
    yield from _fp_ops(ctx, ops, addrs)


def _fp_ops(ctx, ops, addrs):
    for op in ops:
        kind = op[0]
        if kind == "load":
            yield from ctx.load(addrs[op[1]])
        elif kind == "store":
            yield from ctx.store(addrs[op[1]], op[2])
        elif kind == "cas":
            v = yield from ctx.load(addrs[op[1]])
            yield from ctx.cas(addrs[op[1]], v, v + op[2])
        elif kind == "compute":
            yield from ctx.compute(op[1])
        elif kind == "syscall":
            yield from ctx.syscall("write")
        elif kind == "call":
            yield from ctx.call(_fp_callee, op[1], addrs)
        else:  # atomic
            body = op[1]
            yield from ctx.atomic(
                lambda c, body=body: _fp_ops(c, body, addrs), name=op[2])


_word = st.integers(0, N_WORDS - 1)
_leaf = st.one_of(
    st.tuples(st.just("load"), _word),
    st.tuples(st.just("store"), _word, st.integers(0, 3)),
    st.tuples(st.just("cas"), _word, st.integers(0, 2)),
    st.tuples(st.just("compute"), st.integers(0, 30)),
    st.tuples(st.just("syscall")),
)


def _ops(depth: int):
    if depth == 0:
        return st.lists(_leaf, min_size=1, max_size=4)
    inner = _ops(depth - 1)
    return st.lists(st.one_of(
        _leaf,
        st.tuples(st.just("call"), inner),
        st.tuples(st.just("atomic"), inner, st.sampled_from(["a", "b"])),
    ), min_size=1, max_size=4)


@st.composite
def _programs(draw):
    """(per-thread segments, seed, extra write-set lines)."""
    n_threads = draw(st.integers(2, 4))
    n_segments = draw(st.integers(1, 2))
    top = st.lists(st.tuples(st.just("atomic"), _ops(1),
                             st.sampled_from(["a", "b"])) | _leaf,
                   min_size=0, max_size=4)
    threads = [[draw(top) for _ in range(n_segments)]
               for _ in range(n_threads)]
    return threads, draw(st.integers(0, 2**16)), draw(st.integers(0, 3))


def _build(threads, seed, extra, cls=Simulator, **cfg):
    sim = cls(make_config(len(threads), **cfg), n_threads=len(threads),
              seed=seed)
    warm = [sim.memory.alloc_line() + 8 * (i % 2)
            for i in range(N_WORDS - COLD_WORDS)]
    cold = sim.memory.alloc(4096, align=4096, pretouch=False)
    addrs = warm + [cold, cold + 64]
    bar = Barrier(len(threads))
    if extra:
        sim.rtm.instrument = TxnInstrumentation(extra_wset_lines=extra)
    sim.set_programs([(_fp_thread, (segs, addrs, bar), {})
                      for segs in threads])
    return sim


def _recomputed(htm):
    readers: dict[int, set[int]] = {}
    writers: dict[int, set[int]] = {}
    for tid, txn in htm.active.items():
        for line in txn.read_lines:
            readers.setdefault(line, set()).add(tid)
        for line in txn.write_lines:
            writers.setdefault(line, set()).add(tid)
    return readers, writers


def _each_step(sim, check):
    """Call ``check()`` after every step ``run`` makes."""
    step = sim._step

    def checked(t):
        step(t)
        check()

    sim._step = checked


class TestLineIndex:
    @given(_programs())
    @settings(max_examples=60, deadline=None)
    def test_index_matches_live_transactions_after_every_step(self, prog):
        threads, seed, extra = prog
        sim = _build(threads, seed, extra)
        htm = sim.htm

        def check():
            readers, writers = _recomputed(htm)
            assert htm.readers == readers
            assert htm.writers == writers

        _each_step(sim, check)
        sim.run(max_steps=200_000)
        assert not htm.active
        assert htm.readers == {} and htm.writers == {}

    def test_instrumentation_lines_join_the_write_index(self):
        sim = _build([[[("atomic", [("store", 0, 1)], "a")]]] * 2, 3, 2)
        fake = set()

        def check():
            for txn in sim.htm.active.values():
                extra = {ln for ln in txn.write_lines if ln >= 1 << 40}
                fake.update(extra)
                for ln in extra:
                    assert txn.tid in sim.htm.writers[ln]

        _each_step(sim, check)
        sim.run()
        assert len(fake) == 4  # two per thread, one set per tid
        assert sim.htm.writers == {}


# ---------------------------------------------------------------------------
# indexed arbitration vs the plain scan
# ---------------------------------------------------------------------------


def _scan_on_access(self, tid, addr, is_write):
    """Conflict arbitration as a scan over every live transaction: the
    reference the line index must agree with."""
    if not self.config.eager_conflicts and tid in self.active:
        return
    line = line_of(addr)
    requester_wins = self.config.conflict_policy == "requester_wins"
    me = self.active.get(tid)
    for other_tid, other in list(self.active.items()):
        if other_tid == tid or other.doomed is not None:
            continue
        conflicts = (
            line in other.write_lines
            or (is_write and line in other.read_lines)
        )
        if not conflicts:
            continue
        if requester_wins or me is None:
            self.doom(other, AbortStatus(ABORT_CONFLICT, aborter_tid=tid))
            self._record_edge(tid, me, other, line)
        else:
            self.doom(me, AbortStatus(ABORT_CONFLICT, aborter_tid=other_tid))
            self._record_edge(other_tid, other, me, line)
            return


def _trace(threads, seed, extra, reference, **cfg):
    """Every doom in order, the edge map in insertion order, and the
    run's result."""
    sim = _build(threads, seed, extra, **cfg)
    htm = sim.htm
    if reference:
        htm.on_access = types.MethodType(_scan_on_access, htm)
    dooms = []
    doom = htm.doom

    def logged(txn, status):
        if txn.doomed is None:
            dooms.append((txn.tid, txn.thread.clock, status.reason,
                          status.aborter_tid, status.detail))
        doom(txn, status)

    htm.doom = logged
    result = sim.run(max_steps=200_000)
    return dooms, list(htm.conflict_edges.items()), result


POLICIES = [
    {},
    {"conflict_policy": "responder_wins"},
    {"eager_conflicts": False},
]


class TestIndexedArbitration:
    @given(_programs(), st.sampled_from(range(len(POLICIES))))
    @settings(max_examples=60, deadline=None)
    def test_same_dooms_edges_and_result_as_the_scan(self, prog, policy):
        threads, seed, extra = prog
        cfg = POLICIES[policy]
        indexed = _trace(threads, seed, extra, reference=False, **cfg)
        scanned = _trace(threads, seed, extra, reference=True, **cfg)
        assert indexed == scanned

    def test_a_contended_program_dooms_through_the_index(self):
        # every thread bumps the same word in a section: conflicts are
        # certain, so the agreement above is not vacuous
        prog = [[[("atomic", [("load", 0), ("compute", 20),
                              ("store", 0, 1)], "a")] * 3]] * 4
        for cfg in POLICIES:
            indexed = _trace(prog, 1, 0, reference=False, **cfg)
            assert indexed == _trace(prog, 1, 0, reference=True, **cfg)
            assert indexed[0], cfg
            if cfg.get("eager_conflicts", True):
                assert any(reason == "conflict"
                           for _t, _c, reason, _a, _d in indexed[0]), cfg


# ---------------------------------------------------------------------------
# jitter and the run loop
# ---------------------------------------------------------------------------


@simfn
def _fp_computes(ctx, n):
    for _ in range(n):
        yield from ctx.compute(0)


class TestJitter:
    def test_inline_draws_equal_randrange(self):
        for jitter in range(9):
            for seed in (0, 1, 7):
                sim = Simulator(make_config(1, cost_jitter=jitter),
                                n_threads=1, seed=seed)
                sim.set_programs([(_fp_computes, (200,), {})])
                t = sim.threads[0]
                clocks = []
                _each_step(sim, lambda t=t, clocks=clocks:
                           clocks.append(t.clock))
                sim.run()
                drawn = [b - a for a, b in zip([0] + clocks, clocks, strict=False)][:200]
                rng = random.Random((seed + 1) * 1_000_003)
                assert drawn == [rng.randrange(jitter + 1)
                                 for _ in range(200)], (jitter, seed)


class _PopPushSimulator(Simulator):
    """``run`` as one pop and one push of the run queue per step."""

    def run(self, max_steps: int = 500_000_000):
        self._started = True
        for t, (fn, args, kwargs) in zip(self.threads, self._programs,
                                         strict=True):
            t.start(fn, args, kwargs)
        heap = [(0, t.tid) for t in self.threads]
        heapq.heapify(heap)
        self._heap = heap
        steps = 0
        while heap:
            _, tid = heapq.heappop(heap)
            t = self.threads[tid]
            if t.done:
                continue
            self._step(t)
            steps += 1
            if steps > max_steps:
                raise SimError(f"exceeded max_steps={max_steps}")
            if not t.done and not t.blocked:
                heapq.heappush(heap, (t.clock, tid))
        return self._result()


@simfn
def _fp_phases(ctx, bar, addr, phases):
    for p in range(phases):
        yield from ctx.compute(7 * (ctx.tid + 1) + p)
        yield from ctx.atomic(lambda c: c.add(addr), name="bump")
        yield from ctx.barrier(bar)


class TestRunOrder:
    def _order(self, cls, seed):
        n = 4
        sim = cls(make_config(n), n_threads=n, seed=seed)
        addr = sim.memory.alloc_line()
        bar = Barrier(n)
        sim.set_programs([(_fp_phases, (bar, addr, 5), {})] * n)
        order = []
        step = sim._step

        def logged(t):
            order.append((t.tid, t.clock))
            step(t)

        sim._step = logged
        result = sim.run()
        return order, result

    def test_step_order_equals_pop_push_loop(self):
        for seed in range(4):
            fast, fast_result = self._order(Simulator, seed)
            ref, ref_result = self._order(_PopPushSimulator, seed)
            assert fast == ref
            assert fast_result == ref_result
            # the loop does keep stepping one thread between heap visits
            runs = sum(1 for a, b in zip(fast, fast[1:], strict=False) if a[0] == b[0])
            assert runs
