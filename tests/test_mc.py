"""The bounded interleaving model checker (repro.analysis.mc).

Covers the three layers separately and end to end:

* **lowering** — symbolic summaries become deterministic sequential
  processes with conflict lines guaranteed kept, capacity dooms placed
  by the engine's budgets, and sync steps at their traced position;
* **exploration** — DPOR must produce the *identical* abort graph as
  the brute-force reference on every verify scenario while exploring
  strictly fewer interleavings, and (the Hypothesis property) must
  visit a representative of every Mazurkiewicz trace on random small
  footprint systems;
* **the abort graph** — who-aborts-whom edges with witnesses, convoy
  (lemming) cycles, fallback serialization depth, and the lint
  findings derived from them.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import analyze_workload
from repro.analysis.mc import (
    MCLimits,
    Scenario,
    System,
    TxnProc,
    analyze_mc,
    brute_enumerate,
    brute_explore,
    dpor_explore,
    lower_scenarios,
)
from repro.analysis.ir import extract_workload
from repro.analysis.mc.transition import READ, SYNC, WRITE, Step
from repro.analysis.summarize import summarize

LOCK_LINE = 9999


def _txn(tid, steps, capacity_at=None, site=None, name=None):
    """A hand-built lowered transaction over (kind, line) pairs."""
    return TxnProc(
        tid=tid,
        site=site if site is not None else 0x1000 + tid,
        name=name or f"t{tid}",
        steps=tuple(
            Step(kind, line, ip=0x100 * (tid + 1) + i)
            for i, (kind, line) in enumerate(steps)
        ),
        capacity_at=capacity_at,
        fp_read=frozenset(
            line for kind, line in steps if kind == READ
        ),
        fp_write=frozenset(
            line for kind, line in steps if kind == WRITE
        ),
    )


def _scenario(*txns, verify=True):
    return Scenario(key="test", txns=tuple(txns), lock_line=LOCK_LINE,
                    verify=verify)


def _mc(name, **kw):
    ir = extract_workload(name, n_threads=4, scale=0.5)
    ws = summarize(ir)
    return analyze_mc(ir, ws, **kw)


# ---------------------------------------------------------------------------
# hand-built systems: the TSX semantics of the transition relation
# ---------------------------------------------------------------------------


class TestSystemSemantics:
    def test_write_write_conflict_produces_edges_both_ways(self):
        sc = _scenario(_txn(0, [(WRITE, 5)]), _txn(1, [(WRITE, 5)]))
        exp = dpor_explore(System(sc))
        keys = exp.edge_keys()
        # requester-wins: whichever thread touches line 5 second dooms
        # the speculating other — both orders are explored
        assert (0x1001, 0x1000, "conflict", False) in keys
        assert (0x1000, 0x1001, "conflict", False) in keys

    def test_disjoint_writes_never_conflict_on_data(self):
        sc = _scenario(_txn(0, [(WRITE, 5)]), _txn(1, [(WRITE, 6)]))
        exp = dpor_explore(System(sc))
        assert not any(cls == "conflict" and not via
                       for _a, _v, cls, via in exp.edge_keys())

    def test_read_read_sharing_is_benign(self):
        sc = _scenario(_txn(0, [(READ, 5)]), _txn(1, [(READ, 5)]))
        exp = dpor_explore(System(sc))
        assert exp.edge_keys() == frozenset()
        # and the whole system commutes down to a single interleaving
        assert exp.executions == 1

    def test_capacity_self_doom_is_persistent(self):
        sc = _scenario(_txn(0, [(WRITE, 5), (WRITE, 6)], capacity_at=1),
                       _txn(1, [(READ, 7)]))
        exp = dpor_explore(System(sc))
        assert (0, 0x1000, "capacity", False) in exp.edge_keys()

    def test_sync_step_dooms_the_issuer(self):
        sc = _scenario(_txn(0, [(SYNC, -1)]), _txn(1, [(READ, 7)]))
        exp = dpor_explore(System(sc))
        assert (0, 0x1000, "sync", False) in exp.edge_keys()

    def test_fallback_acquisition_aborts_elided_peers(self):
        # t0 self-dooms persistently -> falls back -> its lock acquire
        # aborts t1's speculation through the subscribed lock line
        sc = _scenario(_txn(0, [(SYNC, -1)]), _txn(1, [(READ, 7), (READ, 8)]))
        exp = dpor_explore(System(sc))
        assert (0x1000, 0x1001, "conflict", True) in exp.edge_keys()

    def test_serialization_depth_counts_queued_threads(self):
        # two persistent self-doomers + a speculator: some state holds
        # the lock with another fallback thread queued behind it
        sc = _scenario(_txn(0, [(SYNC, -1)]), _txn(1, [(SYNC, -1)]),
                       _txn(2, [(READ, 7)]), verify=False)
        exp = dpor_explore(System(sc))
        assert exp.max_depth >= 2

    def test_witnesses_accompany_every_edge(self):
        sc = _scenario(_txn(0, [(WRITE, 5)]), _txn(1, [(WRITE, 5)]))
        exp = dpor_explore(System(sc))
        for key, obs in exp.edges.items():
            assert obs.occurrences >= 1, key
            assert obs.witness, key
            for tid, ip, note in obs.witness:
                assert isinstance(tid, int) and isinstance(ip, int)
                assert isinstance(note, str) and note
            # the witness ends with the victim observing the abort
            assert "rolls back" in obs.witness[-1][2]


# ---------------------------------------------------------------------------
# DPOR vs the brute-force reference
# ---------------------------------------------------------------------------


class TestDporSoundness:
    @pytest.mark.parametrize("txns", [
        (_txn(0, [(WRITE, 1), (READ, 2)]), _txn(1, [(WRITE, 1), (WRITE, 3)])),
        (_txn(0, [(READ, 1), (WRITE, 2)]), _txn(1, [(READ, 2), (WRITE, 1)])),
        (_txn(0, [(SYNC, -1)]), _txn(1, [(WRITE, 4)]),
         _txn(2, [(WRITE, 4), (READ, 5)])),
        (_txn(0, [(WRITE, 1)], capacity_at=0), _txn(1, [(READ, 1)]),
         _txn(2, [(READ, 2)])),
    ])
    def test_identical_graph_fewer_interleavings(self, txns):
        system = System(_scenario(*txns))
        dpor = dpor_explore(system)
        brute = brute_explore(system)
        assert dpor.complete and brute.complete
        assert dpor.edge_keys() == brute.edge_keys()
        assert dpor.executions <= brute.executions

    @pytest.mark.parametrize("name", [
        "micro_high_abort", "micro_capacity", "micro_sync",
        "micro_false_sharing", "micro_lock_line",
    ])
    def test_verify_scenarios_on_real_micros(self, name):
        mc = _mc(name)
        verify = [s for s in mc.scenarios if s.brute_executions is not None]
        assert verify, name
        for s in verify:
            assert s.verified, (name, s.key)
            assert s.dpor_executions < s.brute_executions, (name, s.key)

    # -- the Mazurkiewicz-coverage property (satellite: DPOR soundness) ----

    @staticmethod
    def _random_system(draw):
        n_threads = draw(st.integers(2, 3))
        budget = 5  # total steps across threads, keeps full DFS tiny
        txns = []
        for tid in range(n_threads):
            remaining = budget - sum(len(t.steps) for t in txns)
            cap = max(1, min(3, remaining - (n_threads - 1 - tid)))
            n_steps = draw(st.integers(1, cap))
            steps = [
                (draw(st.sampled_from([READ, WRITE, SYNC])),
                 draw(st.integers(0, 3)))
                for _ in range(n_steps)
            ]
            steps = [(k, -1 if k == SYNC else ln) for k, ln in steps]
            capacity_at = draw(st.one_of(
                st.none(), st.integers(0, len(steps))))
            txns.append(_txn(tid, steps, capacity_at=capacity_at))
        return System(_scenario(*txns))

    def test_dpor_reverses_a_race_behind_a_sleeping_step(self):
        """A Hypothesis-found system DPOR used to under-explore.

        T2's store to line 2 must be able to run before T0's sync (they
        are dependent through T0's footprint), and T0's fallback
        acquisition before T1 commits.  The race between T1's steps and
        T0's ``acq`` can only be reversed by first running T2, whose
        store T0's later steps wait on; starting T0 there re-runs its
        sync, which the sleep set already covers.  DPOR found 22 of the
        30 trace classes.
        """
        system = System(_scenario(
            _txn(0, [(SYNC, -1), (READ, 2)]),
            _txn(1, [(READ, 0), (READ, 0)]),
            _txn(2, [(WRITE, 2)]),
        ))
        full = brute_enumerate(system)
        dpor = dpor_explore(system, collect_traces=True)
        assert full.complete and dpor.complete
        assert len(full.canonical) == 30
        assert dpor.canonical == full.canonical
        assert dpor.edge_keys() == brute_explore(system).edge_keys()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dpor_covers_every_mazurkiewicz_trace(self, data):
        """DPOR visits >= one representative of every trace class.

        ``brute_enumerate`` walks *every* maximal execution path and
        canonicalizes each into its Mazurkiewicz representative (greedy
        topological order over the dependence DAG); DPOR with trace
        collection must produce exactly that set — no class missed
        (soundness) and none invented (the canonicalizer agrees on the
        dependence relation).
        """
        system = self._random_system(data.draw)
        full = brute_enumerate(system, max_executions=50_000)
        # ~6% of random systems hit a fallback retry loop whose path
        # count explodes combinatorially; the reference cannot finish
        # there, so the example proves nothing either way — skip it
        assume(full.complete)
        dpor = dpor_explore(system, collect_traces=True)
        assert dpor.complete
        assert dpor.canonical == full.canonical
        assert dpor.edge_keys() == frozenset(
            brute_explore(system).edge_keys())


# ---------------------------------------------------------------------------
# lowering real workloads
# ---------------------------------------------------------------------------


class TestLowering:
    def _model(self, name, limits=None):
        ir = extract_workload(name, n_threads=4, scale=0.5)
        ws = summarize(ir)
        return lower_scenarios(ir, ws, limits or MCLimits())

    def test_same_site_scenarios_cover_contending_micros(self):
        model = self._model("micro_high_abort")
        assert any(s.key.startswith("site:") and s.verify
                   for s in model.scenarios)
        assert any(s.key.startswith("convoy:") for s in model.scenarios)

    def test_conflicting_lines_survive_the_caps(self):
        # the shared counter line must be modeled in both txns of the
        # verify scenario no matter how tight the caps are
        model = self._model("micro_high_abort")
        sc = next(s for s in model.scenarios if s.verify)
        shared = set.intersection(*[
            set(t.fp_read | t.fp_write) for t in sc.txns
        ])
        assert shared, "no modeled shared line between same-site txns"

    def test_capacity_doom_is_positioned(self):
        model = self._model("micro_capacity")
        assert any(
            t.capacity_at is not None
            for s in model.scenarios for t in s.txns
        )

    def test_sync_steps_appear_for_unfriendly_micros(self):
        model = self._model("micro_sync")
        assert any(
            step.kind == SYNC
            for s in model.scenarios for t in s.txns for step in t.steps
        )

    def test_scenario_order_is_deterministic(self):
        a = [s.key for s in self._model("micro_false_sharing").scenarios]
        b = [s.key for s in self._model("micro_false_sharing").scenarios]
        assert a == b == sorted(a)


# ---------------------------------------------------------------------------
# the abort graph and its findings
# ---------------------------------------------------------------------------


class TestAbortGraph:
    def test_convoy_cycle_detected_and_reported(self):
        mc = _mc("micro_high_abort")
        assert mc.graph.convoy_cycles
        codes = {f.code for f in mc.findings}
        assert "convoy-cycle" in codes
        assert "fallback-serialization-depth" in codes

    def test_quiet_micro_has_an_empty_graph(self):
        mc = _mc("micro_read_only")
        assert mc.graph.edges == {}
        assert not mc.findings
        assert mc.graph.max_serialization_depth == 0

    def test_graph_edges_carry_minimal_witnesses(self):
        mc = _mc("micro_high_abort")
        assert mc.graph.edges
        for edge in mc.graph.edge_list():
            assert edge.witness
            assert edge.occurrences >= 1
            assert edge.scenarios

    def test_analysis_to_dict_is_deterministic(self):
        assert _mc("micro_moderate_abort").to_dict() \
            == _mc("micro_moderate_abort").to_dict()

    def test_reduction_is_logged_and_verified(self):
        mc = _mc("micro_capacity")
        assert mc.all_verified
        assert 0 < mc.interleavings_dpor < mc.interleavings_brute
        assert mc.reduction_ratio > 2.0

    def test_lint_integration_sorts_mc_findings_in(self):
        report = analyze_workload("micro_high_abort", n_threads=4,
                                  scale=0.5, mc=True)
        assert report.mc is not None
        codes = [f.code for f in report.findings]
        assert "convoy-cycle" in codes
        assert codes == sorted(codes, key=lambda c: c)

    def test_mc_off_by_default(self):
        report = analyze_workload("micro_high_abort", n_threads=4, scale=0.5)
        assert report.mc is None
