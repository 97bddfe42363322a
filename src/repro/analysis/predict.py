"""Static decision-tree prediction: TM_BEGIN sites onto Figure 1 leaves.

The dynamic :class:`~repro.core.decision_tree.DecisionTree` walks a
*profile* — sampled time decomposition and abort weights — to a terminal
leaf per critical section.  This module walks the same tree shape over
*static* evidence from the symbolic IR:

* estimated per-attempt body cycles (:attr:`RegionInstance.cycles`)
  versus the runtime's fixed begin/end overhead stand in for the dynamic
  T_oh fraction (``merge-transactions``);
* serialization pressure — how many threads' worth of section time the
  workload tries to run concurrently — stands in for T_wait
  (``relax-serialization``);
* lines written on *every* attempt by two or more threads are certain
  conflict precursors; word-level coincidence separates ``true-sharing``
  from ``false-sharing``;
* per-attempt footprint/nesting overflow and always-unfriendly ops map
  to ``capacity-overflow`` and ``unfriendly-instructions`` exactly like
  the lint checks, but expressed as leaves;
* a site with no pathology predicts ``speculation-ok``.

:mod:`repro.analysis.crossval` then runs the profiler, traverses the
dynamic tree per sampled section (``DecisionTree.analyze_cs``), and
scores predicted against observed leaves — identifier equality on
:class:`~repro.core.decision_tree.Leaf`, not substring matching.

When the symbolic drive was truncated, predictions are marked
``incomplete`` and carry the explicit note instead of full confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.decision_tree import Leaf, Thresholds
from ..sim.config import line_of
from .ir import RegionInstance
from .summarize import SectionSummary, WorkloadSummary

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from .dataflow import DataflowAnalysis
    from .mc import ModelCheckAnalysis
    from .races import RaceAnalysis

#: leaves the static predictor emits per site and crossval scores.
#: Program-level outcomes (no-htm-bottleneck, no-sections) and the
#: dynamic-only sampling artifact (no-abort-weight) are excluded.
PREDICTABLE_LEAVES: tuple[str, ...] = (
    Leaf.MERGE_TRANSACTIONS.value,
    Leaf.RELAX_SERIALIZATION.value,
    Leaf.TRUE_SHARING.value,
    Leaf.FALSE_SHARING.value,
    Leaf.CAPACITY_OVERFLOW.value,
    Leaf.UNFRIENDLY_INSTRUCTIONS.value,
    Leaf.SPECULATION_OK.value,
)

#: appended to predictions derived from a truncated drive
INCOMPLETE_NOTE = (
    "analysis incomplete: the symbolic drive was truncated; leaf "
    "predictions are low-confidence"
)


@dataclass
class SitePrediction:
    """Predicted decision-tree leaves for one TM_BEGIN site."""

    site: int
    name: str
    leaves: tuple[str, ...] = ()
    #: human-readable evidence, one entry per leaf decision
    rationale: tuple[str, ...] = ()
    #: static T_oh stand-in: overhead / (overhead + mean body cycles)
    overhead_frac: float = 0.0
    #: threads' worth of section time competing for the one lock
    pressure: float = 0.0
    #: every-attempt conflicting cache lines across threads
    hot_lines: int = 0
    #: every attempt aborts persistently (overflow / unfriendly / nesting)
    persistent: bool = False
    #: True when the drive was truncated — treat leaves as low-confidence
    incomplete: bool = False
    note: str = ""
    #: abort classes guaranteed on every path (dataflow best case) and
    #: possible on some path (worst case) — the crossval envelope
    best_case: tuple[str, ...] = ()
    worst_case: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "name": self.name,
            "leaves": list(self.leaves),
            "rationale": list(self.rationale),
            "overhead_frac": round(self.overhead_frac, 4),
            "pressure": round(self.pressure, 4),
            "hot_lines": self.hot_lines,
            "persistent": self.persistent,
            "incomplete": self.incomplete,
            "note": self.note,
            "best_case": list(self.best_case),
            "worst_case": list(self.worst_case),
        }


@dataclass
class StaticPrediction:
    """All per-site predictions plus the program-level outcome."""

    workload: str
    sites: dict[int, SitePrediction] = field(default_factory=dict)
    #: program-level leaves (time analysis): empty when sections are hot
    program_leaves: tuple[str, ...] = ()
    #: static r_cs estimate: section cycles / total thread cycles
    est_r_cs: float = 0.0
    incomplete: bool = False

    def predicted_leaves(self) -> dict[int, set[str]]:
        """Site -> predicted leaf values (crossval's static input)."""
        return {site: set(p.leaves) for site, p in self.sites.items()}

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "est_r_cs": round(self.est_r_cs, 4),
            "program_leaves": list(self.program_leaves),
            "incomplete": self.incomplete,
            "sites": [p.to_dict() for p in
                      sorted(self.sites.values(), key=lambda p: p.site)],
        }


def _site_regions(ws: WorkloadSummary, site: int) -> list[RegionInstance]:
    return [
        region
        for t in ws.threads
        for region in t.regions
        if region.site == site
    ]


def _hot_conflicts(regions: list[RegionInstance]) -> tuple[set[int], bool]:
    """Every-attempt conflicting lines across threads, and whether the
    collision is on common *words* (true sharing) or line-only (false)."""
    lines_by_tid: dict[int, set[int] | None] = {}
    words_by_tid: dict[int, set[int] | None] = {}
    read_lines_by_tid: dict[int, set[int]] = {}
    for region in regions:
        # the region's sets are shared with its IR: intersect, never mutate
        wl = region.write_lines()
        wwords = region.write_addrs
        have = lines_by_tid.get(region.tid)
        lines_by_tid[region.tid] = wl if have is None else have & wl
        havew = words_by_tid.get(region.tid)
        words_by_tid[region.tid] = wwords if havew is None else havew & wwords
        read_lines_by_tid.setdefault(region.tid, set()).update(region.read_lines())
    hot: set[int] = set()
    true_sharing = False
    tids = sorted(lines_by_tid)
    for i, ta in enumerate(tids):
        wa = lines_by_tid[ta] or set()
        words_a = words_by_tid[ta] or set()
        for tb in tids[i + 1 :]:
            wb = lines_by_tid[tb] or set()
            words_b = words_by_tid[tb] or set()
            ww = wa & wb
            # write-every-attempt vs read lines of the other thread
            wr = (wa & read_lines_by_tid.get(tb, set())) | (
                wb & read_lines_by_tid.get(ta, set())
            )
            hot |= ww | wr
            if words_a & words_b:
                true_sharing = True
            elif ww and {line_of(w) for w in words_a} & {line_of(w) for w in words_b}:
                pass  # line coincidence only: false sharing
    return hot, true_sharing


def _txn_overhead(ws: WorkloadSummary) -> int:
    cfg = ws.config
    return (
        cfg.tm_begin_overhead + cfg.xbegin_cost + cfg.xend_cost + cfg.tm_end_overhead
    )


def _predict_site(
    ws: WorkloadSummary,
    s: SectionSummary,
    th: Thresholds,
    total_thread_cycles: int,
) -> SitePrediction:
    regions = _site_regions(ws, s.site)
    outer = [r for r in regions if r.depth == 1]
    oh = _txn_overhead(ws)
    mean_body = (
        sum(r.cycles for r in outer) / len(outer) if outer else 0.0
    )
    overhead_frac = oh / (oh + mean_body) if (oh + mean_body) else 0.0
    site_cycles = sum(r.cycles + oh for r in outer)
    max_thread = max(
        (t.est_cycles for t in ws.threads if t.est_cycles), default=0
    )
    pressure = site_cycles / max_thread if max_thread else 0.0
    cfg = ws.config
    persistent = (
        s.always_unfriendly()
        or s.always_overflows(cfg, ws.n_sets)
        or s.max_depth > cfg.max_nesting
    )
    hot, true_sharing = _hot_conflicts(regions)

    leaves: list[str] = []
    rationale: list[str] = []
    if overhead_frac >= th.overhead:
        leaves.append(Leaf.MERGE_TRANSACTIONS.value)
        rationale.append(
            f"begin/end overhead {oh} cycles vs mean body "
            f"{mean_body:.0f} -> est T_oh {overhead_frac:.0%} >= {th.overhead:.0%}"
        )
    if persistent:
        if s.always_unfriendly():
            leaves.append(Leaf.UNFRIENDLY_INSTRUCTIONS.value)
            rationale.append("every attempt contains an unfriendly op")
        if s.always_overflows(cfg, ws.n_sets) or s.max_depth > cfg.max_nesting:
            leaves.append(Leaf.CAPACITY_OVERFLOW.value)
            rationale.append(
                "every attempt overflows a speculative budget "
                f"(min write lines {s.min_write_lines}, min ways {s.min_ways}, "
                f"min read lines {s.min_read_lines}, depth {s.max_depth})"
            )
        if len(s.tids) >= 2 and pressure >= 1.0:
            leaves.append(Leaf.RELAX_SERIALIZATION.value)
            rationale.append(
                f"persistent aborts serialize {len(s.tids)} threads on the "
                f"fallback lock at pressure {pressure:.2f} threads"
            )
    if hot and len(s.tids) >= 2:
        if true_sharing:
            leaves.append(Leaf.TRUE_SHARING.value)
            rationale.append(
                f"{len(hot)} line(s) conflict on every attempt on common words"
            )
        else:
            leaves.append(Leaf.FALSE_SHARING.value)
            rationale.append(
                f"{len(hot)} line(s) conflict on every attempt on distinct words"
            )
    if not leaves:
        leaves.append(Leaf.SPECULATION_OK.value)
        rationale.append("no static pathology: speculation should succeed")
    return SitePrediction(
        site=s.site,
        name=s.name,
        leaves=tuple(leaves),
        rationale=tuple(rationale),
        overhead_frac=overhead_frac,
        pressure=pressure,
        hot_lines=len(hot),
        persistent=persistent,
    )


#: lockset findings whose racing words live inside the section's own
#: footprint: their abort pressure scales with the race, so the measured
#: time decomposition will be abort-dominated at the implicated sites
_RACE_LEAF_CODES = ("asymmetric-fallback-race", "elision-unsafe-access")


def _apply_race_evidence(pred: SitePrediction, codes: list[str]) -> None:
    """Fold lockset-race findings into one site's leaf prediction.

    A race on words the section itself reads or writes dooms attempts
    repeatedly: fallback and retry time dominate the dynamic profile, so
    the tree descends the abort branch instead of diagnosing overhead.
    Mirror that — drop ``merge-transactions`` / ``speculation-ok``
    (their T fractions get diluted below threshold) and predict
    ``true-sharing`` (the race is on common words, not line coincidence).
    """
    keep = [
        (leaf, why)
        for leaf, why in zip(pred.leaves, pred.rationale)
        if leaf not in (Leaf.MERGE_TRANSACTIONS.value,
                        Leaf.SPECULATION_OK.value)
    ]
    if Leaf.TRUE_SHARING.value not in (leaf for leaf, _ in keep):
        keep.append((
            Leaf.TRUE_SHARING.value,
            "lockset pass: " + ", ".join(sorted(set(codes)))
            + " — racing writes on this section's own words doom its "
            "attempts (conflict aborts on common words)",
        ))
    pred.leaves = tuple(leaf for leaf, _ in keep)
    pred.rationale = tuple(why for _, why in keep)


def _apply_dataflow_evidence(
    pred: SitePrediction,
    dataflow: "DataflowAnalysis",
    overflow_sites: dict[int, bool],
) -> None:
    """Fold the fixpoint pass's intervals into one site's prediction.

    Always attaches the best/worst-case abort-class envelope.  Only when
    the conditional-capacity client *observed* the heavy path overflow a
    budget (``observed_overflow``) does the dynamic profile actually show
    capacity aborts — so only then does the leaf prediction change: drop
    the diluted ``merge-transactions`` / ``speculation-ok`` leaves and
    predict ``capacity-overflow``.
    """
    sd = dataflow.sites.get(pred.site)
    if sd is not None:
        pred.best_case = sd.best_classes
        pred.worst_case = sd.worst_classes
    if not overflow_sites.get(pred.site):
        return
    keep = [
        (leaf, why)
        for leaf, why in zip(pred.leaves, pred.rationale)
        if leaf not in (Leaf.MERGE_TRANSACTIONS.value,
                        Leaf.SPECULATION_OK.value)
    ]
    if Leaf.CAPACITY_OVERFLOW.value not in (leaf for leaf, _ in keep):
        keep.append((
            Leaf.CAPACITY_OVERFLOW.value,
            "dataflow pass: the heavy branch arm's footprint interval "
            "exceeds a speculative budget and the drive observed it — "
            "sampled aborts will be capacity-dominated",
        ))
    pred.leaves = tuple(leaf for leaf, _ in keep)
    pred.rationale = tuple(why for _, why in keep)


def _apply_mc_evidence(pred: SitePrediction, mc: "ModelCheckAnalysis") -> None:
    """Widen one site's worst-case envelope with graph-reachable classes.

    The abort graph is reachability evidence — *some* interleaving
    inflicts the class — which is exactly worst-case-envelope strength,
    not every-attempt strength, so the leaves (point predictions scored
    against the dominant dynamic outcome) stay untouched.
    """
    reachable = mc.graph.abort_classes(pred.site)
    extra = sorted(c for c in reachable if c not in pred.worst_case)
    if not extra:
        return
    pred.worst_case = pred.worst_case + tuple(extra)
    pred.note = (pred.note + "; " if pred.note else "") + (
        "abort graph: some explored interleaving inflicts "
        + ", ".join(extra) + " abort(s) on this section"
    )


def predict_workload(
    ws: WorkloadSummary,
    thresholds: Thresholds | None = None,
    races: "RaceAnalysis | None" = None,
    dataflow: "DataflowAnalysis | None" = None,
    mc: "ModelCheckAnalysis | None" = None,
) -> StaticPrediction:
    """Map every TM_BEGIN site of a summarized workload onto tree leaves.

    ``races`` (the lockset pass's result for the same IR) sharpens the
    per-site leaves: race-implicated sites predict the abort branch the
    dynamic tree will actually take instead of a diluted overhead leaf.
    ``dataflow`` (the fixpoint pass) attaches best/worst-case abort-class
    envelopes and upgrades observed conditional overflows to the
    ``capacity-overflow`` leaf.  ``mc`` (the bounded model checker)
    widens worst-case envelopes with every abort class the static abort
    graph can inflict on a site.
    """
    th = thresholds or Thresholds()
    sp = StaticPrediction(workload=ws.workload, incomplete=ws.truncated)
    race_sites: dict[int, list[str]] = {}
    if races is not None:
        for f in races.findings:
            if f.code in _RACE_LEAF_CODES:
                for site in f.sites:
                    race_sites.setdefault(site, []).append(f.code)
    overflow_sites: dict[int, bool] = {}
    if dataflow is not None:
        for f in dataflow.findings:
            if (
                f.code == "conditional-capacity-overflow"
                and f.data.get("observed_overflow") is True
            ):
                for site in f.sites:
                    overflow_sites[site] = True
    total = sum(t.est_cycles for t in ws.threads)
    oh = _txn_overhead(ws)
    section_cycles = 0
    n_outer = 0
    for t in ws.threads:
        for region in t.regions:
            if region.depth == 1:
                section_cycles += region.cycles + oh
                n_outer += 1
    total += oh * n_outer
    sp.est_r_cs = section_cycles / total if total else 0.0
    if not ws.sections:
        sp.program_leaves = (Leaf.NO_SECTIONS.value,)
        return sp
    if sp.est_r_cs < th.r_cs:
        sp.program_leaves = (Leaf.NO_HTM_BOTTLENECK.value,)
    for s in ws.section_list():
        pred = _predict_site(ws, s, th, total)
        if s.site in race_sites:
            _apply_race_evidence(pred, race_sites[s.site])
        if dataflow is not None:
            _apply_dataflow_evidence(pred, dataflow, overflow_sites)
        if mc is not None:
            _apply_mc_evidence(pred, mc)
        if ws.truncated:
            pred.incomplete = True
            pred.note = INCOMPLETE_NOTE
        sp.sites[s.site] = pred
    return sp


__all__ = [
    "PREDICTABLE_LEAVES",
    "INCOMPLETE_NOTE",
    "SitePrediction",
    "StaticPrediction",
    "predict_workload",
]
