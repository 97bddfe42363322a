"""Client analyses over the solved CFGs: the four dataflow codes.

Per TM site, the layer recovers a region CFG from the recorded ip
transitions, solves the must/may footprint fixpoint, infers per-loop
trip-count intervals (widened to +inf when per-instance counts grow
monotonically — the drive only unrolled a prefix), and emits:

* ``conditional-capacity-overflow`` — the write/read set *may* exceed
  the capacity budget on some path or extrapolated trip count, but is
  not guaranteed to (that guaranteed case is ``capacity-risk``);
* ``loop-scaled-footprint`` — a loop whose trip count varies and drags
  the footprint with it (>= 1 line per extra trip);
* ``divergent-path-footprint`` — branch arms whose footprints differ by
  2x or more, so the abort class is input-dependent;
* ``dead-txn-no-shared-access`` — no transactionally-touched word is
  shared with any writing thread, so the section cannot experience a
  data conflict at all (and, absent other findings, is pure overhead).

Each site also gets best/worst-case abort classes — what *must* happen
on every path vs what *may* happen on some — which feed the static
decision-tree predictor and the crossval envelope pane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ...sim.config import line_of
from ...sim.program import OP_LOAD
from ..summarize import set_ways
from .cache import SummaryCache
from .cfg import CFG
from .domains import FootprintFact, Interval, widen_monotone
from .solver import solve
from .summaries import FunctionSummary, program_summaries
from .witness import region_witness

if TYPE_CHECKING:  # pragma: no cover
    from ..ir import ProgramIR, RegionInstance
    from ..lint import Finding
    from ..summarize import WorkloadSummary

#: footprint delta (lines) below which loop scaling is noise
LOOP_SCALE_MIN_DELTA = 4
#: branch-arm footprint ratio that counts as divergent
DIVERGENCE_RATIO = 2.0
DIVERGENCE_MIN_DELTA = 2


@dataclass
class SiteDataflow:
    """The solved dataflow facts for one TM site."""

    site: int
    name: str
    instances: int = 0
    tids: list[int] = field(default_factory=list)
    #: per-instance observed sizes, monotone-widened across each thread's
    #: instance sequence
    read_lines: Interval = field(default_factory=lambda: Interval(0, 0))
    write_lines: Interval = field(default_factory=lambda: Interval(0, 0))
    ways: Interval = field(default_factory=lambda: Interval(0, 0))
    depth: Interval = field(default_factory=lambda: Interval(1, 1))
    #: guaranteed footprint interval from the must/may fixpoint
    solver_lines: Interval = field(default_factory=lambda: Interval(0, 0))
    #: loop header ip -> per-instance trip-count interval
    trips: dict[int, Interval] = field(default_factory=dict)
    loop_headers: list[int] = field(default_factory=list)
    branch_points: list[int] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    widened_headers: list[int] = field(default_factory=list)
    shared_with_writer: bool = False
    unfriendly: bool = False
    #: abort classes guaranteed on every path / possible on some path
    best_classes: tuple[str, ...] = ()
    worst_classes: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "name": self.name,
            "instances": self.instances,
            "tids": self.tids,
            "read_lines": self.read_lines.to_dict(),
            "write_lines": self.write_lines.to_dict(),
            "ways": self.ways.to_dict(),
            "depth": self.depth.to_dict(),
            "solver_lines": self.solver_lines.to_dict(),
            "trips": {f"{h:#x}": iv.to_dict() for h, iv in sorted(self.trips.items())},
            "loop_headers": self.loop_headers,
            "branch_points": self.branch_points,
            "iterations": self.iterations,
            "converged": self.converged,
            "widened_headers": self.widened_headers,
            "shared_with_writer": self.shared_with_writer,
            "unfriendly": self.unfriendly,
            "best_classes": list(self.best_classes),
            "worst_classes": list(self.worst_classes),
        }


@dataclass
class DataflowAnalysis:
    """The whole workload's dataflow pass: sites, summaries, findings."""

    workload: str
    sites: dict[int, SiteDataflow] = field(default_factory=dict)
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    truncated: bool = False
    cache_stats: dict[str, Any] | None = None

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.sites.values()) and all(
            f.converged for f in self.summaries.values()
        )

    def envelope(self) -> dict[int, set[str]]:
        """Worst-case abort classes per site (the crossval envelope)."""
        return {site: set(s.worst_classes) for site, s in self.sites.items()}

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "workload": self.workload,
            "converged": self.converged,
            "truncated": self.truncated,
            "sites": [s.to_dict() for _, s in sorted(self.sites.items())],
            "functions": [f.to_doc() | {"cached": f.cached}
                          for _, f in sorted(self.summaries.items())],
        }
        if self.cache_stats is not None:
            doc["cache"] = self.cache_stats
        return doc


def _site_instances(ir: ProgramIR) -> dict[int, dict[int, list[RegionInstance]]]:
    """Outermost region instances grouped site -> tid -> program order."""
    sites: dict[int, dict[int, list[RegionInstance]]] = {}
    for trace in ir.threads:
        for region in trace.regions:
            if region.depth != 1:
                continue
            sites.setdefault(region.site, {}).setdefault(trace.tid, []).append(region)
    return sites


def _joined_monotone(per_tid: dict[int, list[int]]) -> Interval:
    """Per-thread monotone widening, joined across threads."""
    acc: Interval | None = None
    for tid in sorted(per_tid):
        iv = widen_monotone(per_tid[tid])
        acc = iv if acc is None else acc.join(iv)
    return acc if acc is not None else Interval(0, 0)


def _instance_trips(region: RegionInstance, header: int) -> int:
    return sum(
        count for (u, v), count in region.edges.items() if v == header and v <= u
    )


def _solve_site(
    sd: SiteDataflow,
    instances: list[RegionInstance],
    cfg_edges: dict[tuple[int, int], int],
    entry: int | None,
) -> None:
    """Run the must/may footprint fixpoint over the site's merged CFG."""
    cfg = CFG.from_edges(cfg_edges, entry=entry)
    sd.loop_headers = sorted(cfg.loop_headers())
    sd.branch_points = sorted(cfg.branch_points())
    if cfg.entry is None:
        return
    reads: dict[int, set[int]] = {}
    writes: dict[int, set[int]] = {}
    for region in instances:
        for kind, ip, addr in region.trace:
            if addr is None:
                continue
            target = reads if kind == OP_LOAD else writes
            target.setdefault(ip, set()).add(line_of(addr))
    universe_r = frozenset(
        line for region in instances for line in region.read_lines()
    )
    universe_w = frozenset(
        line for region in instances for line in region.write_lines()
    )

    def transfer(node: int, fact: FootprintFact) -> FootprintFact:
        return (
            fact.with_access(reads.get(node, ()), False)
                .with_access(writes.get(node, ()), True)
        )

    solution = solve(
        cfg,
        FootprintFact.empty(),
        transfer,
        FootprintFact.join,
        widen=lambda _old, new: new.widen(universe_r, universe_w),
    )
    sd.iterations = solution.iterations
    sd.converged = solution.converged
    sd.widened_headers = sorted(solution.widened)
    exit_fact = solution.exit_fact(cfg, FootprintFact.join)
    if exit_fact is not None:
        sd.solver_lines = Interval(
            len(exit_fact.must_read | exit_fact.must_write),
            len(exit_fact.may_read | exit_fact.may_write),
        )


def _shared_with_writer(ir: ProgramIR, instances: list[RegionInstance]) -> bool:
    """Is any word this site touches also touched by another thread,
    with a writer on at least one side?"""
    thread_reads: dict[int, set[int]] = {}
    thread_writes: dict[int, set[int]] = {}
    for trace in ir.threads:
        thread_reads[trace.tid] = set(trace.in_reads) | set(trace.out_reads)
        thread_writes[trace.tid] = set(trace.in_writes) | set(trace.out_writes)
    for region in instances:
        for word in region.read_addrs:
            if any(
                tid != region.tid and word in words
                for tid, words in thread_writes.items()
            ):
                return True
        for word in region.write_addrs:
            if any(
                tid != region.tid and (
                    word in thread_reads[tid] or word in thread_writes[tid]
                )
                for tid in thread_reads
            ):
                return True
    return False


def analyze_site(
    ir: ProgramIR, site: int, per_tid: dict[int, list[RegionInstance]]
) -> SiteDataflow:
    """Solve one TM site: intervals, loops, branches, abort envelope."""
    cfg = ir.config
    n_sets = max(1, cfg.wset_lines // max(1, cfg.wset_assoc))
    instances = [r for tid in sorted(per_tid) for r in per_tid[tid]]
    sd = SiteDataflow(site=site, name=instances[0].name,
                      instances=len(instances), tids=sorted(per_tid))
    sd.read_lines = _joined_monotone(
        {t: [len(r.read_lines()) for r in rs] for t, rs in per_tid.items()}
    )
    sd.write_lines = _joined_monotone(
        {t: [len(r.write_lines()) for r in rs] for t, rs in per_tid.items()}
    )
    sd.ways = _joined_monotone(
        {t: [set_ways(r.write_lines(), n_sets) for r in rs] for t, rs in per_tid.items()}
    )
    sd.depth = _joined_monotone(
        {t: [r.max_depth for r in rs] for t, rs in per_tid.items()}
    )
    merged: dict[tuple[int, int], int] = {}
    for region in instances:
        for edge, count in region.edges.items():
            merged[edge] = merged.get(edge, 0) + count
    # regions are rooted at their own TM_BEGIN site (ir.py seeds prev_ip
    # with the callsite), so the site ip is the merged CFG's entry
    entry = site if merged else None
    _solve_site(sd, instances, merged, entry)
    for header in sd.loop_headers:
        sd.trips[header] = _joined_monotone(
            {t: [_instance_trips(r, header) for r in rs] for t, rs in per_tid.items()}
        )
    sd.shared_with_writer = _shared_with_writer(ir, instances)
    sd.unfriendly = any(r.unfriendly for r in instances)

    best: list[str] = []
    worst: list[str] = []
    write_over = sd.write_lines.exceeds(cfg.wset_lines)
    read_over = sd.read_lines.exceeds(cfg.rset_lines)
    ways_over = sd.ways.exceeds(cfg.wset_assoc)
    depth_over = sd.depth.exceeds(cfg.max_nesting)
    if write_over or read_over or ways_over or depth_over:
        worst.append("capacity")
    if (
        sd.write_lines.always_exceeds(cfg.wset_lines)
        or sd.read_lines.always_exceeds(cfg.rset_lines)
        or sd.depth.always_exceeds(cfg.max_nesting)
    ):
        best.append("capacity")
    if sd.unfriendly:
        worst.append("sync")
        if all(r.unfriendly for r in instances):
            best.append("sync")
    if sd.shared_with_writer:
        worst.append("conflict")
    sd.best_classes = tuple(best)
    sd.worst_classes = tuple(worst)
    return sd


def _fmt_site(sd: SiteDataflow) -> str:
    return f"{sd.name} @ {sd.site:#x}"


def _emit_findings(
    ir: ProgramIR,
    ws: WorkloadSummary,
    sd: SiteDataflow,
    per_tid: dict[int, list[RegionInstance]],
) -> list[Finding]:
    from ..lint import _finding  # lazy: lint imports this package

    cfg = ir.config
    instances = [r for tid in sorted(per_tid) for r in per_tid[tid]]
    section = ws.sections.get(sd.site)
    always = section is not None and section.always_overflows(cfg, ws.n_sets)
    findings: list[Finding] = []
    branch_points = set(sd.branch_points)

    may_overflow = "capacity" in sd.worst_classes and (
        sd.write_lines.exceeds(cfg.wset_lines)
        or sd.read_lines.exceeds(cfg.rset_lines)
        or sd.ways.exceeds(cfg.wset_assoc)
    )
    if may_overflow and not always:
        observed_w = max(len(r.write_lines()) for r in instances)
        observed_r = max(len(r.read_lines()) for r in instances)
        observed = (
            observed_w > cfg.wset_lines
            or observed_r > cfg.rset_lines
            or max(set_ways(r.write_lines(), ws.n_sets)
                   for r in instances) > cfg.wset_assoc
        )
        if observed:
            detail = "some executions overflow the budget, others fit"
        else:
            detail = (
                "observed instances fit, but the widened bound crosses "
                "the budget as the footprint trend continues"
            )
        heavy = max(instances, key=lambda r: r.footprint_lines())
        findings.append(_finding(
            "conditional-capacity-overflow",
            f"{_fmt_site(sd)}: write set {sd.write_lines.describe()} lines "
            f"(budget {cfg.wset_lines}), read set {sd.read_lines.describe()} "
            f"(budget {cfg.rset_lines}) — {detail}",
            (sd.site,),
            (sd.name,),
            witness=region_witness(
                heavy, branch_points,
                f"footprint here: {heavy.footprint_lines()} line(s) vs "
                f"write budget {cfg.wset_lines}",
            ),
            read_lines=sd.read_lines.to_dict(),
            write_lines=sd.write_lines.to_dict(),
            ways=sd.ways.to_dict(),
            observed_overflow=observed,
            best_classes=list(sd.best_classes),
            worst_classes=list(sd.worst_classes),
        ))

    fps = [r.footprint_lines() for r in instances]
    fp_delta = max(fps) - min(fps)
    fp_iv = _joined_monotone(
        {t: [r.footprint_lines() for r in rs] for t, rs in per_tid.items()}
    )
    for header, trips in sorted(sd.trips.items()):
        if trips.is_point and not trips.widened:
            continue
        pairs = [(_instance_trips(r, header), r.footprint_lines()) for r in instances]
        trip_delta = max(p[0] for p in pairs) - min(p[0] for p in pairs)
        if trip_delta <= 0:
            continue
        lo_fp = min(p[1] for p in pairs if p[0] == min(q[0] for q in pairs))
        hi_fp = max(p[1] for p in pairs if p[0] == max(q[0] for q in pairs))
        slope = (hi_fp - lo_fp) / trip_delta
        if slope < 1.0:
            continue
        if fp_delta < LOOP_SCALE_MIN_DELTA and not fp_iv.widened:
            continue
        scaling = max(
            instances, key=lambda r, h=header: _instance_trips(r, h)
        )
        findings.append(_finding(
            "loop-scaled-footprint",
            f"{_fmt_site(sd)}: loop at {header:#x} runs "
            f"{trips.describe()} trips and adds ~{slope:.1f} line(s) per "
            f"trip — the footprint scales with input, not the budget",
            (sd.site,),
            (sd.name,),
            witness=region_witness(
                scaling, branch_points,
                f"{_instance_trips(scaling, header)} trips here -> "
                f"{scaling.footprint_lines()} line(s)",
            ),
            loop_header=header,
            trips=trips.to_dict(),
            lines_per_trip=round(slope, 2),
            footprint=fp_iv.to_dict(),
        ))
        break  # one loop finding per site: the dominant loop

    for branch in sd.branch_points:
        groups: dict[tuple[int, ...], list[RegionInstance]] = {}
        for region in instances:
            taken = tuple(sorted(
                v for (u, v) in region.edges if u == branch
            ))
            if taken:
                groups.setdefault(taken, []).append(region)
        if len(groups) < 2:
            continue
        per_group = sorted(
            (max(r.footprint_lines() for r in group), arms)
            for arms, group in groups.items()
        )
        low, high = per_group[0][0], per_group[-1][0]
        if high >= DIVERGENCE_RATIO * max(1, low) and high - low >= DIVERGENCE_MIN_DELTA:
            wide = max(
                (r for r in groups[per_group[-1][1]]),
                key=lambda r: r.footprint_lines(),
            )
            findings.append(_finding(
                "divergent-path-footprint",
                f"{_fmt_site(sd)}: branch at {branch:#x} splits the "
                f"footprint {low} vs {high} line(s) — the abort class "
                f"depends on which arm runs",
                (sd.site,),
                (sd.name,),
                witness=region_witness(
                    wide, branch_points,
                    f"this arm touches {high} line(s); the other {low}",
                ),
                branch=branch,
                arm_footprints=[g[0] for g in per_group],
            ))
            break  # one divergence finding per site

    return findings


def _emit_dead_txn(
    sd: SiteDataflow,
    per_tid: dict[int, list[RegionInstance]],
    occupied: set[int],
) -> list[Finding]:
    from ..lint import _finding  # lazy: lint imports this package

    if sd.shared_with_writer or sd.site in occupied or sd.unfriendly:
        return []
    instances = [r for tid in sorted(per_tid) for r in per_tid[tid]]
    if not instances or any(r.truncated for r in instances):
        return []
    representative = instances[0]
    return [_finding(
        "dead-txn-no-shared-access",
        f"{_fmt_site(sd)}: no word it touches is shared with a writing "
        f"thread — the transaction cannot conflict and is pure "
        f"speculation overhead",
        (sd.site,),
        (sd.name,),
        witness=region_witness(
            representative, set(sd.branch_points),
            "every access here is thread-private or read-shared with no writer",
        ),
        footprint_lines=representative.footprint_lines(),
        tids=sd.tids,
    )]


def analyze_dataflow(
    ir: ProgramIR,
    ws: WorkloadSummary,
    existing: list[Finding] | None = None,
    cache: SummaryCache | None = None,
    parallel: bool = True,
) -> DataflowAnalysis:
    """The full dataflow pass: summaries, site solves, the four codes.

    ``existing`` (the lint/races findings already raised) gates
    ``dead-txn-no-shared-access``: a site that already has a diagnosis is
    not "dead", it is broken, and the broken finding wins.
    """
    analysis = DataflowAnalysis(workload=ir.workload, truncated=ir.truncated)
    analysis.summaries = program_summaries(ir, cache=cache, parallel=parallel)
    if cache is not None:
        analysis.cache_stats = cache.stats()
    site_map = _site_instances(ir)
    for site in sorted(site_map):
        per_tid = site_map[site]
        sd = analyze_site(ir, site, per_tid)
        analysis.sites[site] = sd
        analysis.findings.extend(_emit_findings(ir, ws, sd, per_tid))
    occupied = {
        s
        for f in (list(existing or ()) + analysis.findings)
        for s in f.sites
    }
    for site in sorted(site_map):
        analysis.findings.extend(
            _emit_dead_txn(analysis.sites[site], site_map[site], occupied)
        )
    return analysis
