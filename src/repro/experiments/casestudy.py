"""§8 case studies: Dedup (Figure 9), LevelDB, Histo.

Each case study reproduces the paper's investigation loop: profile the
naive program, walk the decision tree, verify the reported symptom is
visible, apply the published fix, and measure the improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import metrics as m
from ..core.decision_tree import DecisionTree, Guidance
from ..core.report import render_full_report
from ..htmbench.parboil import INPUT_SKEWED, INPUT_UNIFORM
from ..sim.config import MachineConfig
from .runner import run_workload


@dataclass
class CaseStudy:
    name: str
    guidance: Guidance
    naive_report: str
    findings: list[str] = field(default_factory=list)
    speedup: float = 1.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [f"=== case study: {self.name} ===", self.guidance.render()]
        lines.extend(f"  finding: {f}" for f in self.findings)
        lines.append(f"  speedup after the published fix: {self.speedup:.2f}x")
        for p in self.problems:
            lines.append(f"  PROBLEM: {p}")
        return "\n".join(lines)


def dedup_case_study(n_threads: int = 14, scale: float = 1.0, seed: int = 0,
                     config: MachineConfig | None = None) -> CaseStudy:
    """§8.1: the decision-tree walk of Figure 1's red dotted path.

    Expected findings: significant time in critical sections, the
    dedup-cache section dominated by abort weight with a visible capacity
    component rooted in ``hashtable_search`` (Figure 9), plus synchronous
    aborts in ``dedup_write_file``; the hash fix + syscall hoist give a
    measurable speedup (paper: 1.20x)."""
    naive = run_workload("dedup", n_threads=n_threads, scale=scale,
                         seed=seed, config=config, profile=True)
    profile = naive.profile
    guidance = DecisionTree().analyze(profile)
    cs = CaseStudy(
        name="dedup",
        guidance=guidance,
        naive_report=render_full_report(profile, "dedup (naive)"),
    )
    # finding 1: hashtable_search under begin_in_tx carries abort weight
    from ..dslib.hashtable import hashtable_search
    search_nodes = [
        n for n in profile.root.walk()
        if n.key[0] == "call" and n.key[2] == hashtable_search.base
    ]
    search_weight = sum(n.total(m.ABORT_WEIGHT) for n in search_nodes)
    total_weight = profile.root.total(m.ABORT_WEIGHT)
    if total_weight:
        share = search_weight / total_weight
        cs.findings.append(
            f"hashtable_search carries {share:.1%} of the abort weight"
        )
        if share < 0.05:
            cs.problems.append(
                "hashtable_search not visible in the abort weight"
            )
    else:
        cs.problems.append("no abort weight sampled at all")
    # finding 2: capacity aborts present (long chains from the bad hash)
    cap_w = profile.root.total(m.AW_CAPACITY)
    if total_weight:
        cs.findings.append(
            f"capacity aborts contribute {cap_w / total_weight:.1%} "
            "of the abort weight"
        )
    # finding 3: synchronous aborts in the write_file section
    reports = {r.name: r for r in profile.cs_reports()}
    wf = next((r for n, r in reports.items() if "dedup_write_file" in n),
              None)
    if wf is None or wf.aborts_by_class.get("sync", 0) == 0:
        cs.problems.append("write_file's synchronous aborts not sampled")
    else:
        cs.findings.append(
            f"dedup_write_file: {wf.aborts_by_class['sync']:.0f} sampled "
            "synchronous aborts (the in-CS write())"
        )
    # the published fix
    opt = run_workload("dedup_opt", n_threads=n_threads, scale=scale,
                       seed=seed, config=config)
    cs.speedup = naive.result.makespan / opt.result.makespan
    if cs.speedup <= 1.0:
        cs.problems.append(f"fix did not speed dedup up ({cs.speedup:.2f}x)")
    return cs


def leveldb_case_study(n_threads: int = 14, scale: float = 1.0,
                       seed: int = 0,
                       config: MachineConfig | None = None) -> CaseStudy:
    """§8.2: ReadRandom's abort/commit ratio collapses once the refcount
    transactions are split (paper: 2.8 -> 0.38, 1.05x overall)."""
    naive = run_workload("leveldb", n_threads=n_threads, scale=scale,
                         seed=seed, config=config, profile=True)
    guidance = DecisionTree().analyze(naive.profile)
    cs = CaseStudy(
        name="leveldb",
        guidance=guidance,
        naive_report=render_full_report(naive.profile, "leveldb (naive)"),
    )
    naive_ratio = naive.result.abort_commit_ratio
    cs.findings.append(f"naive abort/commit ratio: {naive_ratio:.2f}")
    if naive_ratio < 0.5:
        cs.problems.append("naive abort/commit ratio not high")
    opt = run_workload("leveldb_opt", n_threads=n_threads, scale=scale,
                       seed=seed, config=config)
    opt_ratio = opt.result.abort_commit_ratio
    cs.findings.append(f"split abort/commit ratio: {opt_ratio:.2f}")
    if opt_ratio >= naive_ratio:
        cs.problems.append("splitting did not reduce the abort ratio")
    cs.speedup = naive.result.makespan / opt.result.makespan
    if cs.speedup <= 1.0:
        cs.problems.append(f"fix did not speed LevelDB up ({cs.speedup:.2f}x)")
    return cs


def histo_case_study(n_threads: int = 14, scale: float = 1.0, seed: int = 0,
                     config: MachineConfig | None = None) -> CaseStudy:
    """§8.3: input 1 — coalescing fixes the T_oh pathology; input 2 —
    coalescing alone false-shares, sorting the input repairs it."""
    naive = run_workload("histo", n_threads=n_threads, scale=scale,
                         seed=seed, config=config, profile=True,
                         input_kind=INPUT_SKEWED)
    guidance = DecisionTree().analyze(naive.profile)
    cs = CaseStudy(
        name="histo",
        guidance=guidance,
        naive_report=render_full_report(naive.profile, "histo (naive)"),
    )
    hottest = naive.profile.hottest_cs()
    if hottest is not None:
        oh = hottest.time_fractions()[m.T_OH]
        cs.findings.append(f"T_oh is {oh:.0%} of the hot section's time")
        if oh < 0.2:
            cs.problems.append("T_oh pathology not visible")
    # input 1: coalesce
    opt1 = run_workload("histo_opt", n_threads=n_threads, scale=scale,
                        seed=seed, config=config, input_kind=INPUT_SKEWED)
    cs.speedup = naive.result.makespan / opt1.result.makespan
    if cs.speedup <= 1.2:
        cs.problems.append(
            f"coalescing gained only {cs.speedup:.2f}x on input 1"
        )
    # input 2: coalescing without sorting raises the abort ratio
    # (false sharing); sorting repairs it
    naive2 = run_workload("histo", n_threads=n_threads, scale=scale,
                          seed=seed, config=config, input_kind=INPUT_UNIFORM)
    coal2 = run_workload("histo", n_threads=n_threads, scale=scale,
                         seed=seed, config=config, input_kind=INPUT_UNIFORM,
                         txn_gran=32, profile=True)
    sort2 = run_workload("histo", n_threads=n_threads, scale=scale,
                         seed=seed, config=config, input_kind=INPUT_UNIFORM,
                         txn_gran=32, sort_input=True)
    r_coal = coal2.result.abort_commit_ratio
    r_naive = naive2.result.abort_commit_ratio
    cs.findings.append(
        f"input 2: a/c naive={r_naive:.3f} coalesced={r_coal:.3f} "
        f"(coalescing alone raises it)"
    )
    if r_coal <= r_naive:
        cs.problems.append("coalescing alone did not raise input 2's a/c")
    fs = coal2.profile.root.total(m.FALSE_SHARING)
    ts = coal2.profile.root.total(m.TRUE_SHARING)
    cs.findings.append(
        f"input 2 coalesced: sampled sharing true={ts:.0f} false={fs:.0f}"
    )
    speed_sorted = coal2.result.makespan / sort2.result.makespan
    cs.findings.append(
        f"input 2: sorting the input gains {speed_sorted:.2f}x over "
        "coalescing alone"
    )
    if sort2.result.makespan >= coal2.result.makespan:
        cs.problems.append("sorting did not improve the coalesced input 2")
    return cs
