"""§7.2: validating TxSampler against the instrumentation ground truth.

Each microbenchmark triggers a known behaviour; the run carries *both*
TxSampler (sampling) and the zero-cost instrumentation recorder inside
the RTM runtime.  The checks mirror the paper's validation: sampled
profiles must agree with the ground truth on the qualitative profile
(which abort cause dominates, which sharing kind the contention is, how
high the abort ratio is) and, where event counts are large enough,
quantitatively through the sampling-period scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import metrics as m
from ..sim.config import MachineConfig
from .runner import Outcome, run_workload

#: microbenchmarks and the behaviour each must exhibit
MICRO_EXPECTATIONS = {
    "micro_low_abort": "abort/commit ratio near zero",
    "micro_moderate_abort": "moderate abort/commit ratio",
    "micro_high_abort": "high abort/commit ratio, true sharing",
    "micro_false_sharing": "contention classified as false sharing",
    "micro_sync": "synchronous aborts dominate",
    "micro_capacity": "capacity aborts dominate",
    "micro_read_only": "no aborts at all from the application",
}


@dataclass
class CorrectnessRow:
    name: str
    expectation: str
    #: ground truth (exact)
    true_commits: int
    true_aborts: int
    true_aborts_by_reason: dict[str, int]
    #: sampled estimates
    est_commits: float
    est_aborts: float
    sampled_weight_by_class: dict[str, float] = field(default_factory=dict)
    true_sharing: float = 0.0
    false_sharing: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def true_ratio(self) -> float:
        return (self.true_aborts / self.true_commits
                if self.true_commits else float("inf"))

    @property
    def est_ratio(self) -> float:
        if self.est_commits:
            return self.est_aborts / self.est_commits
        return float("inf") if self.est_aborts else 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _collect(name: str, out: Outcome) -> CorrectnessRow:
    profile = out.profile
    root = profile.root
    instr = out.instrument
    from ..pmu.events import RTM_ABORTED, RTM_COMMIT

    row = CorrectnessRow(
        name=name,
        expectation=MICRO_EXPECTATIONS[name],
        true_commits=instr.total_commits(),
        true_aborts=instr.total_aborts(),
        true_aborts_by_reason={
            reason: instr.total_aborts(reason)
            for reason in ("conflict", "capacity", "sync", "interrupt",
                           "explicit")
        },
        est_commits=root.total(m.COMMITS) * profile.periods[RTM_COMMIT],
        est_aborts=root.total(m.ABORTS) * profile.periods[RTM_ABORTED],
        sampled_weight_by_class={
            cls: root.total(m.AW_BY_CLASS[cls]) for cls in m.ABORT_CLASSES
        },
        true_sharing=root.total(m.TRUE_SHARING),
        false_sharing=root.total(m.FALSE_SHARING),
    )
    return row


def _check(row: CorrectnessRow) -> None:
    name = row.name
    p = row.problems
    wbc = row.sampled_weight_by_class
    total_w = sum(wbc.values())

    if name == "micro_low_abort":
        if row.true_ratio > 0.05:
            p.append(f"ground truth ratio {row.true_ratio:.3f} not low")
        if row.est_ratio > 0.2:
            p.append(f"sampled ratio {row.est_ratio:.3f} not low")
    elif name == "micro_moderate_abort":
        if not 0.005 <= row.true_ratio <= 1.5:
            p.append(f"ground truth ratio {row.true_ratio:.3f} not moderate")
    elif name == "micro_high_abort":
        if row.true_ratio < 0.5:
            p.append(f"ground truth ratio {row.true_ratio:.3f} not high")
        if row.est_ratio < 0.25:
            p.append(f"sampled ratio {row.est_ratio:.3f} missed the "
                     "high abort rate")
        if row.true_sharing < row.false_sharing:
            p.append("contention not classified as mostly true sharing")
    elif name == "micro_false_sharing":
        if row.false_sharing <= row.true_sharing:
            p.append(
                f"expected false sharing to dominate, got true="
                f"{row.true_sharing} false={row.false_sharing}"
            )
    elif name == "micro_sync":
        # "other" (lock-held / interrupt) aborts are serialization noise;
        # the paper's three-way classification is conflict/capacity/sync
        if total_w and (wbc["sync"] < wbc["conflict"]
                        or wbc["sync"] < wbc["capacity"]):
            p.append(f"expected sync to dominate the cause classes, "
                     f"got {wbc}")
        if row.true_aborts_by_reason.get("sync", 0) == 0:
            p.append("ground truth saw no sync aborts")
    elif name == "micro_capacity":
        if total_w and (wbc["capacity"] < wbc["conflict"]
                        or wbc["capacity"] < wbc["sync"]):
            p.append(f"expected capacity to dominate the cause classes, "
                     f"got {wbc}")
        if row.true_aborts_by_reason.get("capacity", 0) == 0:
            p.append("ground truth saw no capacity aborts")
    elif name == "micro_read_only":
        app_aborts = row.true_aborts - row.true_aborts_by_reason.get(
            "interrupt", 0) - row.true_aborts_by_reason.get("explicit", 0)
        if app_aborts > row.true_commits * 0.02:
            p.append(f"read-only txns aborted {app_aborts} times")


def validation_config(n_threads: int) -> MachineConfig:
    """The controlled-experiment sampling setup: §6 says the periods are
    tunable; validation uses faster sampling so the short microbenchmark
    runs collect enough events for quantitative comparison."""
    return MachineConfig(
        n_threads=n_threads,
        sample_periods={
            "cycles": 10_000,
            "mem_loads": 400,
            "mem_stores": 400,
            "rtm_aborted": 10,
            "rtm_commit": 30,
        },
    )


def section72(
    n_threads: int = 14,
    scale: float = 1.0,
    seed: int = 0,
    config: MachineConfig | None = None,
) -> list[CorrectnessRow]:
    """Run every microbenchmark with TxSampler + ground truth attached."""
    if config is None:
        config = validation_config(n_threads)
    rows: list[CorrectnessRow] = []
    for name in MICRO_EXPECTATIONS:
        out = run_workload(
            name, n_threads=n_threads, scale=scale, seed=seed, config=config,
            profile=True, instrument=True,
        )
        row = _collect(name, out)
        _check(row)
        rows.append(row)
    return rows


def render_section72(rows: list[CorrectnessRow]) -> str:
    lines = ["=== §7.2: TxSampler vs instrumentation ground truth ==="]
    for r in rows:
        status = "OK " if r.ok else "FAIL"
        tr = f"{r.true_ratio:.3f}" if r.true_ratio != float("inf") else "inf"
        er = f"{r.est_ratio:.3f}" if r.est_ratio != float("inf") else "inf"
        lines.append(
            f"  [{status}] {r.name:22s} true a/c={tr:>7s} sampled a/c={er:>7s}"
            f"  ({r.expectation})"
        )
        for prob in r.problems:
            lines.append(f"         ! {prob}")
    return "\n".join(lines)
