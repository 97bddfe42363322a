"""Table 1 and Figure 7: the CLOMP-TM controlled experiments.

Runs the six configurations (small/large transactions x three scatter
inputs) under TxSampler and extracts the three decompositions of
Figure 7: CPU-cycle components, abort counts by cause, and abort weight
by cause.  :func:`check_expectations` encodes the paper's narrative as
machine-checkable assertions (used by both tests and benches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import metrics as m
from ..core.analyzer import Profile
from ..sim.config import DEFAULT_THREADS

#: Table 1, verbatim
TABLE1 = [
    (1, "Adjacent", "Rare conflicts, cache prefetch friendly"),
    (2, "FirstParts", "High conflicts, cache prefetch friendly"),
    (3, "Random", "Rare conflicts, cache prefetch unfriendly"),
]

#: the controlled experiment samples abort events densely so the
#: per-cause decomposition is statistically stable (§6: periods are
#: tunable).  The ``table1``/``figure7`` campaign suites put these on
#: every CLOMP-TM run they build.
FIG7_SAMPLE_PERIODS = {
    "cycles": 6_000, "mem_loads": 3_000, "mem_stores": 3_000,
    "rtm_aborted": 3, "rtm_commit": 40,
}


@dataclass
class ClompRow:
    """One bar group of Figure 7."""

    label: str                      # e.g. "large-2"
    txn_size: str
    scatter: int
    time_fractions: dict[str, float] = field(default_factory=dict)
    aborts_by_class: dict[str, float] = field(default_factory=dict)
    weight_by_class: dict[str, float] = field(default_factory=dict)
    commits: int = 0
    aborts: int = 0

    _CAUSES = ("conflict", "capacity", "sync")

    def abort_share(self, cls: str) -> float:
        """Share among the paper's three cause classes (interrupt/explicit
        "other" aborts are sampling/serialization artifacts)."""
        total = sum(self.aborts_by_class.get(c, 0.0) for c in self._CAUSES)
        return self.aborts_by_class.get(cls, 0.0) / total if total else 0.0

    def weight_share(self, cls: str) -> float:
        total = sum(self.weight_by_class.get(c, 0.0) for c in self._CAUSES)
        return self.weight_by_class.get(cls, 0.0) / total if total else 0.0


def clomp_row(label: str, size: str, scatter: int, profile: Profile,
              commits: int, aborts_by_reason: dict[str, int]) -> ClompRow:
    """One Figure 7 bar group from a profiled clomp_tm run's artifacts:
    its profile (live, or rebuilt from a run record's database), commit
    count and per-reason abort counts."""
    summary = profile.summary()
    row = ClompRow(label=label, txn_size=size, scatter=scatter)
    row.time_fractions = summary.time_fractions()
    root = profile.root
    for cls in m.ABORT_CLASSES:
        row.aborts_by_class[cls] = root.total(m.AB_BY_CLASS[cls])
        row.weight_by_class[cls] = root.total(m.AW_BY_CLASS[cls])
    row.commits = commits
    # application-caused aborts only (exclude profiler-induced
    # interrupt aborts and lock-held explicit retries)
    row.aborts = sum(
        aborts_by_reason.get(r, 0) for r in ("conflict", "capacity", "sync")
    )
    return row


def figure7(
    n_threads: int = DEFAULT_THREADS,
    scale: float = 1.0,
    seed: int = 0,
) -> list[ClompRow]:
    """Collect TxSampler data for the six CLOMP-TM configurations."""
    from ..campaign.suites import clomp_rows_from_records, run_suite

    return clomp_rows_from_records(*run_suite(
        "figure7", n_threads=n_threads, scale=scale, seed=seed,
    ))


def check_expectations(rows: list[ClompRow]) -> list[str]:
    """The paper's Figure 7 narrative as checks; returns violations."""
    by_label = {r.label: r for r in rows}
    problems: list[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            problems.append(msg)

    # small transactions: begin/end overhead is a major component
    for label in ("small-1", "small-2", "small-3"):
        r = by_label[label]
        expect(
            r.time_fractions[m.T_OH] >= 0.10,
            f"{label}: expected visible T_oh, got "
            f"{r.time_fractions[m.T_OH]:.1%}",
        )
    # large-1 (Adjacent): dominated by useful transactional work, ~no aborts
    r = by_label["large-1"]
    expect(
        r.time_fractions[m.T_TX] >= 0.5,
        f"large-1: expected T_tx-dominated, got {r.time_fractions}",
    )
    expect(
        r.aborts <= r.commits * 0.2,
        f"large-1: expected almost no aborts, got {r.aborts} vs "
        f"{r.commits} commits",
    )
    # large-2 (FirstParts): lock waiting blows up; conflict aborts dominate
    r = by_label["large-2"]
    expect(
        r.time_fractions[m.T_WAIT]
        > by_label["large-1"].time_fractions[m.T_WAIT],
        "large-2: expected more lock waiting than large-1",
    )
    expect(
        r.abort_share("conflict") >= 0.5,
        f"large-2: expected conflict-dominated aborts, got "
        f"{r.aborts_by_class}",
    )
    # large-3 (Random): capacity aborts take a visible share, larger than
    # in any other configuration
    r = by_label["large-3"]
    expect(
        r.abort_share("capacity")
        > max(
            by_label[lbl].abort_share("capacity")
            for lbl in ("small-1", "small-2", "small-3", "large-1", "large-2")
        ),
        f"large-3: expected the largest capacity-abort share, got "
        f"{r.aborts_by_class}",
    )
    expect(
        r.weight_share("capacity") >= 0.10,
        f"large-3: expected >=10% of abort weight from capacity, got "
        f"{r.weight_by_class}",
    )
    return problems


def render_figure7(rows: list[ClompRow]) -> str:
    lines = ["=== Figure 7: CLOMP-TM decompositions (TxSampler data) ==="]
    lines.append("-- time decomposition (fractions of W) --")
    for r in rows:
        fr = r.time_fractions
        lines.append(
            f"  {r.label:8s} non-CS={fr['non_cs']:5.1%} HTM={fr[m.T_TX]:5.1%} "
            f"fallback={fr[m.T_FB]:5.1%} lock_wait={fr[m.T_WAIT]:5.1%} "
            f"overhead={fr[m.T_OH]:5.1%}"
        )
    lines.append("-- abort decomposition (sampled counts) --")
    for r in rows:
        lines.append(
            f"  {r.label:8s} conflicts={r.abort_share('conflict'):5.1%} "
            f"capacity={r.abort_share('capacity'):5.1%} "
            f"sync={r.abort_share('sync'):5.1%} "
            f"other={r.abort_share('other'):5.1%}"
        )
    lines.append("-- abort weight decomposition --")
    for r in rows:
        lines.append(
            f"  {r.label:8s} conflicts_w={r.weight_share('conflict'):5.1%} "
            f"capacity_w={r.weight_share('capacity'):5.1%} "
            f"sync_w={r.weight_share('sync'):5.1%}"
        )
    return "\n".join(lines)


def render_table1() -> str:
    lines = ["=== Table 1: CLOMP-TM inputs ==="]
    for num, mode, traits in TABLE1:
        lines.append(f"  input {num}: {mode:11s} {traits}")
    return "\n".join(lines)
