"""Table 2: the optimization overview.

For every (naive, optimized) pair the harness measures the speedup and
verifies that the *symptom* the paper reports is visible in the naive
profile — i.e. TxSampler would actually have led you to the fix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core import metrics as m
from ..core.analyzer import Profile
from ..core.export import profile_from_dict
from ..htmbench.optimized import TABLE2


@dataclass
class SpeedupRow:
    program: str
    optimized: str
    symptom: str
    paper_speedup: float
    measured_speedup: float
    symptom_evidence: str

    @property
    def improved(self) -> bool:
        return self.measured_speedup > 1.0


def _symptom_evidence(name: str, profile: Profile) -> str:
    """Extract the naive profile's headline pathology, per program."""
    s = profile.summary()
    cs = profile.hottest_cs()
    parts = [f"r_cs={s.r_cs:.0%}"]
    if cs is not None:
        fr = cs.time_fractions()
        parts.append(
            f"tx/fb/wait/oh={fr[m.T_TX]:.0%}/{fr[m.T_FB]:.0%}/"
            f"{fr[m.T_WAIT]:.0%}/{fr[m.T_OH]:.0%}"
        )
        ac = cs.abort_commit_ratio
        parts.append(f"a/c={ac:.2f}" if ac != float("inf") else "a/c=inf")
        parts.append(
            f"conf/cap/sync={cs.r_conflict:.0%}/{cs.r_capacity:.0%}/"
            f"{cs.r_synchronous:.0%}"
        )
    return " ".join(parts)


def table2(
    n_threads: int = 14,
    scale: float = 1.0,
    seed: int = 0,
    programs: Sequence[str] | None = None,
) -> list[SpeedupRow]:
    """Table 2 rows for ``programs`` (default: all of :data:`TABLE2`):
    the ``speedup`` campaign suite plus one profiled run of each naive
    program for its symptom evidence."""
    from ..campaign.spec import make_run_spec
    from ..campaign.suites import run_suite, speedup_rows_from_records

    names = list(programs) if programs else [row[0] for row in TABLE2]
    profiled = {
        name: make_run_spec(name, n_threads=n_threads, scale=scale,
                            seed=seed, profile=True)
        for name in names
    }
    campaign, records = run_suite(
        "speedup", extra=profiled.values(), workloads=names,
        n_threads=n_threads, scale=scale, seed=seed,
    )
    symptoms = {naive: symptom for naive, _, _, symptom in TABLE2}
    return [
        SpeedupRow(
            program=naive,
            optimized=opt,
            symptom=symptoms[naive],
            paper_speedup=paper,
            measured_speedup=s,
            symptom_evidence=_symptom_evidence(naive, profile_from_dict(
                records[profiled[naive].key]["profile_db"])),
        )
        for naive, opt, paper, s in speedup_rows_from_records(campaign,
                                                              records)
    ]


def render_table2(rows: list[SpeedupRow]) -> str:
    lines = [
        "=== Table 2: optimization overview ===",
        f"  {'program':12s} {'paper':>6s} {'ours':>6s}  symptom (paper) "
        f"| naive profile evidence",
    ]
    for r in rows:
        lines.append(
            f"  {r.program:12s} {r.paper_speedup:5.2f}x {r.measured_speedup:5.2f}x"
            f"  {r.symptom} | {r.symptom_evidence}"
        )
    return "\n".join(lines)
