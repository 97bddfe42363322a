"""Figure 8: HTM application categorization.

Profiles every (non-optimized) HTMBench program, computes r_cs and the
abort/commit ratio, and classifies it into the paper's Type I/II/III
quadrants.  :func:`agreement` scores the placement against the type the
paper reports for each program.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..core.categorize import Category
from ..htmbench.base import WORKLOADS
from ..sim.config import DEFAULT_THREADS

#: characterization needs statistically meaningful abort/commit
#: estimates even for programs with few transactions per run.  The
#: ``figure8`` campaign suite puts these on every run it builds.
FIG8_SAMPLE_PERIODS = {
    "cycles": 5_000, "mem_loads": 4_000, "mem_stores": 4_000,
    "rtm_aborted": 5, "rtm_commit": 25,
}

#: programs included in Figure 8 (everything except optimized variants
#: and the controlled microbenchmarks)
def figure8_names() -> list[str]:
    return sorted(
        name
        for name, cls in WORKLOADS.items()
        if not name.endswith("_opt")
        and cls.suite not in ("micro",)
        and name != "clomp_tm"
    )


@dataclass
class CategorizedRow:
    category: Category
    expected_type: str

    @property
    def agrees(self) -> bool:
        return self.category.type_ == self.expected_type


def figure8(
    names: Sequence[str] | None = None,
    n_threads: int = DEFAULT_THREADS,
    scale: float = 1.0,
    seed: int = 0,
) -> list[CategorizedRow]:
    from ..campaign.suites import figure8_rows_from_records, run_suite

    return figure8_rows_from_records(*run_suite(
        "figure8", workloads=names, n_threads=n_threads, scale=scale,
        seed=seed,
    ))


def agreement(rows: Sequence[CategorizedRow]) -> float:
    """Fraction of programs landing in the paper's quadrant."""
    if not rows:
        return 0.0
    return sum(1 for r in rows if r.agrees) / len(rows)


def by_type(rows: Sequence[CategorizedRow]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"I": [], "II": [], "III": []}
    for r in rows:
        out[r.category.type_].append(r.category.name)
    return out


def render_figure8(rows: Sequence[CategorizedRow]) -> str:
    lines = ["=== Figure 8: application categorization ==="]
    groups = by_type(rows)
    for type_, names in groups.items():
        lines.append(f"  Type {type_}: {', '.join(sorted(names)) or '-'}")
    lines.append("  -- per program --")
    for r in sorted(rows, key=lambda r: r.category.name):
        mark = "" if r.agrees else f"   (paper: Type {r.expected_type})"
        c = r.category
        ac = f"{c.abort_commit:.2f}" if c.abort_commit != float("inf") else "inf"
        lines.append(
            f"  {c.name:18s} r_cs={c.r_cs:5.2f} r_a/c={ac:>6s} "
            f"-> Type {c.type_}{mark}"
        )
    lines.append(f"  agreement with the paper: {agreement(rows):.0%}")
    return "\n".join(lines)
