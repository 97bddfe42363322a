"""Experiment harnesses: runner plumbing + scaled-down table/figure runs.

The full-scale versions live in benchmarks/; these tests pin the harness
logic and the qualitative shapes at test-friendly scales.
"""

import pytest

from repro.experiments.categorize import (
    agreement,
    by_type,
    figure8,
    figure8_names,
    render_figure8,
)
from repro.experiments.clomp import (
    TABLE1,
    check_expectations,
    figure7,
    render_figure7,
    render_table1,
)
from repro.experiments.correctness import (
    MICRO_EXPECTATIONS,
    render_section72,
    section72,
)
from repro.experiments.overhead import (
    FIG5_BENCHMARKS,
    OverheadRow,
    figure5,
    render_figure5,
    render_figure6,
    suite_mean,
)
from repro.experiments.runner import run_workload
from repro.experiments.speedup import render_table2, table2


class TestRunner:
    def test_run_workload_native(self):
        out = run_workload("micro_low_abort", n_threads=4, scale=0.2, seed=1)
        assert out.result.commits > 0
        assert out.profile is None

    def test_run_workload_profiled(self):
        out = run_workload("micro_low_abort", n_threads=4, scale=0.2,
                           seed=1, profile=True)
        assert out.profile is not None
        assert out.profile.n_threads == 4

    def test_run_workload_instrumented(self):
        out = run_workload("micro_low_abort", n_threads=4, scale=0.2,
                           seed=1, instrument=True)
        assert out.instrument.total_commits() == out.result.commits

    def test_run_workload_accepts_instance(self):
        from repro.htmbench import get_workload

        wl = get_workload("micro_low_abort")
        out = run_workload(wl, n_threads=2, scale=0.1)
        assert out.result.commits > 0

    def test_params_forwarded(self):
        out = run_workload("clomp_tm", n_threads=4, scale=0.1,
                           txn_size="small", scatter=1)
        assert out.result.commits > 0

    def test_speedup_computation(self):
        # Table 2's measured speedup is the naive/optimized makespan
        # ratio of two plain runs at the same seed
        kw = dict(n_threads=4, scale=0.2, seed=1)
        (row,) = table2(programs=["ua"], **kw)
        base = run_workload("ua", **kw).result.makespan
        opt = run_workload(row.optimized, **kw).result.makespan
        assert row.measured_speedup == base / opt

    def test_trimmed_mean_drops_extremes(self):
        # Figure 5's protocol: per seed, sampled/native makespan - 1;
        # the mean drops the smallest and largest of those
        kw = dict(n_threads=2, scale=0.2)
        (row,) = figure5(benchmarks=["micro_low_abort"], runs=5, **kw)
        assert len(row.runs) == 5
        for seed, overhead in enumerate(row.runs):
            native = run_workload("micro_low_abort", seed=seed, **kw)
            sampled = run_workload("micro_low_abort", seed=seed,
                                   profile=True, **kw)
            assert overhead == (sampled.result.makespan
                                / native.result.makespan - 1.0)
        trimmed = sorted(row.runs)[1:-1]
        assert row.mean == pytest.approx(sum(trimmed) / len(trimmed))


class TestFigure5Harness:
    def test_rows_structure(self):
        rows = figure5(benchmarks=["micro_low_abort"], n_threads=2,
                       scale=0.2, runs=3)
        assert len(rows) == 1
        row = rows[0]
        assert row.name == "micro_low_abort"
        assert row.min_ <= row.mean <= row.max_

    def test_suite_mean(self):
        rows = [
            OverheadRow("a", 0.02, 0.0, 0.04, [0.02]),
            OverheadRow("b", 0.04, 0.0, 0.08, [0.04]),
        ]
        assert suite_mean(rows) == pytest.approx(0.03)

    def test_fig5_benchmark_list_covers_suites(self):
        assert len(FIG5_BENCHMARKS) >= 30
        assert "dedup" in FIG5_BENCHMARKS and "vacation" in FIG5_BENCHMARKS

    def test_render(self):
        rows = [OverheadRow("x", 0.05, 0.01, 0.09, [0.05])]
        text = render_figure5(rows)
        assert "Figure 5" in text and "x" in text
        assert "MEAN" in text

    def test_render_figure6(self):
        text = render_figure6({1: (0.02, 0.01), 14: (0.03, 0.02)})
        assert "Figure 6" in text and "14 threads" in text


class TestClompHarness:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure7(n_threads=8, scale=0.5, seed=1)

    def test_six_configurations(self, rows):
        assert [r.label for r in rows] == [
            "small-1", "small-2", "small-3", "large-1", "large-2", "large-3",
        ]

    def test_paper_narrative_holds(self, rows):
        problems = check_expectations(rows)
        assert problems == [], problems

    def test_render(self, rows):
        text = render_figure7(rows)
        assert "time decomposition" in text
        assert "abort decomposition" in text

    def test_table1_static(self):
        assert len(TABLE1) == 3
        text = render_table1()
        assert "Adjacent" in text and "Random" in text


class TestFigure8Harness:
    def test_subset_categorization(self):
        rows = figure8(names=["barnes", "micro_high_abort"], n_threads=6,
                       scale=0.4, seed=1)
        cats = {r.category.name: r.category.type_ for r in rows}
        assert cats["barnes"] == "I"          # compute-dominated
        assert cats["micro_high_abort"] == "III"  # conflict-dominated

    def test_figure8_names_excludes_opt_and_micro(self):
        names = figure8_names()
        assert all(not n.endswith("_opt") for n in names)
        assert all(not n.startswith("micro_") for n in names)
        assert len(names) > 30

    def test_agreement_and_groups(self):
        rows = figure8(names=["barnes"], n_threads=6, scale=0.4, seed=1)
        assert 0 <= agreement(rows) <= 1
        groups = by_type(rows)
        assert "barnes" in groups["I"]

    def test_render(self):
        rows = figure8(names=["barnes"], n_threads=4, scale=0.3, seed=1)
        text = render_figure8(rows)
        assert "Figure 8" in text and "barnes" in text


class TestSection72Harness:
    def test_all_micros_validated(self):
        rows = section72(n_threads=8, scale=0.8, seed=1)
        assert {r.name for r in rows} == set(MICRO_EXPECTATIONS)
        failures = [(r.name, r.problems) for r in rows if not r.ok]
        assert failures == [], failures

    def test_render(self):
        rows = section72(n_threads=4, scale=0.4, seed=0)
        text = render_section72(rows)
        assert "ground truth" in text


class TestTable2Harness:
    def test_subset_improves(self):
        # a cheap subset at reduced scale: the fixes must still win
        rows = table2(n_threads=8, scale=0.6, seed=1,
                      programs=["ua", "histo"])
        assert [r.program for r in rows] == ["ua", "histo"]
        for row in rows:
            assert row.improved, (row.program, row.measured_speedup)
            assert row.symptom_evidence

    def test_render(self):
        from repro.experiments.speedup import SpeedupRow

        rows = [SpeedupRow("p", "p_opt", "sym", 1.2, 1.3, "ev")]
        text = render_table2(rows)
        assert "Table 2" in text and "1.30x" in text
