"""Campaign suites: the builders' job DAGs, the reducers' arithmetic
checked against the run records they reduce over, profile databases
that assemble the same figure rows as a live profile, and the CLI
commands that run them."""

import json

import pytest

from repro.campaign import CampaignRunner, MemoryStore
from repro.campaign import suites
from repro.campaign.suites import (
    SuiteError,
    build_campaign,
    clomp_rows_from_records,
    figure8_rows_from_records,
    overhead_rows_from_records,
    speedup_rows_from_records,
)
from repro.experiments.runner import run_workload
from repro.sim.config import MachineConfig

from tests.test_cli import run_cli

SMALL = {"n_threads": 2, "scale": 0.2, "seed": 0}


def run_suite(suite, jobs=1, store=None, **kw):
    runner = CampaignRunner(
        store=store if store is not None else MemoryStore(), jobs=jobs)
    campaign, records = suites.run_suite(suite, runner=runner, **kw)
    return campaign, records, runner


def makespan(runner, key):
    return runner.store.fetch(key)["result"]["makespan"]


class TestSuiteBuilders:
    def test_unknown_suite(self):
        with pytest.raises(SuiteError, match="unknown suite"):
            build_campaign("nope")

    def test_overhead_validates_runs_vs_drop(self):
        with pytest.raises(SuiteError, match="exceed 2\\*drop"):
            build_campaign("overhead", runs=4, drop=2)

    @pytest.mark.parametrize("runs,drop", [(0, 0), (3, -1)])
    def test_overhead_rejects_bad_runs_or_drop(self, runs, drop):
        with pytest.raises(SuiteError, match="runs must be >= 1"):
            build_campaign("overhead", runs=runs, drop=drop)

    def test_speedup_rejects_unknown_program(self):
        with pytest.raises(SuiteError, match="not Table 2"):
            build_campaign("speedup", workloads=["nonsense"])

    def test_shared_runs_are_deduplicated(self):
        # the same six profiled runs back both table1 and figure7
        t1 = build_campaign("table1", **SMALL)
        f7 = build_campaign("figure7", **SMALL)
        assert set(t1.jobs) == set(f7.jobs)

    def test_overhead_dag_shape(self):
        c = build_campaign("overhead", workloads=["micro_low_abort"],
                           runs=3, drop=1, **SMALL)
        assert len(c.targets) == 1
        (target,) = c.targets
        assert len(c.jobs[target].deps) == 6  # 3 seeds x (native, sampled)


class TestAssemblyMatchesSerial:
    """Assembled rows match what serial runs give directly: each reduced
    number is recomputed from the run records its job depends on, and
    each figure row assembled from a cached profile database equals the
    row a live in-process profile gives."""

    def test_overhead_matches_direct(self):
        campaign, records, runner = run_suite(
            "overhead", workloads=["micro_low_abort"], runs=5, drop=1,
            n_threads=2, scale=0.2)
        (target,) = campaign.targets
        deps = campaign.jobs[target].deps
        ((name, mean, overheads),) = overhead_rows_from_records(campaign,
                                                               records)
        assert name == "micro_low_abort"
        assert len(overheads) == 5
        for seed, overhead in enumerate(overheads):
            native, sampled = deps[2 * seed], deps[2 * seed + 1]
            assert (campaign.jobs[native].seed,
                    campaign.jobs[native].profile) == (seed, False)
            assert (campaign.jobs[sampled].seed,
                    campaign.jobs[sampled].profile) == (seed, True)
            assert overhead == (makespan(runner, sampled)
                                / makespan(runner, native) - 1.0)
        trimmed = sorted(overheads)[1:-1]
        assert mean == pytest.approx(sum(trimmed) / len(trimmed))

    def test_speedup_matches_direct(self):
        from repro.htmbench.optimized import TABLE2

        naive, opt, paper, _ = next(r for r in TABLE2 if r[0] == "ua")
        campaign, records, runner = run_suite("speedup", workloads=[naive],
                                              **SMALL)
        ((name, opt_name, paper_got, s),) = \
            speedup_rows_from_records(campaign, records)
        assert (name, opt_name, paper_got) == (naive, opt, paper)
        base, optimized = campaign.jobs[campaign.targets[0]].deps
        assert campaign.jobs[base].workload == naive
        assert campaign.jobs[optimized].workload == opt
        assert s == makespan(runner, base) / makespan(runner, optimized)

    def test_figure7_rows_match_direct(self):
        from repro.experiments.clomp import FIG7_SAMPLE_PERIODS, clomp_row

        campaign, records, _ = run_suite("figure7", **SMALL)
        config = MachineConfig(n_threads=2,
                               sample_periods=dict(FIG7_SAMPLE_PERIODS))
        live = []
        for label, size, scatter, _ in campaign.meta:
            out = run_workload("clomp_tm", config=config, profile=True,
                               txn_size=size, scatter=scatter, **SMALL)
            live.append(clomp_row(label, size, scatter, out.profile,
                                  out.result.commits,
                                  out.result.aborts_by_reason))
        assert clomp_rows_from_records(campaign, records) == live

    def test_figure8_rows_match_direct(self):
        from repro.core.categorize import categorize
        from repro.experiments.categorize import FIG8_SAMPLE_PERIODS

        names = ["dedup", "histo"]
        kw = dict(n_threads=4, scale=0.2, seed=0)
        campaign, records, _ = run_suite("figure8", workloads=names, **kw)
        config = MachineConfig(n_threads=4,
                               sample_periods=dict(FIG8_SAMPLE_PERIODS))
        rows = figure8_rows_from_records(campaign, records)
        assert [r.category.name for r in rows] == names
        for name, row in zip(names, rows):
            out = run_workload(name, config=config, profile=True, **kw)
            assert row.category == categorize(name, out.profile)


class TestDeterminismAndCaching:
    def test_parallel_records_bit_identical_to_serial(self):
        _, serial, _ = run_suite("table1", jobs=1, **SMALL)
        _, pooled, _ = run_suite("table1", jobs=4, **SMALL)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(pooled, sort_keys=True)

    def test_second_invocation_all_hits(self):
        store = MemoryStore()
        run_suite("figure7", store=store, **SMALL)
        _, _, second = run_suite("figure7", store=store, **SMALL)
        s = second.summary()
        assert s["hit_rate"] == 1.0 and s["executed"] == 0


class TestSharedNativeRuns:
    """Satellite: overhead and speedup campaigns share (workload, seed,
    native) runs through the store, and cached results equal fresh
    ones."""

    def test_speedup_native_feeds_overhead(self):
        store = MemoryStore()
        speed, _, _ = run_suite("speedup", store=store, workloads=["ua"],
                                **SMALL)
        before = set(store.keys())
        overhead, cached, runner = run_suite(
            "overhead", store=store, workloads=["ua"], runs=3, drop=1,
            **SMALL)
        # seed-0 native was already computed by the speedup campaign
        shared = set(speed.jobs) & set(overhead.jobs)
        assert len(shared) == 1
        assert runner.summary()["hits"] == 1
        assert set(store.keys()) - before == set(overhead.jobs) - shared
        _, fresh, _ = run_suite("overhead", workloads=["ua"], runs=3,
                                drop=1, **SMALL)
        assert cached == fresh

    def test_cached_equals_fresh_on_rerun(self):
        store = MemoryStore()
        kw = dict(workloads=["micro_low_abort"], runs=3, **SMALL)
        _, first, _ = run_suite("overhead", store=store, **kw)
        _, again, runner = run_suite("overhead", store=store, **kw)
        assert again == first
        s = runner.summary()
        assert s["hit_rate"] == 1.0 and s["executed"] == 0


class TestCampaignCLI:
    def test_campaign_table1_stdout_identical_to_serial(self, capsys):
        rc_a, serial = run_cli("table1")
        rc_b, parallel = run_cli("campaign", "table1", "--threads", "2",
                                 "--scale", "0.2", "--jobs", "4")
        assert rc_a == rc_b == 0
        assert parallel == serial
        # same cache dir (per-test REPRO_CACHE_DIR): rerun is all hits
        rc_c, again = run_cli("campaign", "table1", "--threads", "2",
                              "--scale", "0.2", "--jobs", "4")
        assert rc_c == 0 and again == serial
        assert "hit-rate=100%" in capsys.readouterr().err

    def test_campaign_figure7_stdout_identical_to_serial(self):
        rc_a, serial = run_cli("figure7", "--threads", "2",
                               "--scale", "0.2")
        rc_b, parallel = run_cli("campaign", "figure7", "--threads", "2",
                                 "--scale", "0.2", "--jobs", "2")
        assert rc_a == rc_b
        assert parallel == serial

    def test_campaign_status_does_not_run(self, capsys):
        rc, out = run_cli("campaign", "figure7", "--threads", "2",
                          "--scale", "0.2", "--status")
        assert rc == 0
        assert "pending  : 6" in out
        assert "cached   : 0" in out

    def test_campaign_resume_reports_cached_jobs(self, capsys):
        run_cli("campaign", "figure8", "dedup", "--threads", "4",
                "--scale", "0.2")
        capsys.readouterr()
        rc, _ = run_cli("campaign", "figure8", "dedup", "histo",
                        "--threads", "4", "--scale", "0.2", "--resume")
        assert rc == 0
        assert "resuming: 1/2 jobs already cached" in \
            capsys.readouterr().err

    def test_campaign_unknown_suite(self, capsys):
        rc, out = run_cli("campaign", "nope")
        assert rc == 2 and out == ""
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("runs,drop", [("0", "0"), ("3", "-1")])
    def test_campaign_overhead_rejects_bad_runs_or_drop(self, capsys,
                                                        runs, drop):
        rc, out = run_cli("campaign", "overhead", "micro_low_abort",
                          "--runs", runs, "--drop", drop, "--threads", "2",
                          "--scale", "0.2")
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert "runs must be >= 1" in err
        assert "Traceback" not in err

    def test_measure_overhead_validates_drop(self, capsys):
        rc, out = run_cli("measure-overhead", "micro_low_abort",
                          "--runs", "4", "--drop", "2")
        assert rc == 2 and out == ""
        assert "exceed 2*drop" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--runs", "0"),
                                       ("--runs", "2", "--drop", "1")])
    def test_measure_overhead_bad_runs_exit_2_before_any_job(
            self, monkeypatch, capsys, flags):
        def ran(*_args, **_kw):
            raise AssertionError("a job ran")

        monkeypatch.setattr(CampaignRunner, "run", ran)
        rc, out = run_cli("measure-overhead", "micro_low_abort",
                          "--threads", "2", "--scale", "0.2",
                          "--no-cache", *flags)
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("timeout", ["inf", "nan", "1e300",
                                         str(2**31)])
    def test_campaign_rejects_a_timeout_no_timer_can_arm(
            self, monkeypatch, capsys, timeout):
        def ran(*_args, **_kw):
            raise AssertionError("a job ran")

        monkeypatch.setattr(CampaignRunner, "run", ran)
        rc, out = run_cli("campaign", "overhead", "micro_low_abort",
                          "--runs", "1", "--drop", "0", "--threads", "2",
                          "--scale", "0.2", "--no-cache",
                          "--timeout", timeout)
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert "--timeout must be finite and at most" in err
        assert "Traceback" not in err

    def test_measure_overhead_explicit_runs_and_drop(self):
        rc, out = run_cli("measure-overhead", "micro_low_abort",
                          "--threads", "2", "--scale", "0.2",
                          "--runs", "3", "--drop", "0")
        assert rc == 0
        assert "micro_low_abort" in out and "MEAN" in out

    def test_measure_overhead_caches_across_invocations(self, capsys):
        args = ("measure-overhead", "micro_low_abort", "--threads", "2",
                "--scale", "0.2", "--runs", "3")
        rc_a, first = run_cli(*args)
        capsys.readouterr()
        rc_b, second = run_cli(*args)
        assert rc_a == rc_b == 0
        assert first == second
        assert "hit-rate=100%" in capsys.readouterr().err

    def test_no_cache_skips_the_disk_store(self, tmp_path, monkeypatch):
        cache = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        rc, _ = run_cli("measure-overhead", "micro_low_abort",
                        "--threads", "2", "--scale", "0.2", "--runs", "2",
                        "--no-cache")
        assert rc == 0
        assert not cache.exists()
