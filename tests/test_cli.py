"""The command-line interface (the artifact scripts' analogue)."""

import json
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> "tuple[int, str]":
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_common_flags(self):
        args = build_parser().parse_args(
            ["run", "dedup", "--threads", "6", "--scale", "0.5",
             "--seed", "9"]
        )
        assert (args.threads, args.scale, args.seed) == (6, 0.5, 9)


class TestListCommand:
    def test_lists_all_workloads(self):
        rc, out = run_cli("list")
        assert rc == 0
        for name in ("dedup", "vacation", "linkedlist", "clomp_tm"):
            assert name in out


class TestRunCommand:
    def test_run_with_report_and_guidance(self):
        rc, out = run_cli(
            "run", "micro_low_abort", "--threads", "4", "--scale", "0.3",
            "--guidance",
        )
        assert rc == 0
        assert "TxSampler summary" in out
        assert "Decision-tree traversal" in out

    def test_run_saves_database(self, tmp_path):
        db = tmp_path / "p.json"
        rc, out = run_cli(
            "run", "micro_low_abort", "--threads", "2", "--scale", "0.2",
            "--no-report", "--save-db", str(db),
        )
        assert rc == 0 and db.exists()
        assert json.loads(db.read_text())["format"] == "txsampler-profile"

    def test_view_renders_saved_database(self, tmp_path):
        db = tmp_path / "p.json"
        run_cli("run", "micro_low_abort", "--threads", "2", "--scale",
                "0.2", "--no-report", "--save-db", str(db))
        rc, out = run_cli("view", str(db), "--guidance")
        assert rc == 0
        assert "TxSampler summary" in out
        assert "Decision-tree traversal" in out


class TestMeasurementCommands:
    def test_measure_overhead(self):
        rc, out = run_cli(
            "measure-overhead", "micro_low_abort", "--threads", "2",
            "--scale", "0.2", "--runs", "2",
        )
        assert rc == 0
        assert "micro_low_abort" in out and "MEAN" in out

    def test_measure_speedup(self):
        rc, out = run_cli(
            "measure-speedup", "ua", "--threads", "6", "--scale", "0.4",
        )
        assert rc == 0
        assert "ua" in out and "paper" in out

    def test_measure_speedup_unknown_program(self):
        rc, _ = run_cli("measure-speedup", "nonsense", "--threads", "2")
        assert rc == 2

    def test_table1(self):
        rc, out = run_cli("table1")
        assert rc == 0 and "Adjacent" in out

    def test_measure_overhead_metrics_lines(self, tmp_path, capsys):
        from repro.cli import _metrics_brief
        from repro.experiments.runner import run_workload

        names = ("micro_low_abort", "micro_high_abort")
        argv = ("measure-overhead", *names, "--threads", "2",
                "--scale", "0.2", "--runs", "3", "--metrics",
                "--cache-dir", str(tmp_path / "cache"))
        rc, out = run_cli(*argv)
        assert rc == 0
        lines = out.splitlines()
        for name in names:
            direct = run_workload(name, n_threads=2, scale=0.2, seed=0,
                                  profile=True, metrics=True)
            row = next(i for i, line in enumerate(lines)
                       if line.startswith(name))
            assert lines[row + 1] == \
                f"{'':22s}   {_metrics_brief(direct.result.metrics)}"
        capsys.readouterr()
        rc, again = run_cli(*argv)
        assert rc == 0 and again == out
        assert "hit-rate=100%" in capsys.readouterr().err

    def test_measure_speedup_metrics_lines(self, tmp_path, capsys):
        from repro.cli import _metrics_brief
        from repro.experiments.runner import run_workload
        from repro.htmbench.optimized import TABLE2

        opt = next(row[1] for row in TABLE2 if row[0] == "ua")
        argv = ("measure-speedup", "ua", "--threads", "6", "--scale",
                "0.4", "--metrics", "--cache-dir", str(tmp_path / "cache"))
        rc, out = run_cli(*argv)
        assert rc == 0
        naive, optimized = (
            _metrics_brief(run_workload(w, n_threads=6, scale=0.4, seed=0,
                                        metrics=True).result.metrics)
            for w in ("ua", opt))
        assert out.splitlines()[1:] == [f"  naive    : {naive}",
                                        f"  optimized: {optimized}"]
        capsys.readouterr()
        rc, again = run_cli(*argv)
        assert rc == 0 and again == out
        assert "hit-rate=100%" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "dedup" in proc.stdout


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        rc, out = run_cli(
            "trace", "micro_low_abort", "--threads", "4", "--scale", "0.3",
            "--trace-out", str(path),
        )
        assert rc == 0
        assert f"chrome trace written to {path}" in out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        for ev in events:
            assert "ph" in ev and "tid" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], int)
        assert any(ev["ph"] == "X" and "dur" in ev for ev in events)
        assert any(ev["ph"] == "i" for ev in events)

    def test_run_with_metrics_and_trace_out(self, tmp_path):
        path = tmp_path / "t.json"
        rc, out = run_cli(
            "run", "micro_low_abort", "--threads", "2", "--scale", "0.2",
            "--no-report", "--metrics", "--trace-out", str(path),
        )
        assert rc == 0
        assert "=== run metrics ===" in out
        assert "=== profiler self-diagnostics ===" in out
        assert path.exists()

    def test_saved_database_carries_run_metrics(self, tmp_path):
        db = tmp_path / "p.json"
        rc, _ = run_cli(
            "run", "micro_low_abort", "--threads", "2", "--scale", "0.2",
            "--no-report", "--metrics", "--save-db", str(db),
        )
        assert rc == 0
        rc, out = run_cli("view", str(db), "--metrics")
        assert rc == 0
        assert "=== run metrics ===" in out
        assert "htm.commits" in out


class TestVerbosityFlags:
    def test_quiet_suppresses_stdout(self):
        rc, out = run_cli("-q", "list")
        assert rc == 0
        assert out == ""

    def test_quiet_keeps_errors_on_stderr(self, capsys):
        rc, out = run_cli("-q", "measure-speedup", "nonsense",
                          "--threads", "2")
        assert rc == 2
        assert out == ""
        assert "not a Table 2 program" in capsys.readouterr().err

    def test_verbose_adds_debug_detail(self):
        rc, out = run_cli(
            "-v", "run", "micro_low_abort", "--threads", "2",
            "--scale", "0.2", "--no-report",
        )
        assert rc == 0
        assert "run: workload=micro_low_abort" in out


class TestCheckCommand:
    def test_static_only_text_report(self):
        rc, out = run_cli("check", "micro_capacity", "--static-only",
                          "--threads", "2", "--scale", "0.5")
        assert rc == 0
        assert "=== static analysis: micro_capacity ===" in out
        assert "capacity-risk" in out
        assert "predicts 'capacity' aborts" in out
        assert "documented findings" in out

    def test_incremental_closes_its_store(self, tmp_path, monkeypatch):
        from repro.campaign import store as store_mod

        closed: list[str] = []
        real_close = store_mod.ResultStore.close

        def spy(self):
            closed.append(str(self.root))
            real_close(self)

        monkeypatch.setattr(store_mod.ResultStore, "close", spy)
        cache = tmp_path / "df-cache"
        rc, _ = run_cli("-q", "check", "micro_low_abort", "micro_high_abort",
                        "--static-only", "--incremental", "--cache-dir",
                        str(cache), "--threads", "4", "--scale", "0.25")
        assert rc == 0
        assert str(cache) in closed
        assert (cache / store_mod.ResultStore.LOG).exists()

    def test_incremental_cache_line_honours_quiet(self, tmp_path, capsys):
        args = ["check", "micro_low_abort", "--static-only",
                "--incremental", "--cache-dir", str(tmp_path / "df-cache"),
                "--threads", "4", "--scale", "0.25"]
        assert main(["-q", *args]) == 0
        assert capsys.readouterr().err == ""
        # the second run hits every summary; CI greps this exact line
        assert main(args) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"\[dataflow cache\] hits=[1-9]\d* misses=0 hit-rate=100%\n",
            err), err

    def test_crossval_pane_present_by_default(self):
        rc, out = run_cli("check", "micro_sync", "--threads", "2",
                          "--scale", "0.3")
        assert rc == 0
        assert "cross-validation: micro_sync" in out
        assert "agreement" in out

    def test_json_output(self):
        rc, out = run_cli("check", "micro_capacity", "micro_low_abort",
                          "--static-only", "--json",
                          "--threads", "2", "--scale", "0.5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["crashed"] == []
        assert doc["unexpected"] == []
        caps = doc["workloads"]["micro_capacity"]
        assert caps["max_severity"] == "error"
        assert caps["unexpected_codes"] == []
        low = doc["workloads"]["micro_low_abort"]
        assert [f["code"] for f in low["findings"]] == [
            "dead-txn-no-shared-access"
        ]
        assert low["unexpected_codes"] == []

    def test_clean_workload_only_advisory_findings(self):
        rc, out = run_cli("check", "micro_low_abort", "--static-only",
                          "--threads", "2", "--scale", "0.5")
        assert rc == 0
        assert "dead-txn-no-shared-access" in out
        assert "documented findings" in out

    def test_fail_on_undocumented_findings(self):
        # vacation's conflict warning is real but not documented
        rc, out = run_cli("check", "vacation", "--static-only",
                          "--fail-on", "warning",
                          "--threads", "4", "--scale", "0.2")
        assert rc == 1
        assert "UNEXPECTED" in out

    def test_documented_findings_do_not_fail(self):
        rc, _ = run_cli("check", "micro_capacity", "--static-only",
                        "--fail-on", "warning",
                        "--threads", "2", "--scale", "0.5")
        assert rc == 0

    def test_suite_token_expands(self):
        rc, out = run_cli("check", "micro", "--static-only",
                          "--threads", "2", "--scale", "0.2")
        assert rc == 0
        assert "checked 13 workload(s)" in out

    def test_unknown_workload_is_a_crash_not_a_traceback(self, capsys):
        rc, out = run_cli("check", "no_such_workload", "--static-only")
        assert rc == 2
        assert "analyzer crashed" in capsys.readouterr().err

    def test_mc_pane_renders_the_abort_graph(self):
        rc, out = run_cli("check", "micro_high_abort", "--static-only",
                          "--mc", "--threads", "4", "--scale", "0.25")
        assert rc == 0
        assert "bounded model checking: micro_high_abort" in out
        assert "identical graphs: yes" in out
        assert "abort graph" in out
        assert "CONVOY CYCLE" in out


class TestCheckBaseline:
    """--baseline suppression: a recorded finding stops failing the
    build, a *new* one still does (the regression-ratchet workflow)."""

    def _write(self, path):
        # vacation's warning is real but undocumented: without a
        # baseline this exact invocation exits 1 (see
        # test_fail_on_undocumented_findings above)
        rc, _ = run_cli("check", "vacation", "--static-only",
                        "--fail-on", "warning",
                        "--baseline", str(path), "--write-baseline",
                        "--threads", "4", "--scale", "0.2")
        assert rc == 0
        return json.loads(path.read_text())

    def test_write_then_suppress(self, tmp_path):
        base = tmp_path / "base.json"
        doc = self._write(base)
        assert doc["version"] == 1
        assert doc["workloads"]["vacation"]
        rc, out = run_cli("check", "vacation", "--static-only",
                          "--fail-on", "warning",
                          "--baseline", str(base),
                          "--threads", "4", "--scale", "0.2")
        assert rc == 0
        assert "suppressed by baseline" in out
        assert "UNEXPECTED" not in out

    def test_new_finding_still_fails(self, tmp_path):
        base = tmp_path / "base.json"
        doc = self._write(base)
        # drop one recorded finding: it counts as new again
        doc["workloads"]["vacation"].pop()
        base.write_text(json.dumps(doc))
        rc, out = run_cli("check", "vacation", "--static-only",
                          "--fail-on", "warning",
                          "--baseline", str(base),
                          "--threads", "4", "--scale", "0.2")
        assert rc == 1
        assert "UNEXPECTED" in out

    def test_json_carries_suppressed_codes(self, tmp_path):
        base = tmp_path / "base.json"
        self._write(base)
        rc, out = run_cli("check", "vacation", "--static-only",
                          "--fail-on", "warning", "--json",
                          "--baseline", str(base),
                          "--threads", "4", "--scale", "0.2")
        assert rc == 0
        doc = json.loads(out)
        entry = doc["workloads"]["vacation"]
        assert entry["suppressed_codes"]
        assert entry["unexpected_codes"] == []

    def test_missing_baseline_file_is_exit_2(self, capsys):
        rc, _ = run_cli("check", "micro_low_abort", "--static-only",
                        "--baseline", "/nonexistent/base.json",
                        "--threads", "2", "--scale", "0.2")
        assert rc == 2
        assert "baseline file not found" in capsys.readouterr().err

    def test_write_baseline_requires_a_path(self, capsys):
        rc, _ = run_cli("check", "micro_low_abort", "--static-only",
                        "--write-baseline",
                        "--threads", "2", "--scale", "0.2")
        assert rc == 2
        assert "--write-baseline needs --baseline" \
            in capsys.readouterr().err


class TestViewHardening:
    """`repro view` on a missing/empty/torn database: exit 2 with a
    one-line diagnostic, never a traceback."""

    def test_missing_database(self, capsys):
        rc, out = run_cli("view", "/nonexistent/profile.json")
        assert rc == 2
        assert "no such profile database" in capsys.readouterr().err

    def test_empty_database(self, tmp_path, capsys):
        db = tmp_path / "empty.json"
        db.write_text("")
        rc, out = run_cli("view", str(db))
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_torn_database(self, tmp_path, capsys):
        db = tmp_path / "torn.json"
        db.write_text('{"format": "txsampler-profile", "root": {"na')
        rc, out = run_cli("view", str(db))
        assert rc == 2
        assert "cannot read profile database" in capsys.readouterr().err

    def test_non_profile_document(self, tmp_path, capsys):
        db = tmp_path / "junk.json"
        db.write_text("[1, 2, 3]")
        rc, out = run_cli("view", str(db))
        assert rc == 2
        assert "not a profile document" in capsys.readouterr().err


class TestChaosCommand:
    def test_bad_rates_rejected(self, capsys):
        rc, out = run_cli("chaos", "--rates", "nonsense")
        assert rc == 2
        assert "comma-separated floats" in capsys.readouterr().err

    def test_out_of_range_rates_rejected(self, capsys):
        rc, out = run_cli("chaos", "--rates", "0.1,1.5")
        assert rc == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_sweep_smoke(self):
        rc, out = run_cli(
            "chaos", "micro_sync", "--rates", "0.5", "--threads", "4",
            "--scale", "0.5", "--min-aborts", "1",
        )
        assert rc == 0
        assert "degradation invariants" in out
        assert "verdict: PASS" in out

    def test_sweep_json(self):
        rc, out = run_cli(
            "chaos", "micro_sync", "--rates", "0.5", "--threads", "4",
            "--scale", "0.5", "--min-aborts", "1", "--json",
            "--skip-passthrough",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["cells"]


class TestServeClientErrorPaths:
    """An unreachable or misconfigured daemon must produce one
    actionable line on stderr and a nonzero exit — never a traceback."""

    def test_status_unreachable_daemon(self, capsys):
        rc = main(["status", "--url", "http://127.0.0.1:59999"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is `repro serve` running" in err
        assert "Traceback" not in err

    def test_submit_unreachable_daemon(self, capsys):
        rc = main(["submit", "overhead",
                   "--url", "http://127.0.0.1:59999"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is `repro serve` running" in err
        assert "Traceback" not in err

    def test_malformed_url_is_not_a_traceback(self, capsys):
        rc = main(["status", "--url", "http://[bad"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad server URL" in err
        assert "Traceback" not in err

    def test_https_url_rejected_cleanly(self, capsys):
        rc = main(["status", "--url", "https://example.com"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "only http" in err
        assert "Traceback" not in err


class TestStoreScrubCommand:
    def _store(self, tmp_path):
        from repro.campaign.store import ResultStore

        root = tmp_path / "cache"
        store = ResultStore(root)
        store.put("key-1", {"n": 1})
        store.close()
        return root

    def test_clean_store_exits_zero(self, tmp_path):
        root = self._store(tmp_path)
        rc, out = run_cli("store", "scrub", "--cache-dir", str(root))
        assert rc == 0
        assert "store is clean" in out

    def test_damaged_store_exits_one_then_repairs(self, tmp_path,
                                                  capsys):
        from repro.campaign.store import ResultStore

        root = self._store(tmp_path)
        wal = root / ResultStore.LOG
        wal.write_bytes(wal.read_bytes() + b'{"torn')
        assert main(["store", "scrub", "--cache-dir", str(root)]) == 1
        assert "rerun with --repair" in capsys.readouterr().err
        assert main(["store", "scrub", "--cache-dir", str(root),
                     "--repair"]) == 0
        assert main(["store", "scrub", "--cache-dir", str(root)]) == 0

    def test_json_report(self, tmp_path):
        root = self._store(tmp_path)
        rc, out = run_cli("store", "scrub", "--cache-dir", str(root),
                          "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["clean"] is True
        assert doc["summary"]["records"] >= 1

    def test_missing_store_exits_two(self, tmp_path, capsys):
        rc = main(["store", "scrub", "--cache-dir",
                   str(tmp_path / "nope")])
        assert rc == 2
        assert "no result store" in capsys.readouterr().err


class TestCampaignClosesItsStore:
    ARGV = ["-q", "campaign", "overhead", "micro_low_abort", "--runs", "3",
            "--drop", "0", "--threads", "2", "--scale", "0.25", "--jobs",
            "1"]

    def test_run_leaves_a_segment_and_no_wal_to_replay(self, tmp_path):
        from repro.campaign.store import ResultStore

        root = tmp_path / "cache"
        assert main([*self.ARGV, "--cache-dir", str(root)]) == 0
        # one framed log and the sidecars: no legacy file to replay
        names = {p.name for p in root.iterdir()}
        assert ResultStore.LOG in names
        assert names <= {ResultStore.LOG, ResultStore.REPLAY_DIR}
        store = ResultStore(root)
        try:
            stats = store.stats()
            assert stats["log_bytes"] > 0
            assert stats["records"] >= 3
        finally:
            store.close()

    def test_status_and_errors_close_the_store_too(self, tmp_path,
                                                   monkeypatch):
        from repro.campaign import store as store_mod
        from repro.campaign.scheduler import CampaignError, CampaignRunner

        closed: list[str] = []
        real_close = store_mod.ResultStore.close

        def spy(self):
            closed.append(str(self.root))
            real_close(self)

        def fail(self, campaign):
            raise CampaignError("job failed")

        monkeypatch.setattr(store_mod.ResultStore, "close", spy)
        root = str(tmp_path / "cache")
        assert main([*self.ARGV, "--cache-dir", root, "--status"]) == 0
        monkeypatch.setattr(CampaignRunner, "run", fail)
        assert main([*self.ARGV, "--cache-dir", root]) == 1
        assert closed == [root, root]
