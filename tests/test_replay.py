"""Record/replay of the observation stream (``repro.replay``).

The contract under test is the tentpole claim: for any profiled run —
clean or under an active fault plan — replaying the recorded
observation stream through a fresh profiler, with **no simulator in the
loop**, reconstructs a profile database byte-identical to the live
run's, and a time-travel diff of a run against its own replay reports
zero deltas.
"""

from __future__ import annotations

import json

import pytest

from repro.core.export import profile_from_dict, profile_to_dict
from repro.core.report import render_data_quality
from repro.experiments.runner import run_workload
from repro.faults.plan import FaultPlan
from repro.htmbench.base import workload_names
from repro.replay import (
    ObservationRecorder,
    ReplayFormatError,
    diff_profiles,
    load_replay,
    loads_replay,
    replay_file,
    replay_profile,
)
from repro.replay.log import ReplayWriter, encode_sample, decode_sample

MICRO = workload_names(suite="micro")

#: a plan exercising every perturbation class the injector implements
HARSH_PLAN = FaultPlan(
    seed=3,
    drop_rate=0.2,
    dup_rate=0.1,
    skid_rate=0.3,
    skid_max=400,
    lbr_truncate_rate=0.5,
    lbr_keep_max=2,
    lbr_stale_rate=0.2,
    corrupt_rate=0.15,
    clock_skew_ppm=500,
)


def _bytes(profile) -> bytes:
    return json.dumps(profile_to_dict(profile), sort_keys=True).encode()


def _record(workload: str, faults: FaultPlan | None = None, *,
            scale: float = 0.25, seed: int = 0):
    return run_workload(workload, n_threads=4, scale=scale, seed=seed,
                        profile=True, record=True, faults=faults)


# ---------------------------------------------------------------------------
# the acceptance criterion: every micro workload, clean and faulted
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("workload", MICRO)
    def test_clean_run_replays_bit_identical(self, workload):
        out = _record(workload)
        assert out.profile is not None and out.replay_log is not None
        log = loads_replay(out.replay_log)
        assert log.complete
        replayed = replay_profile(log)
        assert _bytes(replayed) == _bytes(out.profile)

    @pytest.mark.parametrize("workload", MICRO)
    def test_faulted_run_replays_bit_identical(self, workload):
        out = _record(workload, faults=HARSH_PLAN)
        assert out.profile is not None and out.replay_log is not None
        replayed = replay_profile(loads_replay(out.replay_log))
        assert _bytes(replayed) == _bytes(out.profile)

    @pytest.mark.parametrize("workload", MICRO)
    def test_diff_against_own_replay_is_zero(self, workload):
        out = _record(workload)
        replayed = replay_profile(loads_replay(out.replay_log))
        diff = diff_profiles(out.profile, replayed)
        assert diff.identical
        assert diff.delta_count == 0

    def test_data_quality_pane_identical_under_faults(self):
        out = _record("micro_high_abort", faults=HARSH_PLAN)
        replayed = replay_profile(loads_replay(out.replay_log))
        assert (render_data_quality(replayed)
                == render_data_quality(out.profile))
        # the harsh plan actually quarantined something, so the pane
        # equality above is not vacuous
        assert out.profile.quarantined

    def test_recording_does_not_perturb_the_run(self):
        plain = run_workload("micro_high_abort", n_threads=4, scale=0.25,
                             seed=0, profile=True)
        recorded = _record("micro_high_abort")
        assert _bytes(plain.profile) == _bytes(recorded.profile)

    def test_recording_is_deterministic(self):
        a = _record("micro_sync", faults=HARSH_PLAN)
        b = _record("micro_sync", faults=HARSH_PLAN)
        assert a.replay_log == b.replay_log


# ---------------------------------------------------------------------------
# log format: tear tolerance, checksums, codec
# ---------------------------------------------------------------------------


class TestLogFormat:
    def _log_text(self) -> str:
        return _record("micro_high_abort").replay_log

    def test_round_trip_through_file(self, tmp_path):
        out = _record("micro_high_abort")
        path = tmp_path / "run.rlog"
        path.write_text(out.replay_log)
        log, profile = replay_file(path)
        assert log.complete
        assert _bytes(profile) == _bytes(out.profile)

    def test_torn_tail_is_tolerated(self):
        text = self._log_text()
        lines = text.splitlines()
        # cut mid-way through the last event line (drops the manifest too)
        torn = "\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]])
        log = loads_replay(torn)
        assert not log.complete
        assert log.torn_lines >= 1
        assert len(log.events) == len(lines) - 3  # header+torn+manifest

    def test_torn_log_still_replays_a_prefix(self):
        text = self._log_text()
        lines = text.splitlines()
        log = loads_replay("\n".join(lines[:-1]))  # no manifest
        assert not log.complete
        profile = replay_profile(log)  # must not raise
        assert profile.summary().W >= 0

    def test_bad_checksum_ends_the_parse(self):
        text = self._log_text()
        lines = text.splitlines()
        doc = json.loads(lines[1])
        doc["c"] ^= 1
        lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        log = loads_replay("\n".join(lines))
        assert not log.complete
        assert len(log.events) == 0

    def test_wrong_version_is_rejected(self):
        text = self._log_text()
        lines = text.splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        lines[0] = json.dumps(header)
        with pytest.raises(ReplayFormatError):
            loads_replay("\n".join(lines))

    def test_not_a_replay_log_is_rejected(self, tmp_path):
        with pytest.raises(ReplayFormatError):
            loads_replay('{"hello": "world"}')
        path = tmp_path / "junk.rlog"
        path.write_text("not json at all")
        with pytest.raises(ReplayFormatError):
            load_replay(path)

    def test_manifest_digest_mismatch_marks_incomplete(self):
        text = self._log_text()
        lines = text.splitlines()
        manifest = json.loads(lines[-1])
        manifest["manifest"]["digest"] = "0" * 64
        lines[-1] = json.dumps(manifest)
        log = loads_replay("\n".join(lines))
        assert not log.complete

    def test_sample_codec_round_trips_junk_lbr(self):
        out = _record("micro_high_abort", faults=HARSH_PLAN)
        log = loads_replay(out.replay_log)
        for _word, sample in log.events:
            doc = encode_sample(sample)
            again = decode_sample(doc)
            assert encode_sample(again) == doc

    def test_empty_writer_seals_to_a_loadable_log(self):
        w = ReplayWriter(meta={"n_threads": 2, "periods": {},
                               "contention_threshold": 1})
        w.seal(site_names={}, summary={})
        log = loads_replay(w.dumps())
        assert log.complete and len(log.events) == 0


# ---------------------------------------------------------------------------
# time-travel diff
# ---------------------------------------------------------------------------


class TestDiff:
    def test_differing_runs_report_deltas(self):
        clean = _record("micro_high_abort")
        faulted = _record("micro_high_abort",
                          faults=FaultPlan(seed=1, drop_rate=0.4))
        diff = diff_profiles(clean.profile, faulted.profile,
                             label_a="clean", label_b="faulted")
        assert not diff.identical
        assert diff.delta_count > 0
        pane = diff.render()
        assert "clean" in pane and "faulted" in pane
        # round-trips through its dict form
        assert diff.to_dict()["identical"] is False

    def test_identical_render_says_so(self):
        out = _record("micro_low_abort")
        diff = diff_profiles(out.profile, out.profile)
        assert diff.identical
        assert "identical" in diff.render().lower()


# ---------------------------------------------------------------------------
# recorder plumbing
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_record_requires_profile(self):
        with pytest.raises(ValueError):
            run_workload("micro_low_abort", n_threads=2, scale=0.1,
                         seed=0, profile=False, record=True)

    def test_provenance_lands_in_the_header(self):
        out = _record("micro_sync", faults=HARSH_PLAN, seed=5)
        log = loads_replay(out.replay_log)
        meta = log.meta
        assert meta["workload"] == "micro_sync"
        assert meta["seed"] == 5
        assert meta["fault_plan"] is not None
        assert log.n_threads == 4

    def test_unattached_recorder_rejects_samples(self):
        rec = ObservationRecorder()
        with pytest.raises(RuntimeError):
            rec.record(None)


# ---------------------------------------------------------------------------
# integrations: chaos artifacts and the campaign store sidecar
# ---------------------------------------------------------------------------


class TestIntegrations:
    def test_chaos_dumps_artifacts_on_divergence(self, tmp_path):
        from repro.faults import chaos

        # min_aborts=1 scores borderline sites whose signature 50%
        # sample loss legitimately flips; this workload/seed/scale cell
        # is a known deterministic divergence
        report = chaos.run_sweep(
            workloads=("micro_sync",), loss_rates=(0.5,),
            n_threads=4, scale=0.25, seed=1, min_aborts=1.0,
            check_passthrough=False,
            artifact_dir=str(tmp_path / "artifacts"),
        )
        assert not report.ok
        assert report.artifacts
        for path in report.artifacts:
            log, profile = replay_file(path)
            assert log.complete
            assert profile.summary().W >= 0

    def test_chaos_happy_path_dumps_nothing(self, tmp_path):
        from repro.faults import chaos

        report = chaos.run_sweep(
            workloads=("micro_high_abort",), loss_rates=(0.1,),
            n_threads=4, scale=0.25, seed=0,
            artifact_dir=str(tmp_path / "artifacts"),
        )
        if not report.ok:  # pragma: no cover
            pytest.skip("unexpected divergence")
        assert not report.artifacts
        assert not (tmp_path / "artifacts").exists()

    def test_campaign_store_sidecars(self, tmp_path):
        from repro.campaign.spec import JobSpec
        from repro.campaign.store import ResultStore
        from repro.campaign.worker import execute_job

        spec = JobSpec(kind="run", workload="micro_high_abort",
                       n_threads=4, scale=0.25, seed=7, profile=True)
        record = execute_job(spec.to_dict(), {})
        assert "replay_log" in record
        store = ResultStore(tmp_path / "cache")
        store.put(spec.key, record)
        sidecar = tmp_path / "cache" / "replay" / f"{spec.key}.rlog"
        assert sidecar.exists()

        cached = store.get(spec.key)
        assert cached["replay_log"] == record["replay_log"]
        assert "replay" not in cached
        replayed = replay_profile(loads_replay(cached["replay_log"]))
        assert _bytes(replayed) == _bytes(
            profile_from_dict(cached["profile_db"]))

        # compaction keeps live sidecars and prunes orphans
        orphan = sidecar.parent / ("e" * 64 + ".rlog")
        orphan.write_text("junk")
        store.put(spec.key, dict(record))  # supersede
        store.compact()
        assert sidecar.exists() and not orphan.exists()
        assert store.get(spec.key)["replay_log"] == record["replay_log"]

        # a reopened store still rehydrates
        again = ResultStore(tmp_path / "cache")
        assert again.get(spec.key)["replay_log"] == record["replay_log"]

    def test_campaign_record_without_profile_has_no_sidecar(self, tmp_path):
        from repro.campaign.spec import JobSpec
        from repro.campaign.store import ResultStore
        from repro.campaign.worker import execute_job

        spec = JobSpec(kind="run", workload="micro_low_abort",
                       n_threads=2, scale=0.1, seed=0, profile=False)
        record = execute_job(spec.to_dict(), {})
        assert "replay_log" not in record
        store = ResultStore(tmp_path / "cache")
        store.put(spec.key, record)
        assert not (tmp_path / "cache" / "replay").exists()
        assert "replay_log" not in store.get(spec.key)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_record_replay_diff_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        rlog = tmp_path / "run.rlog"
        live_db = tmp_path / "live.json"
        replay_db = tmp_path / "replayed.json"
        assert main(["record", "micro_high_abort", "--threads", "4",
                     "--scale", "0.25", "--out", str(rlog),
                     "--save-db", str(live_db)]) == 0
        assert main(["replay", str(rlog), "--save-db", str(replay_db),
                     "--no-report"]) == 0
        assert live_db.read_bytes() == replay_db.read_bytes()
        assert main(["diff", str(live_db), str(replay_db)]) == 0
        # .rlog accepted directly as a diff operand
        assert main(["diff", str(live_db), str(rlog)]) == 0
        capsys.readouterr()

    def test_diff_exit_code_on_difference(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.rlog"
        b = tmp_path / "b.rlog"
        assert main(["record", "micro_high_abort", "--threads", "4",
                     "--scale", "0.25", "--out", str(a)]) == 0
        assert main(["record", "micro_high_abort", "--threads", "4",
                     "--scale", "0.25", "--fault-plan",
                     '{"seed": 1, "drop_rate": 0.4}',
                     "--out", str(b)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "delta" in out.lower() or "differ" in out.lower()

    def test_record_with_fault_plan_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        rlog = tmp_path / "faulted.rlog"
        db = tmp_path / "db.json"
        rdb = tmp_path / "rdb.json"
        assert main(["record", "micro_sync", "--threads", "4",
                     "--scale", "0.25",
                     "--fault-plan", '{"seed": 2, "corrupt_rate": 0.2}',
                     "--out", str(rlog), "--save-db", str(db)]) == 0
        assert main(["replay", str(rlog), "--save-db", str(rdb),
                     "--no-report"]) == 0
        assert db.read_bytes() == rdb.read_bytes()
        capsys.readouterr()
