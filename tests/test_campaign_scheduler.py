"""The dependency-aware campaign executor: DAGs, caching, retries,
crashed workers, timeouts, and serial/parallel determinism."""

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    JobFailed,
    JobSpec,
    MemoryStore,
    ResultStore,
    RetryPolicy,
)
from repro.campaign.spec import CampaignGraphError, make_run_spec


def sum_dag(tag="toy"):
    """Four noop leaves feeding one sum target (value 0+1+2+3 = 6)."""
    c = Campaign(name=tag)
    leaves = [c.add(JobSpec(kind="noop", extra={"value": i, "tag": tag}))
              for i in range(4)]
    c.add(JobSpec(kind="sum", deps=tuple(leaves), extra={"tag": tag}),
          target=True)
    return c


def fast_retry():
    return RetryPolicy(max_attempts=3, backoff=0.001)


class TestExecution:
    def test_serial_dag(self):
        runner = CampaignRunner(store=MemoryStore(), jobs=1)
        records = runner.run(sum_dag())
        (record,) = records.values()
        assert record["value"] == 6

    def test_pool_dag(self):
        runner = CampaignRunner(store=MemoryStore(), jobs=2)
        records = runner.run(sum_dag())
        (record,) = records.values()
        assert record["value"] == 6

    def test_diamond_dependencies(self):
        c = Campaign(name="diamond")
        a = c.add(JobSpec(kind="noop", extra={"value": 1}))
        b = c.add(JobSpec(kind="sum", deps=(a,), extra={"side": "l"}))
        d = c.add(JobSpec(kind="sum", deps=(a,), extra={"side": "r"}))
        c.add(JobSpec(kind="sum", deps=(b, d)), target=True)
        runner = CampaignRunner(store=MemoryStore(), jobs=2)
        (record,) = runner.run(c).values()
        assert record["value"] == 2

    def test_run_job_serial_vs_pool_bit_identical(self):
        spec = make_run_spec("micro_low_abort", n_threads=2, scale=0.1,
                             seed=3, profile=True)
        serial = CampaignRunner(store=MemoryStore(), jobs=1)
        pooled = CampaignRunner(store=MemoryStore(), jobs=2)
        for runner in (serial, pooled):
            c = Campaign(name="one")
            c.add(spec, target=True)
            runner.run(c)
        a = serial.store.fetch(spec.key)
        b = pooled.store.fetch(spec.key)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCachingAndPlanning:
    def test_second_run_is_all_hits(self):
        store = MemoryStore()
        CampaignRunner(store=store, jobs=1).run(sum_dag())
        second = CampaignRunner(store=store, jobs=1)
        second.run(sum_dag())
        s = second.summary()
        assert s["hit_rate"] == 1.0
        assert s["executed"] == 0

    def test_cached_target_prunes_subtree(self):
        store = MemoryStore()
        CampaignRunner(store=store, jobs=1).run(sum_dag())
        plan = CampaignRunner(store=store).plan(sum_dag())
        # the cached sum target is hit; its four leaves are never visited
        assert len(plan.cached) == 1
        assert plan.to_run == []

    def test_refresh_recomputes(self):
        store = MemoryStore()
        CampaignRunner(store=store, jobs=1).run(sum_dag())
        again = CampaignRunner(store=store, jobs=1, refresh=True)
        again.run(sum_dag())
        assert again.summary()["executed"] == 5

    def test_interrupted_campaign_resumes(self, tmp_path):
        # simulate an interruption by pre-running only the leaves
        store = ResultStore(tmp_path / "cache")
        full = sum_dag()
        partial = Campaign(name="leaves")
        for key, spec in full.jobs.items():
            if spec.kind == "noop":
                partial.add(spec, target=True)
        CampaignRunner(store=store, jobs=1).run(partial)
        resumed = CampaignRunner(store=ResultStore(tmp_path / "cache"),
                                 jobs=1)
        (record,) = resumed.run(sum_dag()).values()
        assert record["value"] == 6
        assert resumed.summary()["executed"] == 1  # just the sum

    def test_status_reports_without_running(self):
        runner = CampaignRunner(store=MemoryStore())
        st = runner.status(sum_dag())
        assert st["pending"] == 5 and st["cached"] == 0
        assert runner.summary()["executed"] == 0


class TestGraphValidation:
    def test_missing_dependency(self):
        c = Campaign(name="bad")
        c.add(JobSpec(kind="sum", deps=("0" * 64,)), target=True)
        with pytest.raises(CampaignGraphError, match="unknown job"):
            CampaignRunner(store=MemoryStore()).run(c)

    def test_cycle_detected(self):
        c = Campaign(name="cycle")
        spec = JobSpec(kind="sum", extra={"x": 1})
        spec.deps = (spec.key,)  # depend on itself, post-hash
        c.jobs[spec.deps[0]] = spec
        c.targets.append(spec.deps[0])
        with pytest.raises(CampaignGraphError, match="cycle"):
            CampaignRunner(store=MemoryStore()).run(c)


class TestFailurePolicy:
    def _flaky(self, marker, mode, fail_times, **extra_inject):
        c = Campaign(name="flaky")
        c.add(JobSpec(kind="noop", extra={"value": 42},
                      inject={"marker": str(marker), "mode": mode,
                              "fail_times": fail_times, **extra_inject}),
              target=True)
        return c

    def test_raise_is_retried_until_success(self, tmp_path):
        marker = tmp_path / "attempts"
        runner = CampaignRunner(store=MemoryStore(), jobs=1,
                                retry=fast_retry())
        (record,) = runner.run(self._flaky(marker, "raise", 2)).values()
        assert record["value"] == 42
        assert len(marker.read_text().splitlines()) == 2
        assert runner.summary()["retries"] == 2

    def test_exhausted_retries_raise_jobfailed(self, tmp_path):
        runner = CampaignRunner(store=MemoryStore(), jobs=1,
                                retry=RetryPolicy(max_attempts=2,
                                                  backoff=0.001))
        with pytest.raises(JobFailed, match="after 2 attempt"):
            runner.run(self._flaky(tmp_path / "m", "raise", 99))

    def test_pool_retries_raise(self, tmp_path):
        marker = tmp_path / "attempts"
        runner = CampaignRunner(store=MemoryStore(), jobs=2,
                                retry=fast_retry())
        (record,) = runner.run(self._flaky(marker, "raise", 1)).values()
        assert record["value"] == 42

    def test_crashed_worker_pool_is_rebuilt(self, tmp_path):
        # mode="exit" hard-exits the worker: the pool breaks
        # (segfault/OOM-kill analogue) and must be rebuilt
        marker = tmp_path / "attempts"
        runner = CampaignRunner(store=MemoryStore(), jobs=2,
                                retry=fast_retry())
        records = runner.run(self._flaky(marker, "exit", 1))
        (record,) = records.values()
        assert record["value"] == 42
        snap = runner.metrics.snapshot()
        assert snap["campaign.pool.broken"]["value"] >= 1

    def test_timeout_is_retried(self, tmp_path):
        marker = tmp_path / "attempts"
        runner = CampaignRunner(store=MemoryStore(), jobs=2, timeout=0.2,
                                retry=fast_retry())
        records = runner.run(
            self._flaky(marker, "sleep", 1, sleep=30.0))
        (record,) = records.values()
        assert record["value"] == 42
        assert runner.metrics.snapshot()["campaign.timeouts"]["value"] >= 1

    def test_siblings_survive_a_crashing_job(self, tmp_path):
        # one job crashes the pool; unrelated in-flight jobs must still
        # deliver their records after the rebuild
        c = Campaign(name="mixed")
        keys = [c.add(JobSpec(kind="noop", extra={"value": i}), target=True)
                for i in range(4)]
        crash = c.add(JobSpec(kind="noop", extra={"value": 99},
                              inject={"marker": str(tmp_path / "m"),
                                      "mode": "exit", "fail_times": 1}),
                      target=True)
        runner = CampaignRunner(store=MemoryStore(), jobs=2,
                                retry=fast_retry())
        records = runner.run(c)
        assert records[crash]["value"] == 99
        assert [records[k]["value"] for k in keys] == [0, 1, 2, 3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_failure_is_not_retried(self, monkeypatch, jobs):
        # dedup's pipeline needs 3 threads: a seeded job raising
        # ValueError raises it on every attempt, so it gets exactly one
        # and no backoff
        from repro.campaign import scheduler

        sleeps = []
        monkeypatch.setattr(scheduler.time, "sleep", sleeps.append)
        c = Campaign(name="deterministic")
        c.add(make_run_spec("dedup", n_threads=2, scale=0.2, seed=0,
                            profile=False), target=True)
        runner = CampaignRunner(store=MemoryStore(), jobs=jobs,
                                retry=RetryPolicy(max_attempts=3,
                                                  backoff=5.0))
        with pytest.raises(JobFailed, match="after 1 attempt") as info:
            runner.run(c)
        assert isinstance(info.value.cause, ValueError)
        assert sleeps == []
        assert runner.summary()["retries"] == 0

    @pytest.mark.parametrize("broken_at", [1, 3])
    def test_pool_broken_at_submit_is_rebuilt(self, monkeypatch, broken_at):
        # a worker SIGKILLed between two wait() calls breaks the pool, and
        # the next submit() raises before any future reports it.  At the
        # 1st submit nothing is in flight; at the 3rd two leaves are.
        from concurrent.futures.process import BrokenProcessPool

        submits = []

        class BreaksOnce:
            def __init__(self, inner):
                self.inner = inner

            def submit(self, *args, **kwargs):
                submits.append(1)
                if len(submits) == broken_at:
                    raise BrokenProcessPool(
                        "A child process terminated abruptly, the process "
                        "pool is not usable anymore")
                return self.inner.submit(*args, **kwargs)

            def shutdown(self, **kwargs):
                self.inner.shutdown(**kwargs)

        make_pool = CampaignRunner._new_pool
        monkeypatch.setattr(CampaignRunner, "_new_pool",
                            lambda self: BreaksOnce(make_pool(self)))
        pool = CampaignRunner(store=MemoryStore(), jobs=2)
        records = pool.run(sum_dag())
        serial = CampaignRunner(store=MemoryStore(), jobs=1).run(sum_dag())
        assert json.dumps(records, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)
        assert len(submits) == 5 + 1  # every job once, plus the refused one


class TestMidRunKills:
    """mode="kill_mid_run": the worker dies *inside* the simulation
    (via the repro.faults kill), and the scheduler's retry machinery
    recovers exactly as for a pre-work crash."""

    def _kill_spec(self, marker, fail_times, kill_mode="raise"):
        import dataclasses

        spec = make_run_spec("micro_sync", n_threads=2, scale=0.5,
                             seed=0, profile=True)
        return dataclasses.replace(spec, inject={
            "marker": str(marker), "mode": "kill_mid_run",
            "fail_times": fail_times, "after_samples": 2,
            "kill_mode": kill_mode,
        })

    def test_serial_kill_is_retried_until_success(self, tmp_path):
        marker = tmp_path / "attempts"
        c = Campaign(name="chaos-kill")
        c.add(self._kill_spec(marker, fail_times=2), target=True)
        runner = CampaignRunner(store=MemoryStore(), jobs=1,
                                retry=fast_retry())
        (record,) = runner.run(c).values()
        assert record["result"]["makespan"] > 0
        assert len(marker.read_text().splitlines()) == 2
        assert runner.summary()["retries"] == 2

    def test_killed_attempts_leave_no_partial_record(self, tmp_path):
        store = MemoryStore()
        c = Campaign(name="chaos-kill-2")
        spec = self._kill_spec(tmp_path / "m", fail_times=1)
        c.add(spec, target=True)
        CampaignRunner(store=store, jobs=1, retry=fast_retry()).run(c)
        # only the successful attempt's record is stored, and it is the
        # complete, uninjected run
        record = store.fetch(spec.key)
        assert record["result"]["faults"] == {}

    def test_pool_kill_exit_rebuilds_worker(self, tmp_path):
        marker = tmp_path / "attempts"
        c = Campaign(name="chaos-kill-pool")
        c.add(self._kill_spec(marker, fail_times=1, kill_mode="exit"),
              target=True)
        runner = CampaignRunner(store=MemoryStore(), jobs=2,
                                retry=fast_retry())
        (record,) = runner.run(c).values()
        assert record["result"]["makespan"] > 0


class TestRetryJitter:
    def test_deterministic_under_a_fixed_seed(self):
        a = RetryPolicy(backoff=1.0, seed=7).delay(2, token="job")
        b = RetryPolicy(backoff=1.0, seed=7).delay(2, token="job")
        assert a == b
        assert 0.0 <= a <= 2.0  # full jitter over the ceiling

    def test_tokens_decorrelate_concurrent_retriers(self):
        policy = RetryPolicy(backoff=1.0, seed=7)
        assert policy.delay(2, token="job-a") != \
            policy.delay(2, token="job-b")
        assert RetryPolicy(backoff=1.0, seed=1).delay(3, token="t") != \
            RetryPolicy(backoff=1.0, seed=2).delay(3, token="t")

    def test_jitter_off_restores_the_bare_ceiling(self):
        policy = RetryPolicy(backoff=0.5, factor=3.0, jitter=False)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.5
        assert policy.delay(3) == 4.5
