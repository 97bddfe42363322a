"""Crash-safe supervision tests: journal, breaker, admission, drain.

The journal tests mirror the store's durability suite (CRC framing,
torn-tail amputation, snapshot idempotence); the daemon tests kill the
process at named journal boundaries — deterministically for each
runtime boundary and property-based via Hypothesis — and assert the
service contract: no acked submission lost, pre-crash ids resolve after
restart, recovery is idempotent (a second restart changes no byte).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.store import CrashPoint, MemoryStore, ResultStore
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeDaemon,
    ServeError,
)
from repro.serve.daemon import build_task
from repro.serve.journal import (
    BOUNDARIES,
    JournalError,
    TaskJournal,
    TaskRecord,
)
from repro.serve.supervise import (
    CircuitBreaker,
    CircuitOpen,
    Draining,
    QueueFull,
    Supervisor,
)

#: one-job campaign so crash/recovery cycles stay fast
TINY = {"suite": "overhead", "workloads": ["micro_low_abort"],
        "n_threads": 2, "scale": 0.25, "seed": 0, "runs": 1, "drop": 0,
        "jobs": 1}

#: boundaries crossed while the daemon runs tasks (epoch fires only
#: during a recovery with unfinished work; snapshot only at close —
#: both get dedicated coverage in the chaos drill and below)
RUNTIME_BOUNDARIES = tuple(
    b for b in BOUNDARIES
    if not b.startswith(("journal-epoch", "journal-snapshot"))
    and not b.startswith("journal-failed"))


class DieAt:
    """One-shot crash hook for a named journal boundary."""

    def __init__(self, step: str) -> None:
        self.step = step
        self.died = False

    def __call__(self, step: str) -> None:
        if step == self.step and not self.died:
            self.died = True
            raise CrashPoint(step)


def _abandon(daemon: ServeDaemon) -> None:
    """Drop a crashed daemon the way ``kill -9`` would: every handle
    closed without flushing, nothing journaled, nothing snapshotted."""
    daemon._closed = True
    daemon._runners.shutdown(wait=False, cancel_futures=True)
    if daemon.journal is not None:
        daemon.journal._crash_hook = None
        if daemon.journal._fh is not None:
            daemon.journal._fh.close()
            daemon.journal._fh = None
    daemon.store._crash_hook = None
    if daemon.store._fh is not None:
        daemon.store._fh.close()
        daemon.store._fh = None


def _wait(cond, what: str, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, f"timed out: {what}"
        time.sleep(0.02)


def _settled(daemon: ServeDaemon) -> bool:
    tasks = daemon.registry.list()
    return bool(tasks) and all(t.finished for t in tasks)


def _disk_state(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# the journal file
# ---------------------------------------------------------------------------


class TestJournal:
    def test_roundtrip_folds_the_lifecycle(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.log")
        journal.recover()
        journal.append("accepted", task="c-1", suite="overhead",
                       doc={"suite": "overhead"}, submitted_at=1.0)
        journal.append("running", task="c-1", epoch=0, pid=42)
        journal.append("publishing", task="c-1")
        journal.append("done", task="c-1", summary={"jobs": 3},
                       finished_at=2.0)
        journal.append("accepted", task="c-2", suite="overhead",
                       doc={"suite": "overhead"}, submitted_at=3.0,
                       deadline=9.5)
        journal.append("running", task="c-2", epoch=0, pid=42)
        journal.close()

        state = TaskJournal(tmp_path / "j.log").recover()
        assert state.order == ["c-1", "c-2"]
        assert state.records["c-1"].state == "done"
        assert state.records["c-1"].summary == {"jobs": 3}
        assert state.records["c-1"].finished
        assert state.records["c-2"].state == "running"
        assert state.records["c-2"].deadline == 9.5
        assert state.records["c-2"].pid == 42
        assert [r.id for r in state.unfinished] == ["c-2"]
        assert state.stale_leases == 1
        assert state.torn_bytes == 0

    def test_torn_tail_amputated_and_newline_safe(self, tmp_path):
        path = tmp_path / "j.log"
        journal = TaskJournal(path)
        journal.recover()
        journal.append("accepted", task="c-1", suite="s", doc={},
                       submitted_at=0.0)
        journal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"c": 123, "j": {"seq": 2, "ty')

        fresh = TaskJournal(path)
        state = fresh.recover()
        assert state.order == ["c-1"]
        assert state.torn_bytes > 0
        assert path.read_bytes() == intact  # amputated in place
        # the repaired journal accepts appends on a clean line
        fresh.append("running", task="c-1", epoch=0, pid=1)
        fresh.close()
        again = TaskJournal(path).recover()
        assert again.records["c-1"].state == "running"

    def test_unterminated_tail_newline_terminated_on_recover(
            self, tmp_path):
        """A torn write can end exactly at the end of a complete
        record, missing only the newline.  Recover must terminate that
        line even though nothing needs truncating — otherwise the next
        append fuses two records and the following replay drops both,
        losing the acked, durable one."""
        path = tmp_path / "j.log"
        journal = TaskJournal(path)
        journal.recover()
        journal.append("accepted", task="c-1", suite="s", doc={},
                       submitted_at=0.0)
        journal.close()
        intact = path.read_bytes()
        path.write_bytes(intact.rstrip(b"\n"))  # drop only the \n

        fresh = TaskJournal(path)
        state = fresh.recover()
        assert state.order == ["c-1"]
        assert path.read_bytes() == intact  # newline restored
        fresh.append("running", task="c-1", epoch=0, pid=1)
        fresh.close()
        again = TaskJournal(path).recover()
        assert again.order == ["c-1"]  # nothing glued, nothing lost
        assert again.records["c-1"].state == "running"

    def test_crc_flip_contained_like_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.log"
        journal = TaskJournal(path)
        journal.recover()
        journal.append("accepted", task="c-1", suite="s", doc={},
                       submitted_at=0.0)
        journal.append("accepted", task="c-2", suite="s", doc={},
                       submitted_at=0.0)
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        flipped = lines[1].replace(b'"c-2"', b'"c-X"')  # payload != CRC
        path.write_bytes(lines[0] + flipped)

        state = TaskJournal(path).recover()
        assert state.order == ["c-1"]  # damage stops replay, first
        assert state.torn_bytes == len(flipped)

    def test_snapshot_is_deterministic_and_byte_stable(self, tmp_path):
        path = tmp_path / "j.log"
        journal = TaskJournal(path)
        journal.recover()
        journal.append("accepted", task="c-1", suite="s",
                       doc={"suite": "s"}, submitted_at=1.0)
        journal.append("running", task="c-1", epoch=1, pid=9)
        journal.append("done", task="c-1", summary={"jobs": 1},
                       finished_at=2.0)
        journal.append("epoch", epoch=1, pid=9, recovered=1, expired=1)
        folded = TaskJournal(path).recover()
        journal.snapshot(folded)
        journal.close()
        first = path.read_bytes()

        # snapshotting the recovered state again must be a no-op
        second_journal = TaskJournal(path)
        second_state = second_journal.recover()
        second_journal.snapshot(second_state)
        second_journal.close()
        assert path.read_bytes() == first
        assert second_state.records["c-1"].state == "done"
        assert second_state.epoch == 1

    def test_live_entries_and_snapshot_fold_alike(self, tmp_path):
        """A record in each state, journaled live through every state
        it passed and snapshotted, folds back to the same state both
        ways: TaskRecord.entry writes what _fold reads."""
        paths = {"accepted": (), "running": ("running",),
                 "publishing": ("running", "publishing"),
                 "done": ("running", "publishing", "done"),
                 "failed": ("running", "failed")}
        records = [TaskRecord(id=f"c-{i}", suite="overhead",
                              doc={"suite": "overhead", "seed": i},
                              state=state, submitted_at=float(i))
                   for i, state in enumerate(paths)]
        records[1].epoch, records[1].pid = 1, 7
        records[2].deadline = 9.5
        records[3].summary = {"jobs": 3}
        records[3].finished_at = records[4].finished_at = 20.0
        records[4].error = "boom"
        live = TaskJournal(tmp_path / "live.log")
        live.recover()
        for rec in records:
            for step in ("accepted", *paths[rec.state]):
                kind, fields = rec.entry(step)
                live.append(kind, **fields)
        live.append("epoch", epoch=1, pid=7, recovered=1, expired=1)
        live.close()
        folded = TaskJournal(tmp_path / "live.log").recover()
        snap = TaskJournal(tmp_path / "snap.log")
        snap.snapshot(folded)
        snap.close()
        again = TaskJournal(tmp_path / "snap.log").recover()
        expected = {rec.id: rec for rec in records}
        assert folded.records == again.records == expected
        assert folded.epoch == again.epoch == 1
        assert (folded.entries, again.entries) == (14, 10)

    def test_group_commit_under_contention(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.log")
        journal.recover()
        n = 24

        def submit(i: int) -> None:
            journal.append("accepted", task=f"c-{i}", suite="s",
                           doc={}, submitted_at=float(i))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert journal.appended == n
        # every append is durable, but group commit amortizes fsyncs
        assert journal.fsyncs <= n
        journal.close()
        state = TaskJournal(tmp_path / "j.log").recover()
        assert len(state.order) == n

    def test_append_after_close_raises(self, tmp_path):
        journal = TaskJournal(tmp_path / "j.log")
        journal.recover()
        journal.close()
        with pytest.raises(JournalError):
            journal.append("accepted", task="c-1", suite="s", doc={},
                           submitted_at=0.0)


# ---------------------------------------------------------------------------
# circuit breaker (fake clock: no sleeping)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, cooldown=30.0, clock=clock)
        assert br.state == "closed"
        br.record_failure()
        br.record_failure()
        assert br.allow()  # two failures: still closed
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.retry_after() == pytest.approx(30.0)

    def test_success_resets_the_failure_count(self):
        br = CircuitBreaker(threshold=2, clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.now = 10.0
        assert br.state == "half-open"
        assert br.allow()       # the single probe
        assert not br.allow()   # the door shuts behind it
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_failed_probe_restarts_the_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        br.record_failure()           # opens at t=0
        clock.now = 10.0
        assert br.allow()             # probe admitted
        clock.now = 12.0
        br.record_failure()           # probe failed: reopen at t=12
        assert br.state == "open"
        assert not br.allow()
        assert br.retry_after() == pytest.approx(10.0)
        clock.now = 22.0
        assert br.allow()


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(self):
        sup = Supervisor(None, max_queue=2)
        sup.admit("overhead", 1)  # below the cap: fine
        with pytest.raises(QueueFull) as err:
            sup.admit("overhead", 2)
        assert err.value.status == 429
        assert err.value.retry_after >= 1
        assert isinstance(err.value.retry_after, int)
        assert sup.rejected == 1

    def test_open_breaker_rejects_503(self):
        clock = FakeClock()
        sup = Supervisor(None, breaker_threshold=1, clock=clock)
        sup.breaker("overhead").record_failure()
        with pytest.raises(CircuitOpen) as err:
            sup.admit("overhead", 0)
        assert err.value.status == 503
        sup.admit("speedup", 0)  # breakers are per-suite

    def test_draining_rejects_everything(self):
        sup = Supervisor(None)
        sup.draining = True
        with pytest.raises(Draining):
            sup.admit("overhead", 0)

    def test_stats_shape(self):
        sup = Supervisor(None, max_queue=8)
        sup.breaker("overhead")
        doc = sup.stats(queue_depth=3)
        assert doc["queue_depth"] == 3
        assert doc["max_queue"] == 8
        assert doc["breakers"] == {"overhead": "closed"}
        assert doc["epoch"] == 0
        assert "journal" not in doc  # no journal attached


# ---------------------------------------------------------------------------
# backpressure + drain over live HTTP
# ---------------------------------------------------------------------------


def _occupy_queue(daemon: ServeDaemon, n: int) -> None:
    """Park n queued tasks in the registry without executing them."""
    for _ in range(n):
        daemon.registry.add(build_task(dict(TINY)))


@pytest.mark.slow
class TestHttpBackpressure:
    def test_429_with_retry_after_then_drain_503(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1,
                             max_queue=1)
        server = BackgroundServer(daemon)
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}")
            _occupy_queue(daemon, 1)  # the queue is now at capacity

            with pytest.raises(ServeError) as err:
                client.submit(dict(TINY))
            assert err.value.status == 429
            assert err.value.retry_after is not None  # header served
            assert err.value.retry_after >= 1

            stats = client.stats()
            assert stats["admission"]["rejected"] == 1
            assert stats["admission"]["queue_depth"] == 1
            assert stats["admission"]["max_queue"] == 1

            # unblock the queue, then drain
            daemon.registry.list()[0].state = "done"
            assert daemon.drain(timeout=5.0) is True
            with pytest.raises(ServeError) as err:
                client.submit(dict(TINY))
            assert err.value.status == 503
            assert "draining" in str(err.value).lower()
        finally:
            server.stop()
            daemon.close()

    def test_drain_endpoint_reports_clean(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}")
            doc = client.drain(timeout=5.0)
            assert doc == {"draining": True, "clean": True,
                           "queue_depth": 0}
            assert daemon.drained
        finally:
            server.stop()
            daemon.close()


# ---------------------------------------------------------------------------
# crash/recovery at journal boundaries
# ---------------------------------------------------------------------------


def _recover(root: Path) -> ServeDaemon:
    """Open a fresh daemon (no crash hook) and let recovery settle."""
    daemon = ServeDaemon(store=ResultStore(root),
                         runners=1, default_jobs=1)
    if daemon.registry.list():
        _wait(lambda: _settled(daemon), "recovery completion")
    return daemon


class TestSubmitUnwind:
    def test_failed_journal_append_frees_the_queue_slot(self, tmp_path):
        """A real I/O error from the journal append (not a simulated
        kill) means the submission was never acked — it must be
        unwound from the registry, not left 'queued' forever eating a
        queue slot and ratcheting the daemon toward blanket 429s."""
        def hook(step: str) -> None:
            if step == "journal-accepted":
                raise OSError("disk on fire")

        daemon = ServeDaemon(
            store=ResultStore(tmp_path / "store"),
            runners=1, default_jobs=1, journal_crash_hook=hook)
        try:
            with pytest.raises(OSError):
                daemon.submit(dict(TINY))
            assert daemon.queue_depth() == 0
            assert daemon.registry.list() == []
        finally:
            daemon.journal._crash_hook = None
            daemon.close()


@pytest.mark.slow
class TestDaemonCrashRecovery:
    def test_kill_mid_running_recovers_and_resumes(self, tmp_path):
        root = tmp_path / "store"
        hook = DieAt("journal-running-durable")
        daemon = ServeDaemon(store=ResultStore(root),
                             runners=1, default_jobs=1,
                             journal_crash_hook=hook)
        task = daemon.submit(dict(TINY))  # acked: must survive
        _wait(lambda: hook.died, "crash at journal-running-durable")
        _abandon(daemon)

        revived = _recover(root)
        try:
            recovered = revived.registry.get(task.id)
            assert recovered is not None, "acked submission lost"
            assert recovered.state == "done"
            assert recovered.recovered  # flagged in status_doc too
            assert recovered.status_doc()["recovered"] is True
            assert revived.supervisor.epoch == 1
            assert revived.supervisor.expired_leases == 1
            # the campaign's results are really in the store
            for key in recovered.campaign.targets:
                assert revived.store.fetch(key) is not None
        finally:
            revived.close()

    def test_clean_restart_is_a_byte_for_byte_noop(self, tmp_path):
        root = tmp_path / "store"
        daemon = ServeDaemon(store=ResultStore(root),
                             runners=1, default_jobs=1)
        daemon.submit(dict(TINY))
        _wait(lambda: _settled(daemon), "first run completion")
        daemon.close()
        before = _disk_state(root)
        assert any(n == TaskJournal.NAME for n in before)

        again = ServeDaemon(store=ResultStore(root),
                            runners=1, default_jobs=1)
        assert again.registry.list()[0].state == "done"
        again.close()
        assert _disk_state(root) == before

    def test_deadline_exceeded_fails_closed(self, tmp_path):
        root = tmp_path / "store"
        daemon = ServeDaemon(store=ResultStore(root),
                             runners=1, default_jobs=1)
        try:
            task = daemon.submit({**TINY, "deadline": 1e-6})
            _wait(lambda: task.finished, "doomed task settling")
            assert task.state == "failed"
            assert "deadline" in (task.error or "")
        finally:
            daemon.close()

    @given(boundary=st.sampled_from(RUNTIME_BOUNDARIES))
    @settings(max_examples=6, deadline=None)
    def test_no_acked_loss_at_any_boundary(self, tmp_path_factory,
                                           boundary):
        """The Hypothesis sweep: kill the daemon at an arbitrary
        runtime journal boundary; whatever was acked must resolve and
        finish after restart, and recovery must be idempotent."""
        root = tmp_path_factory.mktemp("boundary") / "store"
        hook = DieAt(boundary)
        daemon = ServeDaemon(store=ResultStore(root),
                             runners=1, default_jobs=1,
                             journal_crash_hook=hook)
        acked_id: str | None = None
        try:
            acked_id = daemon.submit(dict(TINY)).id
        except CrashPoint:
            acked_id = None  # submit crashed: no ack to honour
        if acked_id is not None:
            _wait(lambda: hook.died or _settled(daemon),
                  f"crash or completion at {boundary}")
        _abandon(daemon)

        revived = ServeDaemon(store=ResultStore(root),
                              runners=1, default_jobs=1)
        if revived.registry.list():
            _wait(lambda: _settled(revived),
                  f"recovery completion after {boundary}")
        if acked_id is not None:
            recovered = revived.registry.get(acked_id)
            assert recovered is not None, \
                f"acked submission lost at {boundary}"
            assert recovered.state == "done", \
                f"{boundary}: {recovered.state} ({recovered.error})"
        revived.close()

        # idempotence: another restart must not change a byte
        before = _disk_state(root)
        again = ServeDaemon(store=ResultStore(root),
                            runners=1, default_jobs=1)
        again.close()
        assert _disk_state(root) == before, \
            f"second restart after {boundary} rewrote files"
