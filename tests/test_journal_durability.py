"""Which task-journal entries are fsynced, and what a kill keeps.

``accepted``, ``done``, ``failed`` and ``epoch`` are fsynced before
:meth:`TaskJournal.append` returns; ``running`` and ``publishing`` are
only written and flushed to the OS.  These tests pin the fsync count of
a whole campaign, the group-commit rule that a written line is not yet
a durable one, and that every transition survives a kill right after
its append returns.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.campaign.durable import read, scan, unframe
from repro.campaign.store import CrashPoint, ResultStore
from repro.serve import ServeDaemon, journal as journal_mod
from repro.serve.journal import SYNCED, TASK_STATES, TaskJournal

#: the smallest campaign that walks the whole lifecycle
SUBMISSION = {"suite": "overhead", "workloads": ["micro_low_abort"],
              "n_threads": 2, "scale": 0.25, "seed": 0, "runs": 1,
              "drop": 0, "jobs": 1}

ACCEPTED = {"task": "c-000001", "suite": "overhead", "doc": {},
            "submitted_at": 1.0}

#: the appends leading up to (and including) each journal entry type
LIFECYCLE = {
    "accepted": [("accepted", ACCEPTED)],
    "running": [("accepted", ACCEPTED),
                ("running", {"task": "c-000001", "epoch": 0, "pid": 7})],
    "publishing": [("accepted", ACCEPTED),
                   ("running", {"task": "c-000001", "epoch": 0,
                                "pid": 7}),
                   ("publishing", {"task": "c-000001"})],
    "done": [("accepted", ACCEPTED),
             ("running", {"task": "c-000001", "epoch": 0, "pid": 7}),
             ("publishing", {"task": "c-000001"}),
             ("done", {"task": "c-000001", "summary": {"jobs": 1},
                       "finished_at": 2.0})],
    "failed": [("accepted", ACCEPTED),
               ("running", {"task": "c-000001", "epoch": 0, "pid": 7}),
               ("failed", {"task": "c-000001", "error": "boom",
                           "finished_at": 2.0})],
    "epoch": [("epoch", {"epoch": 1, "pid": 7, "recovered": 0,
                         "expired": 0})],
}


def test_synced_types_are_the_client_visible_ones():
    assert set(SYNCED) == {"accepted", "done", "failed", "epoch"}
    assert set(LIFECYCLE) == {*TASK_STATES, "epoch"}


def test_a_campaign_costs_two_fsyncs(tmp_path):
    """``accepted`` and ``done`` are fsynced; ``running`` and
    ``publishing`` ride along without a sync of their own."""
    n = 3
    daemon = ServeDaemon(store=ResultStore(tmp_path),
                         runners=1, default_jobs=1)
    try:
        for _ in range(n):
            task = daemon.submit(dict(SUBMISSION))
            deadline = time.monotonic() + 120
            while not task.finished:
                assert time.monotonic() < deadline, task.state
                time.sleep(0.01)
            assert task.state == "done"
        assert daemon.journal is not None
        stats = daemon.journal.stats()
        assert stats["appended"] == 4 * n
        assert stats["fsyncs"] == 2 * n
    finally:
        daemon.close()


def test_accepted_written_by_a_running_leader_still_fsyncs(tmp_path,
                                                           monkeypatch):
    """An ``accepted`` appender pauses before its write; a ``running``
    appender then leads and writes both lines without an fsync.  The
    ``accepted`` appender may reach its durable boundary only after an
    fsync that covered its bytes."""
    synced_sizes: list[int] = []
    real_fsync = journal_mod.fsync

    def spy(fh):
        real_fsync(fh)
        synced_sizes.append(os.fstat(fh.fileno()).st_size)

    monkeypatch.setattr(journal_mod, "fsync", spy)
    queued = threading.Event()
    release = threading.Event()
    seen_at_durable: list[list[int]] = []

    def hook(step: str) -> None:
        if step == "journal-accepted":
            queued.set()
            assert release.wait(10)
        elif step == "journal-accepted-durable":
            seen_at_durable.append(list(synced_sizes))

    path = tmp_path / TaskJournal.NAME
    journal = TaskJournal(path, crash_hook=hook)
    journal.recover()
    errors: list[BaseException] = []

    def accept() -> None:
        try:
            journal.append("accepted", **ACCEPTED)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    follower = threading.Thread(target=accept)
    follower.start()
    try:
        assert queued.wait(10)
        journal.append("running", task="c-000001", epoch=0, pid=7)
        # the leader wrote both lines and synced neither
        on_disk = scan(read(path), unframe)
        assert [e["type"] for e in on_disk.entries] == ["accepted",
                                                        "running"]
        assert synced_sizes == []
    finally:
        release.set()
        follower.join(10)
    assert not follower.is_alive() and not errors
    accepted_end = on_disk.lines[0][0] + on_disk.lines[0][1] + 1
    assert len(seen_at_durable) == 1
    assert seen_at_durable[0], "accepted returned with no fsync"
    assert max(seen_at_durable[0]) >= accepted_end
    assert journal.stats()["fsyncs"] == 1
    journal.close()


def test_concurrent_accepts_share_one_fsync(tmp_path):
    """Group commit still groups: an ``accepted`` line fsynced by
    another appender's sync returns without a second one."""
    release = threading.Event()
    queued = threading.Event()

    def hook(step: str) -> None:
        if (step == "journal-accepted"
                and threading.current_thread().name == "second"):
            queued.set()
            assert release.wait(10)

    journal = TaskJournal(tmp_path / TaskJournal.NAME, crash_hook=hook)
    journal.recover()
    second = threading.Thread(
        target=journal.append, args=("accepted",), name="second",
        kwargs={**ACCEPTED, "task": "c-000002"})
    second.start()
    try:
        assert queued.wait(10)
        journal.append("accepted", **ACCEPTED)
    finally:
        release.set()
        second.join(10)
    assert not second.is_alive()
    stats = journal.stats()
    assert stats["appended"] == 2
    assert stats["fsyncs"] == 1
    assert stats["group_commits"] == 1
    journal.close()


class _DieAt:
    def __init__(self, step: str) -> None:
        self.step = step

    def __call__(self, step: str) -> None:
        if step == self.step:
            raise CrashPoint(step)


@pytest.mark.parametrize("kind", sorted(LIFECYCLE))
def test_every_transition_survives_a_kill_after_its_write(tmp_path,
                                                          kind):
    """A kill at ``journal-<kind>-durable`` keeps the entry: whatever
    the process had handed to the OS is what recovery reads."""
    path = tmp_path / TaskJournal.NAME
    journal = TaskJournal(path, crash_hook=_DieAt(f"journal-{kind}-durable"))
    journal.recover()
    with pytest.raises(CrashPoint):
        for entry_type, fields in LIFECYCLE[kind]:
            journal.append(entry_type, **fields)
    # kill -9: the file as the OS holds it, with the handle never closed
    after_kill = tmp_path / "after-kill.log"
    after_kill.write_bytes(path.read_bytes())
    state = TaskJournal(after_kill).recover()
    assert state.torn_bytes == 0
    if kind == "epoch":
        assert state.epoch == 1
    else:
        assert state.records["c-000001"].state == kind
    journal.close()


def test_group_commit_under_contention_loses_and_overstates_nothing(
        tmp_path):
    """Many appenders on few cores, with the interpreter switching
    threads often: every line lands once, in seq order, and no synced
    appender returns before an fsync covered it."""
    path = tmp_path / TaskJournal.NAME
    journal = TaskJournal(path)
    journal.recover()
    threads, per_thread = 8, 25
    errors: list[str] = []

    def appender(t: int) -> None:
        for k in range(per_thread):
            kind = "accepted" if k % 2 == 0 else "running"
            entry = journal.append(kind, task=f"c-{t}-{k}")
            if kind in SYNCED and journal._durable_seq < entry["seq"]:
                errors.append(f"seq {entry['seq']} returned unsynced")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=appender, args=(t,))
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    seqs = [e["seq"] for e in scan(read(path), unframe).entries]
    total = threads * per_thread
    assert seqs == list(range(1, total + 1))
    stats = journal.stats()
    assert stats["appended"] == total
    assert 1 <= stats["fsyncs"] <= total // 2
    journal.close()


def test_snapshot_rename_is_made_durable(tmp_path, monkeypatch):
    """The snapshot goes through ``durable.rewrite``: the new journal
    is fsynced, renamed into place, and the directory fsynced."""
    from repro.campaign import durable

    path = tmp_path / TaskJournal.NAME
    journal = TaskJournal(path)
    journal.recover()
    for entry_type, fields in LIFECYCLE["done"]:
        journal.append(entry_type, **fields)
    synced: list[bool] = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.path.isdir(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(durable.os, "fsync", spy)
    journal.snapshot(TaskJournal(path).recover())
    journal.close()
    assert synced == [False, True]
    assert sorted(p.name for p in tmp_path.iterdir()) == [TaskJournal.NAME]
    assert TaskJournal(path).recover().records["c-000001"].state == "done"
