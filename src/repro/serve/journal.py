"""The crash-safe task journal behind the serve daemon.

Every accepted submission — and every state transition it makes
afterwards — is appended to one write-ahead journal file before the
in-memory registry learns about it (``accepted → running(lease) →
publishing → done | failed``).  A daemon that is SIGKILLed at any point
and restarted replays the journal, rebuilds its registry, expires the
dead process's leases, and resumes unfinished campaigns through the
content-addressed result store (republication is idempotent: finished
jobs are cache hits).

Each line is a CRC frame ``{"c": <crc32>, "j": <entry>}`` in the line
format of :mod:`repro.campaign.durable`, which also reads it back:
replay stops at the first torn or CRC-failing line, truncates the file
to the intact prefix and newline-terminates it, so a flipped bit is
contained like a torn tail and the next append can never glue onto a
torn record.  Writes use group commit: concurrent appenders enqueue
their entries and one leader writes the whole batch under a single
``fsync``; every appender still returns only after *its* entry is
durable.  One transition, one fsync — amortized under load.

Crash boundaries: a test/chaos ``crash_hook`` fires at two named points
per transition — ``journal-<type>`` before the bytes reach the file
(the entry is lost with the process) and ``journal-<type>-durable``
after the fsync (the entry survives, everything in memory after it is
lost) — plus ``journal-snapshot`` inside the compaction rewrite.
Raising :class:`~repro.campaign.store.CrashPoint` from the hook is the
in-process analogue of ``kill -9``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from ..campaign.durable import frame, fsync, read, repair_tail, scan, unframe

#: the journaled lifecycle, in order (terminal states last)
TASK_STATES = ("accepted", "running", "publishing", "done", "failed")
#: terminal journal states — a task here needs no recovery
FINAL_STATES = ("done", "failed")

#: every named crash boundary the journal can die at: before the bytes
#: hit the file and after the fsync, per transition, plus the snapshot
#: rewrite.  The chaos drill kills the daemon at each one of these.
BOUNDARIES: tuple[str, ...] = tuple(
    f"journal-{t}{suffix}"
    for t in (*TASK_STATES, "epoch")
    for suffix in ("", "-durable")
) + ("journal-snapshot",)


class JournalError(RuntimeError):
    """The journal file is unusable (not: torn — torn tails self-heal)."""


@dataclass
class TaskRecord:
    """One task as the journal remembers it (folded, last state wins)."""

    id: str
    suite: str
    doc: dict
    state: str = "accepted"
    epoch: int = 0          # lease epoch of the last `running` entry
    pid: int | None = None  # owner of that lease
    error: str | None = None
    summary: dict | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    deadline: float | None = None  # wall-clock budget in seconds

    @property
    def finished(self) -> bool:
        return self.state in FINAL_STATES


@dataclass
class JournalState:
    """What :meth:`TaskJournal.recover` found on disk."""

    epoch: int = 0
    records: dict[str, TaskRecord] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    entries: int = 0
    torn_bytes: int = 0

    @property
    def unfinished(self) -> list[TaskRecord]:
        """Tasks needing recovery, in submission order."""
        return [self.records[tid] for tid in self.order
                if not self.records[tid].finished]

    @property
    def stale_leases(self) -> int:
        """Leases owned by a dead epoch (every unfinished ``running``
        task — the restart itself proves the owner died)."""
        return sum(1 for rec in self.unfinished
                   if rec.state in ("running", "publishing"))


class TaskJournal:
    """Append-only, CRC-framed, group-committed task lifecycle log."""

    #: file name under the store root
    NAME = "serve-journal.log"

    def __init__(self, path: str | Path,
                 crash_hook: Callable[[str], None] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: test/chaos only: called at each named boundary; raising
        #: CrashPoint abandons the append exactly like a hard kill
        self._crash_hook = crash_hook
        self._mu = threading.Lock()      # seq + pending queue
        self._io = threading.Lock()      # the file handle
        self._fh: IO[bytes] | None = None
        self._pending: list[tuple[int, bytes]] = []
        self._next_seq = 1
        self._durable_seq = 0
        self._closed = False
        # ---- telemetry (stats()) ----
        self.appended = 0
        self.fsyncs = 0
        self.group_commits = 0

    # ------------------------------------------------------------ plumbing

    def _crash(self, step: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(step)

    # ------------------------------------------------------------ recovery

    def recover(self) -> JournalState:
        """Replay the journal into a folded :class:`JournalState`,
        repairing any torn tail in place.  Safe to call exactly once,
        before the first append."""
        found = scan(read(self.path), unframe)
        repair_tail(self.path, found.valid)
        state = JournalState(torn_bytes=found.excess)
        entries = found.entries
        for entry in sorted(entries, key=lambda e: int(e.get("seq", 0))):
            seq = int(entry.get("seq", 0))
            self._next_seq = max(self._next_seq, seq + 1)
            self._fold(state, entry)
        state.entries = len(entries)
        self._durable_seq = self._next_seq - 1
        return state

    @staticmethod
    def _fold(state: JournalState, entry: dict) -> None:
        kind = entry.get("type")
        if kind == "epoch":
            state.epoch = max(state.epoch, int(entry.get("epoch", 0)))
            return
        task_id = entry.get("task")
        if not isinstance(task_id, str):
            return
        if kind == "accepted":
            if task_id in state.records:
                return  # duplicate accept: first one wins
            doc = entry.get("doc")
            suite = entry.get("suite")
            if not isinstance(doc, dict) or not isinstance(suite, str):
                return
            deadline = entry.get("deadline")
            state.records[task_id] = TaskRecord(
                id=task_id, suite=suite, doc=doc,
                submitted_at=float(entry.get("submitted_at", 0.0)),
                deadline=float(deadline) if isinstance(
                    deadline, (int, float)) else None,
            )
            state.order.append(task_id)
            return
        rec = state.records.get(task_id)
        if rec is None or kind not in TASK_STATES:
            return  # transition for a task we never saw accepted
        rec.state = str(kind)
        if kind == "running":
            rec.epoch = int(entry.get("epoch", 0))
            pid = entry.get("pid")
            rec.pid = int(pid) if isinstance(pid, int) else None
        elif kind == "done":
            summary = entry.get("summary")
            rec.summary = summary if isinstance(summary, dict) else None
            rec.finished_at = float(entry.get("finished_at", 0.0))
        elif kind == "failed":
            rec.error = str(entry.get("error", ""))
            rec.finished_at = float(entry.get("finished_at", 0.0))

    # ------------------------------------------------------------- writing

    def append(self, entry_type: str, **fields: object) -> dict:
        """Durably append one transition; returns the stamped entry.

        Group commit: the entry is queued, then whichever appender gets
        the file lock first writes *every* queued entry under one
        fsync.  Latecomers whose entry was covered by another leader's
        fsync return without touching the file at all.
        """
        with self._mu:
            if self._closed:
                raise JournalError(f"journal {self.path} is closed")
            seq = self._next_seq
            self._next_seq += 1
            entry: dict = {"seq": seq, "type": entry_type, **fields}
            self._pending.append((seq, frame(entry)))
        self._crash(f"journal-{entry_type}")
        with self._io:
            with self._mu:
                if self._durable_seq >= seq:
                    batch = []  # a concurrent leader already flushed us
                else:
                    batch = [line for _, line in self._pending]
                    top = max(s for s, _ in self._pending)
                    if len(batch) > 1:
                        self.group_commits += 1
                    self._pending.clear()
            if batch:
                if self._fh is None:
                    self._fh = self.path.open("ab")
                self._fh.write(b"".join(batch))
                fsync(self._fh)
                with self._mu:
                    self.fsyncs += 1
                    self._durable_seq = max(self._durable_seq, top)
        with self._mu:
            self.appended += 1
        self._crash(f"journal-{entry_type}-durable")
        return entry

    # ------------------------------------------------------------ snapshot

    def snapshot(self, state: JournalState) -> None:
        """Compact the journal to the folded ``state`` (clean-shutdown
        path): per task, its ``accepted`` entry plus one entry for its
        current state; one trailing ``epoch`` entry.  Original seq
        numbers are preserved, so snapshotting the same state twice is
        byte-for-byte idempotent — the restart-is-a-no-op invariant the
        chaos drill asserts.

        The rewrite is atomic (tmp + fsync + rename): a crash inside it
        leaves either the old journal or the new one, never a mix.
        """
        lines: list[bytes] = []
        seq = 0
        for task_id in state.order:
            rec = state.records[task_id]
            seq += 1
            accepted: dict = {"seq": seq, "type": "accepted",
                              "task": rec.id, "suite": rec.suite,
                              "doc": rec.doc,
                              "submitted_at": rec.submitted_at}
            if rec.deadline is not None:
                accepted["deadline"] = rec.deadline
            lines.append(frame(accepted))
            if rec.state == "accepted":
                continue
            seq += 1
            entry: dict = {"seq": seq, "type": rec.state, "task": rec.id}
            if rec.state == "running":
                entry.update(epoch=rec.epoch, pid=rec.pid)
            elif rec.state == "done":
                entry.update(summary=rec.summary,
                             finished_at=rec.finished_at)
            elif rec.state == "failed":
                entry.update(error=rec.error,
                             finished_at=rec.finished_at)
            lines.append(frame(entry))
        if state.epoch:
            seq += 1
            lines.append(frame({"seq": seq, "type": "epoch",
                                  "epoch": state.epoch}))
        tmp = self.path.with_suffix(".tmp")
        with self._io:
            self._crash("journal-snapshot")
            with tmp.open("wb") as fh:
                fh.write(b"".join(lines))
                fsync(fh)
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            tmp.replace(self.path)
            with self._mu:
                self._next_seq = seq + 1
                self._durable_seq = seq

    # ------------------------------------------------------------- queries

    def stats(self) -> dict:
        with self._mu:
            return {
                "path": str(self.path),
                "next_seq": self._next_seq,
                "appended": self.appended,
                "fsyncs": self.fsyncs,
                "group_commits": self.group_commits,
            }

    def close(self) -> None:
        with self._io, self._mu:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None
