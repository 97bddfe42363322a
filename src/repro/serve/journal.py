"""The crash-safe task journal behind the serve daemon.

Every accepted submission — and every state transition it makes
afterwards — is appended to one write-ahead journal file before the
in-memory registry learns about it (``accepted → running(lease) →
publishing → done | failed``).  A daemon that is SIGKILLed at any point
and restarted replays the journal, rebuilds its registry, expires the
dead process's leases, and resumes unfinished campaigns through the
content-addressed result store (republication is idempotent: finished
jobs are cache hits).

:class:`TaskRecord` is the one persisted shape of a task — the
registry's live tasks extend it — and :meth:`TaskRecord.entry` builds
every task entry, whether a live transition appends it or
:meth:`TaskJournal.snapshot` rewrites it; :meth:`TaskJournal._fold` is
the one reader.

Each line is a CRC frame ``{"c": <crc32>, "j": <entry>}`` in the line
format of :mod:`repro.campaign.durable`, which also reads it back:
replay stops at the first torn or CRC-failing line, truncates the file
to the intact prefix and newline-terminates it, so a flipped bit is
contained like a torn tail and the next append can never glue onto a
torn record.

Only what a client can observe is fsynced (:data:`SYNCED`):
``accepted``, before the HTTP ack, so an acked submission survives any
crash; ``done`` and ``failed``, so a state a client has seen as
terminal stays terminal; and ``epoch``.  ``running`` and ``publishing``
are written and flushed to the OS with no fsync of their own: a
``kill -9`` keeps them and the next fsync covers them.  Losing one to
power loss costs nothing a client saw — recovery re-runs the task as
cache hits, exactly as if the crash had come one step earlier.

Writes use group commit (LevelDB's write batch): concurrent appenders
enqueue their lines and whichever holds the file lock writes every
queued line at once.  An appender whose entry is in :data:`SYNCED`
returns only after an fsync that covered its bytes — its own, or a
leader's — never merely because another appender wrote them.

Crash boundaries: a test/chaos ``crash_hook`` fires at two named points
per transition — ``journal-<type>`` before the bytes reach the file
(the entry is lost with the process) and ``journal-<type>-durable``
once the append returns: after the fsync for a synced entry, after
the write for ``running`` and ``publishing`` (the entry survives a
process kill, everything in memory after it is lost) — plus
``journal-snapshot`` inside the compaction rewrite.
Raising :class:`~repro.campaign.store.CrashPoint` from the hook is the
in-process analogue of ``kill -9``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from ..campaign.durable import (
    decode,
    frame,
    fsync,
    read,
    repair_tail,
    rewrite,
    scan,
)

#: the journaled lifecycle, in order (terminal states last)
TASK_STATES = ("accepted", "running", "publishing", "done", "failed")
#: terminal journal states — a task here needs no recovery
FINAL_STATES = ("done", "failed")
#: a task waiting to run: ``accepted`` in the journal, ``queued`` in
#: the registry (both journal as ``accepted``)
WAITING = ("accepted", "queued")
#: entries fsynced before :meth:`TaskJournal.append` returns: the ack,
#: the terminal states a client may have seen, and the lease epoch
SYNCED = ("accepted", *FINAL_STATES, "epoch")

#: every named crash boundary the journal can die at: before the bytes
#: hit the file and after the append (fsynced or only written, per
#: :data:`SYNCED`), per transition, plus the snapshot rewrite.  The
#: chaos drill kills the daemon at each one of these.
BOUNDARIES: tuple[str, ...] = tuple(
    f"journal-{t}{suffix}"
    for t in (*TASK_STATES, "epoch")
    for suffix in ("", "-durable")
) + ("journal-snapshot",)


class JournalError(RuntimeError):
    """The journal file is unusable (not: torn — torn tails self-heal)."""


@dataclass
class TaskRecord:
    """One task as the journal remembers it (folded, last state wins).

    This is the one persisted shape of a task: the daemon's live
    :class:`~repro.serve.registry.CampaignTask` extends it, so the
    registry's tasks are what a snapshot writes.  A live task waits as
    ``queued``; the journal calls that state ``accepted``.
    """

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

    def entry(self, kind: str | None = None) -> tuple[str, dict]:
        """The journal entry recording this task in state ``kind``
        (default: its current state), as ``(type, fields)`` for
        :meth:`TaskJournal.append`.  Live transitions and
        :meth:`TaskJournal.snapshot` both write through this;
        :meth:`TaskJournal._fold` is its one reader."""
        kind = kind or self.state
        if kind in WAITING:
            fields: dict = {"task": self.id, "suite": self.suite,
                            "doc": self.doc,
                            "submitted_at": self.submitted_at}
            if self.deadline is not None:
                fields["deadline"] = self.deadline
            return "accepted", fields
        fields = {"task": self.id}
        if kind == "running":
            fields.update(epoch=self.epoch, pid=self.pid)
        elif kind == "done":
            fields.update(summary=self.summary,
                          finished_at=self.finished_at)
        elif kind == "failed":
            fields.update(error=self.error, finished_at=self.finished_at)
        return kind, fields


@dataclass
class JournalState:
    """What :meth:`TaskJournal.recover` found on disk."""

    epoch: int = 0
    #: task id -> record, in submission order
    records: dict[str, TaskRecord] = field(default_factory=dict)
    entries: int = 0
    torn_bytes: int = 0

    @property
    def order(self) -> list[str]:
        """Task ids in submission order."""
        return list(self.records)

    @property
    def unfinished(self) -> list[TaskRecord]:
        """Tasks needing recovery, in submission order."""
        return [rec for rec in self.records.values() if not rec.finished]

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
        self._pending: list[bytes] = []
        self._next_seq = 1
        #: every seq up to here is in the file (flushed to the OS)
        self._written_seq = 0
        #: every seq up to here is covered by an fsync
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
        found = scan(read(self.path), decode)
        repair_tail(self.path, found.valid)
        state = JournalState(torn_bytes=found.excess)
        entries = found.entries
        for entry in sorted(entries, key=lambda e: int(e.get("seq", 0))):
            seq = int(entry.get("seq", 0))
            self._next_seq = max(self._next_seq, seq + 1)
            self._fold(state, entry)
        state.entries = len(entries)
        self._written_seq = self._durable_seq = self._next_seq - 1
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
        """Append one transition; returns the stamped entry once it is
        in the file, and for a :data:`SYNCED` type once it is durable.

        Group commit: the entry is queued, then whichever appender gets
        the file lock first writes *every* queued entry at once.  An
        appender whose line another leader already wrote skips the
        write; it still fsyncs unless an fsync already covered it.
        """
        with self._mu:
            if self._closed:
                raise JournalError(f"journal {self.path} is closed")
            seq = self._next_seq
            self._next_seq += 1
            entry: dict = {"seq": seq, "type": entry_type, **fields}
            self._pending.append(frame(entry))
        self._crash(f"journal-{entry_type}")
        with self._io:
            with self._mu:
                batch = self._pending
                self._pending = []
                top = self._next_seq - 1 if batch else self._written_seq
                if len(batch) > 1:
                    self.group_commits += 1
            if self._fh is None:
                self._fh = self.path.open("ab")
            if batch:
                self._fh.write(b"".join(batch))
                self._fh.flush()
                with self._mu:
                    self._written_seq = top
            if entry_type in SYNCED and self._durable_seq < seq:
                # our line is in the file, by us or by an earlier
                # leader; only an fsync makes it durable
                fsync(self._fh)
                with self._mu:
                    self.fsyncs += 1
                    self._durable_seq = top
        with self._mu:
            self.appended += 1
        self._crash(f"journal-{entry_type}-durable")
        return entry

    # ------------------------------------------------------------ snapshot

    def snapshot(self, state: JournalState) -> None:
        """Compact the journal to the folded ``state`` (clean-shutdown
        path): per task, its ``accepted`` entry plus one entry for its
        current state; one trailing ``epoch`` entry.  Seq numbers are
        renumbered from 1, so snapshotting the same state twice is
        byte-for-byte idempotent — the restart-is-a-no-op invariant the
        chaos drill asserts.

        The rewrite is :func:`~repro.campaign.durable.rewrite` (temp
        file, fsync, rename, directory fsync): a crash inside it leaves
        either the old journal or the new one, never a mix.
        """
        entries: list[tuple[str, dict]] = []
        for rec in state.records.values():
            entries.append(rec.entry("accepted"))
            if rec.state not in WAITING:
                entries.append(rec.entry())
        if state.epoch:
            entries.append(("epoch", {"epoch": state.epoch}))
        lines = [frame({"seq": seq, "type": kind, **fields})
                 for seq, (kind, fields) in enumerate(entries, 1)]
        seq = len(lines)
        with self._io:
            self._crash("journal-snapshot")
            rewrite(self.path, b"".join(lines))
            if self._fh is not None:
                self._fh.close()  # the replaced file's handle
                self._fh = None
            with self._mu:
                self._next_seq = seq + 1
                self._written_seq = self._durable_seq = seq

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
