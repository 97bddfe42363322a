"""The on-disk, content-addressed result store: one append-only log.

Layout under the cache root (default ``.repro-cache/``)::

    records.log           every record, one CRC-framed line per write
    replay/<key>.rlog     content-addressed replay-log sidecars

Every record is one CRC-framed line of :mod:`repro.campaign.durable`
whose entry is ``{"seq": n, "key": h, "record": {...}}``;
``key`` is a :class:`JobSpec` content hash, so the store is
content-addressed — re-running an identical job lands on the same key
and is a cache hit.  ``seq`` totally orders writes and the store never
deletes, so the highest sequence number for a key is its record no
matter which line or file it is found in: the files on disk are the
whole ledger, and no manifest is kept.

The shape is Bitcask's:

* **writes** — :meth:`put` appends the record's line to the log and
  fsyncs *before* acknowledging, then points an in-memory index
  ``key -> (seq, offset, length)`` at it.
* **reads** — take the line's bytes from the log under the store mutex,
  so a compaction can never swap the file under a reader, and check
  its CRC; a replay sidecar is read with no lock held.
* **compaction** — :meth:`compact` writes the live records, sorted by
  key, to a temp file, fsyncs it and renames it over the log
  (:func:`~repro.campaign.durable.rewrite`), then prunes the sidecars
  no live record references.  It runs when asked (``--compact``) and
  after any write that leaves more superseded lines in the log than
  live ones.

Durability: no acknowledged write (one whose ``put`` returned) is ever
lost, because acknowledgement happens strictly after the fsync.  A torn
trailing line — the signature of a hard kill mid-append — is cut off on
open by the line scanner and tail repair of
:mod:`repro.campaign.durable` (shared with the serve task journal).  A
compaction that dies leaves the old log or the new one, both whole,
plus at most a stray temp file that scrub reports as an orphan.

Replay-log sidecars: a record carrying a ``replay_log`` (the
:mod:`repro.replay` observation stream of a profiled run) has the log
body split out into ``replay/<key>.rlog`` and the stored record keeps
only the ``replay`` reference.  Reads rehydrate transparently, so
callers see the same record shape whether the run was fresh or cached.

Legacy stores: a directory in the earlier LSM layout (``MANIFEST``,
``wal-*.log``, ``seg-*.jsonl``; framed or unframed lines) still opens.
Every record file on disk is read with
:func:`~repro.campaign.durable.decode`, the highest ``seq`` per key
wins, and the result is folded into the log by the same rewrite
compaction uses; only then are the legacy files unlinked.  The
MANIFEST holds no records, so it is simply removed.

The store is safe for concurrent use from many threads of one process
(the ``repro serve`` daemon's HTTP readers and campaign-runner writers
share one instance): one mutex, ``_mu``, guards the log handle and the
index.
"""

from __future__ import annotations

import os
import re
import threading
from collections.abc import Callable
from pathlib import Path
from typing import IO, TYPE_CHECKING

from .durable import (
    TMP_SUFFIX,
    damage_kind,
    decode,
    frame,
    fsync,
    read,
    reframe,
    repair_tail,
    rewrite,
    scan,
    sync_dir,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


class StoreError(RuntimeError):
    """The store directory is unusable or a record is damaged."""


class CrashPoint(BaseException):
    """Raised by a test-injected crash hook to abandon an operation
    mid-write, leaving partial on-disk state exactly as a hard kill
    would (see the crash-recovery property tests).  Derives from
    ``BaseException`` so production ``except Exception`` paths cannot
    absorb a simulated kill."""


#: files of the earlier LSM layout, folded into the log on open
_LEGACY_RE = re.compile(
    r"^(MANIFEST(\.tmp)?|wal-\d{8}\.log|seg-\d{8}\.jsonl)$")


def record_line(line: bytes) -> dict | None:
    """Decode one record line, ``{"seq": n, "key": h, "record":
    {...}}``; None unless all three are there with those types.
    Recovery, :meth:`ResultStore._read` and scrub all judge a line by
    this one decoder, so they reach one verdict."""
    entry = decode(line)
    if (entry is None or not isinstance(entry.get("seq"), int)
            or not isinstance(entry.get("key"), str)
            or not isinstance(entry.get("record"), dict)):
        return None
    return entry


class MemoryStore:
    """Dict-backed stand-in with the same interface (``--no-cache``)."""

    def __init__(self) -> None:
        self._data: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> None:
        return None

    def probe(self, key: str) -> bool:
        return key in self._data

    def fetch(self, key: str) -> dict | None:
        return self._data.get(key)

    def get(self, key: str) -> dict | None:
        record = self._data.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        self._data[key] = record

    def keys(self) -> list[str]:
        return list(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def compact(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def stats(self) -> dict:
        return {"backend": "memory", "records": len(self._data),
                "hits": self.hits, "misses": self.misses}


class ResultStore:
    """One append-only record log with an in-memory key index."""

    LOG = "records.log"
    REPLAY_DIR = "replay"

    def __init__(self, root: str | Path,
                 crash_hook: Callable[[str], None] | None = None) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: lines in the log made unreachable by a later write of their key
        self.superseded = 0
        self.compactions = 0
        #: the most recent :meth:`scrub` report (None until one runs)
        self.last_scrub: dict | None = None
        #: test-only: called at each durability boundary; raising
        #: :class:`CrashPoint` abandons the operation mid-write
        self._crash_hook = crash_hook
        # ---- guarded by _mu ----
        self._mu = threading.Lock()
        #: key -> (seq, offset, length) of its newest line in the log
        self._index: dict[str, tuple[int, int, int]] = {}
        self._next_seq = 1
        self._fh: IO[bytes] | None = None  # the log, opened on first use
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # pragma: no cover - depends on the fs
            raise StoreError(f"cannot create store at {self.root}: {exc}") \
                from exc
        self._recover()

    # ------------------------------------------------------------ recovery

    def _crash(self, step: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(step)

    def _recover(self) -> None:
        legacy = sorted(p for p in self.root.iterdir()
                        if _LEGACY_RE.match(p.name))
        if legacy:
            self._upgrade(legacy)
            return
        path = self.root / self.LOG
        found = scan(read(path), record_line)
        # cut a torn tail NOW: the next append would otherwise glue onto
        # it, and both the garbage and the new record would be lost
        repair_tail(path, found.valid)
        for offset, length, entry in found.lines:
            self._place(entry["key"], entry["seq"], offset, length)

    def _upgrade(self, legacy: list[Path]) -> None:
        """Fold a legacy store's record files — and a log left beside
        them by an upgrade that died — into the log, then unlink the
        legacy files.  A crash before the unlink only folds the same
        seqs again on the next open."""
        lines: dict[str, tuple[int, bytes]] = {}
        for path in [*legacy, self.root / self.LOG]:
            raw = read(path)
            for offset, length, entry in scan(raw, record_line).lines:
                key, seq = entry["key"], entry["seq"]
                self._next_seq = max(self._next_seq, seq + 1)
                if key not in lines or seq > lines[key][0]:
                    lines[key] = (seq, reframe(raw[offset:offset + length],
                                               entry))
        self._rewrite(lines)
        self._crash("legacy-unlink")
        for path in legacy:
            path.unlink(missing_ok=True)

    def _place(self, key: str, seq: int, offset: int, length: int) -> None:
        """Index one line of the log; the highest seq per key wins.
        Caller holds ``_mu``."""
        self._next_seq = max(self._next_seq, seq + 1)
        prev = self._index.get(key)
        if prev is not None:
            self.superseded += 1
            if prev[0] > seq:
                return
        self._index[key] = (seq, offset, length)

    # ------------------------------------------------------------- the log

    def _log(self) -> IO[bytes]:
        """The log, open for appends and positional reads.  Caller
        holds ``_mu``."""
        if self._fh is None:
            path = self.root / self.LOG
            created = not path.exists()
            self._fh = path.open("a+b")
            if created:
                sync_dir(self.root)  # the first acked put needs the name
        return self._fh

    def _line(self, offset: int, length: int) -> bytes:
        """Caller holds ``_mu``."""
        return os.pread(self._log().fileno(), length, offset)

    def _rewrite(self, lines: dict[str, tuple[int, bytes]]) -> None:
        """Make ``lines`` (key -> (seq, framed line)) the whole log,
        sorted by key, and index it.  Caller holds ``_mu``."""
        order = sorted(lines)
        self._crash("compact-write")
        rewrite(self.root / self.LOG,
                b"".join(lines[key][1] + b"\n" for key in order),
                lambda: self._crash("compact-rename"))
        if self._fh is not None:
            self._fh.close()  # the replaced file; reopened on next use
            self._fh = None
        self._index = {}
        offset = 0
        for key in order:
            seq, line = lines[key]
            self._index[key] = (seq, offset, len(line))
            offset += len(line) + 1
        self.superseded = 0

    # ------------------------------------------------------------- writing

    def _stash_replay(self, key: str, record: dict) -> dict:
        """Split an inline ``replay_log`` into its sidecar file."""
        if "replay_log" not in record:
            return record
        record = dict(record)
        text = record.pop("replay_log")
        rel = f"{self.REPLAY_DIR}/{key}.rlog"
        if isinstance(text, str):
            path = self.root / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            record["replay"] = rel
        return record

    def _resolve_replay(self, record: dict) -> dict:
        """Rehydrate a ``replay`` sidecar reference back inline."""
        rel = record.get("replay")
        if not isinstance(rel, str):
            return record
        record = dict(record)
        del record["replay"]
        try:
            record["replay_log"] = (self.root / rel).read_text()
        except OSError:
            pass  # sidecar lost: degrade to a record without a log
        return record

    def put(self, key: str, record: dict) -> None:
        """Durably store one record; returns only after the fsync."""
        with self._mu:
            record = self._stash_replay(key, record)
            seq = self._next_seq
            self._next_seq += 1
            line = frame({"seq": seq, "key": key, "record": record})
            fh = self._log()
            offset = fh.seek(0, os.SEEK_END)
            self._crash("log-append")
            fh.write(line)
            fsync(fh)
            # acknowledged: the record is durable in the log
            self._place(key, seq, offset, len(line) - 1)
            if self.superseded > len(self._index):
                self._compact()

    # ---------------------------------------------------------- compaction

    def compact(self) -> int:
        """Rewrite the log with only its live records, sorted by key,
        and prune orphaned replay sidecars.  Returns the superseded
        lines dropped."""
        with self._mu:
            return self._compact()

    def _compact(self) -> int:
        """Caller holds ``_mu``."""
        lines: dict[str, tuple[int, bytes]] = {}
        for key, (seq, offset, length) in self._index.items():
            line = self._line(offset, length)
            entry = record_line(line)
            # a line damaged since open: rewriting would lose its record
            if entry is None or entry["seq"] != seq:
                raise StoreError(f"corrupt record for {key[:12]} in "
                                 f"{self.LOG}@{offset}; not compacting")
            lines[key] = (seq, line)
        dropped = self.superseded
        self._rewrite(lines)
        self.compactions += 1
        # a superseded record's replay log is as dead as the record
        for path in (self.root / self.REPLAY_DIR).glob("*.rlog"):
            if path.stem not in lines:
                path.unlink(missing_ok=True)
        return dropped

    # ------------------------------------------------------------- reading

    def probe(self, key: str) -> bool:
        """Presence test that does not touch the hit/miss counters."""
        with self._mu:
            return key in self._index

    def _read(self, key: str) -> dict | None:
        with self._mu:
            loc = self._index.get(key)
            if loc is None:
                return None
            line = self._line(loc[1], loc[2])
        doc = record_line(line)
        if doc is None:
            raise StoreError(f"corrupt record for {key[:12]} in "
                             f"{self.LOG}@{loc[1]}")
        return self._resolve_replay(doc["record"])

    def fetch(self, key: str) -> dict | None:
        """Read without touching the hit/miss counters (plumbing reads:
        dependency handoff, target delivery)."""
        return self._read(key)

    def get(self, key: str) -> dict | None:
        record = self._read(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def keys(self) -> list[str]:
        with self._mu:
            return list(self._index)

    def __contains__(self, key: str) -> bool:
        return self.probe(key)

    def __len__(self) -> int:
        with self._mu:
            return len(self._index)

    def close(self) -> None:
        """Release the log handle; every write is already durable, and
        a later call reopens it."""
        with self._mu:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # --------------------------------------------------------------- scrub

    def scrub(self) -> dict:
        """Verify every on-disk structure (read-only) and cache the
        report for :meth:`stats`/:meth:`export_metrics`.

        Runs the walk of :func:`scrub_files` under the store mutex, so
        no append is half-written while it reads.  Repair (truncating,
        quarantining) is the offline CLI's job — ``repro store scrub
        --repair`` against a drained store — never a live store's.
        """
        with self._mu:
            report = scrub_files(self.root)
            self.last_scrub = report
        return report

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Operational snapshot: records, log size, superseded lines,
        hit/miss and compaction totals, and the last scrub."""
        with self._mu:
            try:
                log_bytes = (self.root / self.LOG).stat().st_size
            except FileNotFoundError:
                log_bytes = 0
            return {
                "backend": "disk",
                "root": str(self.root),
                "records": len(self._index),
                "log_bytes": log_bytes,
                "superseded": self.superseded,
                "hits": self.hits,
                "misses": self.misses,
                "compactions": self.compactions,
                "scrub": (None if self.last_scrub is None
                          else self.last_scrub["summary"]),
            }

    def export_metrics(self, registry: MetricsRegistry,
                       st: dict | None = None) -> None:
        """Surface :meth:`stats` — or ``st``, a snapshot of it the
        caller already took — through an obs metrics registry (the
        daemon scrapes this on every ``/v1/stats`` hit)."""
        st = self.stats() if st is None else st
        g = registry.gauge
        g("store.records").set(st["records"])
        g("store.log.bytes").set(st["log_bytes"])
        g("store.superseded").set(st["superseded"])
        g("store.hits").set(st["hits"])
        g("store.misses").set(st["misses"])
        g("store.compactions").set(st["compactions"])
        if st["scrub"] is not None:
            for name, value in sorted(st["scrub"].items()):
                g(f"store.scrub.{name}").set(value)


# --------------------------------------------------------------- scrubbing


def _quarantine(root: Path, name: str) -> None:
    target = root / "quarantine" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    (root / name).replace(target)


def scrub_files(root: str | Path, repair: bool = False) -> dict:
    """Walk a store directory and verify every on-disk structure.

    Checks, without opening a live store, every line with
    :func:`~repro.campaign.durable.decode` — the per-line CRC check
    recovery applies, so a flipped bit that still parses as JSON counts
    as damage here too:

    * **record log** — and any legacy ``wal-*.log``/``seg-*.jsonl`` the
      next open will fold: each line also passes :func:`record_line`'s
      shape check, as recovery and reads require;
    * **task journal** and a legacy **MANIFEST** — intact lines all the
      way down;
    * **temp files** — a ``*.tmp`` is an *orphan*, left by a rewrite
      that died before its rename (its content is in the live file or
      was never acknowledged);
    * **replay sidecars** — each ``replay/*.rlog`` passes the replay
      reader's per-line CRC + manifest-digest verification (sidecars
      are written whole, so an incomplete one is corrupt, not torn).

    With ``repair=True``, a damaged line file is truncated to its valid
    prefix (exactly what recovery would do; for a ``corrupt`` file that
    drops the intact records after the bad line), and corrupt sidecars
    and orphans are moved to ``<root>/quarantine/`` — never deleted.
    Run repair only against a drained store.

    Returns a report dict whose ``summary`` block is what
    ``stats()``/obs metrics surface; ``report["clean"]`` means no
    torn, corrupt or orphaned file was found.
    """
    root = Path(root)
    report: dict = {"root": str(root), "files": {}, "summary": {}}
    torn = corrupt = orphans = repaired = records = 0

    def check(path: Path, reader: Callable[[bytes], dict | None]) -> int:
        """Scan one line file as its own recovery does, so scrub
        reaches the same verdict; returns its intact line count."""
        nonlocal torn, corrupt, repaired
        raw = read(path)
        found = scan(raw, reader)
        state = "ok"
        if found.excess:
            state = damage_kind(raw[found.valid:], decode)
            if state == "torn":
                torn += 1
            else:
                corrupt += 1
            if repair:
                # truncation to the valid prefix is exactly the
                # recovery-time repair; do it for torn tails AND
                # mid-file corruption (the damaged suffix is unreadable
                # to every reader anyway)
                repair_tail(path, found.valid)
                repaired += 1
        report["files"][path.name] = {"state": state,
                                      "records": len(found.lines),
                                      "valid_bytes": found.valid,
                                      "excess_bytes": found.excess}
        return len(found.lines)

    for path in sorted(root.iterdir()):
        if path.name.endswith(TMP_SUFFIX):
            orphans += 1
            report["files"][path.name] = {"state": "orphan"}
            if repair:
                _quarantine(root, path.name)
                repaired += 1
        elif path.name in ("MANIFEST", "serve-journal.log"):
            check(path, decode)
        elif path.name == ResultStore.LOG or _LEGACY_RE.match(path.name):
            records += check(path, record_line)
    replay_dir = root / ResultStore.REPLAY_DIR
    sidecars = 0
    if replay_dir.is_dir():
        from ..replay.log import ReplayFormatError, load_replay

        for path in sorted(replay_dir.glob("*.rlog")):
            sidecars += 1
            name = f"{ResultStore.REPLAY_DIR}/{path.name}"
            try:
                log = load_replay(path)
                ok = log.complete
            except ReplayFormatError:
                ok = False
            if ok:
                report["files"][name] = {"state": "ok"}
                continue
            corrupt += 1
            report["files"][name] = {"state": "corrupt"}
            if repair:
                _quarantine(root, name)
                repaired += 1
    report["summary"] = {
        "files": len(report["files"]),
        "records": records,
        "sidecars": sidecars,
        "torn": torn,
        "corrupt": corrupt,
        "orphans": orphans,
        "repaired": repaired,
    }
    report["clean"] = corrupt == 0 and orphans == 0 and torn == 0
    return report
