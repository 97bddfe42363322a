"""The on-disk, content-addressed result store (LSM shape).

Layout under the cache root (default ``.repro-cache/``)::

    MANIFEST              write-ahead ledger (CRC-framed lines)
    wal-00000001.log      write-ahead log of unflushed records
    seg-00000001.jsonl    immutable sorted record segments (framed lines)
    seg-00000002.jsonl
    replay/<key>.rlog     content-addressed replay-log sidecars

Every record is one CRC-framed line of :mod:`repro.campaign.durable`
whose entry is ``{"seq": n, "key": h, "record": {...}}``;
``key`` is a :class:`JobSpec` content hash, so the store is
content-addressed — re-running an identical job lands on the same key
and is a cache hit.  ``seq`` totally orders writes, which makes recovery
order-insensitive: the highest sequence number for a key wins no matter
which file it is found in.

The write path is LSM-shaped (the LevelDB recipe):

* **memtable + WAL** — :meth:`put` appends the encoded record to the
  current WAL (flush + fsync *before* acknowledging) and installs it in
  an in-memory memtable; :meth:`put_batch` groups many records under a
  single fsync (write-batch grouping).
* **flush** — when the memtable exceeds ``segment_bytes`` it is swapped
  for an empty one (writers continue immediately on a fresh WAL) and
  the immutable memtable is written out as a *sorted* level-0 segment;
  the segment is manifested before the WALs that covered it are
  dropped, so a crash at any byte offset replays cleanly.
* **leveled compaction** — when a level accumulates ``level_trigger``
  segments they are folded (newest ``seq`` per key wins) into one
  sorted segment at the next level; superseded records die on the way.
* **reference-counted segments** — readers pin the segment they are
  about to read; compaction retires input segments to a zombie list and
  the last reader's unpin unlinks them, so a reader holding a segment
  reference is never blocked or corrupted by a concurrent compaction.
* **single background worker** — with ``background=True`` one worker
  thread (coordinated by a condition variable) performs flushes and
  compactions off the write path; otherwise they run inline on the
  writing thread, which keeps the CLI path deterministic.

Locking: ``_mu`` is the coarse metadata mutex (memtable, index, segment
lists, refcounts) and is only ever held briefly; ``_maint_mu``
serializes the segment-producing maintenance operations (flush,
compaction) and is never acquired while holding ``_mu``; ``_manifest_mu``
guards manifest appends.  Reads copy the record location and pin the
segment under ``_mu``, then do file I/O with no lock held.

Durability is crash-tolerant in the append-only style the store has
always had: the manifest is written (flushed + fsynced) *before* a data
file goes live; a torn trailing line — the signature of a hard kill
mid-append — is detected on replay and amputated, for the manifest,
segments and WAL alike, by the line scanner and tail repair of
:mod:`repro.campaign.durable` (shared with the serve task journal); and
no acknowledged write (one whose ``put``/``put_batch`` returned) is
ever lost, because acknowledgement happens strictly after the WAL fsync.

Replay-log sidecars: a record carrying a ``replay_log`` (the
:mod:`repro.replay` observation stream of a profiled run) has the log
body split out into ``replay/<key>.rlog`` and the stored record keeps
only the ``replay`` reference.  Reads rehydrate transparently, so
callers see the same record shape whether the run was fresh or cached.
Full compaction prunes sidecars no longer referenced by a surviving
record.

The store is safe for concurrent use from many threads of one process —
the ``repro serve`` daemon's HTTP readers, campaign-runner writers and
the background worker all share one instance.  Legacy stores (pre-LSM:
unsorted append segments, no WAL, no levels in the manifest) recover
transparently; their segments are treated as level 0.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import IO, TYPE_CHECKING

from .durable import (
    damage_kind,
    decode,
    frame,
    fsync,
    read,
    reframe,
    repair_tail,
    scan,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


class StoreError(RuntimeError):
    """The store directory is unusable or the ledger is inconsistent."""


class CrashPoint(BaseException):
    """Raised by a test-injected crash hook to abandon an operation
    mid-write, leaving partial on-disk state exactly as a hard kill
    would (see the crash-recovery property tests).  Derives from
    ``BaseException`` so production ``except Exception`` paths cannot
    absorb a simulated kill."""


_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.jsonl$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")

#: level-N segment count that triggers a fold into level N+1
DEFAULT_LEVEL_TRIGGER = 4
#: deepest level; folds out of it land back in it
DEFAULT_MAX_LEVEL = 3


def record_line(line: bytes) -> dict | None:
    """Decode one segment or WAL line, ``{"seq": n, "key": h,
    "record": {...}}``; None unless all three are there with those
    types.  Recovery, :meth:`ResultStore._read` and scrub all judge a
    line by this one decoder, so they reach one verdict."""
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

    def put_batch(self, items: Iterable[tuple[str, dict]]) -> int:
        n = 0
        for key, record in items:
            self._data[key] = record
            n += 1
        return n

    def keys(self) -> list[str]:
        return list(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def flush(self) -> None:
        pass

    def compact(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def stats(self) -> dict:
        return {"backend": "memory", "records": len(self._data),
                "hits": self.hits, "misses": self.misses}


class ResultStore:
    """LSM-shaped segmented store with a write-ahead manifest."""

    MANIFEST = "MANIFEST"
    REPLAY_DIR = "replay"

    def __init__(self, root: str | Path,
                 segment_bytes: int = 8 << 20,
                 level_trigger: int = DEFAULT_LEVEL_TRIGGER,
                 max_level: int = DEFAULT_MAX_LEVEL,
                 background: bool = False,
                 crash_hook: Callable[[str], None] | None = None) -> None:
        self.root = Path(root)
        self.segment_bytes = segment_bytes
        self.level_trigger = max(2, level_trigger)
        self.max_level = max(1, max_level)
        self.hits = 0
        self.misses = 0
        #: records made unreachable by a later write with the same key
        self.superseded = 0
        self.flushes = 0
        self.compactions = 0
        self.batches = 0
        #: the most recent :meth:`scrub` report (None until one runs)
        self.last_scrub: dict | None = None
        #: test-only: called at each durability boundary; raising
        #: :class:`CrashPoint` abandons the operation mid-write
        self._crash_hook = crash_hook
        # ---- guarded by _mu (the coarse metadata mutex) ----
        self._mu = threading.RLock()
        self._work = threading.Condition(self._mu)
        self._mem: dict[str, tuple[int, bytes]] = {}      # key -> (seq, line)
        self._mem_bytes = 0
        self._imm: dict[str, tuple[int, bytes]] = {}      # being flushed
        self._imm_wals: list[str] = []                    # WALs it covers
        self._index: dict[str, tuple[int, str, int, int]] = {}
        self._live: list[str] = []          # live segments, ledger order
        self._levels: dict[str, int] = {}   # segment -> level
        self._refs: dict[str, int] = {}     # segment -> live readers
        self._zombies: set[str] = set()     # dropped, awaiting last unpin
        self._next_seq = 1
        self._next_segment_no = 1
        self._next_wal_no = 1
        self._wal: str | None = None        # WAL receiving appends
        self._wal_fh: IO[bytes] | None = None
        self._wal_files: list[str] = []     # live WALs, ledger order
        self._wal_bytes = 0
        # ---- maintenance (flush/compaction) serialization ----
        self._maint_mu = threading.Lock()
        self._manifest_mu = threading.Lock()
        self._bg: threading.Thread | None = None
        self._closing = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # pragma: no cover - depends on the fs
            raise StoreError(f"cannot create store at {self.root}: {exc}") \
                from exc
        self._recover()
        if background:
            self._bg = threading.Thread(target=self._bg_loop,
                                        name="repro-store-bg", daemon=True)
            self._bg.start()

    # ------------------------------------------------------------ recovery

    def _crash(self, step: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(step)

    def _recover(self) -> None:
        live: list[str] = []
        levels: dict[str, int] = {}
        manifest = self.root / self.MANIFEST
        found = scan(read(manifest), decode)
        # repair the tail NOW: the next manifest append would otherwise
        # glue onto a torn or unterminated line, and both the garbage
        # and the new entry would be unreadable on replay
        repair_tail(manifest, found.valid)
        for entry in found.entries:
            op = entry.get("op")
            segment = entry.get("segment")
            if isinstance(segment, str):
                if op == "add" and segment not in live:
                    live.append(segment)
                    levels[segment] = int(entry.get("level", 0))
                elif op == "drop" and segment in live:
                    live.remove(segment)
                    levels.pop(segment, None)
                m = _SEGMENT_RE.match(segment)
                if m:
                    self._next_segment_no = max(self._next_segment_no,
                                                int(m.group(1)) + 1)
            wal = entry.get("wal")
            if isinstance(wal, str):
                m = _WAL_RE.match(wal)
                if m:
                    self._next_wal_no = max(self._next_wal_no,
                                            int(m.group(1)) + 1)
        # never reuse the number of ANY data file on disk: an amputated
        # manifest (external corruption) can orphan files, and rotating
        # onto one would append fresh records to a file whose old bytes
        # the index knows nothing about
        for path in self.root.glob("seg-*.jsonl"):
            m = _SEGMENT_RE.match(path.name)
            if m:
                self._next_segment_no = max(self._next_segment_no,
                                            int(m.group(1)) + 1)
        wal_names: list[str] = []
        for path in self.root.glob("wal-*.log"):
            m = _WAL_RE.match(path.name)
            if m:
                wal_names.append(path.name)
                self._next_wal_no = max(self._next_wal_no,
                                        int(m.group(1)) + 1)
        self._live = live
        self._levels = levels
        valid_sizes = {segment: self._scan_segment(segment)
                       for segment in live}
        if live:
            # torn tail from a hard kill mid-append (legacy stores
            # appended records straight to the live segment): cut the
            # garbage off so the file stays parseable forever
            repair_tail(self.root / live[-1], valid_sizes[live[-1]])
        # WAL replay: every wal file on disk is replayed (a manifested
        # drop whose unlink never happened only re-applies writes the
        # segments already hold — the seq comparison absorbs them) and
        # entries newer than the flushed state rebuild the memtable
        for name in sorted(wal_names):
            raw = read(self.root / name)
            found = scan(raw, record_line)
            repair_tail(self.root / name, found.valid)
            for offset, length, entry in found.lines:
                key, seq = entry["key"], entry["seq"]
                self._next_seq = max(self._next_seq, seq + 1)
                indexed = self._index.get(key)
                if indexed is not None and indexed[0] >= seq:
                    continue  # already flushed into a segment
                line = reframe(raw[offset:offset + length], entry)
                prev = self._mem.get(key)
                if prev is not None:
                    if prev[0] >= seq:
                        continue
                    self.superseded += 1
                    self._mem_bytes -= len(prev[1]) + 1
                elif indexed is not None:
                    self.superseded += 1
                self._mem[key] = (seq, line)
                self._mem_bytes += len(line) + 1
        self._wal_files = sorted(wal_names)
        if self._wal_files:
            # keep appending to the newest WAL; it was amputated above
            self._wal = self._wal_files[-1]
            self._wal_bytes = (self.root / self._wal).stat().st_size

    def _scan_segment(self, segment: str) -> int:
        """Index one segment; returns the length of its valid prefix.
        A missing file (manifested before its first write, then
        crashed) is legal, just empty."""
        found = scan(read(self.root / segment), record_line)
        for offset, length, entry in found.lines:
            key, seq = entry["key"], entry["seq"]
            self._next_seq = max(self._next_seq, seq + 1)
            prev = self._index.get(key)
            if prev is None:
                self._index[key] = (seq, segment, offset, length)
            elif seq > prev[0]:
                self.superseded += 1
                self._index[key] = (seq, segment, offset, length)
            elif seq < prev[0]:
                self.superseded += 1
            # seq == prev: the same write found twice (a flush that
            # crashed before dropping its WAL) — a dedupe, not a
            # supersession
        return found.valid

    # ----------------------------------------------------- manifest + WAL

    def _append_manifest(self, doc: dict) -> None:
        with self._manifest_mu, \
                (self.root / self.MANIFEST).open("ab") as fh:
            fh.write(frame(doc))
            fsync(fh)

    def _open_wal(self) -> None:
        """Start a fresh WAL (manifested before its first byte).
        Caller holds ``_mu``."""
        name = f"wal-{self._next_wal_no:08d}.log"
        self._next_wal_no += 1
        self._append_manifest({"op": "wal", "wal": name})
        if self._wal_fh is not None:
            self._wal_fh.close()
        self._wal_fh = (self.root / name).open("ab")
        self._wal = name
        self._wal_files.append(name)
        self._wal_bytes = 0

    def _wal_append(self, lines: list[bytes]) -> None:
        """Append encoded records to the WAL under ONE fsync — the
        write-batch grouping that makes group commit cheap.  Caller
        holds ``_mu``."""
        if self._wal is None:
            self._open_wal()
        if self._wal_fh is None:
            self._wal_fh = (self.root / str(self._wal)).open("ab")
        self._crash("wal-append")
        blob = b"".join(line + b"\n" for line in lines)
        self._wal_fh.write(blob)
        fsync(self._wal_fh)
        self._wal_bytes += len(blob)

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

    def _install_mem(self, key: str, seq: int, line: bytes) -> None:
        prev = self._mem.get(key)
        if prev is not None:
            self.superseded += 1
            self._mem_bytes -= len(prev[1]) + 1
        elif key in self._imm or key in self._index:
            self.superseded += 1
        self._mem[key] = (seq, line)
        self._mem_bytes += len(line) + 1

    def put(self, key: str, record: dict) -> None:
        """Durably store one record; returns only after the WAL fsync."""
        self._write([(key, record)])

    def put_batch(self, items: Iterable[tuple[str, dict]]) -> int:
        """Durably store many records under a single fsync.

        Returns the number of records written.  The batch acknowledges
        atomically: either every record survives a crash after this
        returns, or (if the crash lands mid-append) the torn tail is
        discarded on recovery — never a mix of torn and glued lines.
        """
        n = self._write(list(items))
        if n:
            self.batches += 1
        return n

    def _write(self, items: list[tuple[str, dict]]) -> int:
        encoded: list[tuple[str, int, bytes]] = []
        need_flush = False
        with self._mu:
            for key, record in items:
                record = self._stash_replay(key, record)
                seq = self._next_seq
                self._next_seq += 1
                # the memtable keeps each line without its newline
                line = frame({"seq": seq, "key": key,
                              "record": record})[:-1]
                encoded.append((key, seq, line))
            if not encoded:
                return 0
            self._wal_append([line for _, _, line in encoded])
            # acknowledged: the records are durable in the WAL
            for key, seq, line in encoded:
                self._install_mem(key, seq, line)
            if self._mem_bytes >= self.segment_bytes:
                need_flush = True
                self._swap_memtable()
                self._work.notify_all()
        if need_flush and self._bg is None:
            self._flush_imm()
            self._maybe_compact()
        return len(encoded)

    # -------------------------------------------------------------- flush

    def _swap_memtable(self) -> None:
        """Swap the memtable for an empty one so writers continue on a
        fresh WAL while the old contents flush.  Caller holds ``_mu``.

        With a background worker, at most one immutable memtable exists
        at a time (the LevelDB rule) — the writer briefly waits for the
        in-flight flush.  Inline, a leftover immutable memtable (a
        crashed flush) is merged instead: every colliding key's
        memtable entry carries the newer seq by construction.
        """
        if not self._mem:
            return
        if self._imm and self._bg is not None:
            while self._imm and not self._closing:
                self._work.wait(timeout=0.1)
        if self._imm:
            self._imm.update(self._mem)
            self._imm_wals = sorted(set(self._imm_wals)
                                    | set(self._wal_files))
        else:
            self._imm = self._mem
            self._imm_wals = list(self._wal_files)
        self._mem = {}
        self._mem_bytes = 0
        self._open_wal()
        self._wal_files = [self._wal] if self._wal is not None else []

    def flush(self) -> None:
        """Force the memtable out to a level-0 segment (durability is
        already guaranteed by the WAL; this tidies the on-disk shape
        before a close or a full compaction)."""
        with self._mu:
            self._swap_memtable()
            self._work.notify_all()
        if self._bg is None:
            self._flush_imm()
        else:
            with self._mu:
                while self._imm and not self._closing:
                    self._work.wait(timeout=0.1)

    def _flush_imm(self) -> None:
        """Write the immutable memtable as a sorted level-0 segment.
        Runs on the flushing thread with ``_maint_mu`` held; takes
        ``_mu`` only around the metadata snapshot and install."""
        with self._maint_mu:
            with self._mu:
                if not self._imm:
                    return
                snapshot = dict(self._imm)
                wals = list(self._imm_wals)
                segment = f"seg-{self._next_segment_no:08d}.jsonl"
                self._next_segment_no += 1
            ordered = sorted(snapshot)
            self._crash("flush-segment")
            path = self.root / segment
            with path.open("wb") as fh:
                fh.write(b"".join(snapshot[key][1] + b"\n"
                                  for key in ordered))
                fsync(fh)
            self._crash("flush-manifest")
            self._append_manifest({"op": "add", "segment": segment,
                                   "level": 0})
            with self._mu:
                self._live.append(segment)
                self._levels[segment] = 0
                offset = 0
                for key in ordered:
                    seq, line = snapshot[key]
                    prev = self._index.get(key)
                    if prev is None or seq >= prev[0]:
                        self._index[key] = (seq, segment, offset, len(line))
                    offset += len(line) + 1
                self._imm = {}
                self._imm_wals = []
                self.flushes += 1
                self._work.notify_all()
            # the flushed records now live in a manifested segment: the
            # WALs that covered them are dead weight — drop, then unlink
            self._crash("flush-wal-drop")
            for name in wals:
                self._append_manifest({"op": "wal-drop", "wal": name})
            for name in wals:
                try:
                    (self.root / name).unlink()
                except FileNotFoundError:
                    pass

    # ---------------------------------------------------------- compaction

    def _level_segments(self, level: int) -> list[str]:
        """Caller holds ``_mu``."""
        return [s for s in self._live if self._levels.get(s, 0) == level]

    def _maybe_compact(self) -> None:
        """Leveled compaction policy: any level holding ``level_trigger``
        segments folds into the next (capped at ``max_level``)."""
        for level in range(self.max_level + 1):
            with self._mu:
                crowded = (len(self._level_segments(level))
                           >= self.level_trigger)
            if crowded:
                self.compact_level(level)

    def _fold(self, inputs: list[str]) -> dict[str, tuple[int, bytes]]:
        """Newest record per key across ``inputs`` — immutable files,
        read with no lock held, each up to its first bad line (the
        prefix recovery indexed)."""
        folded: dict[str, tuple[int, bytes]] = {}
        for segment in inputs:
            raw = read(self.root / segment)
            for offset, length, entry in scan(raw, record_line).lines:
                key, seq = entry["key"], entry["seq"]
                prev = folded.get(key)
                if prev is None or seq > prev[0]:
                    folded[key] = (seq, reframe(raw[offset:offset + length],
                                                entry))
        return folded

    def compact_level(self, level: int) -> int:
        """Fold every segment at ``level`` into one sorted segment at
        the next level.  Returns the number of records dropped."""
        with self._mu:
            inputs = self._level_segments(level)
        if len(inputs) < 2:
            return 0
        return self._compact_segments(inputs,
                                      min(level + 1, self.max_level))

    def _compact_segments(self, inputs: list[str], out_level: int) -> int:
        """Fold ``inputs`` into one sorted segment at ``out_level``.

        Readers holding a reference to an input keep reading it; the
        file is unlinked only after the last reference drops.  Writers
        are never blocked: the fold reads immutable files without the
        metadata mutex and takes it only to install the result.
        """
        with self._maint_mu:
            with self._mu:
                inputs = [s for s in inputs if s in self._live]
                if not inputs:
                    return 0
            folded = self._fold(inputs)
            # keep only records the index still deems current — a key
            # superseded by a newer write elsewhere dies right here
            survivors: list[tuple[str, int, bytes]] = []
            dropped = 0
            with self._mu:
                input_set = set(inputs)
                # a line damaged since open stops its file's fold early;
                # dropping the inputs would lose the records past it
                for key, (seq, home, _, _) in self._index.items():
                    if home in input_set and folded.get(key, (0,))[0] != seq:
                        raise StoreError(f"corrupt record for {key[:12]} "
                                         f"in {home}; not compacting")
                for key in sorted(folded):
                    seq, line = folded[key]
                    loc = self._index.get(key)
                    if (loc is not None and loc[1] in input_set
                            and loc[0] == seq):
                        survivors.append((key, seq, line))
                    else:
                        dropped += 1
                segment = f"seg-{self._next_segment_no:08d}.jsonl"
                self._next_segment_no += 1
            self._crash("compact-segment")
            path = self.root / segment
            with path.open("wb") as fh:
                fh.write(b"".join(line + b"\n"
                                  for _, _, line in survivors))
                fsync(fh)
            self._crash("compact-manifest")
            self._append_manifest({"op": "add", "segment": segment,
                                   "level": out_level})
            with self._mu:
                self._live.append(segment)
                self._levels[segment] = out_level
                offset = 0
                for key, seq, line in survivors:
                    loc = self._index.get(key)
                    # repoint only entries still living in an input — a
                    # concurrent flush may have landed a newer record
                    if loc is not None and loc[1] in input_set:
                        self._index[key] = (seq, segment, offset,
                                            len(line))
                    offset += len(line) + 1
                self.compactions += 1
            self._crash("compact-drop")
            for old in inputs:
                self._append_manifest({"op": "drop", "segment": old})
            with self._mu:
                for old in inputs:
                    if old in self._live:
                        self._live.remove(old)
                    self._levels.pop(old, None)
                    if self._refs.get(old, 0) > 0:
                        self._zombies.add(old)  # a reader still holds it
                    else:
                        self._unlink_segment(old)
            return dropped

    def compact(self) -> int:
        """Full fold: flush the memtable, merge every live segment into
        one at the deepest level, drop superseded records, rewrite the
        manifest, prune orphaned replay sidecars.  Returns the records
        dropped."""
        self.flush()
        with self._mu:
            dropped = self.superseded
            inputs = list(self._live)
        if inputs:
            self._compact_segments(inputs, self.max_level)
        self._rewrite_manifest()
        with self._mu:
            self.superseded = 0
            live_keys = set(self._index)
        # prune replay sidecars whose key no longer survives the fold
        # (a superseded record's log is as dead as the record itself)
        for path in (self.root / self.REPLAY_DIR).glob("*.rlog"):
            if path.stem not in live_keys:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
        return dropped

    def _rewrite_manifest(self) -> None:
        """Replace the manifest with one framed entry per live segment
        and WAL, dropping its history and any legacy lines.  The rename
        is atomic: a crash leaves the old ledger or the new, both whole."""
        with self._maint_mu, self._mu, self._manifest_mu:
            docs = [{"op": "add", "segment": s,
                     "level": self._levels.get(s, 0)} for s in self._live]
            docs += [{"op": "wal", "wal": name}
                     for name in self._imm_wals + self._wal_files]
            tmp = self.root / f"{self.MANIFEST}.tmp"
            with tmp.open("wb") as fh:
                fh.write(b"".join(map(frame, docs)))
                fsync(fh)
            tmp.replace(self.root / self.MANIFEST)

    def _unlink_segment(self, segment: str) -> None:
        """Caller holds ``_mu``."""
        self._zombies.discard(segment)
        self._refs.pop(segment, None)
        try:
            (self.root / segment).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------- reading

    def _pin(self, segment: str) -> None:
        """Caller holds ``_mu``."""
        self._refs[segment] = self._refs.get(segment, 0) + 1

    def _unpin(self, segment: str) -> None:
        with self._mu:
            refs = self._refs.get(segment, 1) - 1
            if refs <= 0:
                self._refs.pop(segment, None)
                if segment in self._zombies:
                    self._unlink_segment(segment)
            else:
                self._refs[segment] = refs

    def probe(self, key: str) -> bool:
        """Presence test that does not touch the hit/miss counters."""
        with self._mu:
            return (key in self._mem or key in self._imm
                    or key in self._index)

    def _read(self, key: str) -> dict | None:
        with self._mu:
            entry = self._mem.get(key) or self._imm.get(key)
            loc = None if entry is not None else self._index.get(key)
            if loc is not None:
                self._pin(loc[1])
        if entry is not None:
            line, where = entry[1], "the memtable"
        elif loc is None:
            return None
        else:
            _, segment, offset, length = loc
            where = f"{segment}@{offset}"
            try:
                with (self.root / segment).open("rb") as fh:
                    fh.seek(offset)
                    line = fh.read(length)
            finally:
                self._unpin(segment)
        doc = record_line(line)
        if doc is None:
            raise StoreError(f"corrupt record for {key[:12]} in {where}")
        return self._resolve_replay(doc["record"])

    def fetch(self, key: str) -> dict | None:
        """Read without touching the hit/miss counters (plumbing reads:
        dependency handoff, target delivery, compaction)."""
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
            seen = dict.fromkeys(self._index)
            seen.update(dict.fromkeys(self._imm))
            seen.update(dict.fromkeys(self._mem))
            return list(seen)

    def __contains__(self, key: str) -> bool:
        return self.probe(key)

    def __len__(self) -> int:
        return len(self.keys())

    # --------------------------------------------------- background worker

    def _bg_loop(self) -> None:
        """The single background worker: flushes immutable memtables
        and runs due compactions, coordinated by a condition variable."""
        while True:
            with self._mu:
                while not self._imm and not self._closing:
                    self._work.wait(timeout=0.2)
                if self._closing and not self._imm:
                    return
            try:
                self._flush_imm()
                self._maybe_compact()
            except CrashPoint:  # pragma: no cover - test hooks only
                return
            except Exception:  # pragma: no cover - keep the daemon alive
                import logging

                logging.getLogger("repro.campaign").exception(
                    "background maintenance failed")

    def close(self) -> None:
        """Flush, stop the background worker, release file handles."""
        bg = self._bg
        with self._mu:
            self._closing = True
            self._work.notify_all()
        if bg is not None:
            bg.join(timeout=5.0)
            self._bg = None
        self._closing = False
        self.flush()
        with self._mu:
            self._closing = True
            if self._wal_fh is not None:
                self._wal_fh.close()
                self._wal_fh = None

    # --------------------------------------------------------------- scrub

    def scrub(self) -> dict:
        """Verify every on-disk structure (read-only) and cache the
        report for :meth:`stats`/:meth:`export_metrics`.

        Flushes first so the memtable is on disk, then runs the same
        walk as :func:`scrub_files`.  Repair (quarantining) is the
        offline CLI's job — ``repro store scrub --repair`` against a
        drained store — never a live store's, whose open readers may
        still pin the very files a repair would move.
        """
        self.flush()
        report = scrub_files(self.root)
        self.last_scrub = report
        return report

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Operational snapshot: record/segment counts plus the LSM
        vitals — WAL size, memtable fill, per-level segment shapes,
        live-reader refcounts and flush/compaction totals."""
        with self._mu:
            per_level: dict[str, dict[str, int]] = {}
            for segment in self._live:
                shape = per_level.setdefault(
                    f"L{self._levels.get(segment, 0)}",
                    {"segments": 0, "bytes": 0})
                shape["segments"] += 1
                try:
                    shape["bytes"] += (self.root / segment).stat().st_size
                except OSError:  # pragma: no cover - racing an unlink
                    pass
            return {
                "backend": "disk",
                "root": str(self.root),
                "records": len(self.keys()),
                "segments": len(self._live),
                "superseded": self.superseded,
                "hits": self.hits,
                "misses": self.misses,
                "wal_bytes": self._wal_bytes,
                "wal_files": len(self._wal_files),
                "memtable_records": len(self._mem) + len(self._imm),
                "memtable_bytes": self._mem_bytes,
                "levels": per_level,
                "live_readers": sum(self._refs.values()),
                "pinned_segments": sum(1 for v in self._refs.values()
                                       if v > 0),
                "zombie_segments": len(self._zombies),
                "flushes": self.flushes,
                "compactions": self.compactions,
                "batches": self.batches,
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
        g("store.segments").set(st["segments"])
        g("store.superseded").set(st["superseded"])
        g("store.wal.bytes").set(st["wal_bytes"])
        g("store.wal.files").set(st["wal_files"])
        g("store.memtable.records").set(st["memtable_records"])
        g("store.memtable.bytes").set(st["memtable_bytes"])
        g("store.readers.live").set(st["live_readers"])
        g("store.segments.pinned").set(st["pinned_segments"])
        g("store.segments.zombie").set(st["zombie_segments"])
        g("store.flushes").set(st["flushes"])
        g("store.compactions").set(st["compactions"])
        g("store.batches").set(st["batches"])
        for level, shape in sorted(st["levels"].items()):
            g(f"store.level.{level}.segments").set(shape["segments"])
            g(f"store.level.{level}.bytes").set(shape["bytes"])
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

    Checks, without opening a live store, every line of the manifest,
    the segments, the WALs and the task journal with
    :func:`~repro.campaign.durable.decode` — the per-line CRC check
    their own recovery applies, so a flipped bit that still parses as
    JSON counts as damage here too:

    * **manifest** and **task journal** — intact lines all the way down;
    * **segments** — each manifest-live segment's lines also pass
      :func:`record_line`'s shape check, as recovery and reads require;
      any ``seg-*.jsonl`` the manifest doesn't reference is an *orphan*
      (crash-abandoned zombie — its records were compacted elsewhere);
    * **WALs** — every ``wal-*.log`` is judged the same way (recovery
      replays them all, so damage here is damage to un-flushed acked
      writes);
    * **replay sidecars** — each ``replay/*.rlog`` passes the replay
      reader's per-line CRC + manifest-digest verification (sidecars
      are written whole, so an incomplete one is corrupt, not torn).

    With ``repair=True``, a damaged manifest, segment, WAL or journal is
    truncated to its valid prefix (exactly what recovery would do; for
    a ``corrupt`` file that drops the intact records after the bad
    line), and corrupt sidecars + orphan segments are moved to
    ``<root>/quarantine/`` — never deleted.  Run repair only against a
    drained store: a live daemon's readers may pin segments.

    Returns a report dict whose ``summary`` block is what
    ``stats()``/obs metrics surface; ``summary["corrupt"] == 0`` and
    ``summary["orphans"] == 0`` together mean the store is clean
    (``torn`` tails self-heal on the next open).
    """
    root = Path(root)
    report: dict = {"root": str(root), "files": {}, "summary": {}}
    torn = corrupt = orphans = repaired = records = 0
    live: set[str] = set()

    def check(path: Path, record_file: bool = False,
              orphan: bool = False) -> list[dict]:
        """Scan one line file as its own recovery does (record files
        with :func:`record_line`), so scrub reaches the same verdict;
        returns its intact entries."""
        nonlocal torn, corrupt, orphans, repaired
        raw = read(path)
        found = scan(raw, record_line if record_file else decode)
        state = "ok"
        if orphan:
            state = "orphan"
            orphans += 1
            if repair:
                _quarantine(root, path.name)
                repaired += 1
        elif found.excess:
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
        return found.entries

    manifest = root / ResultStore.MANIFEST
    if manifest.exists():
        for entry in check(manifest):
            segment = entry.get("segment")
            if isinstance(segment, str):
                if entry.get("op") == "add":
                    live.add(segment)
                elif entry.get("op") == "drop":
                    live.discard(segment)
    for path in sorted(root.glob("seg-*.jsonl")):
        records += len(check(path, record_file=True,
                             orphan=path.name not in live))
    for path in sorted(root.glob("wal-*.log")):
        records += len(check(path, record_file=True))
    journal = root / "serve-journal.log"
    if journal.exists():
        check(journal)
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
