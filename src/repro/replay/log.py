"""The replay log: a versioned, append-only record of every observation.

One log captures, in exact delivery order, everything a profiling run's
:class:`~repro.core.profiler.TxSampler` consumed through the observation
boundary — each PMU sample record (which carries the LBR snapshot, the
sampled core's clock read in ``ts``, and the TSX abort code in
``abort_eax``) together with the RTM state word the runtime's query
function returned at that instant.  Fault-plan perturbations need no
events of their own: the log records the *post-injection* stream, the
same records the live profiler received, so a faulted run replays
without a fault injector (or a simulator) in the loop.

On-disk form — line-oriented JSON, written strictly append-only::

    {"format":"txsampler-replay","meta":{...},"version":1}        header
    {"c":<crc32>,"e":[state_word,{sample...}],"s":0}              events
    {"c":<crc32>,"e":[state_word,{sample...}],"s":1}
    ...
    {"manifest":{"digest":"...","events":N,"site_names":{...}}}

Every event line carries a CRC-32 of its payload — the exact bytes
between ``"e":`` and ``,"s":`` as written — and the trailing manifest
seals the log with the event count, a running SHA-256 digest over those
same payload bytes, and the end-of-run metadata (the critical-section
symbol table) that only exists once the run finishes.  The reader
accepts an event line only in the writer's exact shape
``{"c":<crc>,"e":<payload>,"s":<seq>}``: it slices the payload out,
checks the sequence number and the CRC over the slice, and parses only
the payload — nothing is re-encoded to be checked.  Like the campaign
result store, the reader is torn-tail tolerant: a truncated, garbled,
checksum-failing or otherwise-shaped line ends the parse — everything
before it is intact and replayable, and :attr:`ReplayLog.complete`
records whether the manifest sealed what was read.

Sample encoding is compact: single-letter keys, default-valued fields
omitted, LBR entries as 5-element arrays (junk entries injected by a
corruption fault plan are preserved verbatim so replay quarantines them
exactly like the live run did).  A log holds few distinct LBR entries,
so each :func:`loads_replay` call builds one shared :class:`LbrEntry`
per distinct entry.
"""

from __future__ import annotations

import json
import zlib
from hashlib import sha256
from pathlib import Path
from typing import Any

from ..pmu.lbr import LbrEntry
from ..pmu.sampling import Sample

FORMAT = "txsampler-replay"
VERSION = 1

#: conventional file suffix for replay logs
SUFFIX = ".rlog"


class ReplayFormatError(ValueError):
    """The file is not a replay log this version can read."""


#: an event line, exactly as written: CRC, payload, sequence number
_EVENT = '{"c":%d,"e":%s,"s":%d}'


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# sample codec
# ---------------------------------------------------------------------------


def encode_sample(s: Sample) -> dict[str, Any]:
    """Compact dict form of one sample; defaults are omitted."""
    doc: dict[str, Any] = {
        "e": s.event,
        "t": s.tid,
        "ts": s.ts,
        "ip": s.ip,
    }
    if s.ustack:
        doc["us"] = list(s.ustack)
    if s.resume_ip:
        doc["ri"] = s.resume_ip
    if s.lbr:
        doc["l"] = [
            list(entry) if isinstance(entry, LbrEntry) else entry
            for entry in s.lbr
        ]
    if s.eff_addr is not None:
        doc["a"] = s.eff_addr
    if s.is_store:
        doc["st"] = 1
    if s.weight:
        doc["w"] = s.weight
    if s.abort_eax:
        doc["x"] = s.abort_eax
    return doc


def decode_sample(
    doc: dict[str, Any],
    interned: dict[tuple[Any, ...], LbrEntry] | None = None,
) -> Sample:
    """Inverse of :func:`encode_sample`.

    Non-list LBR entries (the junk a corruption fault plan plants where
    an :class:`LbrEntry` belongs) decode to themselves, so the replayed
    profiler's ``bad-lbr`` quarantine check sees exactly what the live
    one saw.  ``interned`` maps each entry seen so far to its shared
    :class:`LbrEntry`; pass one dict for every sample of a log.
    """
    if interned is None:
        interned = {}
    lbr: list[Any] = []
    for entry in doc.get("l", ()):
        if isinstance(entry, list):
            key = tuple(entry)
            shared = interned.get(key)
            if shared is None:
                shared = interned[key] = LbrEntry(
                    entry[0], entry[1], entry[2], entry[3], entry[4])
            entry = shared
        lbr.append(entry)
    return Sample(
        event=doc["e"],
        tid=doc["t"],
        ts=doc["ts"],
        ip=doc["ip"],
        ustack=tuple(doc.get("us", ())),
        resume_ip=doc.get("ri", 0),
        lbr=tuple(lbr),
        eff_addr=doc.get("a"),
        is_store=bool(doc.get("st", 0)),
        weight=doc.get("w", 0),
        abort_eax=doc.get("x", 0),
    )


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class ReplayWriter:
    """Builds one replay log, strictly append-only.

    ``meta`` is the front-matter the replayer needs *before* events make
    sense: thread count, sampling periods, the profiler's contention
    threshold, and free-form provenance (workload name, seed, fault
    plan).  End-of-run metadata — the critical-section symbol table —
    goes into the sealing manifest instead, because it does not exist
    until the run finishes.
    """

    def __init__(self, meta: dict[str, Any]) -> None:
        self.meta = dict(meta)
        self._lines: list[str] = [
            _canonical({"format": FORMAT, "version": VERSION,
                        "meta": self.meta})
        ]
        self._digest = sha256()
        self._events = 0
        self._sealed = False

    def append(self, state_word: int, sample: Sample) -> None:
        """Record one observation event (state-word read + sample)."""
        if self._sealed:
            raise ReplayFormatError("log already sealed")
        payload = _canonical([state_word, encode_sample(sample)])
        raw = payload.encode()
        self._digest.update(raw)
        # the same bytes _canonical({"c":…,"e":…,"s":…}) would give
        self._lines.append(
            _EVENT % (zlib.crc32(raw), payload, self._events))
        self._events += 1

    def seal(self, site_names: dict[int, str] | None = None,
             summary: dict[str, Any] | None = None) -> None:
        """Append the manifest line; no events may follow."""
        if self._sealed:
            return
        manifest: dict[str, Any] = {
            "events": self._events,
            "digest": self._digest.hexdigest(),
            "site_names": {str(k): v
                           for k, v in (site_names or {}).items()},
        }
        if summary:
            manifest["summary"] = summary
        self._lines.append(_canonical({"manifest": manifest}))
        self._sealed = True

    def dumps(self) -> str:
        """The whole log as text (one trailing newline)."""
        return "\n".join(self._lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the log; returns the path written."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    def __len__(self) -> int:
        return self._events


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class ReplayLog:
    """One parsed replay log."""

    def __init__(self, meta: dict[str, Any]) -> None:
        self.meta = meta
        #: (state_word, sample) in exact live delivery order
        self.events: list[tuple[int, Sample]] = []
        #: TM_BEGIN call-site address -> section name (from the manifest)
        self.site_names: dict[int, str] = {}
        #: run summary the recorder chose to seal in (informational)
        self.summary: dict[str, Any] = {}
        #: True when the manifest was present and its digest matched
        self.complete = False
        #: lines discarded as a torn/corrupt tail
        self.torn_lines = 0

    @property
    def n_threads(self) -> int:
        return int(self.meta.get("n_threads", 0))

    @property
    def periods(self) -> dict[str, int]:
        return {str(k): int(v)
                for k, v in self.meta.get("periods", {}).items()}

    @property
    def contention_threshold(self) -> int:
        return int(self.meta.get("contention_threshold", 50_000))


def _checked_payload(line: str, seq: int) -> bytes | None:
    """The payload bytes of ``line`` if it is event ``seq`` in the
    writer's exact shape with a matching CRC; ``None`` otherwise."""
    if not line.startswith('{"c":'):
        return None
    at_e = line.find(',"e":', 5)
    at_s = line.rfind(',"s":')
    if at_e < 0 or at_s <= at_e or line[at_s + 5:] != f"{seq}}}":
        return None
    payload = line[at_e + 5:at_s].encode()
    if line[5:at_e] != str(zlib.crc32(payload)):
        return None
    return payload


def _decode_event(
    payload: bytes, interned: dict[tuple[Any, ...], LbrEntry],
) -> tuple[int, Sample] | None:
    """``[state_word, {sample}]`` decoded; ``None`` for any other shape."""
    try:
        state_word, doc = json.loads(payload)
        if type(state_word) is not int or not isinstance(doc, dict):
            return None
        return state_word, decode_sample(doc, interned)
    except (ValueError, TypeError, KeyError, IndexError):
        return None


def _seal(log: ReplayLog, line: str, digest: str) -> bool:
    """Apply a ``{"manifest":…}`` line to ``log``; False when ``line``
    is not a readable manifest."""
    try:
        manifest = json.loads(line)["manifest"]
        if (int(manifest.get("events", -1)) == len(log.events)
                and manifest.get("digest") == digest):
            site_names = {int(k): str(v)
                          for k, v in manifest.get("site_names", {}).items()}
            log.summary = dict(manifest.get("summary", {}))
            log.site_names = site_names
            log.complete = True
    except (ValueError, TypeError, KeyError, AttributeError):
        return False
    return True


def loads_replay(text: str) -> ReplayLog:
    """Parse a replay log from text, tolerating a torn tail."""
    lines = text.split("\n")
    if not lines[0].strip():
        raise ReplayFormatError("empty replay log")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ReplayFormatError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ReplayFormatError(
            f"not a {FORMAT} document "
            f"(format={header.get('format') if isinstance(header, dict) else header!r})"
        )
    version = header.get("version", 0)
    if type(version) is not int:
        raise ReplayFormatError(f"log version {version!r} is not an integer")
    if version > VERSION:
        raise ReplayFormatError(
            f"log version {version} is newer than this reader ({VERSION})"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ReplayFormatError(f"log meta {meta!r} is not an object")
    log = ReplayLog(dict(meta))
    events = log.events
    digest = sha256()
    interned: dict[tuple[Any, ...], LbrEntry] = {}
    body = lines[1:]
    for i, line in enumerate(body):
        payload = _checked_payload(line, len(events))
        if payload is not None:
            event = _decode_event(payload, interned)
            if event is not None:
                digest.update(payload)
                events.append(event)
                continue
        elif not line.strip():
            continue
        elif _seal(log, line, digest.hexdigest()):
            break
        # a flipped bit, a cut line, or a shape the writer never
        # produces: same containment as a torn tail — everything before
        # this line is intact
        log.torn_lines = sum(1 for ln in body[i:] if ln.strip())
        break
    return log


def load_replay(path: str | Path) -> ReplayLog:
    """Load one replay log file.

    Raises :class:`ReplayFormatError` — with the offending path in the
    message — for a missing, unreadable, non-UTF-8 or non-replay file;
    a torn tail is not an error (the intact prefix is returned with
    ``complete=False``).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ReplayFormatError(f"{path}: no such replay log") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ReplayFormatError(f"{path}: unreadable ({exc})") from exc
    try:
        return loads_replay(text)
    except ReplayFormatError as exc:
        raise ReplayFormatError(f"{path}: {exc}") from None
