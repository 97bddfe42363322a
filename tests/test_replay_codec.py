"""The ``.rlog`` v1 codec against the reader it replaced.

The oracle below is the earlier ``loads_replay``, kept verbatim: it
parsed every line as JSON and re-encoded each event payload to check its
CRC.  The current reader checks the CRC over the payload bytes exactly
as written and never re-encodes, so on every log a writer produced —
and on every truncation or single-byte flip of one — both readers must
agree.  The one intended difference is pinned at the end: an event line
whose CRC is valid but whose layout is not the writer's now ends the
parse.
"""

from __future__ import annotations

import json
import zlib
from functools import lru_cache
from hashlib import sha256
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.experiments.runner import run_workload
from repro.faults.plan import FaultPlan
from repro.pmu.lbr import LbrEntry
from repro.pmu.sampling import Sample
from repro.replay.log import (
    FORMAT,
    VERSION,
    ReplayFormatError,
    ReplayLog,
    ReplayWriter,
    load_replay,
    loads_replay,
)
from repro.sim import MachineConfig

from tests.conftest import sampling_periods

PINNED = sorted(Path(__file__).resolve().parent.parent.glob(
    "benchmarks/pinned_*.rlog"))

#: the perturbations that reach the log's bytes: junk LBR entries and
#: cut LBR snapshots
FAULTED = FaultPlan(seed=2, corrupt_rate=0.3, lbr_truncate_rate=0.4,
                    lbr_keep_max=3)


# ---------------------------------------------------------------------------
# the oracle: the earlier reader, parse-everything-and-re-encode
# ---------------------------------------------------------------------------


def _oracle_canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _oracle_decode_sample(doc: dict[str, Any]) -> Sample:
    lbr: tuple[Any, ...] = tuple(
        LbrEntry(entry[0], entry[1], entry[2], entry[3], entry[4])
        if isinstance(entry, list) else entry
        for entry in doc.get("l", ())
    )
    return Sample(
        event=doc["e"],
        tid=doc["t"],
        ts=doc["ts"],
        ip=doc["ip"],
        ustack=tuple(doc.get("us", ())),
        resume_ip=doc.get("ri", 0),
        lbr=lbr,
        eff_addr=doc.get("a"),
        is_store=bool(doc.get("st", 0)),
        weight=doc.get("w", 0),
        abort_eax=doc.get("x", 0),
    )


def oracle_loads_replay(text: str) -> ReplayLog:
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise ReplayFormatError("empty replay log")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReplayFormatError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ReplayFormatError(
            f"not a {FORMAT} document "
            f"(format={header.get('format') if isinstance(header, dict) else header!r})"
        )
    if int(header.get("version", 0)) > VERSION:
        raise ReplayFormatError(
            f"log version {header['version']} is newer than this "
            f"reader ({VERSION})"
        )
    log = ReplayLog(dict(header.get("meta", {})))
    digest = sha256()
    manifest: dict[str, Any] | None = None
    body = [ln for ln in lines[1:]]
    for i, line in enumerate(body):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            log.torn_lines = sum(1 for ln in body[i:] if ln.strip())
            break
        if not isinstance(entry, dict):
            log.torn_lines = sum(1 for ln in body[i:] if ln.strip())
            break
        if "manifest" in entry:
            manifest = entry["manifest"]
            break
        payload = _oracle_canonical(entry.get("e"))
        if (entry.get("s") != len(log.events)
                or zlib.crc32(payload.encode()) != entry.get("c")):
            log.torn_lines = sum(1 for ln in body[i:] if ln.strip())
            break
        digest.update(payload.encode())
        state_word, sample_doc = entry["e"]
        try:
            sample = _oracle_decode_sample(sample_doc)
        except (KeyError, IndexError, TypeError):
            log.torn_lines = sum(1 for ln in body[i:] if ln.strip())
            break
        log.events.append((int(state_word), sample))
    if manifest is not None:
        sealed_events = int(manifest.get("events", -1))
        sealed_digest = manifest.get("digest")
        if (sealed_events == len(log.events)
                and sealed_digest == digest.hexdigest()):
            log.complete = True
            log.site_names = {
                int(k): str(v)
                for k, v in manifest.get("site_names", {}).items()
            }
            log.summary = dict(manifest.get("summary", {}))
    return log


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _view(log: ReplayLog) -> tuple[Any, ...]:
    return (log.meta, log.events, log.complete, log.torn_lines,
            log.site_names, log.summary)


def _outcome(reader, text: str) -> tuple[str, Any]:
    try:
        return "log", _view(reader(text))
    except ReplayFormatError:
        return "format-error", None
    except Exception as exc:  # the oracle's known crashes
        return "crash", type(exc).__name__


def _assert_agrees(text: str) -> None:
    """The new reader matches the oracle; where the oracle crashed, the
    new reader still returns a log or raises ReplayFormatError."""
    old, new = _outcome(oracle_loads_replay, text), _outcome(loads_replay, text)
    assert new[0] != "crash", new
    if old[0] != "crash":
        assert new == old


@lru_cache(maxsize=None)
def _recorded(workload: str, faulted: bool) -> str:
    out = run_workload(workload, n_threads=4, scale=0.25, seed=0,
                       profile=True, record=True,
                       faults=FAULTED if faulted else None)
    return out.replay_log


@lru_cache(maxsize=None)
def _small_log() -> str:
    """A few-event faulted log (one junk LBR entry), small enough for
    Hypothesis to reach every byte."""
    cfg = MachineConfig(n_threads=2).evolve(sample_periods=sampling_periods())
    out = run_workload("micro_high_abort", n_threads=2, scale=0.05, seed=0,
                       profile=True, record=True, faults=FAULTED,
                       config=cfg)
    assert out.replay_log.count("garbage") == 1
    return out.replay_log


# ---------------------------------------------------------------------------
# differential: writer-produced logs, truncations, byte flips
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("path", PINNED, ids=lambda p: p.stem)
    def test_pinned_logs_read_identically(self, path):
        text = path.read_text()
        log = loads_replay(text)
        assert log.complete
        assert _view(log) == _view(oracle_loads_replay(text))

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulted"])
    @pytest.mark.parametrize("workload", ["micro_high_abort", "micro_sync"])
    def test_fresh_logs_read_identically(self, workload, faulted):
        text = _recorded(workload, faulted)
        log = loads_replay(text)
        assert log.complete and log.events
        assert _view(log) == _view(oracle_loads_replay(text))

    def test_faulted_log_carries_junk_lbr_entries(self):
        junk = [entry for _, s in loads_replay(_recorded("micro_sync", True)).events
                for entry in s.lbr if not isinstance(entry, LbrEntry)]
        assert junk and all(isinstance(entry, str) for entry in junk)

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=10**6))
    def test_truncation_at_any_offset(self, cut):
        text = _small_log()
        _assert_agrees(text[:cut % (len(text) + 1)])

    @settings(max_examples=300, deadline=None)
    @given(at=st.integers(min_value=0, max_value=10**6),
           mask=st.integers(min_value=1, max_value=127))
    def test_single_byte_flip(self, at, mask):
        # the log is ASCII; an ASCII mask keeps it decodable text
        data = bytearray(_small_log().encode())
        data[at % len(data)] ^= mask
        _assert_agrees(data.decode())

    def test_every_line_cut_and_flip_of_one_event(self):
        """Exhaustive over the first event line: every cut point, and a
        low-bit flip of every byte."""
        text = _small_log()
        start = text.index("\n") + 1
        end = text.index("\n", start)
        for cut in range(start, end + 1):
            _assert_agrees(text[:cut])
        data = text.encode()
        for at in range(start, end):
            flipped = bytearray(data)
            flipped[at] ^= 1
            _assert_agrees(flipped.decode())

    def test_relaid_event_line_now_ends_the_parse(self):
        """The one intended difference: a re-indented event line whose
        CRC is still valid was accepted by the oracle (it re-encoded the
        payload); the reader now accepts only the writer's layout."""
        lines = _small_log().split("\n")
        lines[1] = json.dumps(json.loads(lines[1]), sort_keys=True)
        text = "\n".join(lines)
        old = oracle_loads_replay(text)
        assert old.complete and old.torn_lines == 0
        new = loads_replay(text)
        assert not new.complete
        assert new.events == []
        assert new.torn_lines == sum(1 for ln in lines[1:] if ln.strip())


# ---------------------------------------------------------------------------
# damaged logs raise ReplayFormatError or end as a torn tail, never crash
# ---------------------------------------------------------------------------


def _event_line(payload: object, seq: int) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return '{"c":%d,"e":%s,"s":%d}' % (zlib.crc32(raw.encode()), raw, seq)


class TestDamagedLogs:
    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.rlog"
        data = bytearray(_small_log().encode())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ReplayFormatError, match="bad.rlog"):
            load_replay(path)
        assert main(["replay", str(path), "--no-report"]) == 2

    @pytest.mark.parametrize("version", ['"1x"', '"one"', "[1]", "{}", "1.5"])
    def test_non_integer_version_is_a_format_error(self, version):
        lines = _small_log().split("\n")
        header = json.loads(lines[0])
        header["version"] = "@"
        lines[0] = json.dumps(header).replace('"@"', version)
        with pytest.raises(ReplayFormatError, match="version"):
            loads_replay("\n".join(lines))

    def test_non_object_meta_is_a_format_error(self):
        lines = _small_log().split("\n")
        header = json.loads(lines[0])
        header["meta"] = "abc"
        lines[0] = json.dumps(header)
        with pytest.raises(ReplayFormatError, match="meta"):
            loads_replay("\n".join(lines))

    @pytest.mark.parametrize("payload", [
        1,
        [1],
        ["w", {"e": "cycles", "t": 0, "ts": 1, "ip": 2}],
        [1, [0, 1, 2]],
        [1, {"e": "cycles"}],
        [1, {"e": "cycles", "t": 0, "ts": 1, "ip": 2, "l": [[1, 2]]}],
        [1, {"e": "cycles", "t": 0, "ts": 1, "ip": 2, "us": 7}],
        [1, 2, 3],
    ], ids=repr)
    def test_wrongly_shaped_payload_is_a_torn_tail(self, payload):
        lines = _small_log().split("\n")
        good = loads_replay("\n".join(lines))
        assert len(good.events) >= 2
        # replace event 1 with a CRC-valid line of the wrong shape
        lines[2] = _event_line(payload, 1)
        log = loads_replay("\n".join(lines))
        assert log.events == good.events[:1]
        assert not log.complete
        assert log.torn_lines == sum(1 for ln in lines[2:] if ln.strip())

    @pytest.mark.parametrize("site_names", [{"not-an-address": "cs"}, 7],
                             ids=["bad-key", "not-a-table"])
    def test_unreadable_manifest_is_a_torn_tail(self, site_names):
        lines = _small_log().rstrip("\n").split("\n")
        doc = json.loads(lines[-1])
        doc["manifest"]["site_names"] = site_names
        lines[-1] = json.dumps(doc)
        log = loads_replay("\n".join(lines))
        assert not log.complete and log.site_names == {}
        assert len(log.events) == len(lines) - 2
        assert log.torn_lines == 1


# ---------------------------------------------------------------------------
# writer: re-encoding a parsed log gives back its exact bytes
# ---------------------------------------------------------------------------


def _rewritten(text: str) -> str:
    """Decode a log and write every event and its seal out again."""
    log = loads_replay(text)
    writer = ReplayWriter(log.meta)
    for state_word, sample in log.events:
        writer.append(state_word, sample)
    writer.seal(site_names=log.site_names, summary=log.summary)
    return writer.dumps()


class TestWriterRoundTrip:
    @pytest.mark.parametrize("path", PINNED, ids=lambda p: p.stem)
    def test_pinned_log_rewrites_byte_identically(self, path):
        text = path.read_text()
        assert _rewritten(text) == text

    def test_faulted_log_rewrites_byte_identically(self):
        text = _recorded("micro_sync", True)
        assert _rewritten(text) == text

    @pytest.mark.parametrize("path", PINNED, ids=lambda p: p.stem)
    def test_one_lbr_entry_object_per_distinct_entry(self, path):
        log = loads_replay(path.read_text())
        entries = [entry for _, s in log.events for entry in s.lbr]
        assert len(entries) > 10 * len(set(entries))
        assert len({id(entry) for entry in entries}) == len(set(entries))

    def test_interning_is_per_call(self):
        text = PINNED[0].read_text()
        a, b = loads_replay(text), loads_replay(text)
        assert a.events[0][1].lbr[0] == b.events[0][1].lbr[0]
        assert a.events[0][1].lbr[0] is not b.events[0][1].lbr[0]
