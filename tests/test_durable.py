"""Crash properties of the durable line format, written once.

:mod:`repro.campaign.durable` is the one encoder, decoder, scanner, tail
repair, damage classifier and atomic rewriter under the result store's
record log and the serve task journal, both CRC-framed.  The store and
journal tests exercise it through their owners; this file states the
properties of the module itself, for frames and for the unframed JSON
lines older stores wrote:

* a cut at any byte offset reads back a prefix of what was written;
* after a cut, :func:`repair_tail` plus one more append reads back
  every entry — a cut just before a newline must not let the next
  record fuse onto the last one;
* a single-byte change in a framed file never yields an entry that was
  never written, and :func:`decode` never mistakes a damaged frame for
  a legacy line.

The oracle below is the journal's earlier line encoder, kept verbatim:
:func:`frame` must write the same bytes and :func:`unframe` must read
every line it wrote.
"""

from __future__ import annotations

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import durable
from repro.campaign.durable import (
    damage_kind,
    decode,
    frame,
    plain,
    read,
    reframe,
    repair_tail,
    scan,
    unframe,
)


def _oracle_encode(entry: dict) -> bytes:
    """The task journal's earlier ``_encode``."""
    payload = json.dumps(entry, sort_keys=True)
    line = json.dumps({"c": zlib.crc32(payload.encode()), "j": entry},
                      sort_keys=True)
    return line.encode() + b"\n"


def _plain_line(entry: dict) -> bytes:
    """A store line as unframed (legacy) stores wrote it."""
    return json.dumps(entry, sort_keys=True).encode() + b"\n"


LAYOUTS = {"plain": (_plain_line, plain), "framed": (frame, unframe)}

_scalars = (st.none() | st.booleans() | st.integers(-2**40, 2**40)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=12))
_values = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids,
                                    max_size=3)),
    max_leaves=8)
_entries = st.dictionaries(st.text(max_size=8), _values, max_size=4)
_logs = st.lists(_entries, min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# the oracle: byte-identical frames, every oracle line readable
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(entry=_entries)
def test_frame_is_byte_identical_to_the_oracle(entry):
    assert frame(entry) == _oracle_encode(entry)
    assert unframe(_oracle_encode(entry)[:-1]) == entry


def test_unframe_reads_a_journal_written_by_the_oracle():
    entries: list[dict] = [{"seq": 1, "type": "epoch", "epoch": 1}]
    for i in range(20):
        task = f"c-{i:04d}"
        entries += [
            {"seq": len(entries) + 1, "type": "accepted", "task": task,
             "suite": "overhead", "submitted_at": 1.5 + i,
             "doc": {"suite": "overhead", "workloads": ["micro_sync"],
                     "n_threads": 2, "scale": 0.25, "note": "ü\n\""}},
            {"seq": len(entries) + 2, "type": "running", "task": task,
             "epoch": 1, "pid": 4242},
            {"seq": len(entries) + 3, "type": "done", "task": task,
             "summary": {"jobs": 7, "hit_rate": 0.0}, "finished_at": 9.25}
            if i % 3 else
            {"seq": len(entries) + 3, "type": "failed", "task": task,
             "error": "deadline exceeded", "finished_at": 9.25},
        ]
    raw = b"".join(_oracle_encode(e) for e in entries)
    found = scan(raw, unframe)
    assert found.entries == entries
    assert (found.valid, found.excess) == (len(raw), 0)


# ---------------------------------------------------------------------------
# crash properties, both layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=60, deadline=None)
@given(entries=_logs, data=st.data())
def test_cut_at_any_offset_reads_a_prefix(layout, entries, data):
    encode, decode = LAYOUTS[layout]
    raw = b"".join(encode(e) for e in entries)
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    found = scan(raw[:cut], decode)
    assert found.entries == entries[:len(found.entries)]
    assert found.valid + found.excess == cut
    # every line written whole survives; one more only when the cut
    # fell between a record and its newline
    whole = raw[:cut].count(b"\n")
    assert len(found.entries) in (whole, whole + 1)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(entries=_logs, extra=_entries, data=st.data())
def test_repair_then_append_reads_back_every_entry(layout, entries, extra,
                                                   data):
    encode, decode = LAYOUTS[layout]
    raw = b"".join(encode(e) for e in entries)
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "log"
        path.write_bytes(raw[:cut])
        kept = scan(read(path), decode)
        repair_tail(path, kept.valid)
        with path.open("ab") as fh:
            fh.write(encode(extra))
        found = scan(read(path), decode)
    assert found.entries == kept.entries + [extra]
    assert found.excess == 0


@settings(max_examples=150, deadline=None)
@given(entries=_logs, data=st.data())
def test_framed_byte_flip_never_invents_an_entry(entries, data):
    raw = bytearray(b"".join(frame(e) for e in entries))
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]),
                        label="byte")
    found = scan(bytes(raw), unframe).entries
    assert found == entries[:len(found)]


@settings(max_examples=150, deadline=None)
@given(entries=_logs, data=st.data())
def test_decode_never_reads_a_changed_frame_as_an_entry(entries, data):
    """:func:`decode` takes legacy lines too; a single-byte change to a
    framed file must still never yield an entry that was never written."""
    raw = bytearray(b"".join(frame(e) for e in entries))
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]),
                        label="byte")
    found = scan(bytes(raw), decode).entries
    assert found == entries[:len(found)]


# ---------------------------------------------------------------------------
# pinned cases
# ---------------------------------------------------------------------------


_RECORD = {"key": "k1", "record": {"v": "gamma"}, "seq": 3}


def test_no_single_byte_change_of_a_frame_decodes():
    """Every byte of a frame — head, CRC, payload, tail — is covered:
    a frame whose head byte flipped (``{"C": ...}``, ``{"c":\t...}``)
    still parses as JSON, but it carries ``"c"`` or ``"j"`` and so is
    damage, not a legacy line."""
    line = frame(_RECORD)[:-1]
    assert decode(line) == _RECORD
    for at in range(len(line)):
        for byte in range(256):
            if byte != line[at]:
                changed = line[:at] + bytes([byte]) + line[at + 1:]
                assert decode(changed) is None, changed


def test_flipped_head_byte_is_damage_not_legacy():
    line = frame(_RECORD)[:-1]
    for changed in (line.replace(b'"c"', b'"C"', 1),
                    line.replace(b'"c": ', b'"c":\t', 1),
                    line.replace(b'{"c": ', b'{"c":1', 1)):
        assert plain(changed) is not None  # still a JSON object
        assert decode(changed) is None


def test_decode_reads_legacy_lines():
    legacy = _plain_line(_RECORD)[:-1]
    assert decode(legacy) == _RECORD
    assert decode(b'{"op": "add", "segment": "seg-00000001.jsonl"}') \
        == {"op": "add", "segment": "seg-00000001.jsonl"}
    for line in (b'{"c": 1}', b'{"j": {}}', b'{"c": 5, "j": {"a": 1}}',
                 b"5", b'{"a": 1'):
        assert decode(line) is None


def test_reframe_keeps_frames_and_frames_legacy_lines():
    framed = frame(_RECORD)[:-1]
    assert reframe(framed, _RECORD) is framed
    assert reframe(_plain_line(_RECORD)[:-1], _RECORD) == framed


def _accepted(i: int) -> bytes:
    return frame({"seq": i, "type": "accepted", "task": f"c-{i}",
                  "suite": "s", "doc": {}, "submitted_at": 0.0})


def test_cut_line_then_crc_failure_is_torn():
    """``[ok, cut line, CRC-failing line]``: recovery keeps the one
    intact record and drops no other, so the damage is a torn tail.
    Classifying the tail as plain JSON (the CRC-failing line still
    parses) would call it corrupt."""
    second = _accepted(2)
    raw = (_accepted(1) + second[:len(second) // 2] + b"\n"
           + _accepted(3).replace(b'"c-3"', b'"c-9"'))
    found = scan(raw, unframe)
    assert [e["task"] for e in found.entries] == ["c-1"]
    tail = raw[found.valid:]
    assert damage_kind(tail, unframe) == "torn"
    assert damage_kind(tail, plain) == "corrupt"


def test_intact_record_after_a_bad_line_is_corrupt():
    raw = (_accepted(1) + _accepted(2).replace(b'"c-2"', b'"c-9"')
           + _accepted(3))
    found = scan(raw, unframe)
    assert len(found.entries) == 1
    assert damage_kind(raw[found.valid:], unframe) == "corrupt"


def test_crc_valid_line_in_another_layout_is_damage():
    entry = {"seq": 1, "type": "epoch", "epoch": 3}
    payload = json.dumps(entry, sort_keys=True)
    compact = json.dumps({"c": zlib.crc32(payload.encode()), "j": entry},
                         sort_keys=True, separators=(",", ":"))
    assert json.loads(compact)["j"] == entry
    assert unframe(compact.encode()) is None


def test_plain_rejects_non_objects_and_bad_bytes():
    assert plain(b'{"a": 1}') == {"a": 1}
    for line in (b"5", b'"s"', b"[1]", b'{"a": 1', b'{"a": "\xff"}'):
        assert plain(line) is None


def test_blank_lines_are_skipped():
    raw = _plain_line({"a": 1}) + b"\n  \n" + _plain_line({"a": 2})
    found = scan(raw, plain)
    assert found.entries == [{"a": 1}, {"a": 2}]
    assert [(off, n) for off, n, _ in found.lines] == [(0, 8), (13, 8)]


def test_read_of_a_missing_file_is_empty(tmp_path):
    assert read(tmp_path / "absent") == b""
    assert scan(b"", plain) == ([], 0, 0)


def test_repair_tail_fsyncs_whenever_it_changes_the_file(tmp_path,
                                                         monkeypatch):
    synced: list[bytes] = []

    def fake_fsync(fh):
        fh.flush()
        synced.append(Path(fh.name).read_bytes())

    monkeypatch.setattr(durable, "fsync", fake_fsync)
    path = tmp_path / "log"
    repair_tail(path, 0)  # missing: nothing to do
    assert not path.exists() and synced == []

    path.write_bytes(b'{"a": 1}\n')
    repair_tail(path, 9)  # intact: untouched
    assert synced == []

    path.write_bytes(b'{"a": 1}\n{"a"')
    repair_tail(path, 9)  # pure truncation
    assert synced == [b'{"a": 1}\n']

    path.write_bytes(b'{"a": 1}')
    repair_tail(path, 8)  # unterminated last record
    assert synced[-1] == b'{"a": 1}\n'
    assert len(synced) == 2


def test_rewrite_is_durable_before_and_after_the_rename(tmp_path,
                                                       monkeypatch):
    """The temp file is fsynced before the rename and the directory
    after it, so the rename itself survives a power loss."""
    events: list[str] = []
    real_fsync = durable.os.fsync

    def spy_fsync(fd):
        events.append("dir-fsync" if durable.os.path.isdir(
            f"/proc/self/fd/{fd}") else "file-fsync")
        real_fsync(fd)

    monkeypatch.setattr(durable.os, "fsync", spy_fsync)
    path = tmp_path / "log"
    path.write_bytes(b"old\n")
    durable.rewrite(path, b"new\n", lambda: events.append("rename"))
    assert events == ["file-fsync", "rename", "dir-fsync"]
    assert path.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log"]


def test_rewrite_interrupted_before_the_rename_keeps_the_old_file(
        tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b"old\n")

    def die() -> None:
        raise RuntimeError("killed")

    with pytest.raises(RuntimeError):
        durable.rewrite(path, b"new\n", die)
    assert path.read_bytes() == b"old\n"
    assert (tmp_path / f"log{durable.TMP_SUFFIX}").read_bytes() == b"new\n"
