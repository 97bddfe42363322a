"""Every line the result store writes is a CRC frame of
:mod:`repro.campaign.durable`.

* **Byte flips** — one changed byte anywhere in the MANIFEST, a WAL or a
  segment, of a flushed or an unflushed store.  Before open, recovery
  must cut the damaged line off, so :meth:`ResultStore.fetch` never
  returns a value that was never put.  After open, ``fetch`` returns
  the put value or raises :class:`StoreError`.
* **Upgrade** — a store of unframed (legacy) JSON lines still opens
  with every record intact; new appends land framed in the same files,
  and a full compaction leaves no unframed line behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.durable import decode, scan
from repro.campaign.store import ResultStore, StoreError

_keys = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_values = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_puts = st.lists(st.tuples(_keys, _values), min_size=1, max_size=6)


def _line_files(root: Path) -> list[str]:
    """The non-empty MANIFEST, WALs and segments."""
    return sorted(p.name for p in root.iterdir() if p.stat().st_size
                  and (p.name == ResultStore.MANIFEST
                       or p.suffix in (".log", ".jsonl")))


def _written(root: Path, puts: list[tuple[str, str]], flushed: bool) -> dict:
    """Put ``puts``; close the store (flushed) or drop it with its
    records only in the WAL (unflushed).  Returns every value put per
    key, oldest first."""
    store = ResultStore(root)
    history: dict[str, list[dict]] = {}
    for key, value in puts:
        store.put(key, {"v": value})
        history.setdefault(key, []).append({"v": value})
    if flushed:
        store.close()
    else:
        assert store._wal_fh is not None
        store._wal_fh.close()
    return history


def _flip(path: Path, data: st.DataObject) -> None:
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]),
                        label="byte")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("flushed", [True, False],
                         ids=["flushed", "unflushed"])
@settings(max_examples=80, deadline=None)
@given(puts=_puts, data=st.data())
def test_flip_before_open_never_serves_a_value_never_put(
        tmp_path_factory, flushed, puts, data):
    root = tmp_path_factory.mktemp("flip")
    history = _written(root, puts, flushed)
    _flip(root / data.draw(st.sampled_from(_line_files(root)),
                           label="file"), data)
    store = ResultStore(root)
    try:
        for key in history:
            got = store.fetch(key)
            assert got is None or got in history[key], (key, got)
    finally:
        store.close()


@pytest.mark.parametrize("flushed", [True, False],
                         ids=["flushed", "unflushed"])
@settings(max_examples=80, deadline=None)
@given(puts=_puts, data=st.data())
def test_flip_after_open_serves_the_value_or_raises(
        tmp_path_factory, flushed, puts, data):
    root = tmp_path_factory.mktemp("flip")
    history = _written(root, puts, flushed)
    store = ResultStore(root)
    try:
        _flip(root / data.draw(st.sampled_from(_line_files(root)),
                               label="file"), data)
        for key, values in history.items():
            try:
                got = store.fetch(key)
            except StoreError as exc:
                assert "corrupt record" in str(exc)
                continue
            assert got == values[-1], (key, got)
    finally:
        store._crash_hook = None
        if store._wal_fh is not None:
            store._wal_fh.close()
            store._wal_fh = None


# ---------------------------------------------------------------------------
# upgrade from unframed lines
# ---------------------------------------------------------------------------


def _legacy(*entries: dict) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)


def _legacy_store(root: Path) -> dict[str, dict]:
    """A store as it was written before lines carried a CRC: a level-0
    segment, a WAL that supersedes one of its keys, and the ledger."""
    root.mkdir()
    seg, old_wal, wal = "seg-00000001.jsonl", "wal-00000001.log", \
        "wal-00000002.log"
    (root / seg).write_text(_legacy(
        {"seq": 1, "key": "aa", "record": {"v": 1}},
        {"seq": 2, "key": "zz", "record": {"v": [2, "two"]}}))
    (root / wal).write_text(_legacy(
        {"seq": 3, "key": "mm", "record": {"v": {"three": 3}}},
        {"seq": 4, "key": "aa", "record": {"v": 4}}))
    (root / ResultStore.MANIFEST).write_text(_legacy(
        {"op": "wal", "wal": old_wal},
        {"level": 0, "op": "add", "segment": seg},
        {"op": "wal-drop", "wal": old_wal},
        {"op": "wal", "wal": wal}))
    return {"aa": {"v": 4}, "zz": {"v": [2, "two"]}, "mm": {"v": {"three": 3}}}


def _framed(line: bytes) -> bool:
    return line.startswith(b'{"c": ')


def _lines(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines() if line.strip()]


def test_legacy_store_opens_and_upgrades_on_the_write_paths(tmp_path):
    root = tmp_path / "s"
    expected = _legacy_store(root)
    store = ResultStore(root)
    assert {key: store.fetch(key) for key in store.keys()} == expected

    # new puts land framed in the very WAL that holds the legacy lines
    store.put("nn", {"v": "new"})
    expected["nn"] = {"v": "new"}
    wal = _lines(root / "wal-00000002.log")
    assert [_framed(line) for line in wal] == [False, False, True]
    assert scan((root / "wal-00000002.log").read_bytes(),
                decode).entries[-1]["record"] == {"v": "new"}
    store.close()

    again = ResultStore(root)
    assert {key: again.fetch(key) for key in again.keys()} == expected
    again.compact()
    assert {key: again.fetch(key) for key in again.keys()} == expected
    again.close()
    for name in _line_files(root):
        assert all(_framed(line) for line in _lines(root / name)), name

    third = ResultStore(root)
    assert {key: third.fetch(key) for key in third.keys()} == expected
    third.close()


def test_recovery_reframes_legacy_wal_lines_and_copies_frames(tmp_path):
    """Flushing a recovered memtable writes every line framed, and a
    line that already was a frame keeps its exact bytes."""
    root = tmp_path / "s"
    expected = _legacy_store(root)
    store = ResultStore(root)
    store.put("nn", {"v": "new"})
    framed_new = _lines(root / "wal-00000002.log")[-1]
    assert store._wal_fh is not None
    store._wal_fh.close()  # dropped unflushed: the WAL holds both kinds

    again = ResultStore(root)
    again.flush()
    segments = sorted(root.glob("seg-*.jsonl"))
    flushed = _lines(segments[-1])
    assert all(_framed(line) for line in flushed)
    assert framed_new in flushed
    expected["nn"] = {"v": "new"}
    assert {key: again.fetch(key) for key in again.keys()} == expected
    again.close()


def test_compaction_keeps_segments_damaged_since_open(tmp_path):
    """A line damaged after open stops its segment's fold; compaction
    refuses rather than drop the records the fold never reached."""
    store = ResultStore(tmp_path, background=False)
    try:
        for key in ("aa", "bb", "cc"):
            store.put(key, {"v": key})
        store.flush()
        store.put("dd", {"v": "dd"})
        store.flush()
        segment = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        segment.write_bytes(segment.read_bytes().replace(b'"aa"', b'"ab"', 1))
        with pytest.raises(StoreError, match="not compacting"):
            store.compact()
        with pytest.raises(StoreError, match="corrupt record"):
            store.fetch("aa")
        assert [store.fetch(key) for key in ("bb", "cc", "dd")] == \
            [{"v": "bb"}, {"v": "cc"}, {"v": "dd"}]
    finally:
        store.close()
