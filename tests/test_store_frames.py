"""Every line the result store writes is a CRC frame of
:mod:`repro.campaign.durable`.

* **Byte flips** — one changed byte anywhere in the record log of a
  closed store (flushed) or of one dropped without a close (unflushed).
  Before open, recovery must cut the damaged line off, so
  :meth:`ResultStore.fetch` never returns a value that was never put.
  After open, ``fetch`` returns the put value or raises
  :class:`StoreError`.
* **Upgrade** — a legacy store in the earlier LSM layout (MANIFEST,
  WALs, segments; framed or unframed lines) opens with every record
  intact, folded into one log of framed lines, and its legacy files
  are gone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.durable import decode, frame, scan
from repro.campaign.store import CrashPoint, ResultStore, StoreError

_keys = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_values = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_puts = st.lists(st.tuples(_keys, _values), min_size=1, max_size=6)


def _line_files(root: Path) -> list[str]:
    """The non-empty line files: the log and any legacy file."""
    return sorted(p.name for p in root.iterdir() if p.is_file()
                  and p.stat().st_size
                  and (p.name == "MANIFEST"
                       or p.suffix in (".log", ".jsonl")))


def _written(root: Path, puts: list[tuple[str, str]], flushed: bool) -> dict:
    """Put ``puts``; close the store (flushed) or drop its handle
    without a close (unflushed).  Returns every value put per key,
    oldest first."""
    store = ResultStore(root)
    history: dict[str, list[dict]] = {}
    for key, value in puts:
        store.put(key, {"v": value})
        history.setdefault(key, []).append({"v": value})
    if flushed:
        store.close()
    elif store._fh is not None:
        store._fh.close()
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
        if store._fh is not None:
            store._fh.close()
            store._fh = None


# ---------------------------------------------------------------------------
# upgrade from the legacy LSM layout
# ---------------------------------------------------------------------------


def _legacy(*entries: dict) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)


def _framed_lines(*entries: dict) -> str:
    return "".join(frame(e).decode() for e in entries)


def _legacy_store(root: Path) -> dict[str, dict]:
    """A store as the earlier LSM layout left it, built by hand:

    * a MANIFEST with ``add``/``drop``/``wal``/``wal-drop`` entries;
    * two levels — an L1 segment from a compaction and an L0 segment
      from a later flush;
    * a dropped segment (the compaction's input) that was never
      unlinked;
    * an undropped WAL still holding the newest writes;
    * one unframed legacy line (in the oldest segment).

    Returns every key's current record."""
    root.mkdir()
    (root / "seg-00000001.jsonl").write_text(_legacy(
        {"seq": 1, "key": "aa", "record": {"v": 1}}) + _framed_lines(
        {"seq": 2, "key": "zz", "record": {"v": [2, "two"]}}))
    (root / "seg-00000002.jsonl").write_text(_framed_lines(
        {"seq": 1, "key": "aa", "record": {"v": 1}},
        {"seq": 2, "key": "zz", "record": {"v": [2, "two"]}}))
    (root / "seg-00000003.jsonl").write_text(_framed_lines(
        {"seq": 3, "key": "bb", "record": {"v": "three"}},
        {"seq": 4, "key": "zz", "record": {"v": 4}}))
    (root / "wal-00000003.log").write_text(_framed_lines(
        {"seq": 5, "key": "mm", "record": {"v": {"five": 5}}},
        {"seq": 6, "key": "aa", "record": {"v": 6}}))
    (root / "MANIFEST").write_text(_framed_lines(
        {"op": "wal", "wal": "wal-00000001.log"},
        {"level": 0, "op": "add", "segment": "seg-00000001.jsonl"},
        {"op": "wal-drop", "wal": "wal-00000001.log"},
        {"level": 1, "op": "add", "segment": "seg-00000002.jsonl"},
        {"op": "drop", "segment": "seg-00000001.jsonl"},
        {"op": "wal", "wal": "wal-00000002.log"},
        {"level": 0, "op": "add", "segment": "seg-00000003.jsonl"},
        {"op": "wal-drop", "wal": "wal-00000002.log"},
        {"op": "wal", "wal": "wal-00000003.log"}))
    return {"aa": {"v": 6}, "bb": {"v": "three"}, "mm": {"v": {"five": 5}},
            "zz": {"v": 4}}


def _framed(line: bytes) -> bool:
    return line.startswith(b'{"c": ')


def _lines(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines() if line.strip()]


def _records(store: ResultStore) -> dict[str, dict | None]:
    return {key: store.fetch(key) for key in store.keys()}


def _only_the_new_layout(root: Path) -> None:
    assert sorted(p.name for p in root.iterdir()) == [ResultStore.LOG]
    assert all(_framed(line) for line in _lines(root / ResultStore.LOG))


def test_legacy_store_opens_and_upgrades_on_the_write_paths(tmp_path):
    root = tmp_path / "s"
    expected = _legacy_store(root)
    store = ResultStore(root)
    assert _records(store) == expected
    _only_the_new_layout(root)

    # new puts append framed lines to the folded log
    store.put("nn", {"v": "new"})
    expected["nn"] = {"v": "new"}
    assert scan((root / ResultStore.LOG).read_bytes(),
                decode).entries[-1]["record"] == {"v": "new"}
    store.close()

    again = ResultStore(root)
    assert _records(again) == expected
    again.compact()
    assert _records(again) == expected
    again.close()
    _only_the_new_layout(root)


@pytest.mark.parametrize("boundary",
                         ["compact-write", "compact-rename", "legacy-unlink"])
def test_a_crash_at_each_upgrade_boundary_gives_the_same_records(
        tmp_path, boundary):
    root = tmp_path / "s"
    expected = _legacy_store(root)

    def die(step: str) -> None:
        if step == boundary:
            raise CrashPoint(step)

    with pytest.raises(CrashPoint):
        ResultStore(root, crash_hook=die)
    store = ResultStore(root)
    assert _records(store) == expected
    store.close()
    (root / (ResultStore.LOG + ".tmp")).unlink(missing_ok=True)
    _only_the_new_layout(root)


def test_recovery_reframes_legacy_wal_lines_and_copies_frames(tmp_path):
    """The upgrade frames each unframed line, and a line that already
    was a frame keeps its exact bytes."""
    root = tmp_path / "s"
    _legacy_store(root)
    framed_wal = _lines(root / "wal-00000003.log")
    store = ResultStore(root)
    folded = _lines(root / ResultStore.LOG)
    assert framed_wal[1] in folded  # aa@6: copied byte for byte
    assert frame({"seq": 3, "key": "bb", "record": {"v": "three"}})[:-1] \
        in folded
    assert [scan(line, decode).entries[0]["key"] for line in folded] == \
        ["aa", "bb", "mm", "zz"]
    store.close()


def test_compaction_keeps_segments_damaged_since_open(tmp_path):
    """A line damaged after open cannot be compacted; compaction
    refuses rather than drop its record."""
    store = ResultStore(tmp_path)
    try:
        for key in ("aa", "bb", "cc", "dd"):
            store.put(key, {"v": key})
        log = tmp_path / ResultStore.LOG
        log.write_bytes(log.read_bytes().replace(b'"aa"', b'"ab"', 1))
        with pytest.raises(StoreError, match="not compacting"):
            store.compact()
        with pytest.raises(StoreError, match="corrupt record"):
            store.fetch("aa")
        assert [store.fetch(key) for key in ("bb", "cc", "dd")] == \
            [{"v": "bb"}, {"v": "cc"}, {"v": "dd"}]
    finally:
        store.close()
