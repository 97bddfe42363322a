"""The on-disk content-addressed result store (one append-only log)."""

import json
import sys
import threading

from repro.campaign.durable import decode, scan
from repro.campaign.store import MemoryStore, ResultStore


def log_path(root):
    return root / ResultStore.LOG


def legacy_files(root):
    return sorted(p.name for p in root.iterdir()
                  if p.name == "MANIFEST" or p.suffix in (".jsonl", ".log")
                  and p.name != ResultStore.LOG)


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        assert store.get("k1") == {"a": 1}
        assert store.get("nope") is None
        assert (store.hits, store.misses) == (1, 1)

    def test_probe_and_fetch_do_not_count(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        assert store.probe("k1") and not store.probe("k2")
        assert store.fetch("k1") == {"a": 1}
        assert (store.hits, store.misses) == (0, 0)

    def test_container_protocol(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {})
        store.put("k2", {})
        assert "k1" in store and "zz" not in store
        assert len(store) == 2
        assert sorted(store.keys()) == ["k1", "k2"]

    def test_reopen_recovers_index(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.put("k2", {"b": [1, 2, 3]})
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": [1, 2, 3]}

    def test_reopen_recovers_flushed_and_unflushed(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.compact()  # k1 now lives in a rewritten log …
        store.put("k2", {"b": 2})  # … k2 only in an append after it
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": 2}

    def test_last_write_wins_and_counts_superseded(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.fetch("k") == {"v": 2}
        assert store.superseded == 1
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k") == {"v": 2}
        assert again.superseded == 1

    def test_overwrite_across_flush_boundary(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {"v": 1})
        store.compact()
        store.put("k", {"v": 2})
        assert store.superseded == 1
        assert store.fetch("k") == {"v": 2}
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k") == {"v": 2}



class TestWal:
    def test_puts_land_in_wal_before_any_segment(self, tmp_path):
        """A put is one line appended to the log, in write order, and
        no other file appears."""
        store = ResultStore(tmp_path / "s")
        for key in ["zz", "aa"]:
            store.put(key, {"k": key})
        assert [p.name for p in (tmp_path / "s").iterdir()] == \
            [ResultStore.LOG]
        keys = [entry["key"] for entry in
                scan(log_path(tmp_path / "s").read_bytes(), decode).entries]
        assert keys == ["zz", "aa"]

    def test_creating_the_log_syncs_its_directory(self, tmp_path,
                                                  monkeypatch):
        """The first put creates the log: the directory is fsynced
        before that put is acknowledged, so the name survives a power
        loss; later puts fsync only the file."""
        import os

        synced: list[bool] = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.path.isdir(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        store = ResultStore(tmp_path / "s")
        store.put("a", {})
        store.put("b", {})
        assert synced == [True, False, False]

    def test_segment_lines_are_sorted_by_key(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for key in ["zz", "aa", "mm"]:
            store.put(key, {"k": key})
        store.compact()
        keys = [entry["key"] for entry in
                scan(log_path(tmp_path / "s").read_bytes(), decode).entries]
        assert keys == sorted(keys)


class TestCrashTolerance:
    def test_torn_wal_tail_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.put("k2", {"b": 2})
        with log_path(tmp_path / "s").open("ab") as fh:
            fh.write(b'{"seq": 99, "key": "k3", "rec')  # hard kill mid-append
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": 2}
        assert not again.probe("k3")

    def test_torn_segment_tail_ignored(self, tmp_path):
        """A legacy segment's torn tail is cut off by the upgrade."""
        root = tmp_path / "s"
        root.mkdir()
        seg = root / "seg-00000001.jsonl"
        seg.write_text(
            '{"seq": 1, "key": "k1", "record": {"a": 1}}\n'
            '{"seq": 2, "key": "k2", "record": {"b": 2}}\n')
        with seg.open("ab") as fh:
            fh.write(b'{"seq": 99, "key": "k3", "rec')
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": 2}
        assert not again.probe("k3")

    def test_writes_continue_after_torn_tail_recovery(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        with log_path(tmp_path / "s").open("ab") as fh:
            fh.write(b"garbage-no-json")
        again = ResultStore(tmp_path / "s")
        again.put("k2", {"b": 2})
        third = ResultStore(tmp_path / "s")
        assert third.fetch("k1") == {"a": 1}
        assert third.fetch("k2") == {"b": 2}

    def test_torn_manifest_tail_ignored(self, tmp_path):
        # a legacy MANIFEST, torn mid-append, holds no record: the
        # upgrade removes it and keeps the log's records
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.close()
        with (tmp_path / "s" / "MANIFEST").open("ab") as fh:
            fh.write(b'{"op": "add", "seg')
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert not legacy_files(tmp_path / "s")

    def test_manifested_but_never_written_segment_is_legal(self, tmp_path):
        # a legacy ledger could add a segment whose file a crash never
        # wrote: the upgrade reads the files that exist
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.close()
        (tmp_path / "s" / "MANIFEST").write_text(json.dumps(
            {"op": "add", "segment": "seg-00000099.jsonl"}) + "\n")
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        again.put("k2", {"b": 2})
        assert ResultStore(tmp_path / "s").fetch("k2") == {"b": 2}

    def test_undropped_wal_after_flush_is_deduped(self, tmp_path):
        # a legacy flush that died before its WAL drop left the same
        # record in a segment and a WAL: the upgrade keeps one copy
        root = tmp_path / "s"
        root.mkdir()
        line = '{"seq": 1, "key": "k1", "record": {"a": 1}}\n'
        (root / "seg-00000001.jsonl").write_text(line)
        (root / "wal-00000001.log").write_text(line)
        again = ResultStore(root)
        assert again.fetch("k1") == {"a": 1}
        assert again.superseded == 0  # same seq twice = dedupe, not clobber
        assert len(again) == 1
        assert len(scan(log_path(root).read_bytes(), decode).lines) == 1

    def test_legacy_store_without_wal_or_levels_recovers(self, tmp_path):
        # pre-LSM stores: manifest adds with no level, unsorted segments
        root = tmp_path / "s"
        root.mkdir()
        seg = "seg-00000001.jsonl"
        (root / seg).write_text(
            '{"seq": 1, "key": "zz", "record": {"v": 1}}\n'
            '{"seq": 2, "key": "aa", "record": {"v": 2}}\n'
        )
        (root / "MANIFEST").write_text(
            json.dumps({"op": "add", "segment": seg}) + "\n"
        )
        store = ResultStore(root)
        assert store.fetch("zz") == {"v": 1}
        assert store.fetch("aa") == {"v": 2}
        store.put("k3", {"v": 3})
        again = ResultStore(root)
        assert len(again) == 3
        assert not legacy_files(root)


class TestSegmentsAndCompaction:
    def test_compaction_drops_superseded(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(4):
            store.put(f"k{i}", {"v": i})
        for i in range(4):
            store.put(f"k{i}", {"v": i + 100})
        before = log_path(tmp_path / "s").stat().st_size
        dropped = store.compact()
        assert dropped == 4
        assert store.superseded == 0
        assert log_path(tmp_path / "s").stat().st_size < before
        for i in range(4):
            assert store.fetch(f"k{i}") == {"v": i + 100}

    def test_compacted_store_reopens(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        store.put("k0", {"v": 999})
        store.compact()
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k0") == {"v": 999}
        assert len(again) == 5
        assert again.superseded == 0

    def test_compact_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "s").compact() == 0

    def test_superseded_majority_triggers_compaction(self, tmp_path):
        """A write that leaves more superseded lines than live ones
        rewrites the log; nothing else does."""
        store = ResultStore(tmp_path / "s")
        store.put("a", {"v": 0})
        store.put("b", {"v": 0})
        store.put("a", {"v": 1})
        store.put("a", {"v": 2})  # superseded 2 == live 2: no rewrite
        assert store.compactions == 0
        assert len(scan(log_path(tmp_path / "s").read_bytes(),
                        decode).lines) == 4
        store.put("a", {"v": 3})  # superseded 3 > live 2
        assert (store.compactions, store.superseded) == (1, 0)
        assert len(scan(log_path(tmp_path / "s").read_bytes(),
                        decode).lines) == 2
        again = ResultStore(tmp_path / "s")
        assert {k: again.fetch(k) for k in again.keys()} == \
            {"a": {"v": 3}, "b": {"v": 0}}

    def test_reader_survives_concurrent_compaction(self, tmp_path):
        """Readers and compactions interleave freely: every read, taken
        under the store mutex, returns the record, never bytes of a
        log that a compaction swapped out."""
        store = ResultStore(tmp_path / "s")
        for i in range(20):
            store.put(f"k{i:02d}", {"v": i})
        stop = threading.Event()
        errors: list[BaseException] = []

        def read_all():
            try:
                while not stop.is_set():
                    for i in range(20):
                        assert store.fetch(f"k{i:02d}") == {"v": i}
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=read_all) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            for _ in range(30):
                store.put("k00", {"v": 0})  # a superseded line to drop
                store.compact()
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert not errors
        assert store.compactions == 30
        assert [p.name for p in (tmp_path / "s").iterdir()] == \
            [ResultStore.LOG]

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {})
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert store.get("nope") is None
        st = store.stats()
        assert st["backend"] == "disk"
        assert st["records"] == 1
        assert st["log_bytes"] == log_path(tmp_path / "s").stat().st_size
        assert (st["superseded"], st["hits"], st["misses"]) == (1, 1, 1)
        assert st["compactions"] == 0
        assert st["scrub"] is None
        store.compact()
        st = store.stats()
        assert (st["superseded"], st["compactions"]) == (0, 1)

    def test_export_metrics(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = ResultStore(tmp_path / "s")
        store.put("k", {})
        store.compact()
        registry = MetricsRegistry()
        store.export_metrics(registry)
        snap = registry.snapshot()
        assert snap["store.records"]["value"] == 1
        assert snap["store.log.bytes"]["value"] > 0
        assert snap["store.compactions"]["value"] == 1


class TestConcurrency:
    def test_concurrent_writers_and_readers(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        errors: list[BaseException] = []

        def writer(base):
            try:
                for i in range(25):
                    store.put(f"w{base}-{i:02d}", {"v": base * 100 + i})
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(50):
                    for key in store.keys()[:10]:
                        store.fetch(key)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(b,))
                   for b in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        store.close()
        assert not errors
        again = ResultStore(tmp_path / "s")
        assert len(again) == 75
        for base in range(3):
            for i in range(25):
                assert again.fetch(f"w{base}-{i:02d}") == \
                    {"v": base * 100 + i}

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {"v": 1})
        store.close()
        store.close()
        assert ResultStore(tmp_path / "s").fetch("k") == {"v": 1}


class TestMemoryStore:
    def test_same_interface(self):
        store = MemoryStore()
        store.put("k", {"v": 1})
        assert store.probe("k")
        assert store.fetch("k") == {"v": 1}
        assert store.get("k") == {"v": 1}
        assert store.get("zz") is None
        assert (store.hits, store.misses) == (1, 1)
        assert "k" in store and len(store) == 1
        assert store.compact() == 0
        assert store.stats()["backend"] == "memory"


# ---------------------------------------------------------------------------
# property-based recovery (hypothesis): any torn tail or garbage in the
# log or a legacy MANIFEST must recover to a readable store with no
# phantom or duplicated results.  (Crash injection *during* appends and
# compaction lives in tests/test_store_crash_properties.py.)
# ---------------------------------------------------------------------------

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

_puts = st.lists(
    st.tuples(st.sampled_from("abcdef"),
              st.integers(min_value=0, max_value=999)),
    min_size=1, max_size=30,
)


def _populate(root, puts, compacted):
    store = ResultStore(root)
    written: dict[str, list[int]] = {}
    for key, value in puts:
        store.put(key, {"v": value})
        written.setdefault(key, []).append(value)
    if compacted:
        store.compact()
    store.close()
    return written


def _as_legacy(root):
    """Turn the log into a legacy store: its lines become a WAL that a
    MANIFEST names."""
    log_path(root).rename(root / "wal-00000001.log")
    manifest = root / "MANIFEST"
    manifest.write_text(json.dumps({"op": "wal", "wal": "wal-00000001.log"})
                        + "\n")
    return manifest


def _check_recovered(root, written):
    """The recovery contract, shared by every corruption shape."""
    store = ResultStore(root)
    assert not legacy_files(root)
    for key in store.keys():
        assert key in written, f"phantom key {key!r}"
        record = store.fetch(key)
        assert record["v"] in written[key], "phantom value"
    assert len(store.keys()) == len(set(store.keys())), "duplicated key"
    # the store stays writable and reads back what it accepts
    store.put("zz-fresh", {"v": -1})
    assert store.fetch("zz-fresh") == {"v": -1}
    # recovery is idempotent: reopening changes nothing
    again = ResultStore(root)
    assert set(again.keys()) >= set(written) & set(again.keys())
    assert "zz-fresh" in again


class TestRecoveryProperties:
    @given(puts=_puts, cut=st.integers(min_value=0, max_value=400),
           compacted=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_torn_data_tail_any_cut(self, puts, cut, compacted):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, compacted)
            tail = log_path(root)
            raw = tail.read_bytes()
            tail.write_bytes(raw[:min(cut, len(raw))])
            _check_recovered(root, written)

    @given(puts=_puts, cut=st.integers(min_value=0, max_value=200),
           compacted=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_partial_manifest_any_cut(self, puts, cut, compacted):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, compacted)
            manifest = _as_legacy(root)
            raw = manifest.read_bytes()
            manifest.write_bytes(raw[:min(cut, len(raw))])
            _check_recovered(root, written)

    @given(puts=_puts, junk=st.binary(min_size=1, max_size=40),
           compacted=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_garbage_appended_mid_crash(self, puts, junk, compacted):
        """A hard kill mid-append leaves arbitrary bytes at the tail of
        the log, or of both a legacy store's manifest and WAL."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, compacted)
            paths = [log_path(root)]
            if compacted:
                paths = [_as_legacy(root), root / "wal-00000001.log"]
            for path in paths:
                with path.open("ab") as fh:
                    fh.write(junk)
            _check_recovered(root, written)

    @given(puts=_puts)
    @settings(max_examples=20, deadline=None)
    def test_uncorrupted_store_recovers_exactly(self, puts):
        """No corruption: recovery must reproduce last-wins exactly —
        every written key present, holding its final value."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, compacted=False)
            store = ResultStore(root)
            assert set(store.keys()) == set(written)
            for key, values in written.items():
                assert store.fetch(key) == {"v": values[-1]}
