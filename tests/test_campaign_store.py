"""The on-disk content-addressed result store (LSM shape)."""

import json
import threading

from repro.campaign.durable import decode, scan
from repro.campaign.store import MemoryStore, ResultStore


def seg_files(root):
    return sorted(p.name for p in root.glob("seg-*.jsonl"))


def wal_files(root):
    return sorted(p.name for p in root.glob("wal-*.log"))


def newest_data_file(root):
    """The file a hard kill mid-append would tear: the live WAL if one
    exists, else the newest segment."""
    wals = wal_files(root)
    if wals:
        return root / wals[-1]
    return root / seg_files(root)[-1]


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
        store.flush()  # k1 now lives in a segment …
        store.put("k2", {"b": 2})  # … k2 only in the WAL
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
        store.flush()
        store.put("k", {"v": 2})
        assert store.superseded == 1
        assert store.fetch("k") == {"v": 2}
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k") == {"v": 2}

    def test_put_batch_single_fsync_group(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        n = store.put_batch([(f"k{i}", {"v": i}) for i in range(5)])
        assert n == 5
        assert store.batches == 1
        for i in range(5):
            assert store.fetch(f"k{i}") == {"v": i}
        again = ResultStore(tmp_path / "s")
        for i in range(5):
            assert again.fetch(f"k{i}") == {"v": i}


class TestWal:
    def test_puts_land_in_wal_before_any_segment(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        assert wal_files(tmp_path / "s")
        assert not seg_files(tmp_path / "s")

    def test_flush_moves_wal_into_segment(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        covered = wal_files(tmp_path / "s")
        store.flush()
        assert len(seg_files(tmp_path / "s")) == 1
        # the covering WAL is dropped; a fresh one takes over
        remaining = wal_files(tmp_path / "s")
        assert not set(covered) & set(remaining)

    def test_flush_empty_memtable_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.flush()
        assert not seg_files(tmp_path / "s")

    def test_segment_lines_are_sorted_by_key(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for key in ["zz", "aa", "mm"]:
            store.put(key, {"k": key})
        store.flush()
        seg = tmp_path / "s" / seg_files(tmp_path / "s")[0]
        keys = [entry["key"]
                for entry in scan(seg.read_bytes(), decode).entries]
        assert keys == sorted(keys)


class TestCrashTolerance:
    def test_torn_wal_tail_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.put("k2", {"b": 2})
        with newest_data_file(tmp_path / "s").open("ab") as fh:
            fh.write(b'{"seq": 99, "key": "k3", "rec')  # hard kill mid-append
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": 2}
        assert not again.probe("k3")

    def test_torn_segment_tail_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        store.put("k2", {"b": 2})
        store.flush()
        seg = tmp_path / "s" / seg_files(tmp_path / "s")[-1]
        with seg.open("ab") as fh:
            fh.write(b'{"seq": 99, "key": "k3", "rec')
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.fetch("k2") == {"b": 2}
        assert not again.probe("k3")

    def test_writes_continue_after_torn_tail_recovery(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        with newest_data_file(tmp_path / "s").open("ab") as fh:
            fh.write(b"garbage-no-json")
        again = ResultStore(tmp_path / "s")
        again.put("k2", {"b": 2})
        third = ResultStore(tmp_path / "s")
        assert third.fetch("k1") == {"a": 1}
        assert third.fetch("k2") == {"b": 2}

    def test_torn_manifest_tail_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        with (tmp_path / "s" / ResultStore.MANIFEST).open("ab") as fh:
            fh.write(b'{"op": "add", "seg')
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}

    def test_manifested_but_never_written_segment_is_legal(self, tmp_path):
        # WAL discipline: the ledger entry lands before the data file,
        # so a crash between the two leaves an add for a missing file.
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        with (tmp_path / "s" / ResultStore.MANIFEST).open("ab") as fh:
            fh.write(json.dumps(
                {"op": "add", "segment": "seg-00000099.jsonl"}
            ).encode() + b"\n")
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        again.put("k2", {"b": 2})
        assert ResultStore(tmp_path / "s").fetch("k2") == {"b": 2}

    def test_undropped_wal_after_flush_is_deduped(self, tmp_path):
        # a crash after the segment is manifested but before the WAL
        # drop leaves both on disk: replay must not double-count
        store = ResultStore(tmp_path / "s")
        store.put("k1", {"a": 1})
        wal = newest_data_file(tmp_path / "s")
        saved = wal.read_bytes()
        store.flush()
        wal.write_bytes(saved)  # resurrect the covered WAL
        again = ResultStore(tmp_path / "s")
        assert again.fetch("k1") == {"a": 1}
        assert again.superseded == 0  # same seq twice = dedupe, not clobber
        assert len(again) == 1

    def test_legacy_store_without_wal_or_levels_recovers(self, tmp_path):
        # pre-LSM stores: manifest adds with no level, unsorted segments
        root = tmp_path / "s"
        root.mkdir()
        seg = "seg-00000001.jsonl"
        (root / seg).write_text(
            '{"seq": 1, "key": "zz", "record": {"v": 1}}\n'
            '{"seq": 2, "key": "aa", "record": {"v": 2}}\n'
        )
        (root / ResultStore.MANIFEST).write_text(
            json.dumps({"op": "add", "segment": seg}) + "\n"
        )
        store = ResultStore(root)
        assert store.fetch("zz") == {"v": 1}
        assert store.fetch("aa") == {"v": 2}
        store.put("k3", {"v": 3})
        again = ResultStore(root)
        assert len(again) == 3


class TestSegmentsAndCompaction:
    def test_memtable_threshold_creates_segments(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=64)
        for i in range(6):
            store.put(f"k{i}", {"v": i})
        assert len(seg_files(tmp_path / "s")) >= 1
        again = ResultStore(tmp_path / "s", segment_bytes=64)
        for i in range(6):
            assert again.fetch(f"k{i}") == {"v": i}

    def test_compaction_drops_superseded(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=64)
        for i in range(4):
            store.put(f"k{i}", {"v": i})
        for i in range(4):
            store.put(f"k{i}", {"v": i + 100})
        store.flush()
        before = seg_files(tmp_path / "s")
        dropped = store.compact()
        assert dropped == 4
        assert store.superseded == 0
        after = seg_files(tmp_path / "s")
        assert not set(before) & set(after)
        for i in range(4):
            assert store.fetch(f"k{i}") == {"v": i + 100}

    def test_compacted_store_reopens(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=64)
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        store.put("k0", {"v": 999})
        store.compact()
        again = ResultStore(tmp_path / "s", segment_bytes=64)
        assert again.fetch("k0") == {"v": 999}
        assert len(again) == 5
        assert again.superseded == 0

    def test_compact_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "s").compact() == 0

    def test_leveled_compaction_folds_crowded_level(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=32,
                            level_trigger=3)
        for i in range(12):
            store.put(f"key-{i:02d}", {"v": i})
        store.flush()
        st = store.stats()
        # level 0 must have been folded at least once on the way
        assert store.compactions >= 1
        assert st["levels"].get("L0", {"segments": 0})["segments"] < 12
        for i in range(12):
            assert store.fetch(f"key-{i:02d}") == {"v": i}
        again = ResultStore(tmp_path / "s")
        for i in range(12):
            assert again.fetch(f"key-{i:02d}") == {"v": i}

    def test_compact_level_folds_into_next_level(self, tmp_path):
        store = ResultStore(tmp_path / "s", level_trigger=99)
        for i in range(4):
            store.put(f"k{i}", {"v": i})
            store.flush()  # four L0 segments, no auto-fold
        assert store.stats()["levels"]["L0"]["segments"] == 4
        store.compact_level(0)
        st = store.stats()
        assert "L0" not in st["levels"]
        assert st["levels"]["L1"]["segments"] == 1
        for i in range(4):
            assert store.fetch(f"k{i}") == {"v": i}

    def test_reader_survives_concurrent_compaction(self, tmp_path):
        """A pinned segment is never unlinked under a reader: the read
        completes from the zombie file, which dies on the last unpin."""
        store = ResultStore(tmp_path / "s", level_trigger=99)
        store.put("k1", {"a": 1})
        store.flush()
        store.put("k2", {"b": 2})
        store.flush()
        victim = seg_files(tmp_path / "s")[0]
        results = {}
        release = threading.Event()
        pinned = threading.Event()

        real_unpin = store._unpin

        def slow_unpin(segment):
            pinned.set()
            release.wait(timeout=5.0)
            real_unpin(segment)

        store._unpin = slow_unpin
        reader = threading.Thread(
            target=lambda: results.update(got=store.fetch("k1")))
        reader.start()
        pinned.wait(timeout=5.0)
        store._unpin = real_unpin
        store.compact()  # retires the victim while the reader holds it
        assert store.stats()["zombie_segments"] >= 1
        assert (tmp_path / "s" / victim).exists()  # deferred unlink
        release.set()
        reader.join(timeout=5.0)
        assert results["got"] == {"a": 1}
        assert not (tmp_path / "s" / victim).exists()  # last unpin kills it

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {})
        st = store.stats()
        assert st["backend"] == "disk"
        assert st["records"] == 1
        assert st["segments"] == 0  # still memtable-resident
        assert st["memtable_records"] == 1
        assert st["wal_bytes"] > 0
        assert st["wal_files"] == 1
        store.flush()
        st = store.stats()
        assert st["segments"] == 1
        assert st["levels"]["L0"]["segments"] == 1
        assert st["levels"]["L0"]["bytes"] > 0
        assert st["memtable_records"] == 0
        assert st["flushes"] == 1

    def test_export_metrics(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = ResultStore(tmp_path / "s")
        store.put("k", {})
        store.flush()
        registry = MetricsRegistry()
        store.export_metrics(registry)
        snap = registry.snapshot()
        assert snap["store.records"]["value"] == 1
        assert snap["store.segments"]["value"] == 1
        assert snap["store.level.L0.segments"]["value"] == 1
        assert snap["store.flushes"]["value"] == 1


class TestBackgroundWorker:
    def test_background_flush_and_reads(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=64,
                            background=True)
        try:
            for i in range(20):
                store.put(f"k{i:02d}", {"v": i})
            store.flush()  # waits for the worker to drain
            assert seg_files(tmp_path / "s")
            for i in range(20):
                assert store.fetch(f"k{i:02d}") == {"v": i}
        finally:
            store.close()
        again = ResultStore(tmp_path / "s")
        assert len(again) == 20

    def test_concurrent_writers_and_readers(self, tmp_path):
        store = ResultStore(tmp_path / "s", segment_bytes=256,
                            background=True)
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
        store = ResultStore(tmp_path / "s", background=True)
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
        assert store.put_batch([("a", {}), ("b", {})]) == 2
        assert len(store) == 3
        store.flush()
        assert store.compact() == 0
        assert store.stats()["backend"] == "memory"


# ---------------------------------------------------------------------------
# property-based recovery (hypothesis): any torn-tail / partial-MANIFEST
# corruption must recover to a readable store with no phantom or
# duplicated results.  (Crash injection *during* flush/compaction lives
# in tests/test_store_crash_properties.py.)
# ---------------------------------------------------------------------------

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

_puts = st.lists(
    st.tuples(st.sampled_from("abcdef"),
              st.integers(min_value=0, max_value=999)),
    min_size=1, max_size=30,
)


def _populate(root, puts, segment_bytes):
    store = ResultStore(root, segment_bytes=segment_bytes)
    written: dict[str, list[int]] = {}
    for key, value in puts:
        store.put(key, {"v": value})
        written.setdefault(key, []).append(value)
    store.close()
    return written


def _check_recovered(root, written, segment_bytes):
    """The recovery contract, shared by every corruption shape."""
    store = ResultStore(root, segment_bytes=segment_bytes)
    for key in store.keys():
        assert key in written, f"phantom key {key!r}"
        record = store.fetch(key)
        assert record["v"] in written[key], "phantom value"
    assert len(store.keys()) == len(set(store.keys())), "duplicated key"
    # the store stays writable and reads back what it accepts
    store.put("zz-fresh", {"v": -1})
    assert store.fetch("zz-fresh") == {"v": -1}
    # recovery is idempotent: reopening changes nothing
    again = ResultStore(root, segment_bytes=segment_bytes)
    assert set(again.keys()) >= set(written) & set(again.keys())
    assert "zz-fresh" in again


class TestRecoveryProperties:
    @given(puts=_puts, cut=st.integers(min_value=0, max_value=400),
           segment_bytes=st.sampled_from([64, 8 << 20]))
    @settings(max_examples=30, deadline=None)
    def test_torn_data_tail_any_cut(self, puts, cut, segment_bytes):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, segment_bytes)
            tail = newest_data_file(root)
            raw = tail.read_bytes()
            tail.write_bytes(raw[:min(cut, len(raw))])
            _check_recovered(root, written, segment_bytes)

    @given(puts=_puts, cut=st.integers(min_value=0, max_value=200),
           segment_bytes=st.sampled_from([64, 8 << 20]))
    @settings(max_examples=30, deadline=None)
    def test_partial_manifest_any_cut(self, puts, cut, segment_bytes):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, segment_bytes)
            manifest = root / ResultStore.MANIFEST
            raw = manifest.read_bytes()
            manifest.write_bytes(raw[:min(cut, len(raw))])
            _check_recovered(root, written, segment_bytes)

    @given(puts=_puts, junk=st.binary(min_size=1, max_size=40),
           segment_bytes=st.sampled_from([64, 8 << 20]))
    @settings(max_examples=30, deadline=None)
    def test_garbage_appended_mid_crash(self, puts, junk, segment_bytes):
        """A hard kill mid-append leaves arbitrary bytes at the tail of
        both the manifest and the newest data file."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, segment_bytes)
            for path in (root / ResultStore.MANIFEST,
                         newest_data_file(root)):
                with path.open("ab") as fh:
                    fh.write(junk)
            _check_recovered(root, written, segment_bytes)

    @given(puts=_puts)
    @settings(max_examples=20, deadline=None)
    def test_uncorrupted_store_recovers_exactly(self, puts):
        """No corruption: recovery must reproduce last-wins exactly —
        every written key present, holding its final value."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "s"
            written = _populate(root, puts, segment_bytes=64)
            store = ResultStore(root, segment_bytes=64)
            assert set(store.keys()) == set(written)
            for key, values in written.items():
                assert store.fetch(key) == {"v": values[-1]}
