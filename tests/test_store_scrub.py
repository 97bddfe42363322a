"""``repro store scrub`` — offline verification and repair.

Builds small real stores, damages them in controlled ways (torn tails,
mid-file bit rot, orphan temp files, broken replay sidecars), and asserts
scrub classifies each correctly, that ``repair`` quarantines rather
than deletes, and that the live store surfaces the last scrub in
``stats()``/metrics.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.campaign.store import ResultStore, scrub_files
from repro.replay.log import ReplayWriter


def _rlog(i: int) -> str:
    """A tiny but *valid* sealed replay log (scrub verifies sidecars
    with the real reader, so fake text would read as corrupt)."""
    writer = ReplayWriter({"workload": f"w-{i}"})
    writer.seal()
    return writer.dumps()


def _make_store(root: Path, n: int = 4) -> None:
    store = ResultStore(root)
    for i in range(n):
        store.put(f"key-{i}", {"n": i, "replay_log": _rlog(i)})
    store.close()


class TestScrubClean:
    def test_clean_store_reports_clean(self, tmp_path):
        _make_store(tmp_path)
        report = scrub_files(tmp_path)
        assert report["clean"]
        summary = report["summary"]
        assert summary["torn"] == summary["corrupt"] == 0
        assert summary["orphans"] == summary["repaired"] == 0
        assert summary["records"] >= 4
        assert all(info["state"] == "ok"
                   for info in report["files"].values())

    def test_live_store_caches_last_scrub(self, tmp_path):
        _make_store(tmp_path)
        store = ResultStore(tmp_path)
        try:
            assert store.stats()["scrub"] is None
            report = store.scrub()
            assert report["clean"]
            assert store.stats()["scrub"] == report["summary"]
            from repro.obs.metrics import MetricsRegistry
            registry = MetricsRegistry()
            store.export_metrics(registry)
            assert registry.gauge("store.scrub.corrupt").value == 0
            assert registry.gauge("store.scrub.files").value >= 1
        finally:
            store.close()


class TestScrubDamage:
    def test_torn_wal_tail_detected_and_amputated(self, tmp_path):
        _make_store(tmp_path)
        wal = tmp_path / ResultStore.LOG
        intact = wal.read_bytes()
        wal.write_bytes(intact + b'{"half a rec')

        report = scrub_files(tmp_path)
        assert not report["clean"]
        assert report["files"][wal.name]["state"] == "torn"

        repaired = scrub_files(tmp_path, repair=True)
        assert repaired["summary"]["repaired"] == 1
        assert wal.read_bytes() == intact
        assert scrub_files(tmp_path)["clean"]

    def test_mid_file_corruption_classified_corrupt(self, tmp_path):
        _make_store(tmp_path)
        seg = tmp_path / ResultStore.LOG
        lines = seg.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 2, "need two records to corrupt the first"
        seg.write_bytes(b"\x00garbage\n" + b"".join(lines[1:]))

        report = scrub_files(tmp_path)
        assert not report["clean"]
        # an intact record after the bad line means bit rot, not a
        # torn tail
        assert report["files"][seg.name]["state"] == "corrupt"

    def test_orphan_segment_quarantined_not_deleted(self, tmp_path):
        """A compaction's temp file, left by a crash before its rename,
        is an orphan."""
        _make_store(tmp_path)
        orphan = tmp_path / f"{ResultStore.LOG}.tmp"
        orphan.write_bytes((tmp_path / ResultStore.LOG).read_bytes()[:50])

        report = scrub_files(tmp_path)
        assert not report["clean"]
        assert report["files"][orphan.name]["state"] == "orphan"

        scrub_files(tmp_path, repair=True)
        assert not orphan.exists()
        assert (tmp_path / "quarantine" / orphan.name).exists()
        assert scrub_files(tmp_path)["clean"]

    def test_corrupt_sidecar_quarantined(self, tmp_path):
        _make_store(tmp_path)
        sidecar = sorted((tmp_path / "replay").glob("*.rlog"))[0]
        data = bytearray(sidecar.read_bytes())
        data[len(data) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(data))

        report = scrub_files(tmp_path)
        assert not report["clean"]
        name = f"replay/{sidecar.name}"
        assert report["files"][name]["state"] == "corrupt"

        scrub_files(tmp_path, repair=True)
        assert not sidecar.exists()
        assert (tmp_path / "quarantine" / name).exists()
        assert scrub_files(tmp_path)["clean"]

    def test_journal_crc_flip_not_reported_ok(self, tmp_path):
        """A flipped digit in the task journal can still parse as
        JSON, but the journal's recovery checks the per-line CRC and
        would truncate it — scrub must reach the same verdict, not
        report the file ok."""
        from repro.serve.journal import TaskJournal

        _make_store(tmp_path)
        path = tmp_path / TaskJournal.NAME
        journal = TaskJournal(path)
        journal.recover()
        journal.append("accepted", task="c-1", suite="s", doc={},
                       submitted_at=0.0)
        journal.append("accepted", task="c-2", suite="s", doc={},
                       submitted_at=0.0)
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # still valid JSON, but the payload no longer matches its CRC
        path.write_bytes(lines[0].replace(b'"c-1"', b'"c-9"')
                         + lines[1])

        report = scrub_files(tmp_path)
        assert not report["clean"]
        # an intact record follows the bad line: bit rot, not torn
        assert report["files"][TaskJournal.NAME]["state"] == "corrupt"

        # repair truncates to the CRC-valid prefix — exactly what
        # journal recovery would keep
        scrub_files(tmp_path, repair=True)
        assert TaskJournal(path).recover().order == []
        assert scrub_files(tmp_path)["clean"]

    def test_repair_keeps_surviving_records_readable(self, tmp_path):
        _make_store(tmp_path)
        wal = tmp_path / ResultStore.LOG
        wal.write_bytes(wal.read_bytes() + b"torn!")
        scrub_files(tmp_path, repair=True)

        store = ResultStore(tmp_path)
        try:
            for i in range(4):
                assert store.fetch(f"key-{i}") == \
                    {"n": i, "replay_log": _rlog(i)}
        finally:
            store.close()


def test_legacy_files_are_scrubbed_until_the_upgrade(tmp_path):
    """A legacy WAL or segment not yet folded is checked line by line
    like the log; its MANIFEST like the journal."""
    line = b'{"seq": 1, "key": "k1", "record": {"v": 1}}\n'
    (tmp_path / "wal-00000001.log").write_bytes(line + b'{"seq": 2, "ke')
    (tmp_path / "seg-00000001.jsonl").write_bytes(line)
    (tmp_path / "MANIFEST").write_bytes(b'{"op": "wal", "wal": "wal-0000')
    report = scrub_files(tmp_path)
    states = {name: info["state"] for name, info in report["files"].items()}
    assert states == {"MANIFEST": "torn", "seg-00000001.jsonl": "ok",
                      "wal-00000001.log": "torn"}
    assert report["summary"]["records"] == 2
    store = ResultStore(tmp_path)
    assert store.fetch("k1") == {"v": 1}
    store.close()
    after = scrub_files(tmp_path)
    assert after["clean"]
    assert list(after["files"]) == [ResultStore.LOG]


def test_record_key_flip_is_one_verdict_everywhere(tmp_path):
    """A log line that is still a JSON object but has no
    ``"record"`` object: fetch, recovery and scrub all call it damage,
    and repair leaves a clean store."""
    store = ResultStore(tmp_path)
    store.put("k1", {"v": "alpha"})
    store.close()
    segment = tmp_path / ResultStore.LOG
    data = segment.read_bytes()
    segment.write_bytes(data.replace(b'"record"', b'"recorf"', 1))

    copy = tmp_path.parent / f"{tmp_path.name}-copy"
    shutil.copytree(tmp_path, copy)
    reopened = ResultStore(copy)
    try:
        assert reopened.fetch("k1") is None  # recovery never indexed it
    finally:
        reopened.close()

    report = scrub_files(tmp_path)
    assert report["files"][segment.name]["state"] == "corrupt"
    assert report["summary"]["corrupt"] == 1
    scrub_files(tmp_path, repair=True)
    assert scrub_files(tmp_path)["clean"]
