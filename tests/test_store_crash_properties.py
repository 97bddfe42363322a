"""Crash-recovery properties for the result store's record log.

Two failure models, both asserted against one durability contract:

* **CrashPoint injection** — the store's ``crash_hook`` fires at each
  named durability boundary (the log append, the compaction's temp
  write and its rename, and the unlink of a legacy store's files once
  it is folded into the log).  Hypothesis picks an operation sequence,
  whether it starts from a legacy store, and which boundary crossing
  dies.
* **Torn tail** — after a simulated ``kill -9``, the final unsynced
  append may land partially; we truncate the log at an arbitrary
  byte offset inside the last record.

The contract, in both models:

1. **No acknowledged write is lost.**  A ``put`` that returned maps to
   exactly its last acknowledged value after recovery.  A ``put`` that
   crashed mid-flight recovers to either its value (the log append
   completed) or the previous one (it did not) — never garbage.
2. **Recovery is idempotent.**  Opening the damaged directory twice
   yields the same contents, and the second open must not rewrite
   what the first repaired.
3. **The store stays writable.**  Post-recovery writes are durable
   across another clean close/reopen.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.store import CrashPoint, ResultStore

#: every named durability boundary the store can die at
BOUNDARIES = (
    "log-append",
    "compact-write",
    "compact-rename",
    "legacy-unlink",
)

_keys = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_puts = st.lists(st.tuples(_keys, st.integers(0, 999)),
                 min_size=1, max_size=14)

#: the records of :func:`_legacy_store`, in the acked-value shape
LEGACY = {"alpha": 7, "beta": 8, "zeta": 9}


def _legacy_store(root: Path) -> dict[str, int]:
    """A store in the earlier LSM layout: a MANIFEST, a segment and a
    WAL that supersedes one of its records.  Returns what it holds."""
    def lines(*docs: dict) -> str:
        return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)

    (root / "seg-00000001.jsonl").write_text(lines(
        {"seq": 1, "key": "alpha", "record": {"n": 1}},
        {"seq": 2, "key": "beta", "record": {"n": 8}}))
    (root / "wal-00000002.log").write_text(lines(
        {"seq": 3, "key": "zeta", "record": {"n": 9}},
        {"seq": 4, "key": "alpha", "record": {"n": 7}}))
    (root / "MANIFEST").write_text(lines(
        {"level": 0, "op": "add", "segment": "seg-00000001.jsonl"},
        {"op": "wal", "wal": "wal-00000002.log"}))
    return dict(LEGACY)


def _open(root: Path, hook: object, legacy: bool) -> tuple[
        ResultStore | None, dict[str, int]]:
    """Open a store (over a legacy one when ``legacy``); None when the
    hook killed the open.  Also returns the writes already durable."""
    acked = _legacy_store(root) if legacy else {}
    try:
        return ResultStore(root, crash_hook=hook), acked
    except CrashPoint:
        return None, acked


def _abandon(store: ResultStore | None) -> None:
    """Drop a crashed store without closing it (its process 'died')."""
    if store is None:
        return
    store._crash_hook = None
    if store._fh is not None:
        store._fh.close()
        store._fh = None


def _contents(root: Path) -> dict[str, dict]:
    """Recover the directory and read everything back."""
    store = ResultStore(root)
    try:
        return {key: store.fetch(key) for key in store.keys()}
    finally:
        store.close()


def _disk_state(root: Path) -> dict[str, bytes]:
    """Every store file's bytes — for asserting repair idempotence."""
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file()}


class _CrashAt:
    """Raise CrashPoint on the nth durability-boundary crossing."""

    def __init__(self, nth: int) -> None:
        self.nth = nth
        self.crossings = 0
        self.died_at: str | None = None

    def __call__(self, step: str) -> None:
        assert step in BOUNDARIES
        self.crossings += 1
        if self.crossings == self.nth:
            self.died_at = step
            raise CrashPoint(step)


class TestCrashPointInjection:
    @given(puts=_puts, nth=st.integers(min_value=1, max_value=30),
           compact_after=st.booleans(), legacy=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_no_acknowledged_write_lost(self, tmp_path_factory, puts,
                                        nth, compact_after, legacy):
        root = tmp_path_factory.mktemp("crash")
        hook = _CrashAt(nth)
        store, acked = _open(root, hook, legacy)
        in_flight: tuple[str, int] | None = None
        try:
            if store is None:
                raise CrashPoint("open")
            for key, n in puts:
                in_flight = (key, n)
                store.put(key, {"n": n})
                acked[key] = n
                in_flight = None
            if compact_after:
                store.compact()
        except CrashPoint:
            pass
        _abandon(store)

        recovered = _contents(root)
        for key, n in acked.items():
            if in_flight is not None and in_flight[0] == key:
                # the crashed put targeted this key: its log append
                # either completed (new value) or never started (old)
                assert recovered.get(key, {}).get("n") in \
                    (n, in_flight[1]), \
                    f"{key} lost at {hook.died_at}"
            else:
                assert recovered.get(key, {}).get("n") == n, \
                    f"acked write to {key} lost at {hook.died_at}"
        # nothing invents keys that were never written
        assert set(recovered) <= {key for key, _ in puts} | set(acked)

    @given(puts=_puts, nth=st.integers(min_value=1, max_value=30),
           legacy=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_recovery_is_idempotent(self, tmp_path_factory, puts, nth,
                                    legacy):
        root = tmp_path_factory.mktemp("idem")
        store, _ = _open(root, _CrashAt(nth), legacy)
        try:
            if store is None:
                raise CrashPoint("open")
            for key, n in puts:
                store.put(key, {"n": n})
            store.compact()
        except CrashPoint:
            pass
        _abandon(store)

        first = _contents(root)
        disk_after_first = _disk_state(root)
        second = _contents(root)
        assert first == second
        # a read-only recovery settles the directory: opening again
        # must not keep rewriting files
        assert _disk_state(root) == disk_after_first

    @given(puts=_puts, nth=st.integers(min_value=1, max_value=30),
           legacy=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_store_stays_writable_after_recovery(self, tmp_path_factory,
                                                 puts, nth, legacy):
        root = tmp_path_factory.mktemp("writable")
        store, _ = _open(root, _CrashAt(nth), legacy)
        try:
            if store is None:
                raise CrashPoint("open")
            for key, n in puts:
                store.put(key, {"n": n})
        except CrashPoint:
            pass
        _abandon(store)

        repaired = ResultStore(root)
        repaired.put("fresh", {"n": -1})
        repaired.put(puts[0][0], {"n": 12345})  # overwrite post-crash
        repaired.compact()
        repaired.close()

        final = _contents(root)
        assert final["fresh"] == {"n": -1}
        assert final[puts[0][0]] == {"n": 12345}

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_each_boundary_alone(self, tmp_path, boundary):
        """Deterministic single-boundary walk: die exactly once at each
        named crossing, with acked writes on both sides of the crash."""

        class DieAt:
            armed = True

            def __call__(self, step: str) -> None:
                if step == boundary and self.armed:
                    self.armed = False
                    raise CrashPoint(step)

        # a legacy store to fold, so the upgrade's boundaries are crossed
        store, acked = _open(tmp_path, DieAt(), legacy=True)
        in_flight = None
        try:
            if store is None:
                raise CrashPoint("open")
            for n in range(10):
                in_flight = (f"k{n % 4}", n)
                store.put(f"k{n % 4}", {"n": n})
                acked[f"k{n % 4}"] = n
                in_flight = None
            store.compact()
        except CrashPoint:
            pass
        _abandon(store)

        recovered = _contents(tmp_path)
        for key, n in acked.items():
            got = recovered.get(key, {}).get("n")
            want = (n, in_flight[1]) if in_flight \
                and in_flight[0] == key else (n,)
            assert got in want, \
                f"{key}={got}, want {want} (crash at {boundary})"


class TestTornTail:
    @given(puts=_puts, torn=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_torn_final_append(self, tmp_path_factory, puts, torn):
        """kill -9 at an arbitrary byte offset inside the final log
        append: every earlier write survives exactly; the final one is
        either intact or cleanly absent."""
        root = tmp_path_factory.mktemp("torn")
        store = ResultStore(root)
        for key, n in puts[:-1]:
            store.put(key, {"n": n})
        wal = root / ResultStore.LOG
        before = len(wal.read_bytes()) if wal.exists() else 0

        def die(step: str) -> None:
            if step == "compact-write":
                raise CrashPoint(step)

        # the kill lands inside the final append, so no compaction the
        # append would have triggered ever runs
        last_key, last_n = puts[-1]
        store._crash_hook = die
        try:
            store.put(last_key, {"n": last_n})
        except CrashPoint:
            pass
        _abandon(store)

        # tear only within the final append: anything before it was
        # fsync-acknowledged and may not be touched by a kill -9
        blob = wal.read_bytes()
        final_line_bytes = len(blob) - before
        cut = min(torn, final_line_bytes)
        if cut:
            with wal.open("rb+") as fh:
                fh.truncate(len(blob) - cut)

        expect = {}
        for key, n in puts[:-1]:
            expect[key] = n
        recovered = _contents(root)
        final = recovered.get(last_key, {}).get("n")
        prior = expect.get(last_key)
        assert final in (last_n, prior), \
            "torn final append recovered garbage"
        for key, n in expect.items():
            if key == last_key:
                continue
            assert recovered.get(key, {}).get("n") == n, \
                f"torn tail destroyed earlier write {key}"

    @given(puts=_puts, cut=st.integers(min_value=1, max_value=120))
    @settings(max_examples=30, deadline=None)
    def test_torn_unmanifested_segment(self, tmp_path_factory, puts,
                                       cut):
        """A compaction that died after writing its temp file but
        before the rename leaves that file beside the log; tearing it
        at any offset must not cost a single acknowledged write (the
        log still holds them all)."""
        root = tmp_path_factory.mktemp("orphan")

        def die(step: str) -> None:
            if step == "compact-rename":
                raise CrashPoint(step)

        store = ResultStore(root, crash_hook=die)
        acked: dict[str, int] = {}
        in_flight = None
        try:
            for key, n in puts:
                in_flight = (key, n)
                store.put(key, {"n": n})
                acked[key] = n
                in_flight = None
            store.compact()
        except CrashPoint:
            pass
        _abandon(store)

        orphan = root / (ResultStore.LOG + ".tmp")
        assert orphan.exists()
        size = orphan.stat().st_size
        with orphan.open("rb+") as fh:
            fh.truncate(max(0, size - cut))

        recovered = _contents(root)
        for key, n in acked.items():
            got = recovered.get(key, {}).get("n")
            want = (n, in_flight[1]) if in_flight \
                and in_flight[0] == key else (n,)
            assert got in want, \
                f"acked write {key} lost to a torn compaction temp file"
