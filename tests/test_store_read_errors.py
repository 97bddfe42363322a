"""A damaged record line in a live segment surfaces as ``StoreError``.

The serve daemon reads results through :meth:`ResultStore.fetch`; any
damage a read can meet must come out as the store's own error, never as
a bare decode or lookup exception.  Each damage below keeps the line's
length, so the index still points at it.
"""

from __future__ import annotations

import pytest

from repro.campaign.store import ResultStore, StoreError


@pytest.mark.parametrize("old,new", [
    (b"alpha", b"alph\xff"),        # invalid UTF-8
    (b'"record"', b'"recorf"'),     # valid JSON without a record
    (b'{"v": "alpha"}', b'["v", "alpha"]'),  # record is no object
], ids=["invalid-utf8", "record-key-flipped", "not-an-object"])
def test_damaged_line_raises_store_error(tmp_path, old, new):
    store = ResultStore(tmp_path, background=False)
    try:
        store.put("k1", {"v": "alpha"})
        store.flush()
        segment = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        data = segment.read_bytes()
        assert old in data
        segment.write_bytes(data.replace(old, new, 1))
        with pytest.raises(StoreError, match="corrupt record"):
            store.fetch("k1")
    finally:
        store.close()
