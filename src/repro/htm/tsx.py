"""The TSX-style HTM engine: read/write sets, conflicts, capacity, aborts.

Semantics modeled after Intel RTM:

* conflict detection at **cache line** granularity, *eager* (at access
  time) by default — the transaction that receives a conflicting coherence
  request aborts ("requester wins"), so plain non-transactional accesses
  (notably the fallback path's lock acquisition) kill overlapping
  transactions;
* transactional stores are **buffered** and only reach shared memory on
  commit; aborts discard the buffer and restore the architectural state
  snapshotted at ``xbegin`` (in this simulator: the call stack);
* the write set is bounded by an L1-like budget with set-associativity
  (so pathological mappings overflow early), the read set by a larger
  L2/L3-style budget — exceeding either raises a **capacity** abort;
* unfriendly operations (syscalls, page faults, explicit xabort) raise
  **synchronous** aborts with no hardware cause bits, which the runtime
  treats as persistent (no retry);
* any delivered interrupt — including PMU sampling interrupts — aborts the
  transaction (**interrupt** abort, RETRY bit set), recreating the paper's
  Challenge I.

The engine never raises Python exceptions into workload code itself; it
*dooms* transactions, and the simulator delivers :class:`AbortSignal` to
the victim thread at its next scheduling step (its architectural state is
rolled back immediately at doom time, as on hardware).

Conflict arbitration is indexed by cache line, like a coherence
directory: ``readers[line]`` and ``writers[line]`` hold the tids of the
live transactions (doomed ones included, until they retire) whose read
or write set holds ``line``.  A line enters the index when it first
enters a set (:meth:`TsxEngine.track_read`, :meth:`TsxEngine.track_write`,
:meth:`TsxEngine.add_write_lines`) and leaves it when its transaction
commits or rolls back.  :meth:`TsxEngine.on_access` returns at once
unless another tid writes the line, or, for a write, reads it; only then
does it scan the live transactions in begin order.  The scan decides who
is doomed, in what order, and which ``conflict_edges`` it bumps, so the
index changes no outcome, only how often the scan runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.config import MachineConfig
from .status import (
    ABORT_CAPACITY,
    ABORT_CONFLICT,
    AbortStatus,
    XABORT_CAPACITY,
    XCAP_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.thread import ThreadContext


class Transaction:
    """One in-flight hardware transaction attempt."""

    __slots__ = (
        "tid",
        "thread",
        "cs_id",
        "start_cycle",
        "read_lines",
        "write_lines",
        "writes",
        "wset_by_set",
        "doomed",
        "stack_snapshot",
        "begin_ip",
        "fallback_ip",
        "nesting",
    )

    def __init__(
        self,
        thread: "ThreadContext",
        cs_id: int,
        start_cycle: int,
        begin_ip: int,
        fallback_ip: int,
    ) -> None:
        self.tid = thread.tid
        self.thread = thread
        self.cs_id = cs_id
        self.start_cycle = start_cycle
        self.read_lines: set = set()
        self.write_lines: set = set()
        self.writes: dict[int, int] = {}
        self.wset_by_set: dict[int, int] = {}
        self.doomed: AbortStatus | None = None
        self.stack_snapshot = thread.snapshot_stack()
        self.begin_ip = begin_ip
        self.fallback_ip = fallback_ip
        self.nesting = 1

    def footprint_lines(self) -> int:
        return len(self.read_lines | self.write_lines)


class TsxEngine:
    """Machine-wide transactional state and conflict arbitration."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        #: observability bundle (attached by the Simulator; None when off)
        self.obs = None
        #: active (not yet committed/rolled-back) transaction per tid
        self.active: dict[int, Transaction] = {}
        #: line -> tids of the active transactions whose read (write) set
        #: holds it; a line no live transaction holds has no entry
        self.readers: dict[int, set[int]] = {}
        self.writers: dict[int, set[int]] = {}
        self._n_sets = max(1, config.wset_lines // max(1, config.wset_assoc))
        # engine-level statistics (ground truth, not profiler-visible)
        self.total_begins = 0
        self.total_commits = 0
        self.total_aborts = 0
        self.aborts_by_reason: dict[str, int] = {}
        #: who-aborts-whom ground truth: (aborter site, victim site,
        #: on-the-lock-line) -> conflict dooms.  Like ``aborter_tid`` on
        #: :class:`~repro.htm.status.AbortStatus`, this is *instrumentation*
        #: ground truth — real hardware never reports it and the sampling
        #: profiler never sees it; only oracles (crossval's abort-graph
        #: pane) read it.  Plain dict bumps: no cycles, no RNG, so profiles
        #: stay bit-identical with the bookkeeping on.
        self.conflict_edges: dict[tuple[int, int, bool], int] = {}
        #: cache line of the runtime's global fallback lock word (set by
        #: the Simulator once the runtime exists; -1 = unknown)
        self.lock_line = -1
        #: per-tid TM_BEGIN call-site of the critical section the thread
        #: is currently executing (set by the RTM runtime), covering the
        #: fallback path where the thread aborts peers without being
        #: transactional itself; absent = outside any section
        self.cs_site_of: dict[int, int] = {}

    # ------------------------------------------------------------------ begin

    def begin(self, thread: "ThreadContext", now: int, cs_id: int,
              begin_ip: int, fallback_ip: int) -> Transaction:
        """Start (or nest into) a transaction for ``thread``."""
        txn = self.active.get(thread.tid)
        if txn is not None:
            # flat nesting, as on TSX: inner begins just bump a depth count
            txn.nesting += 1
            if txn.nesting > self.config.max_nesting and txn.doomed is None:
                # nest-count overflow: persistent abort (no RETRY bit), so
                # the runtime goes straight to the lock fallback, where
                # nested sections run inline under the held lock
                self.doom(txn, AbortStatus(
                    ABORT_CAPACITY,
                    eax=XABORT_CAPACITY,
                    detail="nesting-overflow",
                ))
            return txn
        txn = Transaction(thread, cs_id, now, begin_ip, fallback_ip)
        self.active[thread.tid] = txn
        self.total_begins += 1
        if self.obs is not None:
            self.obs.on_txn_begin(thread.tid, now, cs_id, len(self.active))
        return txn

    # ----------------------------------------------------------------- access

    def txn_of(self, tid: int) -> Transaction | None:
        return self.active.get(tid)

    def on_access(self, tid: int, addr: int, is_write: bool) -> None:
        """Conflict arbitration for one access (transactional or not).

        Called by the engine for *every* load/store/CAS.  Dooms other
        transactions per the conflict policy; with eager detection this is
        exactly TSX's coherence-triggered abort.  The line index answers
        "does anyone else hold this line?" first; the scan below runs only
        when the answer is yes.
        """
        line = addr >> 6  # line_of(addr), inlined: this runs per access
        w = self.writers.get(line)
        if not w or (len(w) == 1 and tid in w):
            if not is_write:
                return
            r = self.readers.get(line)
            if not r or (len(r) == 1 and tid in r):
                return
        if not self.config.eager_conflicts and tid in self.active:
            # lazy mode: transactional accesses defer detection to commit;
            # non-transactional accesses still arbitrate eagerly below.
            return
        requester_wins = self.config.conflict_policy == "requester_wins"
        me = self.active.get(tid)
        for other_tid, other in list(self.active.items()):
            if other_tid == tid or other.doomed is not None:
                continue
            conflicts = (
                line in other.write_lines
                or (is_write and line in other.read_lines)
            )
            if not conflicts:
                continue
            if requester_wins or me is None:
                self.doom(other, AbortStatus(ABORT_CONFLICT, aborter_tid=tid))
                self._record_edge(tid, me, other, line)
            else:
                # responder-wins ablation: the requester's own txn dies
                self.doom(me, AbortStatus(ABORT_CONFLICT, aborter_tid=other_tid))
                self._record_edge(other_tid, other, me, line)
                return

    def _record_edge(self, aborter_tid: int, aborter_txn: Transaction | None,
                     victim: Transaction, line: int) -> None:
        """Bump the ground-truth who-aborts-whom edge for a conflict doom.

        The aborter's site is its transaction's begin IP when it is
        speculating, else the section it registered via ``cs_site_of``
        (the fallback path), else 0 for a bare access outside any TM
        section.  Never charges cycles or consumes RNG.
        """
        if aborter_txn is not None:
            aborter_site = aborter_txn.begin_ip
        else:
            aborter_site = self.cs_site_of.get(aborter_tid, 0)
        key = (aborter_site, victim.begin_ip, line == self.lock_line)
        self.conflict_edges[key] = self.conflict_edges.get(key, 0) + 1

    def track_read(self, txn: Transaction, addr: int) -> None:
        """Add ``addr`` to the read set; dooms the txn on read-set overflow."""
        line = addr >> 6
        rl = txn.read_lines
        if line not in rl:
            rl.add(line)
            self.readers.setdefault(line, set()).add(txn.tid)
            if len(rl) > self.config.rset_lines:
                self.doom(txn, AbortStatus(
                    ABORT_CAPACITY,
                    eax=XABORT_CAPACITY,
                    detail="read-set",
                ))

    def track_write(self, txn: Transaction, addr: int, value: int) -> None:
        """Buffer a transactional store; dooms the txn on write-set overflow."""
        txn.writes[addr] = value
        line = addr >> 6
        wl = txn.write_lines
        if line not in wl:
            wl.add(line)
            self.writers.setdefault(line, set()).add(txn.tid)
            set_idx = line % self._n_sets
            ways = txn.wset_by_set.get(set_idx, 0) + 1
            txn.wset_by_set[set_idx] = ways
            if (
                len(wl) > self.config.wset_lines
                or ways > self.config.wset_assoc
            ):
                self.doom(txn, AbortStatus(
                    ABORT_CAPACITY,
                    eax=XABORT_CAPACITY | XCAP_WRITE,
                    detail="write-set",
                ))

    def add_write_lines(self, txn: Transaction, lines) -> None:
        """Put ``lines`` into the write set without buffering a store.

        Used by instrumentation that models a bigger footprint; the lines
        skip the capacity check, as they always have, but join the index.
        """
        wl = txn.write_lines
        for line in lines:
            if line not in wl:
                wl.add(line)
                self.writers.setdefault(line, set()).add(txn.tid)

    def _unindex(self, txn: Transaction) -> None:
        """Take a retiring transaction's lines out of the index."""
        tid = txn.tid
        for index, lines in ((self.readers, txn.read_lines),
                             (self.writers, txn.write_lines)):
            for line in lines:
                tids = index[line]
                if len(tids) == 1:
                    del index[line]
                else:
                    tids.discard(tid)

    # ----------------------------------------------------------------- doom

    def doom(self, txn: Transaction, status: AbortStatus) -> None:
        """Mark ``txn`` aborted and roll back its architectural state.

        The victim thread's generator is still suspended; the simulator
        throws :class:`AbortSignal` into it at its next step.  Rolling the
        call stack back *now* matters because a PMU sample delivered before
        the runtime resumes must observe the post-abort state (the unwinder
        sees the path to the transaction begin, never inside — Challenge IV).
        """
        if txn.doomed is not None:
            return
        txn.doomed = status
        txn.thread.restore_stack(txn.stack_snapshot)
        txn.thread.lbr.push_abort(txn.thread.cur_ip, txn.fallback_ip)

    # ---------------------------------------------------------------- commit

    def commit(self, thread: "ThreadContext", memory_write) -> bool:
        """Attempt to commit; returns False if the txn was already doomed.

        In lazy-detection mode, commit-time validation arbitrates against
        other in-flight transactions first (committer wins).
        """
        txn = self.active.get(thread.tid)
        if txn is None:
            raise RuntimeError(f"thread {thread.tid} committing with no txn")
        if txn.nesting > 1:
            txn.nesting -= 1
            return True
        if txn.doomed is None and not self.config.eager_conflicts:
            self._validate_lazy(txn)
        if txn.doomed is not None:
            return False
        for addr, value in txn.writes.items():
            memory_write(addr, value)
        del self.active[thread.tid]
        self._unindex(txn)
        self.total_commits += 1
        if self.obs is not None:
            self.obs.on_txn_commit(thread.tid, thread.clock, txn)
        return True

    def _validate_lazy(self, txn: Transaction) -> None:
        for other_tid, other in list(self.active.items()):
            if other_tid == txn.tid or other.doomed is not None:
                continue
            if (
                txn.write_lines & (other.read_lines | other.write_lines)
                or txn.read_lines & other.write_lines
            ):
                self.doom(other, AbortStatus(ABORT_CONFLICT, aborter_tid=txn.tid))
                clash = (
                    txn.write_lines & (other.read_lines | other.write_lines)
                ) | (txn.read_lines & other.write_lines)
                self._record_edge(txn.tid, txn, other, min(clash))

    # -------------------------------------------------------------- rollback

    def rollback(self, thread: "ThreadContext") -> AbortStatus:
        """Retire a doomed transaction; returns its abort status."""
        txn = self.active.pop(thread.tid, None)
        if txn is None or txn.doomed is None:
            raise RuntimeError(f"thread {thread.tid} rolling back a live txn")
        self._unindex(txn)
        status = txn.doomed
        self.total_aborts += 1
        self.aborts_by_reason[status.reason] = (
            self.aborts_by_reason.get(status.reason, 0) + 1
        )
        return status
