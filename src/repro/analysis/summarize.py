"""Critical-section summaries over the extracted IR.

Aggregates :class:`~repro.analysis.ir.RegionInstance` records into one
:class:`SectionSummary` per ``TM_BEGIN`` site, at the granularity the
hardware model cares about: distinct cache lines per *single* transaction
attempt (capacity is a per-attempt property, so maxima and minima over
instances matter, not unions), write-set ways per associativity set,
nesting depth, and contained unfriendly ops.  Per-thread line-set unions
are kept for the cross-section conflict check, and per-thread word sets
to tell true sharing (same word) from false sharing (same line only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.config import MachineConfig, line_of
from .ir import ProgramIR, ThreadTrace


@dataclass
class SectionSummary:
    """Static profile of one critical section (one TM_BEGIN site)."""

    site: int
    name: str
    instances: int = 0
    tids: set[int] = field(default_factory=set)
    # per-instance footprint extremes (capacity is per-attempt)
    max_read_lines: int = 0
    min_read_lines: int = 0
    max_write_lines: int = 0
    min_write_lines: int = 0
    max_footprint_lines: int = 0
    #: most write-set lines any single instance mapped into one cache set
    max_ways: int = 0
    min_ways: int = 0
    max_depth: int = 1
    #: distinct unfriendly ops seen inside the section: (op, detail, ip)
    unfriendly: list[tuple[str, str, int]] = field(default_factory=list)
    #: instances containing at least one unfriendly op
    unfriendly_instances: int = 0
    # per-thread unions, for cross-thread overlap checks
    read_lines_by_tid: dict[int, set[int]] = field(default_factory=dict)
    write_lines_by_tid: dict[int, set[int]] = field(default_factory=dict)
    read_words_by_tid: dict[int, set[int]] = field(default_factory=dict)
    write_words_by_tid: dict[int, set[int]] = field(default_factory=dict)
    truncated: bool = False

    def always_unfriendly(self) -> bool:
        """Every symbolic attempt contained an unfriendly op."""
        return self.instances > 0 and self.unfriendly_instances == self.instances

    def always_overflows(self, cfg: MachineConfig, n_sets: int) -> bool:
        """Every symbolic attempt exceeded a speculative buffer budget."""
        if not self.instances:
            return False
        return (
            self.min_write_lines > cfg.wset_lines
            or self.min_ways > cfg.wset_assoc
            or self.min_read_lines > cfg.rset_lines
        )


@dataclass
class WorkloadSummary:
    """All section summaries plus the raw thread traces of one workload."""

    workload: str
    config: MachineConfig
    sections: dict[int, SectionSummary] = field(default_factory=dict)
    threads: list[ThreadTrace] = field(default_factory=list)
    #: associativity sets in the modeled write buffer (engine formula)
    n_sets: int = 1
    #: the runtime's global fallback lock word (0 = unknown), forwarded
    #: from :class:`~repro.analysis.ir.ProgramIR` for the lockset pass
    lock_addr: int = 0
    truncated: bool = False

    def section_list(self) -> list[SectionSummary]:
        return sorted(self.sections.values(), key=lambda s: s.site)


def set_ways(write_lines: set[int], n_sets: int) -> int:
    """Deepest associativity-set occupancy of one instance's write set."""
    by_set: dict[int, int] = {}
    worst = 0
    for line in write_lines:
        idx = line % n_sets
        depth = by_set.get(idx, 0) + 1
        by_set[idx] = depth
        if depth > worst:
            worst = depth
    return worst


def summarize(ir: ProgramIR) -> WorkloadSummary:
    """Fold the per-thread region instances into per-section summaries."""
    cfg = ir.config
    n_sets = max(1, cfg.wset_lines // max(1, cfg.wset_assoc))
    ws = WorkloadSummary(
        workload=ir.workload,
        config=cfg,
        threads=ir.threads,
        n_sets=n_sets,
        lock_addr=ir.lock_addr,
        truncated=ir.truncated,
    )
    for trace in ir.threads:
        for region in trace.regions:
            s = ws.sections.get(region.site)
            if s is None:
                s = SectionSummary(site=region.site, name=region.name)
                ws.sections[region.site] = s
            read_lines = region.read_lines()
            write_lines = region.write_lines()
            ways = set_ways(write_lines, n_sets)
            first = s.instances == 0
            s.instances += 1
            s.tids.add(region.tid)
            s.max_read_lines = max(s.max_read_lines, len(read_lines))
            s.max_write_lines = max(s.max_write_lines, len(write_lines))
            s.max_footprint_lines = max(
                s.max_footprint_lines, len(read_lines | write_lines)
            )
            s.max_ways = max(s.max_ways, ways)
            if first:
                s.min_read_lines = len(read_lines)
                s.min_write_lines = len(write_lines)
                s.min_ways = ways
            else:
                s.min_read_lines = min(s.min_read_lines, len(read_lines))
                s.min_write_lines = min(s.min_write_lines, len(write_lines))
                s.min_ways = min(s.min_ways, ways)
            # region.max_depth is only maintained on outermost instances —
            # exactly right: the hardware (and the dynamic profiler)
            # attribute nest-overflow to the outer transaction's site
            s.max_depth = max(s.max_depth, region.max_depth)
            if region.unfriendly:
                s.unfriendly_instances += 1
                seen = set(s.unfriendly)
                for entry in region.unfriendly:
                    if entry not in seen:
                        s.unfriendly.append(entry)
                        seen.add(entry)
            s.truncated = s.truncated or region.truncated
            s.read_lines_by_tid.setdefault(region.tid, set()).update(read_lines)
            s.write_lines_by_tid.setdefault(region.tid, set()).update(write_lines)
            s.read_words_by_tid.setdefault(region.tid, set()).update(region.read_addrs)
            s.write_words_by_tid.setdefault(region.tid, set()).update(region.write_addrs)
    return ws


def line_overlap(
    a: SectionSummary,
    b: SectionSummary,
) -> list[tuple[int, int, set[int], bool]]:
    """Cross-thread conflicting line overlaps between two sections.

    Returns ``(tid_a, tid_b, lines, has_write_write)`` tuples where
    thread ``tid_a`` of section ``a`` and a *different* thread ``tid_b``
    of section ``b`` touch common cache lines with at least one writer —
    the paper's conflict-abort precursor.  ``a`` and ``b`` may be the
    same section (same site executed by several threads).
    """
    overlaps: list[tuple[int, int, set[int], bool]] = []
    for tid_a, writes_a in a.write_lines_by_tid.items():
        reads_a = a.read_lines_by_tid.get(tid_a, set())
        for tid_b in b.tids:
            if tid_b == tid_a:
                continue
            if a.site == b.site and tid_b < tid_a:
                continue  # unordered pair within one section
            writes_b = b.write_lines_by_tid.get(tid_b, set())
            reads_b = b.read_lines_by_tid.get(tid_b, set())
            ww = writes_a & writes_b
            wr = (writes_a & reads_b) | (reads_a & writes_b)
            lines = ww | wr
            if lines:
                overlaps.append((tid_a, tid_b, lines, bool(ww)))
    return overlaps


def shares_words(a: SectionSummary, b: SectionSummary, lines: set[int]) -> bool:
    """True sharing test: is some *word* in ``lines`` accessed by two
    different threads, at least one of them writing?  Anything else that
    still overlaps at line granularity is false sharing."""
    tids_by_word: dict[int, set[int]] = {}
    written: set[int] = set()
    sections = (a,) if a is b or a.site == b.site else (a, b)
    for sec in sections:
        for is_write, table in (
            (True, sec.write_words_by_tid),
            (False, sec.read_words_by_tid),
        ):
            for tid, words in table.items():
                for w in words:
                    if line_of(w) not in lines:
                        continue
                    tids_by_word.setdefault(w, set()).add(tid)
                    if is_write:
                        written.add(w)
    return any(
        len(tids) > 1 and w in written for w, tids in tids_by_word.items()
    )
