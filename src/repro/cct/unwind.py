"""Call-path reconstruction: stack unwinding + LBR concatenation (§3.4).

For a sample taken outside a transaction the architectural stack is
complete, so the context is just the unwound frames plus the precise IP.

For a sample inside a transaction the architectural state has rolled back
to the transaction begin, so the unwound stack can only reach the
``tm_begin`` frame.  The path *inside* the transaction is rebuilt from the
LBR exactly as Figure 3 describes: take the in-TSX call/return entries
belonging to the current attempt (bounded above by the abort/interrupt
record and below by the previous attempt's abort record or the first
non-transactional branch), replay them oldest-to-newest pairing calls
with returns, and the unmatched calls form the active in-transaction call
chain.  The two paths are concatenated under a ``begin_in_tx`` pseudo
node.  If the LBR was too small to hold the whole prefix, the
reconstruction is flagged truncated — the same approximation the real
tool admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..pmu.lbr import KIND_ABORT, KIND_CALL, KIND_RET, KIND_SAMPLE, LbrEntry
from ..pmu.sampling import Sample
from .tree import Key, call_key, ip_key, pseudo_key

#: pseudo node anchoring in-transaction paths (name from the paper's GUI)
BEGIN_IN_TX = pseudo_key("begin_in_tx")

#: per-sample confidence tags: "high" means the full in-transaction
#: path was rebuilt from complete LBR evidence (or the sample was
#: non-transactional, where the architectural stack is authoritative);
#: "low" means the LBR was truncated, stale, or empty and the path
#: falls back — wholly or partly — to the architectural stack
CONF_HIGH = "high"
CONF_LOW = "low"


@dataclass
class Reconstruction:
    """The full context for one sample."""

    path: tuple[Key, ...]
    in_txn: bool
    truncated: bool
    #: :data:`CONF_HIGH` or :data:`CONF_LOW` — how much of the claimed
    #: context is backed by branch-record evidence
    confidence: str = CONF_HIGH


def txn_call_chain(
    lbr: Sequence[LbrEntry],
) -> tuple[list[tuple[int, int]], bool]:
    """Active in-transaction call chain from an LBR snapshot (newest first).

    Returns ``(chain, truncated)`` where ``chain`` is a list of
    ``(callsite, callee_base)`` pairs outermost-first and ``truncated``
    reports whether older in-transaction history may have been evicted.
    """
    # 1. find the abort record of the *current* attempt: the newest
    #    KIND_ABORT entry, skipping any sample records layered above it.
    idx = None
    for i, e in enumerate(lbr):
        if e.kind == KIND_SAMPLE:
            continue
        if e.kind == KIND_ABORT:
            idx = i
        break
    if idx is None:
        return [], False
    # 2. collect this attempt's in-TSX call/ret entries: everything older
    #    than the abort record until the previous attempt's abort record or
    #    the first non-transactional branch.
    attempt: list[LbrEntry] = []
    hit_boundary = False
    for e in lbr[idx + 1:]:
        if e.kind == KIND_ABORT or not e.in_tsx:
            hit_boundary = True
            break
        if e.kind in (KIND_CALL, KIND_RET):
            attempt.append(e)
        # sample records inside the window are ignored
    truncated = not hit_boundary and len(lbr) >= 1
    # 3. replay oldest -> newest, pairing calls with returns.
    stack: list[tuple[int, int]] = []
    unmatched_rets = False
    for e in reversed(attempt):
        if e.kind == KIND_CALL:
            stack.append((e.from_addr, e.to_addr))
        else:  # return
            if stack:
                stack.pop()
            else:
                # a return whose call was evicted from the LBR
                unmatched_rets = True
    return stack, truncated or unmatched_rets


def reconstruct(sample: Sample, in_txn: bool) -> Reconstruction:
    """Build the full CCT path for ``sample``.

    ``in_txn`` is the caller's determination of whether the sample
    observed transactional execution (Figure 4 reads LBR[0]'s abort bit
    for cycles samples; abort samples are transactional by definition).
    """
    base: list[Key] = [call_key(cs, cb) for cs, cb in sample.ustack]
    truncated = False
    confidence = CONF_HIGH
    if in_txn:
        if not sample.lbr:
            # zero LBR entries for a transactional sample: there is no
            # branch evidence at all (hardware would never deliver this,
            # but a lossy/fault-injected substrate can).  Fall back to
            # the architectural stack alone, explicitly low-confidence —
            # never an exception, never a silently-empty chain.
            base.append(BEGIN_IN_TX)
            base.append(ip_key(sample.ip))
            return Reconstruction(path=tuple(base), in_txn=True,
                                  truncated=True, confidence=CONF_LOW)
        chain, truncated = txn_call_chain(sample.lbr)
        base.append(BEGIN_IN_TX)
        base.extend(call_key(cs, cb) for cs, cb in chain)
        if truncated:
            confidence = CONF_LOW
        elif not chain and not any(e.kind == KIND_ABORT for e in sample.lbr):
            # the caller asserts a transactional context but the LBR
            # holds no abort transfer to anchor the attempt window — a
            # stale or over-truncated snapshot.  The architectural-stack
            # fallback is still correct up to the transaction begin, so
            # keep the path but tag it.
            confidence = CONF_LOW
    base.append(ip_key(sample.ip))
    return Reconstruction(path=tuple(base), in_txn=in_txn,
                          truncated=truncated, confidence=confidence)
