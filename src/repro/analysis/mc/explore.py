"""Interleaving exploration: the small-step executor, the line-level
independence relation, the DPOR explorer, and the brute-force reference.

The executor interprets a :class:`~repro.analysis.mc.transition.Scenario`
under the engine's TSX semantics:

* ``begin`` subscribes to the fallback-lock line (elision reads it into
  the read set) and is enabled only while the lock is free — the
  runtime's lock-wait spin means no speculation starts under a held
  lock, and a begin-while-held would immediately self-abort anyway;
* an access dooms every *other* speculator holding a conflicting line
  (requester wins: write/write or write/read at line granularity), then
  joins the requester's own read/write set;
* ``cap``/``sync`` steps self-doom persistently (no retry) — the victim
  proceeds straight to the lock fallback, exactly like the engine's
  CAPACITY/SYNC statuses without the RETRY bit;
* conflict-doomed transactions retry up to ``retry_bound`` times, then
  fall back;
* ``acq`` (fallback lock acquisition) dooms **all** current speculators
  through their lock-line subscription; ``rel`` releases and retires.

States are immutable tuples, so both explorers hash and memoize them.
Every thread is a deterministic sequential process: at most one next
action per thread per state — exactly the setting of Flanagan &
Godefroid's dynamic partial-order reduction, which we implement with
persistent (backtrack) sets plus sleep sets over a conservative
line-level dependence relation (over-approximating dependence is always
sound; it only costs exploration).

The brute-force reference explores the full state *graph* (the state
space is a DAG — retry counters only grow), counting maximal executions
with a memoized path count, so "how many interleavings DPOR saved" is
exact even when the count is astronomically larger than what any
explorer could enumerate.  A separate path-enumeration mode feeds the
Mazurkiewicz-trace coverage property test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .transition import READ, SYNC, WRITE, Scenario

# thread modes
PRE = 0    # between attempts (about to begin or acquire)
SPEC = 1   # speculating
FB = 2     # holds the fallback lock, running the body
DONE = 3

_EMPTY: frozenset[int] = frozenset()

#: action tags
A_BEGIN = "begin"
A_ACC = "acc"
A_CAP = "cap"
A_SYNC = "sync"
A_COMMIT = "commit"
A_ACQ = "acq"
A_REL = "rel"

_LOCKY = (A_BEGIN, A_ACQ, A_REL)

# per-thread state tuple indices: (mode, idx, attempt, fb, rset, wset)
# global state: (threads_tuple, lock_holder)  lock_holder -1 = free

Action = tuple
State = tuple
#: (aborter_site or 0 for self, victim_site, cls, via_lock)
EdgeKey = tuple[int, int, str, bool]


@dataclass
class EdgeObs:
    """One abort-graph edge as observed during exploration."""

    occurrences: int = 0
    #: minimal witness: (tid, ip, note) steps, SARIF-codeFlow-shaped
    witness: tuple[tuple[int, int, str], ...] = ()


@dataclass
class Exploration:
    """Result of exploring one scenario with one explorer."""

    executions: int = 0
    complete: bool = True
    edges: dict[EdgeKey, EdgeObs] = field(default_factory=dict)
    max_depth: int = 0
    #: canonical Mazurkiewicz-trace representatives (tests only)
    canonical: set | None = None

    def edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.edges)


class System:
    """Executable semantics of one scenario."""

    def __init__(self, scenario: Scenario, retry_bound: int = 1) -> None:
        self.txns = scenario.txns
        self.lock_line = scenario.lock_line
        self.retry_bound = retry_bound
        self.n = len(scenario.txns)
        # static per-thread modeled footprints (+ the subscribed lock
        # line as a read) for the dependence relation
        self.fps = [
            (t.fp_read | {scenario.lock_line}, t.fp_write)
            for t in scenario.txns
        ]

    # ------------------------------------------------------------- state

    def initial(self) -> State:
        return (tuple((PRE, 0, 0, False, _EMPTY, _EMPTY)
                      for _ in range(self.n)), -1)

    def next_action(self, state: State, i: int) -> Action | None:
        """The unique next action of thread ``i`` (None once done).

        Deterministic processes: the *scheduler* is the only source of
        nondeterminism, which is what makes DPOR applicable as-is.
        """
        mode, idx, attempt, fb, _rset, _wset = state[0][i]
        if mode == DONE:
            return None
        if mode == FB:
            return (A_REL,)
        if mode == PRE:
            if fb or attempt > self.retry_bound:
                return (A_ACQ,)
            return (A_BEGIN,)
        txn = self.txns[i]
        if txn.capacity_at is not None and idx >= txn.capacity_at:
            return (A_CAP,)
        if idx < len(txn.steps):
            st = txn.steps[idx]
            if st.kind == SYNC:
                return (A_SYNC, st.ip)
            return (A_ACC, st.kind, st.line, st.ip)
        return (A_COMMIT,)

    def is_enabled(self, state: State, action: Action) -> bool:
        if action[0] in (A_BEGIN, A_ACQ):
            return state[1] == -1
        return True

    def enabled_set(self, state: State) -> list[int]:
        out = []
        for i in range(self.n):
            act = self.next_action(state, i)
            if act is not None and self.is_enabled(state, act):
                out.append(i)
        return out

    # ------------------------------------------------------------- apply

    def _doomed(self, ts: tuple, persistent: bool) -> tuple:
        attempt = ts[2] + 1
        return (PRE, 0, attempt, ts[3] or persistent, _EMPTY, _EMPTY)

    def apply(self, state: State, i: int, action: Action,
              ) -> tuple[State, list[tuple[int | None, int, str, bool]]]:
        """Execute thread ``i``'s ``action``; returns the new state and
        the abort events it caused as (aborter, victim, cls, via_lock)
        with tids (None aborter = self-inflicted)."""
        threads = list(state[0])
        lock = state[1]
        events: list[tuple[int | None, int, str, bool]] = []
        ts = threads[i]
        tag = action[0]
        if tag == A_BEGIN:
            threads[i] = (SPEC, 0, ts[2], ts[3],
                          frozenset((self.lock_line,)), _EMPTY)
        elif tag == A_ACC:
            _, mode, line, _ip = action
            is_write = mode == WRITE
            for j in range(self.n):
                if j == i:
                    continue
                other = threads[j]
                if other[0] != SPEC:
                    continue
                if line in other[5] or (is_write and line in other[4]):
                    threads[j] = self._doomed(other, persistent=False)
                    events.append((i, j, "conflict", line == self.lock_line))
            if is_write:
                threads[i] = (SPEC, ts[1] + 1, ts[2], ts[3],
                              ts[4], ts[5] | {line})
            else:
                threads[i] = (SPEC, ts[1] + 1, ts[2], ts[3],
                              ts[4] | {line}, ts[5])
        elif tag == A_CAP:
            threads[i] = self._doomed(ts, persistent=True)
            events.append((None, i, "capacity", False))
        elif tag == A_SYNC:
            threads[i] = self._doomed(ts, persistent=True)
            events.append((None, i, "sync", False))
        elif tag == A_COMMIT:
            threads[i] = (DONE, ts[1], ts[2], ts[3], _EMPTY, _EMPTY)
        elif tag == A_ACQ:
            lock = i
            threads[i] = (FB, 0, ts[2], ts[3], _EMPTY, _EMPTY)
            # fallback-lock subscription: the CAS write to the lock line
            # dooms every speculator (they all read the lock word)
            for j in range(self.n):
                if j == i:
                    continue
                other = threads[j]
                if other[0] == SPEC:
                    threads[j] = self._doomed(other, persistent=False)
                    events.append((i, j, "conflict", True))
        elif tag == A_REL:
            lock = -1
            threads[i] = (DONE, ts[1], ts[2], ts[3], _EMPTY, _EMPTY)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unknown action {action!r}")
        return (tuple(threads), lock), events

    def serialization_depth(self, state: State) -> int:
        """Threads serialized on the fallback lock in this state: the
        holder plus every thread committed to acquiring next."""
        if state[1] == -1:
            return 0
        depth = 1
        for i in range(self.n):
            ts = state[0][i]
            if ts[0] == PRE and (ts[3] or ts[2] > self.retry_bound):
                depth += 1
        return depth

    # -------------------------------------------------------- dependence

    def _conflicts_fp(self, action: Action, j: int) -> bool:
        _, mode, line, _ip = action
        fp_r, fp_w = self.fps[j]
        return line in fp_w or (mode == WRITE and line in fp_r)

    def dependent(self, ti: int, ai: Action, tj: int, aj: Action) -> bool:
        """Conservative line-level dependence (may-not-commute).

        ``acq`` depends on everything (it gates enabledness and dooms
        every speculator through the lock-line subscription); ``rel``
        only on other lock-state transitions (``begin``/``acq``/``rel``)
        — no live speculator can coexist with a held lock past its
        subscription check, so the release write dooms nobody.
        ``begin`` additionally depends on accesses to the lock line (the
        subscription read).  Two accesses commute unless one touches the
        other thread's modeled footprint — or both can doom a common
        third thread, in which case their order decides who gets the
        abort-graph edge (observational dependence: DPOR must explore
        both orders for the edge union to be exact).
        """
        if ti == tj:
            return True
        tag_i, tag_j = ai[0], aj[0]
        if tag_i == A_ACQ or tag_j == A_ACQ:
            return True
        if tag_i == A_REL or tag_j == A_REL:
            return (tag_i in _LOCKY) and (tag_j in _LOCKY)
        ai_acc = tag_i == A_ACC
        aj_acc = tag_j == A_ACC
        if tag_i == A_BEGIN:
            return aj_acc and aj[2] == self.lock_line
        if tag_j == A_BEGIN:
            return ai_acc and ai[2] == self.lock_line
        if ai_acc and aj_acc:
            if self._conflicts_fp(ai, tj) or self._conflicts_fp(aj, ti):
                return True
            for w in range(self.n):
                if w in (ti, tj):
                    continue
                if self._conflicts_fp(ai, w) and self._conflicts_fp(aj, w):
                    return True
            return False
        if ai_acc:
            return self._conflicts_fp(ai, tj)
        if aj_acc:
            return self._conflicts_fp(aj, ti)
        return False  # cap/sync/commit pairs always commute


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def _describe(system: System, tid: int, action: Action) -> tuple[int, int, str]:
    txn = system.txns[tid]
    tag = action[0]
    if tag == A_BEGIN:
        return (txn.tid, txn.site,
                f"xbegin '{txn.name}' (subscribes to the fallback-lock line)")
    if tag == A_ACC:
        _, mode, line, ip = action
        verb = "stores to" if mode == WRITE else "loads"
        return (txn.tid, ip, f"{verb} line {line:#x}")
    if tag == A_CAP:
        return (txn.tid, txn.site,
                "overflows the speculative buffer (persistent capacity abort)")
    if tag == A_SYNC:
        return (txn.tid, action[1],
                "unfriendly op aborts the transaction (persistent sync abort)")
    if tag == A_COMMIT:
        return (txn.tid, txn.site, f"xend commits '{txn.name}'")
    if tag == A_ACQ:
        return (txn.tid, txn.site,
                f"acquires the fallback lock for '{txn.name}' — "
                "the lock-line write aborts every subscribed speculator")
    return (txn.tid, txn.site, f"releases the fallback lock ('{txn.name}')")


def _witness_of(system: System,
                prefix: list[tuple[int, Action]],
                victim: int) -> tuple[tuple[int, int, str], ...]:
    steps = [_describe(system, tid, act) for tid, act in prefix]
    vt = system.txns[victim]
    steps.append((vt.tid, vt.site,
                  f"'{vt.name}' observes the abort and rolls back"))
    return tuple(steps)


def _record_events(system: System, exp: Exploration,
                   prefix: list[tuple[int, Action]],
                   events: list[tuple[int | None, int, str, bool]],
                   with_witness: bool) -> None:
    for aborter, victim, cls, via_lock in events:
        a_site = 0 if aborter is None else system.txns[aborter].site
        key = (a_site, system.txns[victim].site, cls, via_lock)
        obs = exp.edges.get(key)
        if obs is None:
            obs = exp.edges[key] = EdgeObs()
        obs.occurrences += 1
        if with_witness:
            if not obs.witness or len(prefix) + 1 < len(obs.witness):
                obs.witness = _witness_of(system, prefix, victim)


# ---------------------------------------------------------------------------
# canonical Mazurkiewicz representatives (for the coverage property)
# ---------------------------------------------------------------------------


def canonical_trace(system: System,
                    seq: list[tuple[int, Action]]) -> tuple:
    """Canonical linearization of ``seq``'s Mazurkiewicz trace.

    Greedy topological sort of the dependence DAG picking the smallest
    thread id among the available events — two executions are
    trace-equivalent iff their canonical forms are equal (program order
    per thread is dependence, so at most one event per thread is
    available at a time)."""
    n = len(seq)
    preds = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        ti, ai = seq[i]
        for j in range(i + 1, n):
            tj, aj = seq[j]
            if system.dependent(ti, ai, tj, aj):
                succs[i].append(j)
                preds[j] += 1
    avail = sorted(i for i in range(n) if preds[i] == 0)
    out: list[tuple[int, Action]] = []
    while avail:
        pick = min(avail, key=lambda k: (seq[k][0], k))
        avail.remove(pick)
        out.append(seq[pick])
        for j in succs[pick]:
            preds[j] -= 1
            if preds[j] == 0:
                avail.append(j)
    return tuple(out)


# ---------------------------------------------------------------------------
# DPOR
# ---------------------------------------------------------------------------


def dpor_explore(system: System, max_executions: int = 20_000,
                 collect_traces: bool = False) -> Exploration:
    """Flanagan–Godefroid DPOR with sleep sets over deterministic
    processes.  Deterministic: every choice iterates sorted thread ids.
    """
    exp = Exploration(canonical=set() if collect_traces else None)
    n = system.n
    # the executed trail: one entry per step, carrying the pre-state's
    # enabled set and the (mutable, shared) backtrack set of that node
    trail: list[tuple[int, Action, frozenset[int], set[int]]] = []

    def explore(state: State, sleep: frozenset[int]) -> None:
        if not exp.complete:
            return
        # race detection: for every live thread, find *every* trail node
        # whose step its next step depends on.  Classic DPOR stops at the
        # most recent such step, but that relies on an exact dependence
        # relation: ours over-approximates (``acq`` is dependent with
        # everything), so a causally-entangled nearby step — say the
        # doom that enabled this very acquisition — can shadow a genuine
        # race with an older, causally-unrelated step, silently dropping
        # the backtrack point that would reverse it.  At node k the race
        # is reversed by starting p, or any thread with a step after k
        # that happens before p's next step: once p has moved since k,
        # its step at k is an older one, possibly asleep there, and only
        # a thread p's later steps waited on leads to the reversal.
        # Adding every such starter costs redundant exploration (the
        # sleep sets absorb most of it) but never misses a class.
        for p in range(n):
            act = system.next_action(state, p)
            if act is None:
                continue
            # the trail steps after k that happen before p's next step
            before: list[tuple[int, Action]] = []
            for k in range(len(trail) - 1, -1, -1):
                tid_k, act_k, enabled_k, backtrack_k = trail[k]
                if tid_k == p:
                    before.append((tid_k, act_k))
                elif system.dependent(tid_k, act_k, p, act):
                    starters = enabled_k & ({p} | {t for t, _a in before})
                    backtrack_k.update(starters or enabled_k)
                    before.append((tid_k, act_k))
                elif any(t == tid_k or system.dependent(tid_k, act_k, t, a)
                         for t, a in before):
                    before.append((tid_k, act_k))
        enabled = frozenset(system.enabled_set(state))
        if not enabled:
            exp.executions += 1
            if exp.executions >= max_executions:
                exp.complete = False
            if exp.canonical is not None:
                exp.canonical.add(
                    canonical_trace(system, [(t, a) for t, a, _e, _b in trail]))
            return
        candidates = sorted(enabled - sleep)
        if not candidates:
            return  # everything enabled is asleep: provably redundant
        backtrack: set[int] = {candidates[0]}
        done: set[int] = set()
        sleep_now = set(sleep)
        while exp.complete:
            todo = sorted((backtrack & enabled) - done)
            todo = [p for p in todo if p not in sleep_now]
            if not todo:
                break
            p = todo[0]
            act = system.next_action(state, p)
            assert act is not None
            new_state, events = system.apply(state, p, act)
            _record_events(system, exp,
                           [(t, a) for t, a, _e, _b in trail] + [(p, act)]
                           if events else [], events, with_witness=True)
            exp.max_depth = max(exp.max_depth,
                                system.serialization_depth(new_state))
            trail.append((p, act, enabled, backtrack))
            child_sleep = frozenset(
                q for q in sleep_now
                if not system.dependent(
                    p, act, q, system.next_action(state, q))  # type: ignore[arg-type]
            )
            explore(new_state, child_sleep)
            trail.pop()
            sleep_now.add(p)
            done.add(p)

    import sys
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        explore(system.initial(), frozenset())
    finally:
        sys.setrecursionlimit(limit)
    return exp


# ---------------------------------------------------------------------------
# brute force reference
# ---------------------------------------------------------------------------


def brute_explore(system: System, max_states: int = 200_000) -> Exploration:
    """Full state-graph exploration (no reduction).

    Visits every reachable state once, records every abort event on
    every unique transition, and counts *maximal executions* (paths to
    terminal states) with a memoized DP over the DAG — exact even when
    the count dwarfs anything enumerable.
    """
    exp = Exploration()
    init = system.initial()
    children: dict[State, list[State]] = {}
    stack = [init]
    seen = {init}
    while stack:
        state = stack.pop()
        exp.max_depth = max(exp.max_depth, system.serialization_depth(state))
        kids: list[State] = []
        for p in system.enabled_set(state):
            act = system.next_action(state, p)
            assert act is not None
            new_state, events = system.apply(state, p, act)
            _record_events(system, exp, [], events, with_witness=False)
            kids.append(new_state)
            if new_state not in seen:
                seen.add(new_state)
                if len(seen) > max_states:
                    exp.complete = False
                    return exp
                stack.append(new_state)
        children[state] = kids

    # memoized maximal-path count over the DAG (iterative post-order)
    counts: dict[State, int] = {}
    order: list[State] = []
    mark: set[State] = set()
    work: list[tuple[State, bool]] = [(init, False)]
    while work:
        state, processed = work.pop()
        if processed:
            order.append(state)
            continue
        if state in mark:
            continue
        mark.add(state)
        work.append((state, True))
        for kid in children[state]:
            if kid not in mark:
                work.append((kid, False))
    for state in order:
        kids = children[state]
        counts[state] = sum(counts[k] for k in kids) if kids else 1
    exp.executions = counts[init]
    return exp


def brute_enumerate(system: System, max_executions: int = 50_000) -> Exploration:
    """Path-enumeration brute force: every maximal interleaving, with
    canonical Mazurkiewicz representatives.  Test-sized systems only."""
    exp = Exploration(canonical=set())
    trail: list[tuple[int, Action]] = []

    def walk(state: State) -> None:
        if not exp.complete:
            return
        enabled = system.enabled_set(state)
        exp.max_depth = max(exp.max_depth, system.serialization_depth(state))
        if not enabled:
            exp.executions += 1
            if exp.executions >= max_executions:
                exp.complete = False
            assert exp.canonical is not None
            exp.canonical.add(canonical_trace(system, trail))
            return
        for p in enabled:
            act = system.next_action(state, p)
            assert act is not None
            new_state, events = system.apply(state, p, act)
            _record_events(system, exp, trail + [(p, act)] if events else [],
                           events, with_witness=True)
            trail.append((p, act))
            walk(new_state)
            trail.pop()

    import sys
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        walk(system.initial())
    finally:
        sys.setrecursionlimit(limit)
    return exp
