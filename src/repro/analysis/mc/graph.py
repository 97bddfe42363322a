"""The static abort graph: merging explorations into per-site-pair
predictions, convoy-cycle detection, and lint findings.

Nodes are TM_BEGIN sites.  A directed edge ``(aborter, victim)`` says
some explored interleaving has the aborter's access (or fallback-lock
acquisition, ``via_lock``) dooming the victim's transaction; self-loops
with ``aborter_site == 0`` carry self-inflicted capacity/sync dooms.
Every edge keeps its minimal witness interleaving, rendered as SARIF
codeFlows by the existing lint machinery.

A **convoy cycle** (the paper's lemming effect) is a cycle in the
``via_lock`` subgraph: each section's fallback acquisition aborts the
others' speculation, which drives *them* to the fallback, which aborts
the first again — mutual recurrent serialization.  A single site whose
threads abort each other through the lock is the 1-cycle form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .explore import EdgeKey, EdgeObs, Exploration

#: abort classes a graph edge can carry
EDGE_CLASSES = ("conflict", "capacity", "sync")


@dataclass
class AbortEdge:
    """One predicted who-aborts-whom edge (or self-doom when aborter=0)."""

    aborter_site: int
    victim_site: int
    cls: str
    via_lock: bool
    occurrences: int = 0
    scenarios: tuple[str, ...] = ()
    witness: tuple[tuple[int, int, str], ...] = ()

    @property
    def key(self) -> EdgeKey:
        return (self.aborter_site, self.victim_site, self.cls, self.via_lock)

    def to_dict(self) -> dict[str, Any]:
        return {
            "aborter_site": self.aborter_site,
            "victim_site": self.victim_site,
            "cls": self.cls,
            "via_lock": self.via_lock,
            "occurrences": self.occurrences,
            "scenarios": list(self.scenarios),
            "witness_len": len(self.witness),
        }


@dataclass
class AbortGraph:
    """The merged static abort graph for one workload."""

    edges: dict[EdgeKey, AbortEdge] = field(default_factory=dict)
    site_names: dict[int, str] = field(default_factory=dict)
    max_serialization_depth: int = 0
    convoy_cycles: tuple[tuple[int, ...], ...] = ()

    # ------------------------------------------------------------ views

    def edge_list(self) -> list[AbortEdge]:
        return [self.edges[k] for k in sorted(self.edges)]

    def who_aborts_whom(self) -> list[AbortEdge]:
        """Cross-transaction edges only (self-dooms excluded)."""
        return [e for e in self.edge_list() if e.aborter_site > 0]

    def predicted_pairs(self, via_lock: bool | None = None,
                        ) -> set[tuple[int, int]]:
        return {
            (e.aborter_site, e.victim_site)
            for e in self.who_aborts_whom()
            if via_lock is None or e.via_lock == via_lock
        }

    def abort_classes(self, site: int) -> set[str]:
        """Every abort class some interleaving inflicts on ``site``."""
        out = {e.cls for e in self.edge_list() if e.victim_site == site}
        # a victim of any doom retries and may exhaust into the fallback;
        # the class taxonomy has no separate leaf for that, so no extra
        return out

    def fallback_sites(self) -> set[int]:
        """Sites some interleaving drives into the lock fallback."""
        out = {e.aborter_site for e in self.edge_list()
               if e.via_lock and e.aborter_site > 0}
        for e in self.edge_list():
            if e.aborter_site == 0:  # persistent self-doom: no retry
                out.add(e.victim_site)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": [e.to_dict() for e in self.edge_list()],
            "site_names": {hex(s): n for s, n in
                           sorted(self.site_names.items())},
            "max_serialization_depth": self.max_serialization_depth,
            "convoy_cycles": [list(c) for c in self.convoy_cycles],
        }


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


def merge_explorations(
    per_scenario: list[tuple[str, dict[EdgeKey, EdgeObs]]],
    site_names: dict[int, str],
    max_depth: int,
) -> AbortGraph:
    """Union scenario explorations into one graph, keeping the shortest
    witness and the scenario keys that exhibit each edge."""
    graph = AbortGraph(site_names=dict(site_names),
                       max_serialization_depth=max_depth)
    for scen_key, edges in per_scenario:
        for key, obs in edges.items():
            edge = graph.edges.get(key)
            if edge is None:
                edge = graph.edges[key] = AbortEdge(*key)
            edge.occurrences += obs.occurrences
            if scen_key not in edge.scenarios:
                edge.scenarios = edge.scenarios + (scen_key,)
            if obs.witness and (
                    not edge.witness or len(obs.witness) < len(edge.witness)):
                edge.witness = obs.witness
    graph.convoy_cycles = find_convoy_cycles(graph)
    return graph


def find_convoy_cycles(graph: AbortGraph) -> tuple[tuple[int, ...], ...]:
    """Cycles in the via_lock subgraph (Tarjan SCCs + self-loops)."""
    adj: dict[int, set[int]] = {}
    for e in graph.who_aborts_whom():
        if e.via_lock:
            adj.setdefault(e.aborter_site, set()).add(e.victim_site)
            adj.setdefault(e.victim_site, set())
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    sccs: list[tuple[int, ...]] = []

    def strongconnect(v: int) -> None:
        work: list[tuple[int, Any]] = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in adj.get(node, set()):
                    sccs.append(tuple(sorted(comp)))

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)
    return tuple(sorted(sccs))
