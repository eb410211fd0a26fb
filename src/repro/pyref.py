"""Driver-side reference implementations used as test oracles.

Everything here is pure Python over edge lists — small, obviously
correct, and completely independent of the Spark dataflow code it
cross-checks: RPQ evaluation (NFA-product BFS), transitive closure
and condensation. Tarjan's SCC algorithm is not here: Compute_RTC runs
it on the production path (``repro.graph.scc.tarjan_scc``), so the
tests check it against networkx instead.
"""
from __future__ import annotations

from repro.rpq.ast import Regex
from repro.rpq.automaton import NFA, build_nfa

Edge = tuple[int, str, int]


def eval_rpq_python(edges: list[Edge], regex: Regex) -> set[tuple[int, int]]:
    """Evaluate an RPQ on an edge list: all (start, end) vertex pairs.

    BFS over the product of graph vertices and NFA states, per start
    vertex — the textbook algorithm of Section II-B, with the
    (vertex, state) visited set that terminates cyclic traversals.
    """
    nfa: NFA = build_nfa(regex)
    by_label_src: dict[tuple[int, str], list[int]] = {}
    vertices: set[int] = set()
    for s, a, d in edges:
        by_label_src.setdefault((s, a), []).append(d)
        vertices.add(s)
        vertices.add(d)
    trans_by_state: dict[int, list[tuple[str, int]]] = {}
    for q, a, q2 in nfa.transitions:
        trans_by_state.setdefault(q, []).append((a, q2))

    result: set[tuple[int, int]] = set()
    if nfa.accepts_epsilon:
        result |= {(v, v) for v in vertices}
    for v0 in vertices:
        visited = {(v0, nfa.start)}
        frontier = [(v0, nfa.start)]
        while frontier:
            nxt = []
            for v, q in frontier:
                for a, q2 in trans_by_state.get(q, []):
                    for w in by_label_src.get((v, a), []):
                        if (w, q2) not in visited:
                            visited.add((w, q2))
                            nxt.append((w, q2))
                            if q2 in nfa.accepts:
                                result.add((v0, w))
            frontier = nxt
    return result


def transitive_closure_python(
    edges: list[tuple[int, int]],
) -> set[tuple[int, int]]:
    """Transitive closure with >=1-step semantics (BFS per vertex)."""
    adj: dict[int, list[int]] = {}
    vertices: set[int] = set()
    for s, d in edges:
        adj.setdefault(s, []).append(d)
        vertices.add(s)
        vertices.add(d)
    out: set[tuple[int, int]] = set()
    for v0 in vertices:
        seen: set[int] = set()
        frontier = list(adj.get(v0, []))
        while frontier:
            nxt = []
            for w in frontier:
                if w not in seen:
                    seen.add(w)
                    out.add((v0, w))
                    nxt.extend(adj.get(w, []))
            frontier = nxt
    return out


def condense_python(
    edges: list[tuple[int, int]], comp_of: dict[int, int]
) -> set[tuple[int, int]]:
    """Vertex-level reduction of an edge list given an SCC assignment."""
    return {(comp_of[s], comp_of[d]) for s, d in edges}
