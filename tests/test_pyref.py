"""Unit tests for the driver-side reference oracles (repro.pyref).

These oracles are themselves verified against brute force (path
enumeration / SCC definition) before the Spark code is trusted to them.
``TestTarjan`` checks the driver-side Tarjan of ``repro.graph.scc``
against the SCC definition the same way.
"""
import itertools
import random

import pytest

from repro.graph.scc import tarjan_scc
from repro.pyref import (
    condense_python,
    eval_rpq_python,
    transitive_closure_python,
)
from repro.rpq.automaton import build_nfa
from repro.rpq.parser import parse


def product_closure_rpq(edges, text):
    """Exact RPQ oracle via the product-graph transitive closure.

    Builds the product graph of (vertex, NFA state) pairs and uses the
    (independently tested) ``transitive_closure_python`` for
    reachability — structurally unlike eval_rpq_python's per-start BFS
    with its (vertex, state) visited-set bookkeeping.
    """
    nfa = build_nfa(parse(text))
    vertices = {s for s, _, _ in edges} | {d for _, _, d in edges}
    product = [
        ((v, q), (w, q2))
        for (v, a, w) in edges
        for (q, a2, q2) in nfa.transitions
        if a == a2
    ]
    reach = transitive_closure_python(product)
    result = set()
    if nfa.accepts_epsilon:
        result |= {(v, v) for v in vertices}
    for (v, q), (w, q2) in reach:
        if q == nfa.start and q2 in nfa.accepts:
            result.add((v, w))
    return result


def random_edges(seed, n_v=7, n_e=14, labels="ab"):
    rng = random.Random(seed)
    return sorted(
        {
            (rng.randrange(n_v), rng.choice(labels), rng.randrange(n_v))
            for _ in range(n_e)
        }
    )


QUERIES = ["a", "a.b", "a|b", "(a.b)+", "a.b+", "(a|b)+", "a*.b", "b.(a.b)*"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("text", QUERIES)
def test_eval_rpq_python_vs_product_closure(seed, text):
    edges = random_edges(seed)
    got = eval_rpq_python(edges, parse(text))
    want = product_closure_rpq(edges, text)
    assert got == want


class TestTarjan:
    def test_single_cycle(self):
        comp, _ = tarjan_scc([(1, 2), (2, 3), (3, 1)])
        assert comp == {1: 1, 2: 1, 3: 1}

    def test_dag(self):
        comp, _ = tarjan_scc([(1, 2), (2, 3)])
        assert comp == {1: 1, 2: 2, 3: 3}

    def test_two_sccs(self):
        comp, _ = tarjan_scc([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
        assert comp == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_self_loop_is_singleton(self):
        comp, _ = tarjan_scc([(5, 5), (5, 6)])
        assert comp == {5: 5, 6: 6}

    @pytest.mark.parametrize("seed", range(8))
    def test_vs_definition(self, seed):
        """SCC(u)==SCC(v) iff mutually reachable (by definition)."""
        rng = random.Random(seed)
        edges = sorted(
            {(rng.randrange(8), rng.randrange(8)) for _ in range(14)}
        )
        comp, _ = tarjan_scc(edges)
        tc = transitive_closure_python(edges)
        verts = sorted(comp)
        for u, v in itertools.combinations(verts, 2):
            mutual = (u, v) in tc and (v, u) in tc
            assert (comp[u] == comp[v]) == mutual, (u, v)

    def test_id_is_min_member(self):
        comp, _ = tarjan_scc([(9, 4), (4, 9), (4, 2), (2, 4)])
        assert set(comp.values()) == {2}


class TestTransitiveClosure:
    def test_chain(self):
        tc = transitive_closure_python([(1, 2), (2, 3)])
        assert tc == {(1, 2), (1, 3), (2, 3)}

    def test_cycle_includes_self(self):
        tc = transitive_closure_python([(1, 2), (2, 1)])
        assert tc == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_no_zero_step(self):
        tc = transitive_closure_python([(1, 2)])
        assert (1, 1) not in tc and (2, 2) not in tc

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_power(self, seed):
        rng = random.Random(seed)
        n = 6
        edges = sorted(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(10)}
        )
        reach = {(s, d) for s, d in edges}
        for _ in range(n):
            reach |= {
                (a, d) for a, b in reach for c, d in edges if b == c
            }
        assert transitive_closure_python(edges) == reach


class TestCondense:
    def test_paper_example5(self):
        # G_{b.c} of Fig. 5 condenses to 3 vertices and 3 edges.
        edges = [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]
        comp, _ = tarjan_scc(edges)
        assert sorted(set(comp.values())) == [2, 3, 6]
        cond = condense_python(edges, comp)
        assert cond == {(2, 2), (2, 6), (3, 3)}
