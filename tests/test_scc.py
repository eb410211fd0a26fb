"""Tests for both SCC algorithms of repro.graph.scc: the distributed
one and driver-side Tarjan, against each other and against networkx."""
import random

import networkx as nx
import pandas as pd
import pytest

from repro.graph.scc import strongly_connected_components, tarjan_scc


def scc_spark(spark, edges):
    edf = spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]), "src long, dst long"
    )
    out = strongly_connected_components(edf)
    return {r.v: r.s for r in out.collect()}


def scc_networkx(edges):
    """vertex -> min member of its SCC, from networkx."""
    g = nx.DiGraph(edges)
    return {
        v: min(comp)
        for comp in nx.strongly_connected_components(g)
        for v in comp
    }


def _random_edges(seed, n, m):
    rng = random.Random(seed)
    return sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(m)})


class TestSmallGraphs:
    def test_single_cycle(self, spark):
        assert scc_spark(spark, [(1, 2), (2, 3), (3, 1)]) == {
            1: 1,
            2: 1,
            3: 1,
        }

    def test_dag_chain(self, spark):
        assert scc_spark(spark, [(1, 2), (2, 3), (3, 4)]) == {
            1: 1,
            2: 2,
            3: 3,
            4: 4,
        }

    def test_two_sccs_with_bridge(self, spark):
        edges = [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]
        assert scc_spark(spark, edges) == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_self_loop_singleton(self, spark):
        assert scc_spark(spark, [(5, 5), (5, 6)]) == {5: 5, 6: 6}

    def test_paper_example5(self, spark):
        """The SCC partition of G_{b.c}: {v2,v4}, {v3,v5}, {v6}."""
        edges = [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]
        assert scc_spark(spark, edges) == {2: 2, 4: 2, 3: 3, 5: 3, 6: 6}

    def test_self_loop_only(self, spark):
        assert scc_spark(spark, [(0, 0)]) == {0: 0}

    def test_long_path_all_singletons(self, spark):
        edges = [(i, i + 1) for i in range(12)]
        assert scc_spark(spark, edges) == {i: i for i in range(13)}

    def test_cycle_ids_descending_vertices(self, spark):
        # Min-id convention regardless of edge direction/ordering.
        edges = [(9, 4), (4, 9), (4, 2), (2, 4)]
        assert scc_spark(spark, edges) == {9: 2, 4: 2, 2: 2}

    def test_two_disjoint_cycles(self, spark):
        edges = [(1, 2), (2, 1), (10, 11), (11, 10)]
        assert scc_spark(spark, edges) == {1: 1, 2: 1, 10: 10, 11: 10}

    def test_nested_cycles_one_scc(self, spark):
        # Two cycles sharing a vertex form one SCC.
        edges = [(1, 2), (2, 1), (2, 3), (3, 2)]
        assert scc_spark(spark, edges) == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("seed", range(8))
def test_random_vs_tarjan(spark, seed):
    edges = _random_edges(seed, 20, 35)
    assert scc_spark(spark, edges) == tarjan_scc(edges)[0]


def test_denser_random_vs_tarjan(spark):
    edges = _random_edges(99, 40, 160)
    assert scc_spark(spark, edges) == tarjan_scc(edges)[0]


NX_GRAPHS = {
    **{f"random{seed}": _random_edges(seed, 20, 35) for seed in range(8)},
    "denser": _random_edges(99, 40, 160),
    "empty": [],
    "self_loops_only": [(v, v) for v in range(6)],
}


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_tarjan_vs_networkx(name):
    edges = NX_GRAPHS[name]
    comp_of, components = tarjan_scc(edges)
    assert comp_of == scc_networkx(edges)
    # The member lists partition the vertices, named by their minimum.
    assert sorted(v for c in components for v in c) == sorted(comp_of)
    assert all(comp_of[v] == min(c) for c in components for v in c)


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_distributed_vs_networkx(spark, name):
    edges = NX_GRAPHS[name]
    assert scc_spark(spark, edges) == scc_networkx(edges)


@pytest.mark.parametrize("seed", range(4))
def test_tarjan_emits_reverse_topological_order(seed):
    """Every SCC reachable from a component is emitted before it."""
    edges = _random_edges(seed, 30, 45)
    comp_of, components = tarjan_scc(edges)
    rank = {comp_of[c[0]]: i for i, c in enumerate(components)}
    for u, v in edges:
        assert rank[comp_of[v]] <= rank[comp_of[u]]
