"""Tests for vertex-level reduction (repro.graph.condense)."""
import random

import pandas as pd
import pytest

from repro.graph.condense import condense
from repro.graph.scc import strongly_connected_components, tarjan_scc
from repro.pyref import condense_python


def condense_spark(spark, edges):
    edf = spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]), "src long, dst long"
    )
    scc = strongly_connected_components(edf)
    out = condense(edf, scc)
    return {(r.src, r.dst) for r in out.collect()}


def test_paper_example5(spark):
    """Fig. 6: G_{b.c} condenses to edges {(s0,s0),(s0,s1),(s2,s2)} —
    with min-vertex SCC ids: {(2,2),(2,6),(3,3)}."""
    edges = [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]
    assert condense_spark(spark, edges) == {(2, 2), (2, 6), (3, 3)}


def test_multi_vertex_scc_gets_self_loop(spark):
    assert condense_spark(spark, [(1, 2), (2, 1)]) == {(1, 1)}


def test_singleton_self_loop_preserved(spark):
    assert condense_spark(spark, [(3, 3), (3, 4)]) == {(3, 3), (3, 4)}


def test_singleton_without_loop_has_none(spark):
    assert condense_spark(spark, [(1, 2)]) == {(1, 2)}


def test_parallel_cross_edges_collapse(spark):
    # Two SCCs with two edges between them -> one condensed edge.
    edges = [(1, 2), (2, 1), (5, 6), (6, 5), (1, 5), (2, 6)]
    assert condense_spark(spark, edges) == {(1, 1), (5, 5), (1, 5)}


@pytest.mark.parametrize("seed", range(5))
def test_random_vs_python(spark, seed):
    rng = random.Random(seed)
    n = 14
    edges = sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(26)}
    )
    want = condense_python(edges, tarjan_scc(edges)[0])
    assert condense_spark(spark, edges) == want
