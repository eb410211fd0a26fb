"""Tests for distributed transitive closure (repro.graph.closure).

Checked against the python reference and — via the DuckDB oracle — a
recursive CTE, so the semi-naive Spark iteration is validated by two
independent implementations.
"""
import random

import pandas as pd
import pytest

import repro.graph.closure as closure
from repro.core.edge_reduction import eval_rpq_automaton
from repro.graph.closure import transitive_closure
from repro.graph.iterate import FixpointGuard
from repro.oracle import assert_equivalent
from repro.pyref import transitive_closure_python
from repro.rpq.parser import parse
from tests.helpers import spark_jobs


def tc_spark(spark, edges):
    edf = spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]), "src long, dst long"
    )
    return transitive_closure(edf)


def rows(df):
    return {(r.src, r.dst) for r in df.collect()}


class TestSmall:
    def test_chain(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (2, 3)])) == {
            (1, 2),
            (1, 3),
            (2, 3),
        }

    def test_cycle_reaches_self(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (2, 1)])) == {
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        }

    def test_one_step_semantics(self, spark):
        got = rows(tc_spark(spark, [(1, 2)]))
        assert got == {(1, 2)}  # no zero-step (v, v) pairs

    def test_self_loop(self, spark):
        assert rows(tc_spark(spark, [(4, 4)])) == {(4, 4)}

    def test_duplicate_edges_collapse(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (1, 2)])) == {(1, 2)}

    def test_paper_example4(self, spark):
        """TC(G_{b.c}) equals (b.c)+_G of Example 4 — the 10 pairs."""
        edges = [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]
        expected = {
            (2, 2),
            (2, 4),
            (2, 6),
            (3, 3),
            (3, 5),
            (4, 2),
            (4, 4),
            (4, 6),
            (5, 3),
            (5, 5),
        }
        assert rows(tc_spark(spark, edges)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_random_vs_python(spark, seed):
    rng = random.Random(seed)
    n = 15
    edges = sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(25)}
    )
    assert rows(tc_spark(spark, edges)) == transitive_closure_python(edges)


@pytest.mark.parametrize("seed", [0, 3])
def test_random_vs_duckdb_recursive(spark, seed):
    rng = random.Random(seed)
    n = 12
    edges = sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(20)}
    )
    got = tc_spark(spark, edges)
    assert_equivalent(
        got,
        """
        WITH RECURSIVE tc AS (
            SELECT src, dst FROM e
            UNION
            SELECT tc.src, e.dst FROM tc JOIN e ON tc.dst = e.src
        )
        SELECT src, dst FROM tc
        """,
        e=pd.DataFrame(edges, columns=["src", "dst"]),
    )


@pytest.fixture
def fixpoint_counts(monkeypatch):
    """Counts checkpoints taken through ``closure.materialize`` and
    ``FixpointGuard`` rounds, so a change to the fixpoint loop shows up
    as a changed count."""
    counts = {"checkpoints": 0, "rounds": 0}
    real_materialize, real_tick = closure.materialize, FixpointGuard.tick

    def materialize(df):
        counts["checkpoints"] += 1
        return real_materialize(df)

    def tick(guard):
        counts["rounds"] += 1
        return real_tick(guard)

    monkeypatch.setattr(closure, "materialize", materialize)
    monkeypatch.setattr(FixpointGuard, "tick", tick)
    return counts


# Spark jobs of the TC of an n-edge chain, at 8 shuffle partitions.
CHAIN_TC_JOBS = {1: 5, 4: 24, 12: 72}


@pytest.mark.parametrize("n", list(CHAIN_TC_JOBS))
def test_chain_tc_rounds_and_checkpoints(spark, fixpoint_counts, n):
    """An n-edge chain closes in n rounds: one checkpoint for the base
    edges, then one for the frontier per round and one for the union
    per round that found rows — the last finds none. The frontier's
    checkpoint also counts its rows, so no round runs a job to test
    emptiness."""
    edges = [(i, i + 1) for i in range(n)]
    out = []
    jobs = spark_jobs(spark, lambda: out.append(tc_spark(spark, edges)))
    assert jobs == CHAIN_TC_JOBS[n]
    assert fixpoint_counts == {"rounds": n, "checkpoints": 2 * n}
    assert out[0].count() == n * (n + 1) // 2


def test_automaton_rounds(paper_graph, fixpoint_counts):
    """d.(b.c)+.c on the paper graph: three rounds find new (start,
    vertex, state) triples (d, b, c from v7), the fourth reaches only
    visited ones and ends the traversal."""
    got = eval_rpq_automaton(paper_graph, parse("d.(b.c)+.c"))
    assert fixpoint_counts["rounds"] == 4
    assert got.isEmpty()
