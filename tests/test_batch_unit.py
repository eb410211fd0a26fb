"""Tests for EvalBatchUnit (repro.core.batch_unit): RTC vs Full pipelines.

Every combination of {Pre present/ε} × {+,*} × {Post present/ε} is
checked: the two pipelines must agree with each other, with the pure-
Python reference, and (spot checks) with the DuckDB recursive oracle.
"""
import re

import pytest
from pyspark.sql import functions as F

import repro.core.base as base_module
import repro.core.batch_unit as batch_unit_module
import repro.core.edge_reduction as edge_reduction_module
import repro.core.rtc as rtc_module
from repro.core import FullSharingEvaluator, PhaseTimings, RTCSharingEvaluator
from repro.core.batch_unit import eval_batch_unit_full, eval_batch_unit_rtc
from repro.core.edge_reduction import eval_kleene_free
from repro.core.rtc import RPlus, compute_rtc
from repro.graph.closure import transitive_closure
from repro.graph.iterate import materialize
from repro.graph.model import LabeledGraph
from repro.oracle import assert_equivalent
from repro.pyref import eval_rpq_python
from repro.rpq.ast import EPSILON
from repro.rpq.parser import parse
from tests.helpers import (
    PAPER_EDGES,
    batch_unit_sql,
    dataframes_built,
    edges_pdf,
    forward_dag_edges,
    spark_jobs,
)


def rows(df):
    return {(r.start_v, r.end_v) for r in df.collect()}


@pytest.fixture(scope="module")
def shared(paper_graph):
    """R = b.c: the RTC and the full R+_G, computed once."""
    r_g = eval_kleene_free(paper_graph, parse("b.c"))
    rtc = compute_rtc(r_g)
    r_plus = materialize(
        transitive_closure(
            r_g.selectExpr("start_v as src", "end_v as dst")
        ).selectExpr("src as start_v", "dst as end_v")
    )
    return rtc, RPlus(r_plus)


CASES = [
    # (pre, kind, post) — regex texts, None for ε
    ("d", "+", "c"),
    ("d", "+", None),
    (None, "+", "c"),
    (None, "+", None),
    ("d", "*", "c"),
    ("d", "*", None),
    (None, "*", None),
    ("e.d", "+", "c.e"),
    (None, "*", "c"),  # R* zero branch over all of V, then Post
    ("d", "*", "c.e"),  # multi-label Post on the zero branch
    ("d", "+", "zz"),  # Post label not in Σ: empty answer
]


def full_query_text(pre, kind, post):
    mid = f"(b.c){kind}"
    parts = [p for p in (pre, mid, post) if p]
    return ".".join(parts)


@pytest.mark.parametrize("pre,kind,post", CASES)
def test_rtc_vs_full_vs_pyref(paper_graph, shared, pre, kind, post):
    rtc, r_plus = shared
    pre_g = (
        None if pre is None else eval_kleene_free(paper_graph, parse(pre))
    )
    post_ast = EPSILON if post is None else parse(post)
    got_rtc = rows(
        eval_batch_unit_rtc(paper_graph, pre_g, rtc, kind, post_ast)
    )
    got_full = rows(
        eval_batch_unit_full(paper_graph, pre_g, r_plus, kind, post_ast)
    )
    want = eval_rpq_python(
        PAPER_EDGES, parse(full_query_text(pre, kind, post))
    )
    assert got_rtc == want, "RTC pipeline diverges from reference"
    assert got_full == want, "Full pipeline diverges from reference"


@pytest.mark.parametrize(
    "pre,kind,post",
    [("d", "+", "c"), (None, "+", None), ("d", "*", "c")],
)
def test_vs_duckdb_oracle(paper_graph, shared, pre, kind, post):
    rtc, _ = shared
    pre_g = (
        None if pre is None else eval_kleene_free(paper_graph, parse(pre))
    )
    post_ast = EPSILON if post is None else parse(post)
    got = eval_batch_unit_rtc(paper_graph, pre_g, rtc, kind, post_ast)
    sql = batch_unit_sql(
        [pre] if pre else [],
        ["b", "c"],
        kind,
        [post] if post else [],
    )
    assert_equivalent(
        got.select("start_v", "end_v").distinct(),
        sql,
        edges=edges_pdf(PAPER_EDGES),
    )


def test_timings_populated(paper_graph):
    """Both methods time the whole batch unit, Post join included, as
    Pre⋈R+; on a cache hit no shared data is built."""
    for cls in (RTCSharingEvaluator, FullSharingEvaluator):
        ev = cls(paper_graph)
        ev.evaluate("d.(b.c)+.c")
        t = PhaseTimings()
        ev.evaluate("e.d.(b.c)+.c", timings=t)
        assert t.pre_join > 0, cls.__name__
        assert t.shared_data == 0, cls.__name__


@pytest.fixture
def materialized(monkeypatch):
    """Every frame the evaluators' modules materialize, in order."""
    frames = []
    for mod in (base_module, batch_unit_module, edge_reduction_module, rtc_module):
        real = mod.materialize
        monkeypatch.setattr(
            mod, "materialize", lambda df, real=real: frames.append(df) or real(df)
        )
    return frames


@pytest.mark.parametrize("unit", ["rtc", "full"])
@pytest.mark.parametrize(
    "kind,post", [("+", "c"), ("*", "c.e"), ("+", None)]
)
def test_batch_unit_materializes_once(
    paper_graph, materialized, unit, kind, post
):
    """Deterministic counter: an RPQ — Pre_G, the batch unit and its Post
    — is one lazy plan with a single materialization once the shared
    structure of R is cached; the first RPQ over R adds R_G's."""
    cls = RTCSharingEvaluator if unit == "rtc" else FullSharingEvaluator
    ev = cls(paper_graph)
    query = full_query_text("d", kind, post)
    want = eval_rpq_python(PAPER_EDGES, parse(query))
    assert rows(ev.evaluate(query)) == want
    assert len(materialized) == 2
    materialized.clear()
    assert rows(ev.evaluate(query)) == want
    assert len(materialized) == 1


def test_reuse_rpq_plan_shape_and_jobs(spark, paper_graph, materialized):
    """Deterministic counters of the reuse RPQ d.(b.c)+.e once the RTC of
    b.c is cached (8 shuffle partitions): its one Spark action runs 7
    jobs over 4 hash exchanges, and Pre_G arrives partitioned by
    start_v, so the distincts of eqs (7) and (8) need no exchange. Eq
    (7) and the tail read the SCC relation in one layout, so it is
    broadcast once. The edges are checkpointed, as the benchmark's are,
    so that their deduplication is not part of the plan."""
    graph = LabeledGraph(materialize(paper_graph.edges))
    ev = RTCSharingEvaluator(graph)
    ev.evaluate("d.(b.c)+.c")
    sc = spark.sparkContext
    group = "test-reuse-rpq-jobs"
    sc.setJobGroup(group, "reuse RPQ on the paper graph")
    try:
        got = ev.evaluate("d.(b.c)+.e")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    n_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    assert rows(got) == eval_rpq_python(PAPER_EDGES, parse("d.(b.c)+.e"))
    # The answer's plan. Adaptive execution prints the final plan
    # before the initial one.
    plan = materialized[-1]._jdf.queryExecution().executedPlan().toString()
    final = plan.split("== Initial Plan ==")[0].splitlines()
    # Both aggregates of eq (7) and both of eq (8) group by (start_v, s).
    eq78 = [
        i
        for i, line in enumerate(final)
        if re.search(r"HashAggregate\(keys=\[start_v#\d+L, s#\d+L\]", line)
    ]
    assert len(eq78) == 4
    assert not any("Exchange" in line for line in final[eq78[0] : eq78[-1]])
    assert sum("Exchange hashpartitioning" in line for line in final) == 4
    assert n_jobs == 7


@pytest.mark.parametrize(
    "cls,built", [(RTCSharingEvaluator, 32), (FullSharingEvaluator, 22)]
)
def test_reuse_rpq_dataframes_built(paper_graph, cls, built):
    """Deterministic counter of plan building: the DataFrames constructed
    for the reuse RPQ d.(b.c)+.e once the shared structure of b.c is
    cached. The per-label frames of d, the join-ready SCC/RTC or R+_G
    and the tails of earlier Posts are prepared already; only the joins
    that read Pre_G, and the frames of the new Post label e, are
    built."""
    ev = cls(LabeledGraph(materialize(paper_graph.edges)))
    ev.evaluate("d.(b.c)+.c")
    query = parse("d.(b.c)+.e")
    assert dataframes_built(lambda: ev._plan(query, PhaseTimings())) == built


@pytest.mark.parametrize("query", ["(l0)+", "l1.(l0)+.l2"])
def test_singleton_sccs_cost_what_full_costs(spark, make_graph, query):
    """Deterministic counters on a DAG, where every SCC of G_R is a
    singleton: RTC runs as many Spark jobs as Full for the first RPQ
    over R (R_G, the shared build and the answer) and for a reuse RPQ,
    and builds as many DataFrames for the reuse RPQ's plan."""
    edges = make_graph(forward_dag_edges(spark)).edges
    costs = {}
    for cls in (RTCSharingEvaluator, FullSharingEvaluator):
        ev = cls(LabeledGraph(materialize(edges)))
        first = spark_jobs(spark, lambda: ev.evaluate(query))
        reuse = spark_jobs(spark, lambda: ev.evaluate(query))
        built = dataframes_built(lambda: ev._plan(parse(query), PhaseTimings()))
        costs[cls.name] = (first, reuse, built)
    assert costs["RTC"] == costs["Full"]


def test_result_distinct(paper_graph, shared):
    rtc, _ = shared
    pre_g = eval_kleene_free(paper_graph, parse("d"))
    out = eval_batch_unit_rtc(paper_graph, pre_g, rtc, "+", parse("c"))
    assert out.count() == out.distinct().count()


def test_res_eq9_has_no_duplicates_by_construction(paper_graph, shared):
    """useless-2 elimination is sound: the (9) join output is duplicate-
    free without a distinct, because SCC vertex sets are disjoint."""
    rtc, _ = shared
    pre_g = eval_kleene_free(paper_graph, parse("d"))
    e7 = (
        pre_g.join(rtc.scc.withColumnRenamed("v", "end_v"), "end_v")
        .select("start_v", "s")
        .distinct()
    )
    e8 = (
        e7.join(rtc.rtc.withColumnRenamed("start_s", "s"), "s")
        .select("start_v", F.col("end_s").alias("s"))
        .distinct()
    )
    e9 = e8.join(
        rtc.scc.select("s", F.col("v").alias("end_v")), "s"
    ).select("start_v", "end_v")
    assert e9.count() == e9.distinct().count()
