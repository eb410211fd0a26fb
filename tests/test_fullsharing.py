"""Tests for FullSharing's shared structure ``R+_G = TC(G_R)``
(repro.core.fullsharing): the driver BFS against the distributed
fallback, its job count, and the reuse plan each path gives."""
import pytest

import repro.core.fullsharing as fullsharing_module
import repro.graph.closure as closure_module
from repro.core import FullSharingEvaluator, PhaseTimings
from repro.core.edge_reduction import eval_kleene_free
from repro.graph.iterate import materialize
from repro.graph.model import LabeledGraph
from repro.pyref import eval_rpq_python, transitive_closure_python
from repro.rpq.parser import parse
from tests.helpers import PAPER_EDGES, R_G_GRAPHS, r_g_frame, spark_jobs


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the runs of the Spark semi-naive fallback inside Full's
    ``_build_shared``."""
    calls = []
    spark_tc = fullsharing_module.transitive_closure
    monkeypatch.setattr(
        fullsharing_module,
        "transitive_closure",
        lambda e: calls.append(1) or spark_tc(e),
    )
    return calls


def pairs(r_plus):
    rows = [tuple(r) for r in r_plus.collect()]
    assert len(rows) == len(set(rows))
    return set(rows)


@pytest.mark.parametrize("name", list(R_G_GRAPHS))
def test_driver_closure_matches_fallback(
    spark, paper_graph, monkeypatch, fallback_calls, name
):
    """Both branches of Full's _build_shared give TC(G_R), distinct, with
    one schema."""
    edges = sorted(set(R_G_GRAPHS[name]))
    r_g = r_g_frame(spark, edges)
    ev = FullSharingEvaluator(paper_graph)
    driver = ev._build_shared(r_g).pairs
    assert fallback_calls == []
    # A bound of -1 is exceeded even by an empty R_G.
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: -1)
    fallback = ev._build_shared(r_g).pairs
    assert fallback_calls == [1]

    want = transitive_closure_python(edges)
    for r_plus in (driver, fallback):
        assert (
            r_plus.schema.simpleString()
            == "struct<start_v:bigint,end_v:bigint>"
        )
        assert pairs(r_plus) == want


def test_driver_closure_stops_when_r_plus_passes_bound(
    spark, paper_graph, monkeypatch, fallback_calls
):
    """|R_G| fits the bound but |R+_G| passes it mid-BFS: the fallback
    runs."""
    edges = [(i, i + 1) for i in range(6)]  # 6 edges, 21 R+_G pairs
    assert closure_module.bfs_closure(edges, 10) is None
    assert len(closure_module.bfs_closure(edges, 21)[1]) == 21
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: 10)
    r_plus = FullSharingEvaluator(paper_graph)._build_shared(
        r_g_frame(spark, edges)
    ).pairs
    assert fallback_calls == [1]
    assert pairs(r_plus) == transitive_closure_python(edges)


def test_example5_full_build_runs_one_job(spark, paper_graph):
    """Deterministic counter: reading R_G is the only job; R+_G stays in
    the driver-built plan."""
    r_g = materialize(eval_kleene_free(paper_graph, parse("b.c")))
    ev = FullSharingEvaluator(paper_graph)
    assert spark_jobs(spark, lambda: ev._build_shared(r_g)) == 1


def _reuse_plan(paper_graph):
    """Answer and final executed plan of the reuse RPQ d.(b.c)+.e once
    Full's R+_G of b.c is cached, on the checkpointed paper graph (8
    shuffle partitions)."""
    graph = LabeledGraph(materialize(paper_graph.edges))
    ev = FullSharingEvaluator(graph)
    ev.evaluate("d.(b.c)+.c")
    plan = ev._plan(parse("d.(b.c)+.e"), PhaseTimings())
    answer = {(r.start_v, r.end_v) for r in plan.collect()}
    assert answer == eval_rpq_python(PAPER_EDGES, parse("d.(b.c)+.e"))
    # Adaptive execution prints the final plan before the initial one.
    executed = plan._jdf.queryExecution().executedPlan().toString()
    return executed.split("== Initial Plan ==")[0]


def test_reuse_plan_on_driver_path(paper_graph, fallback_calls):
    """The driver-built R+_G is broadcast into Pre_G ⋈ R+_G, so the join
    needs no runtime bloom filter and no exchange of R+_G."""
    final = _reuse_plan(paper_graph)
    assert fallback_calls == []
    assert "BroadcastHashJoin" in final
    assert "might_contain" not in final and "BloomFilter" not in final
    assert final.count("Exchange hashpartitioning") == 4


def test_reuse_plan_on_fallback_path(paper_graph, monkeypatch, fallback_calls):
    """The fallback's checkpointed R+_G carries no broadcast hint."""
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: -1)
    final = _reuse_plan(paper_graph)
    assert fallback_calls == [1]
    assert "BroadcastHashJoin" not in final
