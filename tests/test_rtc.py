"""Tests for Compute_RTC (repro.core.rtc) — paper Examples 4–6, Theorem 1,
and the driver path against the distributed fallback."""
import pytest

import repro.core.rtc as rtc_module
import repro.graph.closure as closure_module
from repro.core.batch_unit import eval_batch_unit_rtc
from repro.core.edge_reduction import eval_kleene_free
from repro.core.rtc import RTC, RPlus, compute_rtc
from repro.graph.iterate import materialize
from repro.pyref import eval_rpq_python, transitive_closure_python
from repro.rpq.ast import EPSILON
from repro.rpq.parser import parse
from tests.helpers import PAPER_EDGES, R_G_GRAPHS, r_g_frame, spark_jobs


@pytest.fixture(scope="module")
def paper_rtc(paper_graph):
    r_g = eval_kleene_free(paper_graph, parse("b.c"))
    return compute_rtc(r_g)


class TestPaperExamples:
    def test_example5_scc_relation(self, paper_rtc):
        scc = {(r.v, r.s) for r in paper_rtc.scc.collect()}
        assert scc == {(2, 2), (4, 2), (3, 3), (5, 3), (6, 6)}

    def test_example6_rtc(self, paper_rtc):
        """TC(Ḡ_{b.c}) = {(s0,s0),(s0,s1),(s2,s2)} — 3 pairs, with
        min-vertex ids {(2,2),(2,6),(3,3)}."""
        rtc = {(r.start_s, r.end_s) for r in paper_rtc.rtc.collect()}
        assert rtc == {(2, 2), (2, 6), (3, 3)}

    def test_n_pairs(self, paper_rtc):
        assert paper_rtc.n_pairs() == 3

    def test_theorem1_reconstruction(self, paper_rtc):
        """SCC ⋈ RTC ⋈ SCC reproduces (b.c)+_G of Example 4."""
        scc = {r.v: r.s for r in paper_rtc.scc.collect()}
        rtc = {(r.start_s, r.end_s) for r in paper_rtc.rtc.collect()}
        got = {
            (vi, vj)
            for (sk, sl) in rtc
            for vi in scc
            if scc[vi] == sk
            for vj in scc
            if scc[vj] == sl
        }
        assert got == eval_rpq_python(PAPER_EDGES, parse("(b.c)+"))

    def test_rtc_much_smaller_than_r_plus(self, paper_rtc):
        r_plus = eval_rpq_python(PAPER_EDGES, parse("(b.c)+"))
        assert paper_rtc.n_pairs() < len(r_plus)


@pytest.mark.parametrize("seed", range(4))
def test_theorem1_random_graphs(spark, make_graph, seed):
    """Theorem 1 on random graphs: reconstruct R+_G from the RTC."""
    from tests.helpers import random_labeled_edges

    edges = random_labeled_edges(
        n_vertices=10, n_edges=24, labels="ab", seed=seed
    )
    g = make_graph(edges)
    r_g = eval_kleene_free(g, parse("a.b"))
    want = transitive_closure_python(
        sorted({(r.start_v, r.end_v) for r in r_g.collect()})
    )
    assert reconstruct(compute_rtc(r_g)) == want


def test_lemma1_r_plus_equals_tc_of_gr(spark, paper_graph):
    """Lemma 1: (b.c)+_G == TC(G_{b.c})."""
    from repro.graph.closure import transitive_closure

    r_g = eval_kleene_free(paper_graph, parse("b.c"))
    tc = transitive_closure(
        r_g.selectExpr("start_v as src", "end_v as dst")
    )
    got = {(r.src, r.dst) for r in tc.collect()}
    assert got == eval_rpq_python(PAPER_EDGES, parse("(b.c)+"))


def reconstruct(rtc):
    """SCC ⋈ RTC ⋈ SCC as a vertex pair set (Theorem 1); an ``RPlus``
    entry, built where every SCC is a singleton, holds that set."""
    if isinstance(rtc, RPlus):
        return {tuple(r) for r in rtc.pairs.collect()}
    members: dict[int, list[int]] = {}
    for r in rtc.scc.collect():
        members.setdefault(r.s, []).append(r.v)
    return {
        (vi, vj)
        for r in rtc.rtc.collect()
        for vi in members[r.start_s]
        for vj in members[r.end_s]
    }


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the runs of the distributed fallback inside compute_rtc."""
    calls = []
    distributed_scc = rtc_module.strongly_connected_components
    monkeypatch.setattr(
        rtc_module,
        "strongly_connected_components",
        lambda e: calls.append(1) or distributed_scc(e),
    )
    return calls


@pytest.mark.parametrize("name", list(R_G_GRAPHS))
def test_driver_path_matches_distributed_fallback(
    spark, monkeypatch, fallback_calls, name
):
    """Both branches of compute_rtc reconstruct TC(G_R) (Theorem 1),
    and give the same SCC and RTC pair sets; where the driver returns
    R+_G (singleton SCCs), the fallback's RTC is that set."""
    edges = sorted(set(R_G_GRAPHS[name]))
    r_g = r_g_frame(spark, edges)
    driver = compute_rtc(r_g)
    assert fallback_calls == []
    # A bound of -1 is exceeded even by an empty R_G.
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: -1)
    fallback = compute_rtc(r_g)
    assert fallback_calls == [1]

    want = transitive_closure_python(edges)
    assert fallback.scc.schema.simpleString() == "struct<v:bigint,s:bigint>"
    assert (
        fallback.rtc.schema.simpleString()
        == "struct<start_s:bigint,end_s:bigint>"
    )
    assert reconstruct(driver) == reconstruct(fallback) == want
    fallback_rtc = {tuple(r) for r in fallback.rtc.collect()}
    if isinstance(driver, RPlus):
        assert fallback_rtc == want
        return
    assert driver.scc.schema == fallback.scc.schema
    assert driver.rtc.schema == fallback.rtc.schema
    assert {tuple(r) for r in driver.scc.collect()} == {
        tuple(r) for r in fallback.scc.collect()
    }
    assert {tuple(r) for r in driver.rtc.collect()} == fallback_rtc


# The graphs of R_G_GRAPHS whose SCCs are all singletons.
SINGLETON_SCCS = {"dag_chain", "self_loops_only", "empty"}


@pytest.mark.parametrize("name", list(R_G_GRAPHS))
def test_singleton_sccs_make_the_rtc_r_plus(spark, name):
    """On the driver path, where every SCC is a singleton, compute_rtc
    returns its RTC as R+_G, which it then equals pair for pair — a
    self-loop included — with no SCC relation; anywhere else it returns
    the SCC pipeline's entry."""
    edges = sorted(set(R_G_GRAPHS[name]))
    rtc = compute_rtc(r_g_frame(spark, edges))
    if name not in SINGLETON_SCCS:
        assert isinstance(rtc, RTC)
        return
    assert isinstance(rtc, RPlus)
    assert {tuple(r) for r in rtc.pairs.collect()} == (
        transitive_closure_python(edges)
    )
    assert rtc.pairs.schema.simpleString() == (
        "struct<start_v:bigint,end_v:bigint>"
    )


def test_driver_path_stops_when_rtc_passes_bound(
    spark, monkeypatch, fallback_calls
):
    """|R_G| fits the bound but |RTC| does not: the fallback runs."""
    edges = [(i, i + 1) for i in range(6)]  # 6 edges, 21 RTC pairs
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: 10)
    rtc = compute_rtc(r_g_frame(spark, edges))
    assert fallback_calls == [1]
    assert reconstruct(rtc) == transitive_closure_python(edges)


def test_example5_compute_rtc_runs_one_job(spark, paper_graph):
    """Deterministic counter: reading R_G is the only job; the SCC and
    RTC frames stay in the driver-built plan."""
    r_g = materialize(eval_kleene_free(paper_graph, parse("b.c")))
    assert spark_jobs(spark, lambda: compute_rtc(r_g)) == 1


def _batch_units(graph, rtc):
    """Answers and final executed plans of a few RTC batch units over
    R = b.c, one per (Pre, kind, Post) shape, each non-empty (an empty
    one may execute as an empty relation, with no join left in its
    plan)."""
    answers, plans = [], []
    for pre, kind, post in [
        ("d", "+", "e"),
        (None, "+", None),
        ("d", "*", "b.c"),
        (None, "*", "e"),
    ]:
        pre_g = None if pre is None else eval_kleene_free(graph, parse(pre))
        post_ast = EPSILON if post is None else parse(post)
        out = eval_batch_unit_rtc(graph, pre_g, rtc, kind, post_ast)
        answers.append({(r.start_v, r.end_v) for r in out.collect()})
        plan = out._jdf.queryExecution().executedPlan().toString()
        # Adaptive execution prints the final plan before the initial one.
        plans.append(plan.split("== Initial Plan ==")[0])
    return answers, plans


def test_fallback_rtc_batch_units_match_and_are_not_broadcast(
    spark, paper_graph, monkeypatch, fallback_calls
):
    """The driver-built RTC is broadcast into the batch-unit joins; the
    distributed fallback's is not, and both give the same answers."""
    r_g = eval_kleene_free(paper_graph, parse("b.c"))
    driver = compute_rtc(r_g)
    monkeypatch.setattr(closure_module, "driver_row_bound", lambda sc: -1)
    fallback = compute_rtc(r_g)
    assert fallback_calls == [1]

    driver_answers, driver_plans = _batch_units(paper_graph, driver)
    fallback_answers, fallback_plans = _batch_units(paper_graph, fallback)
    plans = driver_plans + fallback_plans
    assert all(driver_answers)
    assert fallback_answers == driver_answers
    assert len(plans) == 8
    assert all("BroadcastHashJoin" in p for p in plans[:4])
    assert not any("BroadcastHashJoin" in p for p in plans[4:])
