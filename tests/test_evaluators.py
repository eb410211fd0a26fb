"""End-to-end differential tests for the three multi-RPQ evaluators.

RTCSharing, FullSharing, and NoSharing must return identical results —
equal to the pure-Python reference and to the independent automaton
evaluator — on the paper graph and random graphs, across closure-free,
single-closure, star, union, and nested-closure queries (Example 7).
"""
import pytest

from repro.core import (
    FullSharingEvaluator,
    NoSharingEvaluator,
    PhaseTimings,
    RTCSharingEvaluator,
)
from repro.core.edge_reduction import eval_rpq_automaton
from repro.core.rtc import RPlus
from repro.oracle import assert_equivalent
from repro.pyref import eval_rpq_python
from repro.rpq.parser import parse
from tests.helpers import (
    PAPER_EDGES,
    SELF_LOOP_EDGES,
    TWO_CYCLE_EDGES,
    batch_unit_sql,
    edges_pdf,
    forward_dag_edges,
    random_labeled_edges,
)

ALL_EVALUATORS = [RTCSharingEvaluator, FullSharingEvaluator, NoSharingEvaluator]


def rows(df):
    return {(r.start_v, r.end_v) for r in df.collect()}


PAPER_QUERIES = [
    "b",
    "b.c",
    "(b.c)+",
    "(b.c)*",
    "d.(b.c)+.c",
    "d.(b.c)*.c",
    "d.(b.c)+",
    "(b.c)+.c",
    "b.c|d",
    "d.(b.c)+.c | e.d",
    "(b|c)+",
    "d.b+.c",
]


@pytest.mark.parametrize("text", PAPER_QUERIES)
def test_three_methods_agree_with_reference(paper_graph, text):
    want = eval_rpq_python(PAPER_EDGES, parse(text))
    for cls in ALL_EVALUATORS:
        got = rows(cls(paper_graph).evaluate(text))
        assert got == want, (cls.__name__, text)


@pytest.mark.parametrize("text", ["d.(b.c)+.c", "(b.c)+", "(b|c)+"])
def test_methods_agree_with_automaton(paper_graph, text):
    auto = rows(eval_rpq_automaton(paper_graph, parse(text)))
    rtc = rows(RTCSharingEvaluator(paper_graph).evaluate(text))
    assert rtc == auto


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text", ["a.(a.b)+.b", "(a.b)*.a", "b.(a|b)+.a"])
def test_random_graphs(make_graph, seed, text):
    edges = random_labeled_edges(
        n_vertices=9, n_edges=20, labels="ab", seed=100 + seed
    )
    g = make_graph(edges)
    want = eval_rpq_python(edges, parse(text))
    for cls in ALL_EVALUATORS:
        assert rows(cls(g).evaluate(text)) == want, (cls.__name__, text)


# One sequence that hits every memo of the prepared relations and every
# batch-unit shape: one R with two Posts, then a repeated Post (the RTC's
# SCC-keyed tails); Pre = Post = ε; Pre = ε with R* (the zero branch is
# Post_G itself); a union Pre; a nested closure. ``{r}`` is the shared
# body, ``{x}``, ``{y}``, ``{z}`` labels.
MEMO_SEQUENCE = [
    "{x}.({r})+.{y}",
    "{x}.({r})+.{z}",
    "{z}.({r})+.{y}",
    "({r})+",
    "({r})*.{y}",
    "({r})*",
    "({x}|{z}).({r})+.{y}",
    "{x}.({r})+.({r})*",
]

# Per graph of the sequence: whether every SCC of its G_R is a
# singleton, so that the RTC entry is R+_G and builds no tails.
# Random seed 107's G_{a.b} is all singletons; seed 101's has the SCC
# {4, 5, 8}.
MEMO_SINGLETONS = {
    "paper": False,
    "random": True,
    "random_scc": False,
    "dag": True,
    "self_loops": True,
    "two_cycle": False,
}


def memo_edges(spark, graph):
    if graph == "paper":
        return PAPER_EDGES
    if graph == "dag":
        return forward_dag_edges(spark)
    if graph == "self_loops":
        return SELF_LOOP_EDGES
    if graph == "two_cycle":
        return TWO_CYCLE_EDGES
    seed = 107 if graph == "random" else 101
    return random_labeled_edges(
        n_vertices=9, n_edges=24, labels="abc", seed=seed
    )


MEMO_GRAPHS = [
    ("paper", dict(r="b.c", x="d", y="e", z="c")),
    ("random", dict(r="a.b", x="c", y="a", z="b")),
    ("random_scc", dict(r="a.b", x="c", y="a", z="b")),
    ("dag", dict(r="l0", x="l1", y="l2", z="l3")),
    ("self_loops", dict(r="a", x="b", y="c", z="a")),
    ("two_cycle", dict(r="a", x="b", y="c", z="a")),
]


@pytest.mark.parametrize("graph,names", MEMO_GRAPHS)
def test_memo_hits_agree_with_reference(spark, make_graph, graph, names):
    """RTC ≡ Full ≡ No ≡ pyref on one evaluator per method, run through
    a sequence whose later queries reuse prepared relations. An RTC
    entry over a G_R with a multi-vertex SCC memoizes one tail per
    Post; where its SCCs are all singletons, the entry is R+_G."""
    edges = memo_edges(spark, graph)
    check_memo_sequence(make_graph(edges), edges, graph, names)


@pytest.mark.parametrize("graph,names", MEMO_GRAPHS)
def test_memo_hits_agree_at_one_partition(
    spark, make_graph, one_shuffle_partition, graph, names
):
    """The same sequence at 1 shuffle partition, the benchmark's setting:
    there a repartition plans as a single partition, which every later
    operator accepts, while the label joins still shuffle."""
    edges = memo_edges(spark, graph)
    check_memo_sequence(make_graph(edges), edges, graph, names)


def check_memo_sequence(g, edges, graph, names):
    evaluators = [cls(g) for cls in ALL_EVALUATORS]
    for template in MEMO_SEQUENCE:
        text = template.format(**names)
        want = eval_rpq_python(edges, parse(text))
        for ev in evaluators:
            assert rows(ev.evaluate(text)) == want, (ev.name, text)
    rtc = evaluators[0]._shared[parse(names["r"]).canon()]
    assert isinstance(rtc, RPlus) == MEMO_SINGLETONS[graph]
    if not MEMO_SINGLETONS[graph]:
        assert {names["y"], names["z"], "eps"} <= set(rtc._tails)


@pytest.mark.parametrize("text", ["(zz)+", "a.(zz)*.b", "(zz)*.a"])
def test_closure_body_with_no_edges(make_graph, text):
    """``zz`` is not in Σ: R_G is empty, so every SCC (there are none)
    is a singleton and the RTC entry is an empty R+_G, with its exact
    schema; the answers still agree."""
    edges = random_labeled_edges(
        n_vertices=9, n_edges=20, labels="ab", seed=100
    )
    g = make_graph(edges)
    want = eval_rpq_python(edges, parse(text))
    ev = RTCSharingEvaluator(g)
    assert rows(ev.evaluate(text)) == want
    assert rows(FullSharingEvaluator(g).evaluate(text)) == want
    (rtc,) = ev._shared.values()
    assert isinstance(rtc, RPlus)
    assert (
        rtc.pairs.schema.simpleString() == "struct<start_v:bigint,end_v:bigint>"
    )
    assert rtc.pairs.isEmpty()


def test_oracle_full_batch_unit(paper_graph):
    got = RTCSharingEvaluator(paper_graph).evaluate("d.(b.c)+.c")
    assert_equivalent(
        got,
        batch_unit_sql(["d"], ["b", "c"], "+", ["c"]),
        edges=edges_pdf(PAPER_EDGES),
    )


def test_oracle_star(paper_graph):
    got = RTCSharingEvaluator(paper_graph).evaluate("d.(b.c)*.c")
    assert_equivalent(
        got,
        batch_unit_sql(["d"], ["b", "c"], "*", ["c"]),
        edges=edges_pdf(PAPER_EDGES),
    )


class TestExample7Recursion:
    """Example 7: nested closures evaluate recursively; RTCs are reused."""

    def test_nested_closures(self, make_graph):
        edges = random_labeled_edges(
            n_vertices=7, n_edges=16, labels="abc", seed=11
        )
        g = make_graph(edges)
        text = "(a.b)*.b+.(a.b+.c)+"
        want = eval_rpq_python(edges, parse(text))
        for cls in ALL_EVALUATORS:
            assert rows(cls(g).evaluate(text)) == want, cls.__name__

    def test_rtc_cache_reused_across_queries(self, paper_graph):
        ev = RTCSharingEvaluator(paper_graph)
        ev.evaluate("d.(b.c)+.c")
        assert set(ev._shared) == {"(b.c)"}
        first = ev._shared["(b.c)"]
        ev.evaluate("(b.c)+")  # same R: must reuse, not recompute
        assert ev._shared["(b.c)"] is first
        ev.evaluate("(b.c)*.c")  # star over same R reuses the + RTC too
        assert ev._shared["(b.c)"] is first
        assert len(ev._shared) == 1

    def test_nested_pre_closure_populates_cache(self, paper_graph):
        ev = RTCSharingEvaluator(paper_graph)
        ev.evaluate("(b.c)*.d+.c")  # Pre=(b.c)*, R=d
        assert set(ev._shared) == {"(b.c)", "d"}

    def test_full_sharing_caches_r_plus(self, paper_graph):
        ev = FullSharingEvaluator(paper_graph)
        ev.evaluate("d.(b.c)+.c")
        ev.evaluate("(b.c)+.c")
        assert set(ev._shared) == {"(b.c)"}

    def test_no_sharing_never_caches(self, paper_graph):
        ev = NoSharingEvaluator(paper_graph)
        t = PhaseTimings()
        ev.evaluate("d.(b.c)+.c", timings=t)
        first_shared = t.shared_data
        ev.evaluate("(b.c)+.c", timings=t)
        # Second query recomputed the closure: shared time grew.
        assert t.shared_data > first_shared
        assert ev.shared_data_size() == 0


class TestTimingAttribution:
    def test_phases_cover_work(self, paper_graph):
        t = PhaseTimings()
        RTCSharingEvaluator(paper_graph).evaluate("d.(b.c)+.c", timings=t)
        assert t.shared_data > 0
        assert t.pre_join > 0
        assert t.remainder > 0

    def test_shared_data_only_first_query(self, paper_graph):
        ev = RTCSharingEvaluator(paper_graph)
        t1 = PhaseTimings()
        ev.evaluate("d.(b.c)+.c", timings=t1)
        t2 = PhaseTimings()
        ev.evaluate("e.(b.c)+.c", timings=t2)
        assert t1.shared_data > 0
        assert t2.shared_data == 0  # cache hit: no shared-data work

    def test_no_nested_double_count(self, paper_graph):
        t = PhaseTimings()
        with t.phase("remainder"):
            with t.phase("pre_join"):
                pass
        assert t.pre_join == 0  # inner phase suppressed


def test_shared_data_size_rtc_smaller_than_full(paper_graph):
    """Fig. 11's point: |RTC| < |R+_G| whenever SCCs collapse vertices."""
    rtc_ev = RTCSharingEvaluator(paper_graph)
    full_ev = FullSharingEvaluator(paper_graph)
    rtc_ev.evaluate("d.(b.c)+.c")
    full_ev.evaluate("d.(b.c)+.c")
    assert 0 < rtc_ev.shared_data_size() < full_ev.shared_data_size()
