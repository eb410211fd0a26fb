"""Tests for edge-level reduction / RPQ evaluators (repro.core.edge_reduction)."""
import pandas as pd
import pytest

from tests.helpers import (
    PAPER_EDGES,
    batch_unit_sql,
    edges_pdf,
    random_labeled_edges,
)
from repro.core.edge_reduction import (
    eval_kleene_free,
    eval_rpq_automaton,
    extend_pairs,
)
from repro.graph.model import identity_pairs
from repro.oracle import assert_equivalent
from repro.pyref import eval_rpq_python
from repro.rpq.parser import parse


def rows(df):
    return {(r.start_v, r.end_v) for r in df.collect()}


class TestKleeneFree:
    def test_paper_example3(self, paper_graph):
        """G_{b.c} edge set: the five pairs of Fig. 5."""
        got = rows(eval_kleene_free(paper_graph, parse("b.c")))
        assert got == {(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)}

    @pytest.mark.parametrize("text", ["b", "c", "b.c", "d.b", "b.c|d", "e"])
    def test_vs_pyref(self, paper_graph, text):
        got = rows(eval_kleene_free(paper_graph, parse(text)))
        assert got == eval_rpq_python(PAPER_EDGES, parse(text))

    def test_vs_duckdb_oracle(self, paper_graph):
        got = eval_kleene_free(paper_graph, parse("b.c"))
        assert_equivalent(
            got,
            batch_unit_sql([], ["b", "c"], None, []),
            edges=edges_pdf(PAPER_EDGES),
        )

    def test_epsilon_is_identity(self, paper_graph):
        got = rows(eval_kleene_free(paper_graph, parse("eps")))
        verts = {r.v for r in paper_graph.vertices.collect()}
        assert got == {(v, v) for v in verts}

    def test_missing_label_empty(self, paper_graph):
        assert rows(eval_kleene_free(paper_graph, parse("zzz"))) == set()

    def test_seeded_restriction(self, spark, paper_graph):
        seeds = spark.createDataFrame(pd.DataFrame({"v": [2]}), "v long")
        got = rows(
            extend_pairs(paper_graph, identity_pairs(seeds), parse("b.c"))
        )
        assert got == {(2, 4), (2, 6)}

    def test_seeded_epsilon(self, spark, paper_graph):
        seeds = spark.createDataFrame(pd.DataFrame({"v": [3, 7]}), "v long")
        got = rows(
            extend_pairs(paper_graph, identity_pairs(seeds), parse("eps"))
        )
        assert got == {(3, 3), (7, 7)}

    def test_extend_pairs_union_vs_pyref(self, paper_graph):
        """Each label sequence of ``d|e`` extends every pair (both
        branches are non-empty here); the union is ``((c|e).(d|e))_G``."""
        pairs = eval_kleene_free(paper_graph, parse("c|e"))
        got = rows(extend_pairs(paper_graph, pairs, parse("d|e")))
        assert got == eval_rpq_python(PAPER_EDGES, parse("(c|e).(d|e)"))

    def test_union_of_sequences(self, paper_graph):
        got = rows(eval_kleene_free(paper_graph, parse("d|e")))
        want = eval_rpq_python(PAPER_EDGES, parse("d|e"))
        assert got == want

    def test_rejects_closure(self, paper_graph):
        with pytest.raises(ValueError):
            eval_kleene_free(paper_graph, parse("a+"))


AUTOMATON_QUERIES = [
    "b.c",
    "(b.c)+",
    "(b.c)*",
    "d.(b.c)+.c",
    "d.(b.c)*.c",
    "b+",
    "(b|c)+",
    "d.(b.c)+ | e",
    "e.d",
]


class TestAutomaton:
    @pytest.mark.parametrize("text", AUTOMATON_QUERIES)
    def test_vs_pyref_paper_graph(self, paper_graph, text):
        got = rows(eval_rpq_automaton(paper_graph, parse(text)))
        assert got == eval_rpq_python(PAPER_EDGES, parse(text))

    @pytest.mark.parametrize("seed", range(4))
    def test_vs_pyref_random(self, make_graph, seed):
        edges = random_labeled_edges(
            n_vertices=8, n_edges=18, labels="ab", seed=seed
        )
        g = make_graph(edges)
        for text in ["(a.b)+", "a.(b.a)*", "(a|b)+.a"]:
            got = rows(eval_rpq_automaton(g, parse(text)))
            assert got == eval_rpq_python(edges, parse(text)), text

    def test_star_includes_identity(self, paper_graph):
        got = rows(eval_rpq_automaton(paper_graph, parse("(b.c)*")))
        verts = {r.v for r in paper_graph.vertices.collect()}
        assert {(v, v) for v in verts} <= got

    def test_seeded(self, spark, paper_graph):
        seeds = spark.createDataFrame(pd.DataFrame({"v": [7]}), "v long")
        got = rows(
            eval_rpq_automaton(paper_graph, parse("d.(b.c)+.c"), seeds=seeds)
        )
        assert got == {
            p
            for p in eval_rpq_python(PAPER_EDGES, parse("d.(b.c)+.c"))
            if p[0] == 7
        }

    def test_no_transitions_epsilon_only(self, paper_graph):
        got = rows(eval_rpq_automaton(paper_graph, parse("eps")))
        verts = {r.v for r in paper_graph.vertices.collect()}
        assert got == {(v, v) for v in verts}
