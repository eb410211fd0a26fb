"""Unit tests for the graph model (repro.graph.model)."""
import pandas as pd
import pytest

from repro.core import RTCSharingEvaluator
from repro.graph.model import (
    LabeledGraph,
    empty_pairs,
    identity_pairs,
)
from repro.pyref import eval_rpq_python
from repro.rpq.parser import parse


@pytest.fixture(scope="module")
def tiny(spark):
    return LabeledGraph.from_triples(
        spark, [(1, "a", 2), (2, "b", 3), (1, "a", 2), (3, "a", 1)]
    )


class TestConstruction:
    def test_dedupes_parallel_same_label(self, tiny):
        assert tiny.edges.count() == 3

    def test_missing_columns_raises(self, spark):
        bad = spark.createDataFrame(pd.DataFrame({"src": [1], "dst": [2]}))
        with pytest.raises(ValueError, match="label"):
            LabeledGraph.from_edges(bad)

    def test_from_pandas(self, spark):
        g = LabeledGraph.from_pandas(
            spark, pd.DataFrame({"src": [1], "label": ["x"], "dst": [2]})
        )
        assert g.triples() == [(1, "x", 2)]

    def test_types_cast(self, tiny):
        schema = dict(tiny.edges.dtypes)
        assert schema == {"src": "bigint", "label": "string", "dst": "bigint"}


class TestAccessors:
    def test_vertices(self, tiny):
        assert sorted(r.v for r in tiny.vertices.collect()) == [1, 2, 3]

    def test_labels(self, tiny):
        assert sorted(tiny.labels) == ["a", "b"]

    def test_edges_for_label(self, tiny):
        rows = {(r.src, r.dst) for r in tiny.edges_for_label("a").collect()}
        assert rows == {(1, 2), (3, 1)}

    def test_edges_for_missing_label_empty(self, tiny):
        assert tiny.edges_for_label("zzz").count() == 0

    def test_stats(self, tiny):
        st = tiny.stats()
        assert st["n_vertices"] == 3
        assert st["n_edges"] == 3
        assert st["n_labels"] == 2
        assert st["degree_per_label"] == pytest.approx(3 / 6)

    def test_triples_roundtrip(self, spark):
        triples = [(1, "a", 2), (2, "b", 1)]
        g = LabeledGraph.from_triples(spark, triples)
        assert sorted(g.triples()) == sorted(triples)

    def test_label_frames(self, tiny):
        pairs = {(r.start_v, r.end_v) for r in tiny.label_pairs("a").collect()}
        steps = {(r.end_v, r.next_v) for r in tiny.label_steps("a").collect()}
        assert pairs == steps == {(1, 2), (3, 1)}
        assert tiny.label_pairs("a") is tiny.label_pairs("a")
        assert tiny.label_steps("a") is tiny.label_steps("a")
        assert tiny.label_pairs("zzz").count() == 0


def test_derived_relations_follow_reassigned_edges(spark):
    """Assigning ``edges`` drops every relation derived from the old
    edge set: vertices, labels, per-label frames and the answers built
    from them follow the new edges."""
    old = [(1, "a", 2), (2, "a", 3)]
    new = [(5, "b", 6), (6, "a", 5), (6, "a", 7)]
    g = LabeledGraph.from_triples(spark, old)
    queries = ["a.a", "(a)*", "b.(a)+"]
    for q in queries:
        RTCSharingEvaluator(g).evaluate(q).collect()
    assert sorted(r.v for r in g.vertices.collect()) == [1, 2, 3]
    assert g.labels == ["a"]
    g.edges = LabeledGraph.from_triples(spark, new).edges
    assert sorted(r.v for r in g.vertices.collect()) == [5, 6, 7]
    assert sorted(g.labels) == ["a", "b"]
    for q in queries:
        got = {
            (r.start_v, r.end_v)
            for r in RTCSharingEvaluator(g).evaluate(q).collect()
        }
        assert got == eval_rpq_python(new, parse(q)), q


class TestPairHelpers:
    def test_identity_pairs(self, tiny):
        rows = {
            (r.start_v, r.end_v)
            for r in identity_pairs(tiny.vertices).collect()
        }
        assert rows == {(1, 1), (2, 2), (3, 3)}

    def test_empty_pairs(self, spark):
        df = empty_pairs(spark)
        assert df.columns == ["start_v", "end_v"]
        assert df.count() == 0
