"""Tests for the synthetic dataset generators (repro.graph.generators)."""
import pytest
from pyspark.sql import functions as F

from repro.graph.generators import DATASETS, labeled_multigraph


@pytest.fixture(scope="module")
def small(spark):
    return labeled_multigraph(
        spark,
        n_vertices=300,
        n_labels=3,
        degree_per_label=2.0,
        reciprocity=0.3,
        seed=5,
    )


class TestLabeledMultigraph:
    def test_deterministic(self, spark, small):
        again = labeled_multigraph(
            spark,
            n_vertices=300,
            n_labels=3,
            degree_per_label=2.0,
            reciprocity=0.3,
            seed=5,
        )
        assert sorted(small.triples()) == sorted(again.triples())

    def test_seed_changes_graph(self, spark, small):
        other = labeled_multigraph(
            spark,
            n_vertices=300,
            n_labels=3,
            degree_per_label=2.0,
            reciprocity=0.3,
            seed=6,
        )
        assert sorted(small.triples()) != sorted(other.triples())

    def test_degree_hits_target(self, small):
        st = small.stats()
        assert st["degree_per_label"] == pytest.approx(2.0, rel=0.08)

    def test_no_self_loops(self, small):
        assert small.edges.filter(F.col("src") == F.col("dst")).count() == 0

    def test_labels_complete(self, small):
        assert sorted(small.labels) == ["l0", "l1", "l2"]

    def test_vertices_in_range(self, small):
        mx = small.vertices.agg(F.max("v")).collect()[0][0]
        mn = small.vertices.agg(F.min("v")).collect()[0][0]
        assert 0 <= mn and mx < 300

    def test_forward_bias_is_acyclic(self, spark):
        g = labeled_multigraph(
            spark,
            n_vertices=200,
            n_labels=2,
            degree_per_label=1.0,
            forward_bias=True,
            seed=8,
        )
        bad = g.edges.filter(F.col("src") >= F.col("dst")).count()
        assert bad == 0  # src < dst everywhere => DAG => all SCCs singleton

    def test_reciprocity_creates_mutual_edges(self, spark):
        g0 = labeled_multigraph(
            spark, n_vertices=200, n_labels=1, degree_per_label=2.0,
            reciprocity=0.0, seed=9,
        )
        g1 = labeled_multigraph(
            spark, n_vertices=200, n_labels=1, degree_per_label=2.0,
            reciprocity=0.9, seed=9,
        )

        def mutual_count(g):
            e = g.edges.select("src", "dst")
            rev = e.select(
                F.col("dst").alias("src"), F.col("src").alias("dst")
            )
            return e.join(rev, ["src", "dst"], "left_semi").count()

        assert mutual_count(g1) > mutual_count(g0) * 2

    def test_label_skew(self, spark):
        g = labeled_multigraph(
            spark, n_vertices=500, n_labels=10, degree_per_label=0.5,
            label_skew=1.0, seed=10,
        )
        counts = {
            r["label"]: r["count"]
            for r in g.edges.groupBy("label").count().collect()
        }
        assert counts["l0"] > counts["l9"] * 3  # zipf head >> tail
        st = g.stats()
        assert st["degree_per_label"] == pytest.approx(0.5, rel=0.1)


class TestDatasetSpecs:
    def test_registry_order_is_by_degree(self):
        assert list(DATASETS) == [
            "yago2s_lite",
            "robots_lite",
            "advogato_lite",
            "youtube_lite",
        ]
        degs = [s.paper_degree for s in DATASETS.values()]
        assert degs == sorted(degs)

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_built_degree_matches_paper(self, spark, name):
        spec = DATASETS[name]
        st = spec.build(spark).stats()
        assert st["degree_per_label"] == pytest.approx(
            spec.paper_degree, rel=0.12
        )
        assert st["n_labels"] == spec.paper_n_labels

    def test_yago_is_forward_biased_dag(self, spark):
        g = DATASETS["yago2s_lite"].build(spark)
        assert g.edges.filter(F.col("src") >= F.col("dst")).count() == 0
