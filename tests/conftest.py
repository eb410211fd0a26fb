"""Test fixtures: one SparkSession, paper example graph, random graphs."""
from __future__ import annotations

import pytest

from repro.graph.model import LabeledGraph
from repro.pyref import Edge
from repro.session import spark_session
from tests.helpers import PAPER_EDGES


@pytest.fixture(scope="session")
def spark():
    """One local SparkSession for the whole run; the test graphs are
    tiny, so 8 shuffle partitions keep the per-job cost down."""
    s = spark_session("repro-tests", shuffle_partitions=8)
    yield s
    s.stop()


@pytest.fixture
def one_shuffle_partition(spark):
    """Runs a test at 1 shuffle partition, as the benchmark does, and
    restores the session's setting after it."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    spark.conf.set(key, "1")
    yield
    spark.conf.set(key, saved)


@pytest.fixture(scope="session")
def paper_graph(spark) -> LabeledGraph:
    return LabeledGraph.from_triples(spark, PAPER_EDGES)


@pytest.fixture(scope="session")
def make_graph(spark):
    """Factory turning an edge list into a LabeledGraph (cached per list)."""
    cache: dict[tuple, LabeledGraph] = {}

    def _make(edges: list[Edge]) -> LabeledGraph:
        key = tuple(edges)
        if key not in cache:
            cache[key] = LabeledGraph.from_triples(spark, list(edges))
        return cache[key]

    return _make
