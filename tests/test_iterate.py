"""Tests for the fixpoint utilities (repro.graph.iterate)."""
from repro.graph.iterate import materialize
from tests.helpers import final_exchanges


def test_checkpoint_drops_key_partitioning(spark):
    """A Spark behaviour nothing may rely on: under adaptive execution a
    checkpointed frame reports ``UnknownPartitioning``, even when it was
    hash-partitioned before, so a later aggregate on that key shuffles
    again. No checkpointed frame — ``R_G``, a benchmark's edges, a
    fixpoint frontier — carries its partitioning into a later plan."""
    df = spark.range(64).selectExpr("id % 7 AS a", "id AS b")
    checkpointed = materialize(df.repartition("a"))
    partitioning = (
        checkpointed._jdf.queryExecution().executedPlan().outputPartitioning()
    )
    assert partitioning.toString().startswith("UnknownPartitioning")
    grouped = checkpointed.groupBy("a").count()
    assert grouped.count() == 7
    (exchange,) = final_exchanges(grouped)
    assert "hashpartitioning(a#" in exchange
