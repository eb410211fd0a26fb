"""Distributed transitive closure via semi-naive delta iteration.

``transitive_closure`` computes all (src, dst) pairs connected by a
path of **one or more** edges — the Kleene-plus semantics of Lemma 1
(``R+_G = TC(G_R)``). A vertex pairs with itself only when it lies on a
cycle (or has a self-loop).

Semi-naive evaluation: only the newly discovered pairs (the delta) are
joined against the base edge relation each round, and the delta is
anti-joined against the accumulated closure so each pair is derived
once. Each round is materialized (``localCheckpoint``) to truncate
lineage.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard, materialize, release


def transitive_closure(edges: DataFrame) -> DataFrame:
    """TC of a ``(src, dst)`` edge DataFrame, >=1-step semantics."""
    base = materialize(edges.select("src", "dst").distinct())
    tc = base
    delta = base
    guard = FixpointGuard("transitive closure")
    while not delta.isEmpty():
        guard.tick()
        hop = (
            delta.select(
                F.col("src"), F.col("dst").alias("mid")
            )
            .join(
                base.select(
                    F.col("src").alias("mid"), F.col("dst")
                ),
                "mid",
            )
            .select("src", "dst")
            .distinct()
        )
        prev_delta, prev_tc = delta, tc
        delta = materialize(hop.join(tc, ["src", "dst"], "left_anti"))
        tc = materialize(tc.union(delta))
        if prev_delta is not base:
            release(prev_delta)
        if prev_tc is not base:
            release(prev_tc)
    return tc
