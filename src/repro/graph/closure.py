"""Distributed transitive closure via semi-naive delta iteration.

``semi_naive`` is the one delta iteration of the code base: the
transitive closure below, the backward collect of the distributed SCC
(``repro.graph.scc``) and the automaton traversal
(``repro.core.edge_reduction.eval_rpq_automaton``) are each one call
with their own ``step``. Only the newly discovered rows (the frontier)
are stepped each round, and the frontier is anti-joined against
everything reached so far, so each row is derived once. Each round is
materialized (``localCheckpoint``) to truncate lineage.

``transitive_closure`` computes all (src, dst) pairs connected by a
path of **one or more** edges — the Kleene-plus semantics of Lemma 1
(``R+_G = TC(G_R)``). A vertex pairs with itself only when it lies on a
cycle (or has a self-loop).
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard, materialize


def semi_naive(
    seed: DataFrame, step: Callable[[DataFrame], DataFrame], what: str
) -> DataFrame:
    """Every row reachable from the materialized ``seed`` by ``step``.

    ``step`` maps a frontier to candidate rows with the same columns in
    the same order. Each round costs two checkpoints: the new frontier
    (the distinct candidates not reached before) and the union of it
    into the reached rows. Stops when the frontier is empty.
    """
    reached = frontier = seed
    guard = FixpointGuard(what)
    while not frontier.isEmpty():
        guard.tick()
        frontier = materialize(
            step(frontier)
            .distinct()
            .join(reached, reached.columns, "left_anti")
        )
        reached = materialize(reached.union(frontier))
    return reached


def transitive_closure(edges: DataFrame) -> DataFrame:
    """TC of a ``(src, dst)`` edge DataFrame, >=1-step semantics."""
    base = materialize(edges.select("src", "dst").distinct())
    nxt = base.select(F.col("src").alias("mid"), F.col("dst"))
    return semi_naive(
        base,
        lambda delta: (
            delta.select(F.col("src"), F.col("dst").alias("mid"))
            .join(nxt, "mid")
            .select("src", "dst")
        ),
        "transitive closure",
    )
