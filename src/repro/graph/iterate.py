"""Fixpoint-iteration utilities for DataFrame loops.

Iterative graph algorithms (SCC coloring, transitive closure, automaton
traversal) re-join a DataFrame against a static edge relation until it
stops changing. Two things make this production-safe on Spark:

- ``materialize``: ``localCheckpoint(eager=True)`` truncates the
  lineage each round (otherwise the plan grows exponentially and the
  optimizer/stack dies after ~20 rounds) and forces computation, which
  also gives honest phase timings.
- ``FixpointGuard``: a hard iteration cap that raises instead of
  spinning forever if an algorithm bug breaks monotonicity.

The semi-naive delta loop built from these two lives in
``repro.graph.closure.semi_naive``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly compute ``df`` and truncate its lineage."""
    return df.localCheckpoint(eager=True)


class FixpointGuard:
    """Raises after ``max_iter`` rounds; tracks rounds for diagnostics."""

    def __init__(self, what: str, max_iter: int = 10_000):
        self.what = what
        self.max_iter = max_iter
        self.rounds = 0

    def tick(self) -> None:
        self.rounds += 1
        if self.rounds > self.max_iter:
            raise RuntimeError(
                f"{self.what}: no fixpoint after {self.max_iter} rounds "
                "(non-monotone iteration?)"
            )
