"""FullSharing baseline (Abul-Basher, ICDE 2017 [8]).

Shares the *full* evaluation result ``R+_G = TC(G_R)`` of the common
sub-query across RPQs. The closure is computed by semi-naive iteration
over ``G_R`` — no SCC reduction — and each batch unit joins ``Pre_G``
against the full vertex-pair relation, performing the redundant-1/-2
and useless-1/-2 work that RTCSharing eliminates.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.base import MultiRPQEvaluator
from repro.core.batch_unit import eval_batch_unit_full
from repro.core.timing import PhaseTimings
from repro.graph.closure import transitive_closure
from repro.graph.iterate import materialize
from repro.graph.model import LabeledGraph
from repro.rpq.ast import Regex


class FullSharingEvaluator(MultiRPQEvaluator):
    """Shares ``R+_G`` (the full Kleene-plus result) across RPQs."""

    name = "Full"

    def __init__(self, graph: LabeledGraph):
        super().__init__(graph)
        self._plus_cache: dict[str, DataFrame] = {}

    def _eval_closure_unit(
        self,
        pre_g: DataFrame | None,
        r: Regex,
        kind: str,
        post: Regex,
        timings: PhaseTimings,
    ) -> DataFrame:
        r_plus = self._r_plus_for(r, timings)
        return eval_batch_unit_full(
            self.graph, pre_g, r_plus, kind, post, timings
        )

    def _r_plus_for(self, r: Regex, timings: PhaseTimings) -> DataFrame:
        key = r.canon()
        if key not in self._plus_cache:
            r_g = self.evaluate(r, timings=timings)
            with timings.phase("shared_data"):
                edges = r_g.select(
                    F.col("start_v").alias("src"),
                    F.col("end_v").alias("dst"),
                )
                tc = transitive_closure(edges)
                r_plus = materialize(
                    tc.select(
                        F.col("src").alias("start_v"),
                        F.col("dst").alias("end_v"),
                    )
                )
            self._plus_cache[key] = r_plus
        return self._plus_cache[key]

    def shared_data_size(self) -> int:
        # Counted here, not in the query path: the count is bookkeeping.
        return sum(r_plus.count() for r_plus in self._plus_cache.values())
