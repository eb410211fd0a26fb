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
from repro.graph.closure import transitive_closure
# Not called here: kept as a name rpqbench/spans.py wraps.
from repro.graph.iterate import materialize  # noqa: F401
from repro.rpq.ast import Regex


class FullSharingEvaluator(MultiRPQEvaluator):
    """Shares ``R+_G`` (the full Kleene-plus result) across RPQs."""

    name = "Full"

    def _build_shared(self, r_g: DataFrame) -> DataFrame:
        tc = transitive_closure(
            r_g.select(
                F.col("start_v").alias("src"), F.col("end_v").alias("dst")
            )
        )
        # ``tc`` is already materialized; the renaming needs no copy.
        return tc.select(
            F.col("src").alias("start_v"), F.col("dst").alias("end_v")
        )

    def _eval_unit(
        self,
        pre_g: DataFrame | None,
        r_plus: DataFrame,
        kind: str,
        post: Regex,
    ) -> DataFrame:
        return eval_batch_unit_full(self.graph, pre_g, r_plus, kind, post)

    def shared_data_size(self) -> int:
        # Counted here, not in the query path: the count is bookkeeping.
        return sum(r_plus.count() for r_plus in self._shared.values())
