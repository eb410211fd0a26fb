"""FullSharing baseline (Abul-Basher, ICDE 2017 [8]).

Shares the *full* evaluation result ``R+_G = TC(G_R)`` of the common
sub-query across RPQs. Like Compute_RTC, the closure runs on one
machine: ``R_G`` is read to the driver (one Spark job) and closed by a
BFS from each source, returned as a broadcast-hinted local relation.
There is no SCC reduction, so Full pays for every pair of ``R+_G``.
Only when ``|R_G|`` or the running ``|R+_G|`` exceeds the same
``driver_row_bound`` does it fall back to the distributed semi-naive
``transitive_closure``. Each batch unit joins ``Pre_G`` against the
full vertex-pair relation, performing the redundant-1/-2 and
useless-1/-2 work that RTCSharing eliminates. The cache entry
(``repro.core.rtc.RPlus``) keeps ``R+_G`` also in the shape that join
reads, built once per R.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.base import MultiRPQEvaluator
from repro.core.batch_unit import eval_batch_unit_full
from repro.core.rtc import RPlus
from repro.graph.closure import (
    bfs_closure,
    close_on_driver,
    driver_frame,
    transitive_closure,
)
# Not called here: kept as a name rpqbench/spans.py wraps.
from repro.graph.iterate import materialize  # noqa: F401
from repro.rpq.ast import Regex


class FullSharingEvaluator(MultiRPQEvaluator):
    """Shares ``R+_G`` (the full Kleene-plus result) across RPQs."""

    name = "Full"

    def _build_shared(self, r_g: DataFrame) -> RPlus:
        closed = close_on_driver(r_g, bfs_closure)
        if closed is not None:
            src, dst = closed
            return RPlus(driver_frame(r_g.sparkSession, start_v=src, end_v=dst))
        tc = transitive_closure(
            r_g.select(
                F.col("start_v").alias("src"), F.col("end_v").alias("dst")
            )
        )
        # ``tc`` is already materialized; the renaming needs no copy.
        return RPlus(
            tc.select(F.col("src").alias("start_v"), F.col("dst").alias("end_v"))
        )

    def _eval_unit(
        self,
        pre_g: DataFrame | None,
        r_plus: RPlus,
        kind: str,
        post: Regex,
    ) -> DataFrame:
        return eval_batch_unit_full(self.graph, pre_g, r_plus, kind, post)

    def shared_data_size(self) -> int:
        # Counted here, not in the query path: the count is bookkeeping.
        return sum(r_plus.n_pairs() for r_plus in self._shared.values())
