"""RTCSharing (Algorithm 1) — the paper's proposed method.

Per batch unit ``Pre · R{+,*} · Post``: evaluate ``Pre`` recursively,
look up (or compute and cache) the RTC for ``R`` — the SCC relation of
``G_R`` plus ``TC(Ḡ_R)`` — and run the optimized join pipeline of
Algorithm 2 (the vertex-level unit when every SCC of ``G_R`` is a
singleton: the RTC then is ``R+_G``). The RTC cache is the sharing
mechanism: every RPQ in a multiple-RPQ set whose common sub-query is
``R+`` (or ``R*``) reuses one lightweight RTC instead of the
heavyweight ``R+_G``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.base import MultiRPQEvaluator
from repro.core.batch_unit import eval_batch_unit_rtc
from repro.core.rtc import RTC, RPlus, compute_rtc
from repro.rpq.ast import Regex


class RTCSharingEvaluator(MultiRPQEvaluator):
    """Shares the reduced transitive closure across RPQs."""

    name = "RTC"

    def _build_shared(self, r_g: DataFrame) -> RTC | RPlus:
        return compute_rtc(r_g)

    def _eval_unit(
        self,
        pre_g: DataFrame | None,
        rtc: RTC | RPlus,
        kind: str,
        post: Regex,
    ) -> DataFrame:
        return eval_batch_unit_rtc(self.graph, pre_g, rtc, kind, post)

    def shared_data_size(self) -> int:
        return sum(rtc.n_pairs() for rtc in self._shared.values())
