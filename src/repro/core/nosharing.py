"""NoSharing baseline (Yakovets et al., SIGMOD 2016 [5]).

Evaluates every RPQ individually with the single-query method of [5]:
``R`` is evaluated first and its Kleene closure is computed from the
pre-evaluated ``R_G`` (rather than by re-traversing G) with
FullSharing's closure: a BFS on the driver under ``driver_row_bound``,
else the Spark semi-naive fallback. It is then joined with
``Pre_G``/``Post_G``. Nothing is shared — a multiple-RPQ set with a
common ``R+`` recomputes ``R_G`` and ``TC(G_R)`` for every member
query, which is exactly the repeated work Section II-C describes.
"""
from __future__ import annotations

from repro.core.fullsharing import FullSharingEvaluator
from repro.core.rtc import RPlus
from repro.core.timing import PhaseTimings
from repro.rpq.ast import Regex


class NoSharingEvaluator(FullSharingEvaluator):
    """Per-query evaluation; the closure cache is disabled."""

    name = "No"

    def _shared_for(self, r: Regex, t: PhaseTimings) -> RPlus:
        # Drop any cached closure so every query pays the full cost.
        self._shared.pop(r.canon(), None)
        return super()._shared_for(r, t)

    def shared_data_size(self) -> int:
        return 0
