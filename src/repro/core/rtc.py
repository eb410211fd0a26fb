"""Compute_RTC (Algorithm 1 lines 10–11): the reduced transitive closure.

Given ``R_G`` (the edge set of the edge-level reduced graph ``G_R``),
compute the SCC assignment of ``G_R``, condense it to ``Ḡ_R``, and take
the transitive closure of ``Ḡ_R`` — the RTC of Section III-C. Both
pieces are returned because EvalBatchUnit joins through the SCC
relation on both sides of the RTC (Theorem 2). The ``RTC`` entry also
prepares, once per R, what every batch unit over R reads: the SCC and
RTC relations named for eqs (7) and (8), and the SCC-keyed Post tail
per Post.

As in the paper, this runs on one machine: ``R_G`` is collected to the
driver and Tarjan's algorithm [14] finds the SCCs. Tarjan emits them in
reverse topological order, so one pass over that order closes ``Ḡ_R``
with no fixpoint (Purdom, BIT 1970; Nuutila 1995). Only when ``|R_G|``
or the running ``|RTC|`` exceeds the rows the driver may hold
(``driver_row_bound``) does it fall back to the distributed pipeline:
trim/colour/collect SCC, ``condense``, then semi-naive
``transitive_closure``. The bound, the read of ``R_G`` and the frames
are those FullSharing's driver closure uses (``repro.graph.closure``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.edge_reduction import extend_pairs
from repro.graph.closure import close_on_driver, driver_frame, transitive_closure
from repro.graph.condense import condense
# Not called here: kept as a name rpqbench/spans.py wraps.
from repro.graph.iterate import materialize  # noqa: F401
from repro.graph.model import LabeledGraph
from repro.graph.scc import strongly_connected_components, tarjan_scc
from repro.rpq.ast import Epsilon, Regex


@dataclass
class RTC:
    """The shared structure of RTCSharing for one sub-query R.

    - ``rtc``: ``(start_s, end_s)`` — ``TC(Ḡ_R)``, ≥1-step semantics.
    - ``scc``: ``(v, s)`` — the SCC relation of ``G_R`` (Section IV-B).

    Both carry a broadcast hint when built on the driver; the
    distributed fallback's frames carry none. Built with them, once per
    R, are the relations every batch unit over R joins, already named
    for their joins:

    - ``scc_by_v``: ``(end_v, s)``, read by eq (7) and as the seed of the
      tail. One layout and one join key (``end_v``), so Spark broadcasts
      it once per RPQ.
    - ``rtc_by_s``: ``(s, end_s)``, read by eq (8).
    - ``tail(graph, post)``: the SCC-keyed Post tail
      ``π_{s,post_end}(SCC ⋈ Post_G)`` as ``(s, end_v)``, a lazy plan
      built once per ``Post``.
    """

    rtc: DataFrame
    scc: DataFrame
    scc_by_v: DataFrame = field(init=False)
    rtc_by_s: DataFrame = field(init=False)
    _tails: dict[str, DataFrame] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.scc_by_v = self.scc.select(F.col("v").alias("end_v"), "s")
        self.rtc_by_s = self.rtc.select(F.col("start_s").alias("s"), "end_s")

    def tail(self, graph: LabeledGraph, post: Regex) -> DataFrame:
        """``π_{s,post_end}(SCC ⋈ Post_G)`` as ``(s, end_v)``: Post
        restricted to the vertices of ``G_R`` (``graph`` is the graph R
        was evaluated on), keyed by SCC; for Post = ε, the SCC relation
        itself."""
        key = post.canon()
        if key not in self._tails:
            self._tails[key] = (
                self.scc_by_v.select("s", "end_v")
                if isinstance(post, Epsilon)
                else extend_pairs(graph, self.scc_by_v, post, "s")
            )
        return self._tails[key]

    def n_pairs(self) -> int:
        """Shared-data size: |RTC| (the paper's Fig. 11 metric)."""
        return self.rtc.count()


def compute_rtc(r_g: DataFrame) -> RTC:
    """Build the RTC from ``R_G`` pairs ``(start_v, end_v)``.

    ``R_G`` is exactly ``E_R`` (every pair becomes one unlabeled edge);
    vertices of ``G_R`` are only those incident to such an edge, so no
    extra vertex set is needed.
    """
    closed = close_on_driver(r_g, _close_reduced)
    if closed is None:
        return _compute_rtc_distributed(r_g)
    comp_of, reach = closed
    spark = r_g.sparkSession
    return RTC(
        rtc=driver_frame(
            spark,
            start_s=[s for s, r in reach.items() for _ in r],
            end_s=[t for r in reach.values() for t in r],
        ),
        scc=driver_frame(spark, v=list(comp_of), s=list(comp_of.values())),
    )


def _close_reduced(
    edges: list[tuple[int, int]], bound: int
) -> tuple[dict[int, int], dict[int, set[int]]] | None:
    """SCC assignment of ``G_R`` and ``TC(Ḡ_R)`` as SCC -> reached SCCs.

    Returns ``None`` as soon as ``|RTC|`` exceeds ``bound``.
    """
    comp_of, components = tarjan_scc(edges)
    # Ḡ_R: an SCC is cyclic (has a self-loop in Ḡ_R) iff it has more
    # than one member or a self-loop — that is, iff an edge stays inside.
    succ: dict[int, set[int]] = {}
    cyclic: set[int] = set()
    for u, v in edges:
        su, sv = comp_of[u], comp_of[v]
        if su == sv:
            cyclic.add(su)
        else:
            succ.setdefault(su, set()).add(sv)
    # Emission order is reverse topological: reach[t] of every successor
    # t is final before s is visited.
    reach: dict[int, set[int]] = {}
    n_pairs = 0
    for comp in components:
        s = comp_of[comp[0]]
        r = {s} if s in cyclic else set()
        for t in succ.get(s, ()):
            r.add(t)
            r |= reach[t]
        reach[s] = r
        n_pairs += len(r)
        if n_pairs > bound:
            return None
    return comp_of, reach


def _compute_rtc_distributed(r_g: DataFrame) -> RTC:
    """The same RTC from DataFrame operators, for an ``R_G`` too large
    for the driver."""
    edges = r_g.select(
        F.col("start_v").alias("src"), F.col("end_v").alias("dst")
    )
    scc = strongly_connected_components(edges)
    reduced = condense(edges, scc)
    tc = transitive_closure(reduced)
    # ``tc`` and ``scc`` come back already materialized; the renaming
    # needs no copy.
    rtc = tc.select(F.col("src").alias("start_s"), F.col("dst").alias("end_s"))
    return RTC(rtc=rtc, scc=scc)
