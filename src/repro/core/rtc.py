"""Compute_RTC (Algorithm 1 lines 10–11): the reduced transitive closure.

Given ``R_G`` (the edge set of the edge-level reduced graph ``G_R``),
compute the SCC assignment of ``G_R``, condense it to ``Ḡ_R``, and take
the transitive closure of ``Ḡ_R`` — the RTC of Section III-C. Both
pieces are returned because EvalBatchUnit joins through the SCC
relation on both sides of the RTC (Theorem 2).

As in the paper, this runs on one machine: ``R_G`` is collected to the
driver and Tarjan's algorithm [14] finds the SCCs. Tarjan emits them in
reverse topological order, so one pass over that order closes ``Ḡ_R``
with no fixpoint (Purdom, BIT 1970; Nuutila 1995). Only when ``|R_G|``
or the running ``|RTC|`` exceeds the rows the driver may hold
(``driver_row_bound``) does it fall back to the distributed pipeline:
trim/colour/collect SCC, ``condense``, then semi-naive
``transitive_closure``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.closure import transitive_closure
from repro.graph.condense import condense
# Not called here: kept as a name rpqbench/spans.py wraps.
from repro.graph.iterate import materialize  # noqa: F401
from repro.graph.scc import strongly_connected_components, tarjan_scc

# Driver bytes per row of R_G plus RTC on the driver path, rounded up
# from two measurements: the Python peak (tracemalloc) was 90–310 B on
# one giant SCC, a DAG chain, stars, self-loops and random graphs of
# 10^4–10^7 rows; the JVM heap retained ~300 B per output row at 10^6.
ROW_BYTES = 320
# The driver path may fill this share of the driver JVM's heap.
HEAP_SHARE = 0.25


@dataclass
class RTC:
    """The shared structure of RTCSharing for one sub-query R.

    - ``rtc``: ``(start_s, end_s)`` — ``TC(Ḡ_R)``, ≥1-step semantics.
    - ``scc``: ``(v, s)`` — the SCC relation of ``G_R`` (Section IV-B).

    Both carry a broadcast hint when built on the driver; the
    distributed fallback's frames carry none.
    """

    rtc: DataFrame
    scc: DataFrame

    def n_pairs(self) -> int:
        """Shared-data size: |RTC| (the paper's Fig. 11 metric)."""
        return self.rtc.count()


@functools.cache
def driver_row_bound(sc: SparkContext) -> int:
    """Rows of ``R_G``, and of its RTC, that the driver path may hold."""
    heap = sc._jvm.java.lang.Runtime.getRuntime().maxMemory()
    return int(heap * HEAP_SHARE) // ROW_BYTES


def compute_rtc(r_g: DataFrame) -> RTC:
    """Build the RTC from ``R_G`` pairs ``(start_v, end_v)``.

    ``R_G`` is exactly ``E_R`` (every pair becomes one unlabeled edge);
    vertices of ``G_R`` are only those incident to such an edge, so no
    extra vertex set is needed.
    """
    spark = r_g.sparkSession
    bound = driver_row_bound(spark.sparkContext)
    # One job, and no count(): one row past the bound means "too big".
    pdf = r_g.select("start_v", "end_v").coalesce(1).limit(bound + 1).toPandas()
    if len(pdf) <= bound:
        edges = list(zip(pdf["start_v"].tolist(), pdf["end_v"].tolist()))
        closed = _close_on_driver(edges, bound)
        if closed is not None:
            comp_of, reach = closed
            return RTC(
                rtc=_frame(
                    spark,
                    start_s=[s for s, r in reach.items() for _ in r],
                    end_s=[t for r in reach.values() for t in r],
                ),
                scc=_frame(spark, v=list(comp_of), s=list(comp_of.values())),
            )
    return _compute_rtc_distributed(r_g)


def _close_on_driver(
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


def _frame(spark: SparkSession, **cols: list[int]) -> DataFrame:
    """A DataFrame of ``long`` columns from driver lists, hinted for
    broadcast: it fits the driver, so it fits every executor. Explicit
    hints apply even with ``autoBroadcastJoinThreshold=-1``. It is not
    checkpointed: under Arrow's local-relation threshold (48 MB by
    default) Spark keeps the rows in the plan, which costs no job."""
    pdf = pd.DataFrame(
        {c: np.asarray(v, dtype=np.int64) for c, v in cols.items()}
    )
    schema = ", ".join(f"{c} long" for c in cols)
    return F.broadcast(spark.createDataFrame(pdf, schema))


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
