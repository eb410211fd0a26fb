"""Transitive closure: on the driver when it fits, else by distributed
semi-naive delta iteration.

Both shared structures are closed here. Compute_RTC closes ``Ḡ_R``
(``repro.core.rtc``); FullSharing and NoSharing close ``G_R`` itself
(``repro.core.fullsharing``). Each reads ``R_G`` to the driver with
``close_on_driver`` (one Spark job), closes it in Python under
``driver_row_bound`` and returns the pairs through ``driver_frame``.
Only above that bound do they fall back to ``transitive_closure``.

``semi_naive`` is the one delta iteration of the code base: the
transitive closure below, the backward collect of the distributed SCC
(``repro.graph.scc``) and the automaton traversal
(``repro.core.edge_reduction.eval_rpq_automaton``) are each one call
with their own ``step``. Only the newly discovered rows (the frontier)
are stepped each round, and the frontier is anti-joined against
everything reached so far, so each row is derived once. Each round is
materialized (``localCheckpoint``) to truncate lineage; the frontier's
checkpoint also counts its rows, so the emptiness test costs no job of
its own.

``transitive_closure`` and ``bfs_closure`` compute all (src, dst)
pairs connected by a path of **one or more** edges — the Kleene-plus
semantics of Lemma 1 (``R+_G = TC(G_R)``). A vertex pairs with itself
only when it lies on a cycle (or has a self-loop).
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, TypeVar

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard, materialize

T = TypeVar("T")

# Driver bytes per row of R_G plus its closure on the driver path,
# rounded up from two measurements: the Python peak (tracemalloc) was
# 90–310 B for Compute_RTC on one giant SCC, a DAG chain, stars,
# self-loops and random graphs of 10^4–10^7 rows, and 48–50 B per pair
# for ``bfs_closure`` plus its int64 frame at ~10^6 pairs (a 1 000-vertex
# giant SCC of 3 994 edges, and chains of 1 400 and 1 414 edges); the
# JVM heap retained ~300 B per output row at 10^6.
ROW_BYTES = 320
# The driver path may fill this share of the driver JVM's heap.
HEAP_SHARE = 0.25


@functools.cache
def driver_row_bound(sc: SparkContext) -> int:
    """Rows of ``R_G``, and of its closure, that the driver path may
    hold."""
    heap = sc._jvm.java.lang.Runtime.getRuntime().maxMemory()
    return int(heap * HEAP_SHARE) // ROW_BYTES


def close_on_driver(
    r_g: DataFrame, close: Callable[[list[tuple[int, int]], int], T | None]
) -> T | None:
    """``close(edges, bound)`` over the ``(start_v, end_v)`` pairs of
    ``R_G``, read to the driver in one Spark job.

    ``None`` when ``|R_G|`` exceeds ``driver_row_bound``, or when
    ``close`` returns ``None`` because its output would.
    """
    bound = driver_row_bound(r_g.sparkSession.sparkContext)
    # One job, and no count(): one row past the bound means "too big".
    pdf = r_g.select("start_v", "end_v").coalesce(1).limit(bound + 1).toPandas()
    if len(pdf) > bound:
        return None
    return close(list(zip(pdf["start_v"].tolist(), pdf["end_v"].tolist())), bound)


def bfs_closure(
    edges: list[tuple[int, int]], bound: int
) -> tuple[list[int], list[int]] | None:
    """``TC(edges)`` as parallel source and target lists, by BFS from
    each source, with no SCC condensation. ``None`` as soon as the pairs
    exceed ``bound``."""
    succ: dict[int, set[int]] = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    src: list[int] = []
    dst: list[int] = []
    for v0, first in succ.items():
        seen = set(first)
        frontier = first
        while frontier:
            nxt: set[int] = set()
            for w in frontier:
                nxt.update(succ.get(w, ()))
            frontier = nxt - seen
            seen |= frontier
        src.extend(itertools.repeat(v0, len(seen)))
        dst.extend(seen)
        if len(dst) > bound:
            return None
    return src, dst


def driver_frame(spark: SparkSession, **cols: list[int]) -> DataFrame:
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


def semi_naive(
    seed: DataFrame, step: Callable[[DataFrame], DataFrame], what: str
) -> DataFrame:
    """Every row reachable from the materialized ``seed`` by ``step``.

    ``step`` maps a frontier to candidate rows with the same columns in
    the same order. Each round checkpoints the new frontier (the
    distinct candidates not reached before), counting its rows in that
    same job through an ``Observation``, and stops when it is empty;
    otherwise it checkpoints the union of it into the reached rows. A
    seed that is empty costs one round that finds nothing.
    """
    reached = frontier = seed
    guard = FixpointGuard(what)
    while True:
        guard.tick()
        # An Observation reports once, so each round needs its own.
        found = Observation()
        frontier = materialize(
            step(frontier)
            .distinct()
            .join(reached, reached.columns, "left_anti")
            .observe(found, F.count(F.lit(1)).alias("rows"))
        )
        if found.get["rows"] == 0:
            return reached
        reached = materialize(reached.union(frontier))


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
