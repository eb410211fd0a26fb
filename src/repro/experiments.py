"""Experiment harness reproducing the paper's evaluation tables (IV–VIII).

Metrics follow Section V-B exactly:

- *query response time* = total wall clock of evaluating the multiple-
  RPQ set (graph reduction + shared-data computation + all per-query
  work) divided by the number of RPQs in the set;
- *Shared_Data* = time to compute the shared structure (``TC(Ḡ_R)``
  plus the ``G_R → Ḡ_R`` reduction for RTC; ``TC(G_R)`` for Full),
  amortized over the RPQs; the common ``R_G`` computation is excluded
  (it lands in Remainder for both methods);
- *Pre_G ⋈ R+_G* = the join phase, averaged per RPQ;
- *Remainder* = everything else, averaged per RPQ;
- *shared data size* = |RTC| for RTC, |R+_G| for Full.

Every metric is additionally averaged over the multiple-RPQ sets in the
workload sample, as in the paper.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.base import MultiRPQEvaluator
from repro.core.fullsharing import FullSharingEvaluator
from repro.core.nosharing import NoSharingEvaluator
from repro.core.rtcsharing import RTCSharingEvaluator
from repro.core.timing import PhaseTimings
from repro.graph.generators import DatasetSpec
from repro.graph.model import LabeledGraph
from repro.workload import RPQSet, make_rpq_sets

METHODS: dict[str, type[MultiRPQEvaluator]] = {
    "Full": FullSharingEvaluator,
    "RTC": RTCSharingEvaluator,
    "No": NoSharingEvaluator,
}


@dataclass
class MethodRun:
    """Timings of one method over one multiple-RPQ set (ms, amortized)."""

    method: str
    n_rpqs: int
    shared_data_ms: float
    pre_join_ms: float
    remainder_ms: float
    response_ms: float
    shared_size: int
    result_rows: int


def run_method(
    graph: LabeledGraph,
    method: str,
    queries: tuple[str, ...] | list[str],
) -> MethodRun:
    """Evaluate one multiple-RPQ set with one method, timing each phase."""
    # Nudge the JVM to collect garbage from the previous method's run so
    # a GC pause from earlier cached blocks doesn't land inside this
    # method's timed window.
    graph.spark.sparkContext._jvm.System.gc()
    ev = METHODS[method](graph)
    t = PhaseTimings()
    dfs = []
    t0 = time.perf_counter()
    for q in queries:
        dfs.append(ev.evaluate(q, timings=t))
    wall = time.perf_counter() - t0
    # Results are already materialized (localCheckpoint) inside
    # evaluate(); counting afterwards does not pollute the timings.
    rows = sum(df.count() for df in dfs)
    shared_size = ev.shared_data_size()
    n = len(queries)
    return MethodRun(
        method=method,
        n_rpqs=n,
        shared_data_ms=1000.0 * t.shared_data / n,
        pre_join_ms=1000.0 * t.pre_join / n,
        remainder_ms=1000.0 * t.remainder / n,
        response_ms=1000.0 * wall / n,
        shared_size=shared_size,
        result_rows=rows,
    )


def _avg(runs: list[MethodRun]) -> MethodRun:
    n = len(runs)
    return MethodRun(
        method=runs[0].method,
        n_rpqs=runs[0].n_rpqs,
        shared_data_ms=sum(r.shared_data_ms for r in runs) / n,
        pre_join_ms=sum(r.pre_join_ms for r in runs) / n,
        remainder_ms=sum(r.remainder_ms for r in runs) / n,
        response_ms=sum(r.response_ms for r in runs) / n,
        shared_size=round(sum(r.shared_size for r in runs) / n),
        result_rows=sum(r.result_rows for r in runs),
    )


def weighted_workload(
    graph: LabeledGraph,
    *,
    sets_per_length: int,
    max_rpqs_per_set: int,
    r_lengths: tuple[int, ...] = (1, 2, 3),
) -> list[RPQSet]:
    """Workload whose labels are sampled weighted by edge frequency.

    The paper samples its 90 ``R``s from real query-relevant labels; on
    skewed-label graphs (Yago2s) uniform sampling would mostly produce
    empty results, so we weight label choice by label frequency —
    frequent labels are the ones real workloads touch.
    """
    counts = {
        r["label"]: r["cnt"]
        for r in graph.edges.groupBy("label")
        .count()
        .withColumnRenamed("count", "cnt")
        .collect()
    }
    # Expand labels proportionally to sqrt(frequency), capped, so the
    # random.choice in make_rpq_sets is frequency-weighted but the rare
    # labels still appear.
    weighted: list[str] = []
    for lab, cnt in sorted(counts.items()):
        weighted.extend([lab] * max(1, min(20, round(cnt**0.5))))
    return make_rpq_sets(
        weighted,
        sets_per_length=sets_per_length,
        max_rpqs_per_set=max_rpqs_per_set,
        r_lengths=r_lengths,
    )


@dataclass
class SweepPoint:
    """One (dataset, #RPQs) point of a sweep: per-method runs averaged
    over the workload's sets. #RPQs is each run's ``n_rpqs``."""

    dataset: str
    stats: dict[str, float]
    runs: dict[str, MethodRun]


def sweep(
    spark: SparkSession,
    spec: DatasetSpec,
    rpq_counts: tuple[int, ...],
    r_lengths: tuple[int, ...],
    sets_per_length: int,
) -> list[SweepPoint]:
    """Tables IV–VIII: every method on ``spec`` at each #RPQs in
    ``rpq_counts``, over one nested workload (the k-RPQ set is the first
    k queries of each set, as in the paper)."""
    built = spec.build(spark)
    graph = LabeledGraph(edges=built.edges.localCheckpoint(eager=True))
    sets = weighted_workload(
        graph,
        sets_per_length=sets_per_length,
        max_rpqs_per_set=max(rpq_counts),
        r_lengths=r_lengths,
    )
    stats = graph.stats()
    # Untimed warm-up on two RPQs of the first set: a cold RPQ (shared
    # structure built) and a reuse RPQ (cache hit) compile both code
    # paths of each sharing method, so JIT and codegen land in no timed
    # point. No runs Full's cold path on every RPQ, so Full warms it.
    for method in ("RTC", "Full"):
        run_method(graph, method, sets[0].queries[:2])
    return [
        SweepPoint(
            dataset=spec.name,
            stats=stats,
            runs={
                method: _avg(
                    [run_method(graph, method, s.subset(n)) for s in sets]
                )
                for method in METHODS
            },
        )
        for n in rpq_counts
    ]


def format_table(rows: list[dict[str, object]], title: str) -> str:
    """Plain-text table (aligned columns) for job output / EXPERIMENTS.md."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0].keys())
    cells = [[str(r[c]) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells))
        for i, c in enumerate(cols)
    ]
    lines = [title]
    lines.append(" | ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
