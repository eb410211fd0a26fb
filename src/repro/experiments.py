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
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.base import MultiRPQEvaluator
from repro.core.fullsharing import FullSharingEvaluator
from repro.core.nosharing import NoSharingEvaluator
from repro.core.rtcsharing import RTCSharingEvaluator
from repro.core.timing import PhaseTimings
from repro.graph.generators import DATASETS, DatasetSpec
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
    seed: int = 7,
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
        seed=seed,
    )


@dataclass
class DatasetResult:
    """Experiment-1 result for one dataset: averaged per-method runs."""

    spec: DatasetSpec
    stats: dict[str, float]
    runs: dict[str, MethodRun] = field(default_factory=dict)


def run_experiment1(
    spark: SparkSession,
    *,
    dataset_names: list[str] | None = None,
    n_rpqs: int = 4,
    sets_per_length: int = 1,
    methods: tuple[str, ...] = ("Full", "RTC", "No"),
    seed: int = 7,
) -> list[DatasetResult]:
    """Tables V & VI: phase/response times across datasets (4 RPQs/set)."""
    names = dataset_names or list(DATASETS)
    out: list[DatasetResult] = []
    for name in names:
        spec = DATASETS[name]
        graph = spec.build(spark)
        graph.edges = graph.edges.localCheckpoint(eager=True)
        sets = weighted_workload(
            graph,
            sets_per_length=sets_per_length,
            max_rpqs_per_set=n_rpqs,
            seed=seed,
        )
        res = DatasetResult(spec=spec, stats=graph.stats())
        # Untimed warmup: exercises codegen/JIT paths once per dataset
        # so the first timed method is not penalized for JVM warmup.
        run_method(graph, "RTC", sets[0].subset(1))
        run_method(graph, "Full", sets[0].subset(1))
        for method in methods:
            runs = [
                run_method(graph, method, s.subset(n_rpqs)) for s in sets
            ]
            res.runs[method] = _avg(runs)
        out.append(res)
    return out


@dataclass
class SizeResult:
    """Experiment-2 result for one #RPQs value."""

    n_rpqs: int
    runs: dict[str, MethodRun] = field(default_factory=dict)


def run_experiment2(
    spark: SparkSession,
    *,
    dataset_name: str = "advogato_lite",
    rpq_counts: tuple[int, ...] = (1, 2, 4, 6, 8, 10),
    sets_per_length: int = 1,
    r_lengths: tuple[int, ...] = (2,),
    methods: tuple[str, ...] = ("Full", "RTC", "No"),
    seed: int = 7,
) -> list[SizeResult]:
    """Tables VII & VIII: phase/response times as #RPQs varies.

    Defaults to the median R length (2) only: the sweep multiplies the
    per-set cost by sum(rpq_counts) = 31, and NoSharing pays a full
    closure per query, so the full 3-length sweep is reserved for
    ``--sets``-style overrides (documented in EXPERIMENTS.md).
    """
    spec = DATASETS[dataset_name]
    graph = spec.build(spark)
    graph.edges = graph.edges.localCheckpoint(eager=True)
    sets = weighted_workload(
        graph,
        sets_per_length=sets_per_length,
        max_rpqs_per_set=max(rpq_counts),
        r_lengths=r_lengths,
        seed=seed,
    )
    # Warm the heavier multi-query codegen paths too: the n=1 and n=2
    # sweep points run first and are otherwise hit by JIT compilation.
    run_method(graph, "RTC", sets[0].subset(2))
    run_method(graph, "Full", sets[0].subset(2))
    run_method(graph, "No", sets[0].subset(1))
    out: list[SizeResult] = []
    for n in rpq_counts:
        res = SizeResult(n_rpqs=n)
        for method in methods:
            runs = [run_method(graph, method, s.subset(n)) for s in sets]
            res.runs[method] = _avg(runs)
        out.append(res)
    return out


def dataset_stats(spark: SparkSession) -> list[dict[str, object]]:
    """Table IV: statistics of the built datasets vs the paper's."""
    rows = []
    for name, spec in DATASETS.items():
        stats = spec.build(spark).stats()
        rows.append(
            {
                "dataset": name,
                "n_vertices": int(stats["n_vertices"]),
                "n_edges": int(stats["n_edges"]),
                "n_labels": int(stats["n_labels"]),
                "degree_per_label": round(stats["degree_per_label"], 2),
                "paper_n_vertices": spec.paper_n_vertices,
                "paper_n_edges": spec.paper_n_edges,
                "paper_n_labels": spec.paper_n_labels,
                "paper_degree": spec.paper_degree,
            }
        )
    return rows


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
