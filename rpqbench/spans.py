"""Outside-in layer trace for the RPQ evaluators.

``Tracer.install`` replaces, for the duration of a traced round, the
names each evaluator module imported from the layer below with wrappers
that record one ``Span`` per call: wall time, Spark jobs, fixpoint
rounds and output rows. Nothing in ``repro`` is edited; ``uninstall``
puts every original back.

- Time: a span's ``ms`` excludes the trace's own bookkeeping (row
  counts, waiting for the listener bus); ``self_ms`` further excludes
  its child spans.
- Jobs: each span runs under its own Spark job group, read from the
  status tracker as the span closes (the store keeps only
  ``spark.ui.retainedJobs`` jobs), then the parent's group is restored.
- Rounds: ``FixpointGuard.tick`` is counted on the innermost span.
- Rows: counted after the span closes, under a separate job group and
  outside every open span's time.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

from pyspark.sql import functions as F

import repro.core.base as base
import repro.core.batch_unit as batch_unit
import repro.core.edge_reduction as edge_reduction
import repro.core.fullsharing as fullsharing
import repro.core.rtc as rtc
import repro.core.rtcsharing as rtcsharing
import repro.graph.closure as closure
import repro.graph.iterate as iterate
import repro.graph.scc as scc

UNTRACED_GROUP = "rpqbench"
BOOKKEEPING_GROUP = "rpqbench-trace"


@dataclass
class Span:
    layer: str
    method: str | None
    group: str
    t0: float = 0.0
    excluded: float = 0.0
    ms: float = 0.0
    child_ms: float = 0.0
    self_jobs: int = 0
    child_jobs: int = 0
    rounds: int = 0
    checkpoints: int = 0
    values: dict[str, float] = field(default_factory=dict)

    @property
    def self_ms(self) -> float:
        return self.ms - self.child_ms

    @property
    def jobs(self) -> int:
        return self.self_jobs + self.child_jobs


class Tracer:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.status = self.sc.statusTracker()
        self.bus = self.sc._jsc.sc().listenerBus()
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self._n = 0
        self._saved: list[tuple[object, str, object]] = []

    def _set_group(self) -> None:
        top = self.stack[-1] if self.stack else None
        group = top.group if top else UNTRACED_GROUP
        self.sc.setJobGroup(group, top.layer if top else "untraced")

    @contextmanager
    def span(self, layer: str, method: str | None = None):
        parent = self.stack[-1] if self.stack else None
        self._n += 1
        s = Span(layer, method or (parent.method if parent else None),
                 f"rpqbench-{self._n}")
        self.stack.append(s)
        self._set_group()
        s.t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.ms = 1000.0 * (time.perf_counter() - s.t0 - s.excluded)
            self.stack.pop()
            with self.untimed():
                self.bus.waitUntilEmpty()
                s.self_jobs = len(self.status.getJobIdsForGroup(s.group))
            if parent is not None:
                parent.child_ms += s.ms
                parent.child_jobs += s.jobs
            self.spans.append(s)

    @contextmanager
    def untimed(self):
        """Work the trace adds: kept out of every open span's time and jobs."""
        t0 = time.perf_counter()
        self.sc.setJobGroup(BOOKKEEPING_GROUP, "trace bookkeeping")
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for s in self.stack:
                s.excluded += dt
            self._set_group()

    # --- wrapping ------------------------------------------------------

    def _patch(self, owner: object, name: str, make: Callable) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, functools.wraps(orig)(make(orig)))

    def _layer(self, layer: str, after: Callable | None = None) -> Callable:
        def make(fn):
            def wrapped(*args, **kwargs):
                with self.span(layer) as s:
                    out = fn(*args, **kwargs)
                if after is not None:
                    with self.untimed():
                        after(s, args, kwargs, out)
                return out

            return wrapped

        return make

    def _checkpoint(self, fn):
        def wrapped(df):
            if self.stack:
                self.stack[0].checkpoints += 1
            return fn(df)

        return wrapped

    def install(self) -> None:
        p, layer = self._patch, self._layer
        p(base.MultiRPQEvaluator, "evaluate", layer("base.evaluate"))
        for name in ("parse", "to_dnf"):
            p(base, name, layer("rpq.plan"))
        p(base, "decompose_clause", layer("rpq.plan", _batch_unit))
        p(base, "eval_kleene_free", layer("edge_reduction.free", _rows))
        p(batch_unit, "eval_kleene_free", layer("edge_reduction.post", _post))
        p(rtcsharing, "compute_rtc", layer("rtc.compute"))
        p(rtcsharing, "eval_batch_unit_rtc", layer("batch_unit", _rows))
        p(fullsharing, "eval_batch_unit_full", layer("batch_unit", _rows))
        p(rtc, "strongly_connected_components", layer("scc", _components))
        p(rtc, "condense", layer("condense", _rows))
        p(rtc, "transitive_closure", layer("closure.rtc", _rows))
        p(fullsharing, "transitive_closure", layer("closure.full", _rows))
        for mod in (base, batch_unit, edge_reduction, fullsharing, rtc, scc, closure):
            p(mod, "materialize", self._checkpoint)
        # The union's checkpoint is base's only one: give it a span too.
        p(base, "materialize", layer("base.union"))

        def tick(orig):
            def wrapped(guard):
                if self.stack:
                    self.stack[-1].rounds += 1
                return orig(guard)

            return wrapped

        p(iterate.FixpointGuard, "tick", tick)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)
        self.sc.setJobGroup(UNTRACED_GROUP, "untraced")


def _rows(s: Span, args, kwargs, out) -> None:
    s.values["rows"] = out.count()


def _post(s: Span, args, kwargs, out) -> None:
    s.values["rows"] = out.count()
    s.values["seeds"] = kwargs["seeds"].count()


def _batch_unit(s: Span, args, kwargs, out) -> None:
    s.values["batch_units"] = int(out.kind is not None)


def _components(s: Span, args, kwargs, out) -> None:
    sizes = out.groupBy("s").count()
    n, cyclic, total = sizes.agg(
        F.count("*"),
        F.sum(F.when(F.col("count") > 1, F.col("count")).otherwise(0)),
        F.sum("count"),
    ).first()
    s.values["components"] = n
    s.values["cyclic_frac"] = (cyclic or 0) / total if total else 0.0


def layer_metrics(spans: list[Span], n_rpqs: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of traced rounds.

    ``ms``/``jobs`` of per-query layers are per RPQ of the method(s)
    that run the layer, so they add up to the response time; those of
    shared-structure layers, and all row counts, are per call.
    """

    def sel(layer, method=None):
        return [s for s in spans if s.layer == layer and method in (None, s.method)]

    def per_call(ss, get):
        return fmean(get(s) for s in ss) if ss else 0.0

    def per_rpq(ss, get, method=None):
        n = n_rpqs[method] if method else sum(n_rpqs.values())
        return sum(get(s) for s in ss) / n if n else 0.0

    ms, self_ms = (lambda s: s.ms), (lambda s: s.self_ms)
    jobs, self_jobs = (lambda s: s.jobs), (lambda s: s.self_jobs)
    rounds = lambda s: s.rounds  # noqa: E731

    def val(key):
        return lambda s: s.values.get(key, 0)

    plan, free, post = sel("rpq.plan"), sel("edge_reduction.free"), sel("edge_reduction.post")
    sccs, crtc, cfull = sel("scc"), sel("closure.rtc"), sel("closure.full")
    computes, bu_rtc, bu_full = sel("rtc.compute"), sel("batch_unit", "RTC"), sel("batch_unit", "Full")
    evals, unions = sel("base.evaluate"), sel("base.union")
    roots = {m: sel("rpq", m) for m in ("RTC", "Full")}
    out = {
        "rpq.plan_ms": (per_rpq(plan, ms), "ms/RPQ"),
        "rpq.batch_units": (per_rpq(plan, val("batch_units")), "units/RPQ"),
        "edge_reduction.free_ms": (per_rpq(free, ms), "ms/RPQ"),
        "edge_reduction.free_jobs": (per_rpq(free, jobs), "jobs/RPQ"),
        "edge_reduction.free_rows": (per_call(free, val("rows")), "rows/call"),
        "edge_reduction.post_ms": (per_rpq(post, ms), "ms/RPQ"),
        "edge_reduction.post_jobs": (per_rpq(post, jobs), "jobs/RPQ"),
        "edge_reduction.post_seeds": (per_call(post, val("seeds")), "seeds/call"),
        "edge_reduction.post_rows": (per_call(post, val("rows")), "rows/call"),
        "scc.ms": (per_call(sccs, ms), "ms/call"),
        "scc.jobs": (per_call(sccs, jobs), "jobs/call"),
        "scc.rounds": (per_call(sccs, rounds), "rounds/call"),
        "scc.components": (per_call(sccs, val("components")), "count/call"),
        "scc.cyclic_vertex_frac": (per_call(sccs, val("cyclic_frac")), "ratio"),
        "closure.rtc_ms": (per_call(crtc, ms), "ms/call"),
        "closure.rtc_jobs": (per_call(crtc, jobs), "jobs/call"),
        "closure.rtc_rounds": (per_call(crtc, rounds), "rounds/call"),
        "closure.rtc_rows": (per_call(crtc, val("rows")), "rows/call"),
        "condense.edges": (per_call(sel("condense"), val("rows")), "edges/call"),
        "closure.full_ms": (per_call(cfull, ms), "ms/call"),
        "closure.full_jobs": (per_call(cfull, jobs), "jobs/call"),
        "closure.full_rounds": (per_call(cfull, rounds), "rounds/call"),
        "closure.full_rows": (per_call(cfull, val("rows")), "rows/call"),
        "rtc.compute_ms": (per_call(computes, ms), "ms/call"),
        "rtc.compute_jobs": (per_call(computes, jobs), "jobs/call"),
        "rtc.cache_hit_ratio": (
            1.0 - len(computes) / len(bu_rtc) if bu_rtc else 0.0, "ratio"),
        "batch_unit.rtc_self_ms": (per_rpq(bu_rtc, self_ms, "RTC"), "ms/RPQ"),
        "batch_unit.rtc_jobs": (per_rpq(bu_rtc, self_jobs, "RTC"), "jobs/RPQ"),
        "batch_unit.rtc_rows": (per_call(bu_rtc, val("rows")), "rows/call"),
        "batch_unit.full_self_ms": (per_rpq(bu_full, self_ms, "Full"), "ms/RPQ"),
        "batch_unit.full_jobs": (per_rpq(bu_full, self_jobs, "Full"), "jobs/RPQ"),
        "batch_unit.full_rows": (per_call(bu_full, val("rows")), "rows/call"),
        "base.self_ms": (per_rpq(evals, self_ms) + per_rpq(unions, ms), "ms/RPQ"),
        "base.union_jobs": (per_rpq(unions, jobs), "jobs/RPQ"),
    }
    for m, key in (("RTC", "rtc"), ("Full", "full")):
        out[f"iterate.{key}_checkpoints_per_rpq"] = (
            per_rpq(roots[m], lambda s: s.checkpoints, m), "count/RPQ")
        out[f"spark.{key}_jobs_per_rpq"] = (per_rpq(roots[m], jobs, m), "jobs/RPQ")
    return out
