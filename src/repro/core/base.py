"""Shared driver for the three multi-RPQ evaluation methods.

All three methods (RTCSharing, FullSharing, NoSharing) process a query
the same way at the top: convert to DNF treating outermost closures as
literals, decompose each clause into a batch unit ``Pre·R{+,*}·Post``
(DecomposeCL), evaluate ``Pre`` recursively, and union clause results
(Algorithm 1's skeleton). They differ only in how the closure part of a
batch unit is evaluated and what is cached across RPQs — subclasses
implement ``_eval_closure_unit``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.edge_reduction import eval_kleene_free
from repro.core.timing import PhaseTimings
from repro.graph.iterate import materialize
from repro.graph.model import LabeledGraph, empty_pairs, union_all
from repro.rpq.ast import Epsilon, Regex
from repro.rpq.dnf import decompose_clause, to_dnf
from repro.rpq.parser import parse


class MultiRPQEvaluator:
    """Base evaluator; call :meth:`evaluate` once per RPQ in a set."""

    name = "base"

    def __init__(self, graph: LabeledGraph):
        self.graph = graph

    def evaluate(
        self, query: str | Regex, timings: PhaseTimings | None = None
    ) -> DataFrame:
        """Evaluate one RPQ; returns distinct ``(start_v, end_v)`` pairs."""
        ast = parse(query) if isinstance(query, str) else query
        t = timings if timings is not None else PhaseTimings()
        parts: list[DataFrame] = []
        for clause in to_dnf(ast):
            bu = decompose_clause(clause)
            if bu.kind is None:
                # Clause has no Kleene closure: EvalRPQwithoutKC.
                with t.phase("remainder"):
                    parts.append(eval_kleene_free(self.graph, bu.post))
            else:
                pre_g = (
                    None
                    if isinstance(bu.pre, Epsilon)
                    else self.evaluate(bu.pre, timings=t)
                )
                parts.append(
                    self._eval_closure_unit(pre_g, bu.r, bu.kind, bu.post, t)
                )
        if len(parts) == 1:
            return parts[0]
        with t.phase("remainder"):
            out = union_all(parts, lambda: empty_pairs(self.graph.spark))
            return materialize(out.distinct())

    def _eval_closure_unit(
        self,
        pre_g: DataFrame | None,
        r: Regex,
        kind: str,
        post: Regex,
        timings: PhaseTimings,
    ) -> DataFrame:
        raise NotImplementedError

    def shared_data_size(self) -> int:
        """Total row count of structures shared across RPQs (0 if none)."""
        return 0
