"""Shared driver for the three multi-RPQ evaluation methods.

All three methods (RTCSharing, FullSharing, NoSharing) process a query
the same way (Algorithm 1's skeleton): convert to DNF treating
outermost closures as literals, decompose each clause into a batch unit
``Pre·R{+,*}·Post`` (DecomposeCL), evaluate ``Pre`` recursively, look
up — or build from ``R_G`` and cache by ``R`` — the structure shared
across RPQs, evaluate the batch unit against it, and union clause
results. They differ only in that structure and the join that reads
it: subclasses implement ``_build_shared`` and ``_eval_unit``.

Everything but a shared structure's ``R_G`` and build is a lazy plan:
``Pre``, closure-free clauses, batch units and the union form one plan
per RPQ, which ``evaluate`` computes with one Spark action.
"""
from __future__ import annotations

from typing import Any

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
        # Shared structure per closure body R, keyed by R.canon().
        self._shared: dict[str, Any] = {}

    def evaluate(
        self, query: str | Regex, timings: PhaseTimings | None = None
    ) -> DataFrame:
        """Evaluate one RPQ; returns distinct ``(start_v, end_v)`` pairs,
        computed by one Spark action over the query's whole plan."""
        ast = parse(query) if isinstance(query, str) else query
        t = timings if timings is not None else PhaseTimings()
        plan = self._plan(ast, t)
        with t.phase("pre_join" if ast.has_closure() else "remainder"):
            return materialize(plan)

    def _plan(self, ast: Regex, t: PhaseTimings) -> DataFrame:
        """The lazy plan of ``ast``: one per DNF clause (a nested ``Pre``
        included), unioned and deduplicated once. Only the ``R_G`` of a
        shared structure not yet built runs here."""
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
                    else self._plan(bu.pre, t)
                )
                shared = self._shared_for(bu.r, t)
                with t.phase("pre_join"):
                    parts.append(
                        self._eval_unit(pre_g, shared, bu.kind, bu.post)
                    )
        if len(parts) == 1:
            return parts[0]
        return union_all(parts, lambda: empty_pairs(self.graph.spark)).distinct()

    def _shared_for(self, r: Regex, t: PhaseTimings) -> Any:
        key = r.canon()
        if key not in self._shared:
            # R_G is computed identically by all methods and therefore
            # attributed to Remainder, not Shared_Data (Section V-B).
            r_g = self.evaluate(r, timings=t)
            with t.phase("shared_data"):
                self._shared[key] = self._build_shared(r_g)
        return self._shared[key]

    def _build_shared(self, r_g: DataFrame) -> Any:
        """The structure shared by every batch unit over ``R``, from
        ``R_G`` pairs ``(start_v, end_v)``."""
        raise NotImplementedError

    def _eval_unit(
        self, pre_g: DataFrame | None, shared: Any, kind: str, post: Regex
    ) -> DataFrame:
        """EvalBatchUnit ``Pre·R{+,*}·Post`` (``pre_g is None`` for
        Pre = ε) against the shared structure of ``R``."""
        raise NotImplementedError

    def shared_data_size(self) -> int:
        """Total row count of structures shared across RPQs (0 if none)."""
        return 0
