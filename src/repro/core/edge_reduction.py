"""Edge-level graph reduction G -> G_R and closure-free RPQ evaluation.

The edge set of ``G_R`` *is* the RPQ result ``R_G`` (Section III-A), so
edge-level reduction is "evaluate R and treat each result pair as an
unlabeled edge". Two evaluators are provided:

- ``eval_kleene_free`` — the relational path: DNF the (closure-free)
  expression into label sequences and evaluate each as a chain of joins
  over the per-label edge relations (Lemma 4 applied repeatedly). This
  is what ``Pre_G``/``R_G`` use in all three methods and ``Post_G`` in
  FullSharing/NoSharing, and it supports *restricted* evaluation from
  seed vertices (EvalRestrictedRPQ in Algorithm 2). ``extend_pairs`` is
  the same label-join chain as a lazy plan over given pairs, which
  RTCSharing uses to evaluate restricted Post keyed by SCC.
- ``eval_rpq_automaton`` — the general Yakovets-style [5] traversal for
  arbitrary regexes: a product BFS of (start vertex, current vertex,
  NFA state) as iterative DataFrame joins, with the visited-set
  termination of Section II-B. Used as an independent evaluator for
  differential tests and for queries that are not batch units.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard, materialize, release
from repro.graph.model import (
    LabeledGraph,
    empty_pairs,
    identity_pairs,
    union_all,
)
from repro.rpq.ast import Regex
from repro.rpq.automaton import build_nfa
from repro.rpq.dnf import label_sequences


def eval_kleene_free(
    graph: LabeledGraph, regex: Regex, seeds: DataFrame | None = None
) -> DataFrame:
    """Evaluate a closure-free RPQ as label-join chains.

    Returns distinct ``(start_v, end_v)`` pairs. ``seeds`` (a ``(v)``
    DataFrame) restricts start vertices — the restricted evaluation used
    for ``Post`` so only paths reachable from ``(Pre·R+)_G`` ends are
    explored. For the ε expression the result is the identity relation
    over ``seeds`` (or over all of V).
    """
    spark = graph.spark
    results: list[DataFrame] = []
    for seq in label_sequences(regex):
        if not seq:
            base = seeds if seeds is not None else graph.vertices
            results.append(identity_pairs(base))
            continue
        cur = graph.edges_for_label(seq[0]).select(
            F.col("src").alias("start_v"), F.col("dst").alias("end_v")
        )
        if seeds is not None:
            cur = cur.join(
                seeds.withColumnRenamed("v", "start_v"),
                "start_v",
                "left_semi",
            )
        results.append(_follow(graph, cur.distinct(), seq[1:]))
    out = union_all(results, lambda: empty_pairs(spark)).distinct()
    return materialize(out)


def extend_pairs(
    graph: LabeledGraph, pairs: DataFrame, regex: Regex
) -> DataFrame:
    """``pairs ⋈ regex_G`` on ``end_v``, as a lazy plan.

    Every ``(start_v, end_v)`` pair is extended along each label
    sequence of the closure-free ``regex`` — restricted evaluation keyed
    by whatever ``start_v`` holds. Each label join is followed by a
    ``distinct``; the union across sequences is left to the caller to
    deduplicate, together with whatever else it unions in. For ε the
    result is ``pairs`` itself.
    """
    return union_all(
        [_follow(graph, pairs, seq) for seq in label_sequences(regex)],
        lambda: empty_pairs(graph.spark),
    )


def _follow(
    graph: LabeledGraph, pairs: DataFrame, labels: tuple[str, ...]
) -> DataFrame:
    """Extend ``(start_v, end_v)`` pairs along ``labels``, one label
    join and one ``distinct`` per label."""
    for label in labels:
        nxt = graph.edges_for_label(label).select(
            F.col("src").alias("end_v"), F.col("dst").alias("next_v")
        )
        pairs = (
            pairs.join(nxt, "end_v")
            .select("start_v", F.col("next_v").alias("end_v"))
            .distinct()
        )
    return pairs


def eval_rpq_automaton(
    graph: LabeledGraph, regex: Regex, seeds: DataFrame | None = None
) -> DataFrame:
    """Evaluate an arbitrary RPQ via NFA-product BFS over DataFrames.

    The traversal state is ``(start_v, cur_v, q)``; a visited set keyed
    on all three terminates cyclic traversals exactly as described in
    Example 2. Accepting states project to result pairs; if ε ∈ L(R),
    every (seed) vertex also pairs with itself.
    """
    spark = graph.spark
    nfa = build_nfa(regex)
    start_vs = seeds if seeds is not None else graph.vertices

    results: list[DataFrame] = []
    if nfa.accepts_epsilon:
        results.append(identity_pairs(start_vs))

    if nfa.transitions:
        trans = spark.createDataFrame(
            list(nfa.transitions), "q int, label string, q2 int"
        )
        frontier = materialize(
            start_vs.select(
                F.col("v").alias("start_v"),
                F.col("v").alias("cur_v"),
                F.lit(nfa.start).alias("q"),
            )
        )
        visited = frontier
        guard = FixpointGuard("automaton traversal")
        while not frontier.isEmpty():
            guard.tick()
            stepped = (
                frontier.join(
                    graph.edges.withColumnRenamed("src", "cur_v"), "cur_v"
                )
                .join(trans, ["q", "label"])
                .select(
                    "start_v",
                    F.col("dst").alias("cur_v"),
                    F.col("q2").alias("q"),
                )
                .distinct()
            )
            prev_frontier, prev_visited = frontier, visited
            frontier = materialize(
                stepped.join(
                    visited, ["start_v", "cur_v", "q"], "left_anti"
                )
            )
            visited = materialize(visited.union(frontier))
            release(prev_frontier, prev_visited)
        accept_set = visited.filter(
            F.col("q").isin(list(nfa.accepts))
        ).select("start_v", F.col("cur_v").alias("end_v"))
        # The seed rows (v, v, start) project (v, v) only when the start
        # state accepts, which happens iff ε ∈ L(R) — and then (v, v) is
        # a correct result (already unioned above; distinct dedupes).
        results.append(accept_set)

    out = union_all(results, lambda: empty_pairs(spark)).distinct()
    return materialize(out)
