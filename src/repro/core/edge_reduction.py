"""Edge-level graph reduction G -> G_R and closure-free RPQ evaluation.

The edge set of ``G_R`` *is* the RPQ result ``R_G`` (Section III-A), so
edge-level reduction is "evaluate R and treat each result pair as an
unlabeled edge". Two evaluators are provided:

- ``eval_kleene_free`` — the relational path: DNF the (closure-free)
  expression into label sequences and evaluate each as a chain of joins
  over the per-label edge relations (Lemma 4 applied repeatedly), as a
  lazy plan that the caller materializes. This is what
  ``Pre_G``/``R_G`` and closure-free clauses use in all three methods.
  There is no seeded evaluation: ``extend_pairs`` is the same
  label-join chain as a lazy plan over given pairs, and every batch
  unit evaluates Post through it — RTCSharing restricted to the
  vertices of ``G_R`` and keyed by SCC (EvalRestrictedRPQ in
  Algorithm 2), FullSharing/NoSharing from the ends of
  ``Pre_G ⋈ R+_G``, and the ``R*`` zero branch with Pre = ε from every
  vertex. Both read the per-label frames the graph prepares once
  (``LabeledGraph.label_pairs``/``label_steps``), so a chain builds
  only its joins.
- ``eval_rpq_automaton`` — the general Yakovets-style [5] traversal for
  arbitrary regexes: a product BFS of (start vertex, current vertex,
  NFA state) as iterative DataFrame joins, with the visited-set
  termination of Section II-B. No method calls it: it is the
  differential reference the tests check the three methods against.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.closure import semi_naive
from repro.graph.iterate import materialize
from repro.graph.model import (
    LabeledGraph,
    dedup_pairs,
    empty_pairs,
    identity_pairs,
    union_all,
)
from repro.rpq.ast import Regex
from repro.rpq.automaton import build_nfa
from repro.rpq.dnf import label_sequences


def eval_kleene_free(graph: LabeledGraph, regex: Regex) -> DataFrame:
    """Evaluate a closure-free RPQ as label-join chains, as a lazy plan.

    The plan yields distinct ``(start_v, end_v)`` pairs, hash-partitioned
    by ``start_v`` (a union of sequences keeps that partitioning), as
    eqs (7)–(8) and Full's ``Pre_G ⋈ R+_G`` read a ``Pre_G``. For the ε
    expression it is the identity relation over V.
    """
    parts = [
        _chain(graph, None, seq, "start_v", keyed=True)
        for seq in label_sequences(regex)
    ]
    if len(parts) == 1:
        return parts[0]
    return union_all(parts, lambda: empty_pairs(graph.spark)).distinct()


def extend_pairs(
    graph: LabeledGraph,
    pairs: DataFrame | None,
    regex: Regex,
    key: str = "start_v",
    *,
    keyed: bool = False,
) -> DataFrame:
    """``pairs ⋈ regex_G`` on ``end_v``, as a lazy plan of ``(key,
    end_v)`` rows.

    Every pair is extended along each label sequence of the closure-free
    ``regex`` — restricted evaluation keyed by whatever ``key`` holds.
    Each label join is followed by a ``distinct``; the union across
    sequences is left to the caller to deduplicate, together with
    whatever else it unions in. ``keyed`` says whether that consumer
    reads the rows hash-partitioned by ``key`` (see ``_chain``). For ε
    the result is ``pairs`` itself. ``pairs=None`` stands for the
    identity over V, "from every vertex": the result is then
    ``regex_G``, and the identity is built only for an ε sequence.
    """
    return union_all(
        [
            _chain(graph, pairs, seq, key, keyed)
            for seq in label_sequences(regex)
        ],
        lambda: empty_pairs(graph.spark),
    )


def _chain(
    graph: LabeledGraph,
    pairs: DataFrame | None,
    labels: tuple[str, ...],
    key: str,
    keyed: bool,
) -> DataFrame:
    """Extend ``(key, end_v)`` pairs along ``labels``, one label join
    and one ``distinct`` per label; ``pairs=None`` starts from the
    graph's prepared frame of the first label (or the identity over V
    when ``labels`` is empty).

    Each step shuffles only for a consumer that reads its partitioning.
    A step that another label join follows is hash-partitioned by
    ``end_v``, that join's key, so the join shuffles only its label
    side. The last step is partitioned by ``key`` when ``keyed`` — its
    consumer joins or groups on ``key``, or unions it with a branch so
    partitioned — and is otherwise deduplicated in place
    (``dedup_pairs``). A chain of one label from every vertex is the
    prepared frame, partitioned by ``start_v`` either way.
    """
    if pairs is None:
        if not labels:
            return identity_pairs(graph.vertices)
        first, labels = labels[0], labels[1:]
        pairs = graph.label_pairs(first, "end_v" if labels else "start_v")
    for i, label in enumerate(labels, 1):
        pairs = dedup_pairs(
            pairs.join(graph.label_steps(label), "end_v").select(
                key, F.col("next_v").alias("end_v")
            ),
            "end_v" if i < len(labels) else (key if keyed else None),
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
        edges = graph.edges.withColumnRenamed("src", "cur_v")
        visited = semi_naive(
            materialize(
                start_vs.select(
                    F.col("v").alias("start_v"),
                    F.col("v").alias("cur_v"),
                    F.lit(nfa.start).alias("q"),
                )
            ),
            lambda frontier: (
                frontier.join(edges, "cur_v")
                .join(trans, ["q", "label"])
                .select(
                    "start_v",
                    F.col("dst").alias("cur_v"),
                    F.col("q2").alias("q"),
                )
            ),
            "automaton traversal",
        )
        accept_set = visited.filter(
            F.col("q").isin(list(nfa.accepts))
        ).select("start_v", F.col("cur_v").alias("end_v"))
        # The seed rows (v, v, start) project (v, v) only when the start
        # state accepts, which happens iff ε ∈ L(R) — and then (v, v) is
        # a correct result (already unioned above; distinct dedupes).
        results.append(accept_set)

    out = union_all(results, lambda: empty_pairs(spark)).distinct()
    return materialize(out)
