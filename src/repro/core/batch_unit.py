"""EvalBatchUnit (Algorithm 2): the optimized join pipeline (6)–(10).

The batch unit ``Pre · R{+,*} · Post`` is evaluated as the relational
algebra expression of Theorem 2 / equations (6)–(10)::

    Pre_G ⋈ SCC ⋈ RTC ⋈ SCC ⋈ Post_G

with the paper's four optimizations expressed directly in the plan:

- *useless-1* eliminated by seeding the pipeline with ``Pre_G`` (only
  SCCs reachable from Pre endpoints are expanded) — eq (7);
- *redundant-1* eliminated by ``distinct`` after ``Pre_G ⋈ SCC``
  (ResEq7) — many Pre pairs ending in one SCC collapse to one row;
- *redundant-2* eliminated by ``distinct`` after ``⋈ RTC`` (ResEq8) —
  many source SCCs reaching one target SCC collapse to one row;
- *useless-2* eliminated by **not** deduplicating after the final
  ``⋈ SCC`` when Post = ε and the closure is ``+``: SCC vertex sets are
  disjoint, so rows are unique by construction and a duplicate check
  would be wasted work.

Joins are associative (Theorem 2), so the last two joins are taken
right to left: ``SCC ⋈ Post_G`` is evaluated first, *restricted* to the
vertices of ``G_R`` (EvalRestrictedRPQ keyed by SCC), giving
``(s, post_end)`` pairs, and ResEq8 joins them on ``s``. The vertex-
level ResEq9 — every reached SCC expanded back into its members — is
never built. The Kleene-star zero-iteration branch (Algorithm 2 line
11) stays at vertex level: ``Pre_G`` (or the identity over V when
Pre = ε) extended through the same Post, unioned in before the one
final ``distinct``. The whole unit is one lazy plan; nothing here runs
a Spark job: ``MultiRPQEvaluator.evaluate`` materializes it together
with the rest of the RPQ. The SCC and RTC relations carry broadcast
hints when ``compute_rtc`` built them on the driver.

Partitioning. Every label step of ``Pre_G`` and ``Post_G`` deduplicates
after a ``repartition`` by ``start_v`` (``edge_reduction._dedup``), so
``Pre_G`` arrives hash-partitioned by ``start_v``. The joins of eqs (7)
and (8) are broadcast joins, which keep that partitioning, and both
distincts group by ``(start_v, s)``, so neither needs an exchange. The
tail is likewise partitioned by ``s``, so ``ResEq8 ⋈ tail`` shuffles
only ResEq8. The price: each label step shuffles its raw join output
instead of a partial aggregate, which costs more where one step yields
many duplicate pairs.

The FullSharing variant evaluates the same batch unit with the shared
``R+_G`` and a plain pair-level join — the unoptimized pipeline the
paper compares against (it performs the redundant/useless work by
construction) — then extends it through the same ``extend_pairs``
Post plan. Both units end in ``_finish``: the ``R*`` zero branch and
one ``distinct``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

# Not called here: kept as names rpqbench/spans.py wraps.
from repro.core.edge_reduction import eval_kleene_free  # noqa: F401
from repro.core.edge_reduction import extend_pairs
from repro.core.rtc import RTC
from repro.graph.iterate import materialize  # noqa: F401
from repro.graph.model import PAIR_COLS, LabeledGraph, identity_pairs
from repro.rpq.ast import Epsilon, Regex


def eval_batch_unit_rtc(
    graph: LabeledGraph,
    pre_g: DataFrame | None,
    rtc: RTC,
    kind: str,
    post: Regex,
) -> DataFrame:
    """Algorithm 2 as one lazy plan. ``pre_g is None`` means Pre = ε, in
    which case ResEq7 is the SCC relation itself (Theorem 2)."""
    if pre_g is None:
        # Every vertex of G_R paired with its SCC; unique by
        # construction (one SCC per vertex).
        res_eq7 = rtc.scc.toDF("start_v", "s")
    else:
        # (7): Pre_G ⋈ SCC, distinct — eliminates redundant-1 ops.
        res_eq7 = (
            pre_g.join(rtc.scc.toDF("end_v", "s"), "end_v")
            .select("start_v", "s")
            .distinct()
        )
    # (8): ⋈ RTC, distinct — eliminates redundant-2 ops. useless-1
    # ops never happen: only SCCs present in res_eq7 are expanded.
    res_eq8 = (
        res_eq7.join(rtc.rtc.toDF("s", "end_s"), "s")
        .select("start_v", "end_s")
        .toDF("start_v", "s")
        .distinct()
    )
    # The tail (s, post_end) = π(SCC ⋈ Post_G): Post restricted to
    # the vertices of G_R, keyed by SCC (with Post = ε, the SCC
    # relation itself). Joining it on s stands for (9) followed by
    # the Post join (Theorem 2's associativity), so the vertex-level
    # ResEq9 is never built. The tail does not depend on res_eq8:
    # narrowing it to the SCCs res_eq8 reaches would re-run eqs
    # (7)–(8) and still scan every Post edge.
    tail = extend_pairs(graph, rtc.scc.select("s", "v").toDF(*PAIR_COLS), post)
    out = res_eq8.join(tail.toDF("s", "end_v"), "s").select(*PAIR_COLS)
    # With kind + and Post = ε, out needs no duplicate check — useless-2
    # elimination: SCC vertex sets are mutually disjoint and res_eq8 is
    # distinct.
    return _finish(graph, out, pre_g, kind, post)


def eval_batch_unit_full(
    graph: LabeledGraph,
    pre_g: DataFrame | None,
    r_plus: DataFrame,
    kind: str,
    post: Regex,
) -> DataFrame:
    """FullSharing batch unit: plain ``Pre_G ⋈ R+_G`` at the vertex-pair
    level — the unoptimized pipeline of [8] used as the baseline —
    extended through Post in the same plan."""
    if pre_g is None:
        joined = r_plus
    else:
        joined = (
            pre_g.join(r_plus.toDF("end_v", "plus_end_v"), "end_v")
            .select("start_v", "plus_end_v")
            .toDF(*PAIR_COLS)
            .distinct()
        )
    # R+_G and joined are distinct, so with kind + and Post = ε so is out.
    return _finish(
        graph, extend_pairs(graph, joined, post), pre_g, kind, post
    )


def _finish(
    graph: LabeledGraph,
    out: DataFrame,
    pre_g: DataFrame | None,
    kind: str,
    post: Regex,
) -> DataFrame:
    """The tail both units share: the ``R*`` zero branch and one
    ``distinct`` (none for ``+`` with Post = ε: ``out`` is distinct by
    construction there)."""
    if kind == "*":
        # Zero iterations of R: (Pre·Post)_G at vertex level.
        zero = pre_g if pre_g is not None else identity_pairs(graph.vertices)
        out = out.union(extend_pairs(graph, zero, post))
    if kind == "*" or not isinstance(post, Epsilon):
        out = out.distinct()
    return out
