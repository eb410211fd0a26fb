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
11) stays at vertex level: ``Pre_G`` extended through the same Post —
with Pre = ε, ``Post_G`` itself, and the identity over V only when
Post = ε too — unioned in before the one final ``distinct``. The whole
unit is one lazy plan; nothing here runs a Spark job:
``MultiRPQEvaluator.evaluate`` materializes it together with the rest
of the RPQ. The SCC and RTC relations carry broadcast hints when
``compute_rtc`` built them on the driver.

Singleton SCCs (an extension beyond the paper). When every SCC of
``G_R`` is a singleton, the SCC relation is the identity over
``V(G_R)`` and the RTC is ``R+_G``, so eq (7) is ``Pre_G`` renamed (its
distinct a no-op), eq (8) is ``Pre_G ⋈ R+_G`` deduplicated, and the
last SCC join is again a rename; useless-2 elimination carries over
(eq (8) is distinct). ``compute_rtc`` flags that case on the driver
path by giving the ``RTC`` entry an ``RPlus`` view of its RTC, and
``eval_batch_unit_rtc`` then returns FullSharing's unit over it:
the same plan, Spark jobs and DataFrames as Full's.

Prepared relations. A unit builds only the joins that read this RPQ's
``Pre_G``; everything else is built once, where it stops changing:

- per graph and label, the seed frame ``(start_v, end_v)`` and the
  step frame ``(end_v, next_v)`` of every label join
  (``LabeledGraph.label_pairs``/``label_steps``);
- per R, the SCC relation as ``(end_v, s)``, read by eq (7) and by the
  tail in that one layout (so Spark broadcasts it once per RPQ), and
  the RTC as ``(s, end_s)`` (``RTC.scc_by_v``/``rtc_by_s``);
- per (R, Post), the tail ``(s, end_v)`` (``RTC.tail``);
- for FullSharing, and for an RTC whose SCCs are all singletons, per
  R, ``R+_G`` both as is and as ``(end_v, plus_end_v)`` for its join
  (``RPlus``).

Partitioning. Every label step of ``Pre_G`` and ``Post_G`` deduplicates
after a ``repartition`` by its key column (``model.dedup_pairs``), so
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
from pyspark.sql import functions as F

# Not called here: kept as names rpqbench/spans.py wraps.
from repro.core.edge_reduction import eval_kleene_free  # noqa: F401
from repro.core.edge_reduction import extend_pairs
from repro.core.rtc import RTC, RPlus
from repro.graph.iterate import materialize  # noqa: F401
from repro.graph.model import PAIR_COLS, LabeledGraph
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
    if rtc.plus is not None:
        # Every SCC of G_R is a singleton: the SCC joins are identities
        # and the RTC is R+_G, so the pipeline is the vertex-level unit.
        return eval_batch_unit_full(graph, pre_g, rtc.plus, kind, post)
    if pre_g is None:
        # Every vertex of G_R paired with its SCC; unique by
        # construction (one SCC per vertex).
        res_eq7 = rtc.scc_by_v.select(F.col("end_v").alias("start_v"), "s")
    else:
        # (7): Pre_G ⋈ SCC, distinct — eliminates redundant-1 ops.
        res_eq7 = (
            pre_g.join(rtc.scc_by_v, "end_v").select("start_v", "s").distinct()
        )
    # (8): ⋈ RTC, distinct — eliminates redundant-2 ops. useless-1
    # ops never happen: only SCCs present in res_eq7 are expanded.
    res_eq8 = (
        res_eq7.join(rtc.rtc_by_s, "s")
        .select("start_v", F.col("end_s").alias("s"))
        .distinct()
    )
    # The tail (s, post_end) = π(SCC ⋈ Post_G): Post restricted to
    # the vertices of G_R, keyed by SCC (with Post = ε, the SCC
    # relation itself), built once per (R, Post). Joining it on s
    # stands for (9) followed by the Post join (Theorem 2's
    # associativity), so the vertex-level ResEq9 is never built. The
    # tail does not depend on res_eq8: narrowing it to the SCCs res_eq8
    # reaches would re-run eqs (7)–(8) and still scan every Post edge.
    out = res_eq8.join(rtc.tail(graph, post), "s").select(*PAIR_COLS)
    # With kind + and Post = ε, out needs no duplicate check — useless-2
    # elimination: SCC vertex sets are mutually disjoint and res_eq8 is
    # distinct.
    return _finish(graph, out, pre_g, kind, post)


def eval_batch_unit_full(
    graph: LabeledGraph,
    pre_g: DataFrame | None,
    r_plus: RPlus,
    kind: str,
    post: Regex,
) -> DataFrame:
    """FullSharing batch unit: plain ``Pre_G ⋈ R+_G`` at the vertex-pair
    level — the unoptimized pipeline of [8] used as the baseline —
    extended through Post in the same plan."""
    if pre_g is None:
        joined = r_plus.pairs
    else:
        joined = (
            pre_g.join(r_plus.by_start, "end_v")
            .select("start_v", F.col("plus_end_v").alias("end_v"))
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
        # Zero iterations of R: (Pre·Post)_G at vertex level. With
        # Pre = ε that is Post_G itself, from every vertex; the identity
        # over V is built only when Post = ε too.
        out = out.union(extend_pairs(graph, pre_g, post))
    if kind == "*" or not isinstance(post, Epsilon):
        out = out.distinct()
    return out
