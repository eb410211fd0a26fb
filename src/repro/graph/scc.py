"""Strongly connected components: Tarjan on the driver, and a
distributed fallback over edge DataFrames.

This is the vertex-level-reduction substrate (paper Section III-B).
``tarjan_scc`` is the paper's algorithm [14]: one iterative DFS over an
edge list held in driver memory. Compute_RTC runs it whenever ``R_G``
fits the driver (``repro.core.rtc``).

``strongly_connected_components`` is the distributed equivalent for an
``R_G`` too large to collect: the classic FW-BW-Trim / *coloring*
dataflow algorithm, expressed as iterative DataFrame joins (the
GraphX-style formulation):

repeat until no vertices remain:
  1. **Trim** — peel vertices with no in-edge or no out-edge inside the
     remaining subgraph; they cannot lie on a cycle, hence are
     singleton SCCs. Iterate until stable.
  2. **Color** — propagate ``color(v) = min(v, min over in-neighbors)``
     to a fixpoint. Afterwards color(v) = min vertex that reaches v.
  3. **Backward collect** — for every root r (color(r) = r), the SCC of
     r is exactly the set of vertices with color r that reach r; found
     by reverse-BFS from all roots simultaneously, restricted to
     same-color edges. Assign, remove, repeat.

Both name an SCC by its minimum member vertex, so their assignments
compare directly.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.closure import semi_naive
from repro.graph.iterate import FixpointGuard, materialize
from repro.graph.model import union_all


def tarjan_scc(
    edges: list[tuple[int, int]],
) -> tuple[dict[int, int], list[list[int]]]:
    """Tarjan's SCC algorithm (iterative) over an edge list.

    Returns ``(comp_of, components)``: vertex -> SCC id (the minimum
    member vertex), and the member lists in the order Tarjan emits
    them. That order is reverse topological: every SCC reachable from
    a component is emitted before it.
    """
    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}
    components: list[list[int]] = []

    # Every vertex without an out-edge has an in-edge, so DFS from the
    # sources reaches it.
    for root in adj:
        if root in index:
            continue
        # Iterative Tarjan with an explicit call stack.
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                cid = min(comp)
                for w in comp:
                    comp_of[w] = cid
                components.append(comp)
    return comp_of, components


def _vertices_of(edges: DataFrame) -> DataFrame:
    return (
        edges.select(F.col("src").alias("v"))
        .union(edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def _restrict(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Edges with both endpoints in ``vertices`` (a ``(v)`` DataFrame)."""
    return edges.join(
        vertices.withColumnRenamed("v", "src"), "src", "left_semi"
    ).join(vertices.withColumnRenamed("v", "dst"), "dst", "left_semi")


def _min_color_fixpoint(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Forward min-label propagation: (v, c) with c = min vertex reaching v."""
    colors = materialize(
        vertices.select(F.col("v"), F.col("v").alias("c"))
    )
    # Colors only decrease, so the sum strictly decreases while any
    # vertex changes — a cheap fixpoint test (one aggregate per round).
    prev_sum = colors.agg(F.sum("c")).collect()[0][0]
    guard = FixpointGuard("scc min-color propagation")
    while True:
        guard.tick()
        msgs = edges.join(
            colors.withColumnRenamed("v", "src"), "src"
        ).select(F.col("dst").alias("v"), F.col("c"))
        colors = materialize(
            colors.union(msgs).groupBy("v").agg(F.min("c").alias("c"))
        )
        cur_sum = colors.agg(F.sum("c")).collect()[0][0]
        if cur_sum == prev_sum:
            return colors
        prev_sum = cur_sum


def strongly_connected_components(edges: DataFrame) -> DataFrame:
    """SCC assignment ``(v, s)`` for a ``(src, dst)`` edge DataFrame,
    over the vertices that are edge endpoints."""
    spark = edges.sparkSession
    edges = edges.select("src", "dst").distinct()
    remaining = materialize(_vertices_of(edges))
    # Self-loops never affect SCC membership; drop them from iteration.
    work = materialize(
        _restrict(edges.filter(F.col("src") != F.col("dst")), remaining)
    )
    assignments: list[DataFrame] = []
    outer = FixpointGuard("scc outer loop")

    while not remaining.isEmpty():
        outer.tick()
        # --- Trim ----------------------------------------------------
        trim_guard = FixpointGuard("scc trim")
        while True:
            trim_guard.tick()
            has_out = work.select(F.col("src").alias("v")).distinct()
            has_in = work.select(F.col("dst").alias("v")).distinct()
            core = has_out.join(has_in, "v", "left_semi")
            trimmed = remaining.join(core, "v", "left_anti")
            if trimmed.isEmpty():
                break
            assignments.append(
                materialize(trimmed.select("v", F.col("v").alias("s")))
            )
            remaining = materialize(remaining.join(core, "v", "left_semi"))
            work = materialize(_restrict(work, remaining))
        if remaining.isEmpty():
            break

        # --- Color ---------------------------------------------------
        colors = _min_color_fixpoint(work, remaining)

        # --- Backward collect from all roots simultaneously ----------
        colored = materialize(
            work.join(
                colors.select(
                    F.col("v").alias("src"), F.col("c").alias("c_src")
                ),
                "src",
            )
            .join(
                colors.select(
                    F.col("v").alias("dst"), F.col("c").alias("c_dst")
                ),
                "dst",
            )
            .filter(F.col("c_src") == F.col("c_dst"))
            .select("src", "dst", F.col("c_src").alias("c"))
        )
        roots = colors.filter(F.col("c") == F.col("v")).select("v", "c")
        reached = semi_naive(
            materialize(roots),
            lambda frontier: colored.join(
                frontier.select(F.col("v").alias("dst"), F.col("c")),
                ["dst", "c"],
            ).select(F.col("src").alias("v"), F.col("c")),
            "scc backward collect",
        )

        assignments.append(
            materialize(reached.select("v", F.col("c").alias("s")))
        )
        remaining = materialize(
            remaining.join(reached.select("v"), "v", "left_anti")
        )
        work = materialize(_restrict(work, remaining))

    return materialize(
        union_all(
            assignments, lambda: spark.createDataFrame([], "v long, s long")
        )
    )
