"""Shared test helpers: paper example graph, SQL builders, edge gens."""
from __future__ import annotations

import itertools
import random
import re
from unittest import mock

import pandas as pd
from pyspark.sql.classic.dataframe import DataFrame

from repro.graph.generators import labeled_multigraph
from repro.pyref import Edge

# Engineered so that G_{b.c} has exactly the Fig. 5 edge set
# {(2,4),(2,6),(3,5),(4,2),(5,3)} — the paper's running example. The d/e
# edges support Pre/Post-style batch-unit queries around (b.c)+.
PAPER_EDGES: list[Edge] = [
    (2, "b", 1),
    (3, "b", 8),
    (4, "b", 9),
    (5, "b", 10),
    (1, "c", 4),
    (1, "c", 6),
    (8, "c", 5),
    (9, "c", 2),
    (10, "c", 3),
    (7, "d", 4),
    (7, "d", 2),
    (6, "e", 7),
    (4, "e", 11),
]

# Every SCC of G_a is a singleton: 1..4 on a chain, 1 and 2 with
# self-loops. b and c edges frame (a)+ on both sides.
SELF_LOOP_EDGES: list[Edge] = [
    (1, "a", 1),
    (1, "a", 2),
    (2, "a", 2),
    (2, "a", 3),
    (3, "a", 4),
    (0, "b", 1),
    (5, "b", 2),
    (0, "b", 3),
    (2, "c", 6),
    (4, "c", 7),
    (1, "c", 8),
]
# G_a has the one 2-cycle {1, 2} among the singletons 3, 4 and 5.
TWO_CYCLE_EDGES: list[Edge] = [
    (1, "a", 2),
    (2, "a", 1),
    (2, "a", 3),
    (3, "a", 4),
    (5, "a", 4),
    (0, "b", 1),
    (0, "b", 5),
    (6, "b", 3),
    (2, "c", 7),
    (4, "c", 8),
    (3, "c", 1),
]


def forward_dag_edges(spark) -> list[Edge]:
    """A small forward-ordered ``labeled_multigraph`` (labels l0..l3):
    every ``G_R`` over it is acyclic, so each SCC is a singleton with no
    self-loop."""
    graph = labeled_multigraph(
        spark,
        n_vertices=24,
        n_labels=4,
        degree_per_label=1.5,
        forward_bias=True,
        seed=5,
    )
    return sorted(graph.triples())


def random_labeled_edges(
    *, n_vertices: int, n_edges: int, labels: str, seed: int
) -> list[Edge]:
    """Deterministic random edge list for differential tests."""
    rng = random.Random(seed)
    out = set()
    while len(out) < n_edges:
        s = rng.randrange(n_vertices)
        d = rng.randrange(n_vertices)
        out.add((s, rng.choice(labels), d))
    return sorted(out)


def edges_pdf(edges: list[Edge]) -> pd.DataFrame:
    """Edge list as pandas, for registering with the DuckDB oracle."""
    return pd.DataFrame(edges, columns=["src", "label", "dst"])


def batch_unit_sql(
    pre: list[str], r: list[str], kind: str | None, post: list[str]
) -> str:
    """DuckDB SQL evaluating ``Pre · R{kind} · Post`` over table ``edges``.

    ``pre``/``r``/``post`` are label sequences (concatenations); ``kind``
    is '+', '*' or None (no closure: the query is just pre+post labels).
    Uses a recursive CTE for the Kleene closure — an implementation
    completely independent of the Spark pipelines under test.
    """

    def chain(labels: list[str], name: str) -> str:
        # (start_v, end_v) pairs for a label concatenation.
        if not labels:
            raise ValueError("empty chain")
        froms = ", ".join(f"edges e{i}" for i in range(len(labels)))
        conds = [
            f"e{i}.label = '{lab}'" for i, lab in enumerate(labels)
        ] + [
            f"e{i}.dst = e{i + 1}.src" for i in range(len(labels) - 1)
        ]
        last = len(labels) - 1
        return (
            f"{name} AS (SELECT DISTINCT e0.src AS s, e{last}.dst AS d "
            f"FROM {froms} WHERE {' AND '.join(conds)})"
        )

    if kind is None:
        seq = pre + r + post
        return (
            f"WITH {chain(seq, 'p')} "
            "SELECT s AS start_v, d AS end_v FROM p"
        )

    ctes = [chain(r, "r")]
    ctes.append(
        "tc AS (SELECT s, d FROM r UNION "
        "SELECT tc.s, r.d FROM tc JOIN r ON tc.d = r.s)"
    )
    ctes.append(
        "verts AS (SELECT src AS v FROM edges UNION SELECT dst FROM edges)"
    )
    if kind == "*":
        ctes.append(
            "clo AS (SELECT s, d FROM tc UNION SELECT v, v FROM verts)"
        )
    else:
        ctes.append("clo AS (SELECT s, d FROM tc)")
    if pre:
        ctes.append(chain(pre, "pre"))
        core = (
            "SELECT pre.s AS s, clo.d AS d FROM pre "
            "JOIN clo ON pre.d = clo.s"
        )
        if kind == "*":
            core += " UNION SELECT s, d FROM pre"
    else:
        core = "SELECT s, d FROM clo"
    ctes.append(f"core AS ({core})")
    if post:
        ctes.append(chain(post, "post"))
        final = (
            "SELECT DISTINCT core.s AS start_v, post.d AS end_v "
            "FROM core JOIN post ON core.d = post.s"
        )
    else:
        final = "SELECT DISTINCT s AS start_v, d AS end_v FROM core"
    return "WITH RECURSIVE " + ", ".join(ctes) + " " + final


def _chords(seed):
    rng = random.Random(seed)
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    return cycle + [(rng.randrange(12), rng.randrange(12)) for _ in range(8)]


def _random(seed):
    rng = random.Random(seed)
    return [(rng.randrange(12), rng.randrange(12)) for _ in range(20)]


# R_G edge sets on which both shared structures are built on the driver
# and by the distributed fallback.
R_G_GRAPHS = {
    "example5": [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)],
    **{f"random{seed}": _random(seed) for seed in range(3)},
    "giant_scc": _chords(7),
    "dag_chain": [(i, i + 1) for i in range(8)],
    "self_loops_only": [(v, v) for v in range(5)],
    "empty": [],
}


def r_g_frame(spark, edges):
    """An ``R_G`` DataFrame of ``(start_v, end_v)`` pairs."""
    return spark.createDataFrame(
        pd.DataFrame(edges, columns=["start_v", "end_v"]),
        "start_v long, end_v long",
    )


_JOB_GROUPS = itertools.count()


def spark_jobs(spark, fn) -> int:
    """Spark jobs that ``fn()`` runs, counted through a job group of its
    own (the status tracker keeps a group's jobs after it ends)."""
    sc = spark.sparkContext
    group = f"test-spark-jobs-{next(_JOB_GROUPS)}"
    sc.setJobGroup(group, "counted by a test")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def dataframes_built(fn) -> int:
    """Calls of ``DataFrame.__init__`` while ``fn()`` runs: a
    deterministic measure of plan-building work. PySpark's classic
    ``DataFrame.__new__`` calls ``__init__`` itself before Python calls
    it again, so each DataFrame counts twice."""
    built = 0
    init = DataFrame.__init__

    def spy(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with mock.patch.object(DataFrame, "__init__", spy):
        fn()
    return built


def final_exchanges(df) -> list[str]:
    """The shuffle-exchange lines of ``df``'s final adaptive plan.

    ``df`` must have run (collected or checkpointed), so that adaptive
    execution has fixed its plan, which it prints before the initial
    one. Broadcast exchanges and reused exchanges shuffle nothing new
    and are not counted."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    final = plan.split("== Initial Plan ==")[0]
    return [
        line
        for line in final.splitlines()
        if re.search(r"(?<![A-Za-z])Exchange ", line)
    ]
