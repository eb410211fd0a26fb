"""Benchmark workloads: a seeded graph plus path-sampled RPQ sets.

Every label in every query is read off a path that exists in the graph
(``PathSampler``), so ``Pre.(R)+.Post`` always has at least one answer
by construction; ``build`` still computes each query's answer with
``repro.pyref.eval_rpq_python`` and rejects any query whose answer is
empty. Graphs come from ``repro.graph.generators.labeled_multigraph``
with the parameters of the Table-IV substitute each workload imitates,
scaled so that one run fits the benchmark's time budget.

A *round* is the list of RPQ sets one seed produces. The runner replays
the same round until its time is up, each set with a fresh evaluator,
so every round does identical work and per-round counters repeat.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.graph.generators import labeled_multigraph
from repro.graph.model import LabeledGraph
from repro.pyref import eval_rpq_python
from repro.rpq.parser import parse

Triple = tuple[int, str, int]


class PathSampler:
    """Draws label sequences that occur on real paths of a graph."""

    def __init__(self, triples: list[Triple]):
        self.edges = triples
        self.out: dict[int, list[Triple]] = {}
        self.inc: dict[int, list[Triple]] = {}
        self.by_label: dict[str, list[Triple]] = {}
        for e in triples:
            self.out.setdefault(e[0], []).append(e)
            self.inc.setdefault(e[2], []).append(e)
            self.by_label.setdefault(e[1], []).append(e)

    def walk(self, rng: random.Random, labels: list[str | None]) -> list[Triple] | None:
        """A path whose i-th edge has label ``labels[i]`` (``None``: any
        label), started from a uniform edge; ``None`` on a dead end."""
        first = self.by_label[labels[0]] if labels[0] else self.edges
        path = [rng.choice(first)]
        for lab in labels[1:]:
            nxt = [e for e in self.out.get(path[-1][2], []) if lab in (None, e[1])]
            if not nxt:
                return None
            path.append(rng.choice(nxt))
        return path

    def sample(self, rng: random.Random, labels: list[str | None]) -> list[Triple]:
        for _ in range(10_000):
            path = self.walk(rng, labels)
            if path is not None:
                return path
        raise RuntimeError(f"no path with labels {labels}")

    def framed(self, rng: random.Random, r: str) -> tuple[str, str]:
        """``(pre, post)``: the labels of one edge into and one edge out
        of an ``r`` edge."""
        for _ in range(10_000):
            src, _, dst = self.sample(rng, [r])[0]
            ins, outs = self.inc.get(src), self.out.get(dst)
            if ins and outs:
                return rng.choice(ins)[1], rng.choice(outs)[1]
        raise RuntimeError(f"no framed {r} edge")


def reuse_set(ps: PathSampler, rng: random.Random) -> list[list[str]]:
    """One set of six ``Pre.(R)+.Post`` sharing one single-label ``R``."""
    r = ps.sample(rng, [None])[0][1]
    queries: list[str] = []
    for _ in range(600):
        pre, post = ps.framed(rng, r)
        q = f"{pre}.({r})+.{post}"
        if q not in queries:
            queries.append(q)
        if len(queries) == 6:
            break
    return [queries]


def shape_set(ps: PathSampler, rng: random.Random) -> list[list[str]]:
    """One set covering every batch-unit shape the grammar accepts.

    The closure bodies use the labels of frequency rank 3 (``R``) and
    4, 5 (``x|y``): on Zipf labels a random rank moves the closure's
    depth, and the round's cost, several-fold between seeds, and rank 1
    made a round too long for one run. ``a``/``b`` end where an ``R``
    edge starts, ``p`` follows one and ``z`` follows an ``x`` edge, so
    every answer is non-empty. The five clauses over ``R`` share one
    structure; ``(x|y)+.z`` brings a multi-clause one.
    """
    ranked = sorted(ps.by_label, key=lambda lab: (-len(ps.by_label[lab]), lab))
    r, x, y = ranked[2:5]
    a, p = ps.framed(rng, r)
    for _ in range(100):  # a distinct b, so that (a|b) is a real union
        b, _ = ps.framed(rng, r)
        if b != a:
            break
    z = ps.sample(rng, [x, None])[1][1]
    return [
        [
            f"{a}.({r})+.{p}",
            f"({r})*.{p}",
            f"({r})+",
            f"({a}|{b}).({r})+",
            f"({x}|{y})+.{z}",
            f"{a}.({r})+.({r})*",
        ]
    ]


@dataclass(frozen=True)
class Workload:
    graph: dict[str, object]
    make_sets: Callable[[PathSampler, random.Random], list[list[str]]]


WORKLOADS: dict[str, Workload] = {
    # youtube-like (the densest Table-IV graph): G_R is one giant SCC of
    # small diameter, so |RTC| << |R+_G| and the SCC/closure round counts
    # barely move across seeds; 5 of 6 RPQs reuse the shared structure.
    "dense-reuse": Workload(
        dict(n_vertices=120, n_labels=5, degree_per_label=11.42, reciprocity=0.5),
        make_sets=reuse_set,
    ),
    # yago-like DAG with Zipf labels: SCCs are singletons, so reduction
    # cannot help; the only workload with DNF unions, R*, Pre = eps and
    # SCC by trim alone.
    "kb-mixed": Workload(
        dict(
            n_vertices=5_000,
            n_labels=104,
            degree_per_label=0.02,
            forward_bias=True,
            label_skew=1.0,
        ),
        make_sets=shape_set,
    ),
}


@dataclass
class Instance:
    """A workload made concrete for one seed."""

    graph: LabeledGraph
    sets: list[list[str]]
    answers: dict[str, set[tuple[int, int]]]


def build(spark, workload: Workload, seed: int) -> Instance:
    """Graph, query sets and oracle answers for ``seed``.

    Redraws the query sets, up to 100 times, until every answer is
    non-empty.
    """
    graph = labeled_multigraph(spark, seed=seed, **workload.graph)
    graph.edges = graph.edges.localCheckpoint(eager=True)
    # Sorted: Spark's collect order is not part of the seed's contract.
    triples = sorted(graph.triples())
    ps = PathSampler(triples)
    rng = random.Random(seed)
    for _ in range(100):
        sets = workload.make_sets(ps, rng)
        answers = {
            q: eval_rpq_python(triples, parse(q)) for s in sets for q in s
        }
        if all(answers.values()):
            return Instance(graph, sets, answers)
    raise RuntimeError(f"seed {seed}: no query sets with non-empty answers")
