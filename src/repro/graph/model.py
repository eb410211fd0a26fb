"""Edge-labeled directed multigraph as a pair of DataFrames.

Schema conventions used across the whole codebase:

- labeled edges:   ``(src: long, label: string, dst: long)``
- unlabeled edges: ``(src: long, dst: long)``
- vertex pairs (RPQ results): ``(start_v: long, end_v: long)``
- SCC assignment:  ``(v: long, s: long)``
- RTC:             ``(start_s: long, end_s: long)``
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

PAIR_COLS = ("start_v", "end_v")
EDGE_COLS = ("src", "label", "dst")


@dataclass
class LabeledGraph:
    """An edge-labeled directed multigraph G = (V, E, f, Σ, l).

    ``edges`` must follow the ``(src, label, dst)`` schema. Parallel
    edges between the same pair must carry distinct labels (the data
    model of Section II-A); ``from_edges`` enforces this by dedup.

    Relations derived from ``edges`` — ``vertices``, ``labels`` and the
    per-label frames every label join reads (``label_pairs``,
    ``label_steps``) — are built once and kept; assigning ``edges``
    drops them, so they always follow the current edge set.
    """

    edges: DataFrame

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        if name == "edges":
            for derived in ("vertices", "labels", "_label_frames"):
                self.__dict__.pop(derived, None)

    @classmethod
    def from_edges(cls, edges: DataFrame) -> "LabeledGraph":
        missing = [c for c in EDGE_COLS if c not in edges.columns]
        if missing:
            raise ValueError(f"edge DataFrame missing columns {missing}")
        e = (
            edges.select(
                F.col("src").cast("long"),
                F.col("label").cast("string"),
                F.col("dst").cast("long"),
            )
            .dropna()
            .dropDuplicates(list(EDGE_COLS))
        )
        return cls(edges=e)

    @classmethod
    def from_pandas(
        cls, spark: SparkSession, pdf: pd.DataFrame
    ) -> "LabeledGraph":
        return cls.from_edges(spark.createDataFrame(pdf))

    @classmethod
    def from_triples(
        cls, spark: SparkSession, triples: list[tuple[int, str, int]]
    ) -> "LabeledGraph":
        pdf = pd.DataFrame(triples, columns=list(EDGE_COLS))
        return cls.from_pandas(spark, pdf)

    @property
    def spark(self) -> SparkSession:
        return self.edges.sparkSession

    @cached_property
    def vertices(self) -> DataFrame:
        """All vertex ids appearing as an endpoint, as ``(v: long)``."""
        return (
            self.edges.select(F.col("src").alias("v"))
            .union(self.edges.select(F.col("dst").alias("v")))
            .distinct()
        )

    @cached_property
    def labels(self) -> list[str]:
        return [
            r["label"]
            for r in self.edges.select("label").distinct().collect()
        ]

    def edges_for_label(self, label: str) -> DataFrame:
        """Unlabeled edge relation of one label, as ``(src, dst)``."""
        e = self.edges
        return e.where(e["label"] == label).select("src", "dst")

    def label_pairs(self, label: str, key: str = "start_v") -> DataFrame:
        """``label_G`` as distinct ``(start_v, end_v)`` pairs,
        hash-partitioned by ``key``: the first step of a label chain, by
        ``start_v`` where it is also the last and by ``end_v`` where a
        label join on ``end_v`` follows. Built once per label and
        key."""
        return self._label_frame(key, label)

    def label_steps(self, label: str) -> DataFrame:
        """``label_G`` as ``(end_v, next_v)``: the right side of a label
        join on ``end_v``. Built once per label."""
        return self._label_frame("steps", label)

    @cached_property
    def _label_frames(self) -> dict[tuple[str, str], DataFrame]:
        return {}

    def _label_frame(self, kind: str, label: str) -> DataFrame:
        key = (kind, label)
        if key not in self._label_frames:
            e = self.edges_for_label(label)
            if kind == "steps":
                frame = e.select(
                    F.col("src").alias("end_v"), F.col("dst").alias("next_v")
                )
            else:
                frame = dedup_pairs(
                    e.select(
                        F.col("src").alias("start_v"),
                        F.col("dst").alias("end_v"),
                    ),
                    kind,
                )
            self._label_frames[key] = frame
        return self._label_frames[key]

    def stats(self) -> dict[str, float]:
        """|V|, |E|, |Σ| and the paper's vertex degree per label."""
        n_v = self.vertices.count()
        n_e = self.edges.count()
        n_l = len(self.labels)
        return {
            "n_vertices": n_v,
            "n_edges": n_e,
            "n_labels": n_l,
            "degree_per_label": n_e / (n_v * n_l) if n_v and n_l else 0.0,
        }

    def triples(self) -> list[tuple[int, str, int]]:
        """Collect edges as python triples (driver-side oracles only)."""
        return [
            (int(r["src"]), str(r["label"]), int(r["dst"]))
            for r in self.edges.collect()
        ]


def identity_pairs(vertices: DataFrame) -> DataFrame:
    """The identity relation {(v, v)} over a vertex DataFrame ``(v)``."""
    return vertices.select(
        F.col("v").alias("start_v"), F.col("v").alias("end_v")
    )


def dedup_pairs(pairs: DataFrame, key: str | None = None) -> DataFrame:
    """Distinct rows of ``pairs``.

    With ``key``, hash-partitioned by it first, for a consumer that
    joins or groups on ``key``: every operator that keeps ``key`` and is
    not a shuffle join on another column — the broadcast joins and
    ``distinct``s of eqs (7)–(8), a join keyed on ``key``, a union with
    a branch partitioned alike — then needs no exchange of its own.
    Without, the rows are deduplicated where they are: Spark aggregates
    each partition before it shuffles, and shuffles nothing where the
    input already satisfies the distinct (a single partition, say)."""
    return pairs.distinct() if key is None else pairs.repartition(key).distinct()


def empty_pairs(spark: SparkSession) -> DataFrame:
    """An empty ``(start_v, end_v)`` DataFrame."""
    return spark.createDataFrame([], "start_v long, end_v long")


def union_all(
    parts: list[DataFrame], empty: Callable[[], DataFrame]
) -> DataFrame:
    """Left-deep bag union of ``parts``, or ``empty()`` if there are none.

    ``empty`` is called only then: even an empty DataFrame costs a
    round trip to the JVM of tens of milliseconds.
    """
    return reduce(DataFrame.union, parts) if parts else empty()
