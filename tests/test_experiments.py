"""Tests for the experiment harness (repro.experiments) on a tiny graph."""
import json
from dataclasses import asdict
from functools import partial

import pytest

from repro.experiments import (
    METHODS,
    format_table,
    run_method,
    sweep,
    weighted_workload,
)
from repro.graph.generators import DATASETS, DatasetSpec
from repro.graph.model import LabeledGraph
from repro.tables import phase_rows, response_rows, stats_rows
from tests.helpers import PAPER_EDGES


@pytest.fixture(scope="module")
def graph(spark):
    g = LabeledGraph.from_triples(spark, PAPER_EDGES)
    return LabeledGraph(edges=g.edges.localCheckpoint(eager=True))


QUERIES = ("d.(b.c)+.c", "e.(b.c)+.c")


class TestRunMethod:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_runs_and_reports(self, graph, method):
        r = run_method(graph, method, QUERIES)
        assert r.method == method
        assert r.n_rpqs == 2
        assert r.response_ms > 0
        # The three phases never exceed the wall clock they are part of.
        assert (
            r.shared_data_ms + r.pre_join_ms + r.remainder_ms
            <= r.response_ms * 1.05
        )

    def test_methods_agree_on_result_rows(self, graph):
        counts = {
            m: run_method(graph, m, QUERIES).result_rows for m in METHODS
        }
        assert len(set(counts.values())) == 1, counts

    def test_rtc_shared_size_leq_full(self, graph):
        rtc = run_method(graph, "RTC", QUERIES)
        full = run_method(graph, "Full", QUERIES)
        no = run_method(graph, "No", QUERIES)
        assert 0 < rtc.shared_size <= full.shared_size
        assert no.shared_size == 0


class TestWeightedWorkload:
    def test_shapes(self, graph):
        sets = weighted_workload(
            graph, sets_per_length=1, max_rpqs_per_set=3
        )
        assert len(sets) == 3
        assert all(len(s.queries) == 3 for s in sets)

    def test_labels_come_from_graph(self, graph):
        labels = {"b", "c", "d", "e"}
        for s in weighted_workload(
            graph, sets_per_length=2, max_rpqs_per_set=2
        ):
            assert set(s.r_text.split(".")) <= labels


TINY = DatasetSpec(
    name="tiny",
    n_vertices=24,
    n_labels=2,
    degree_per_label=1.5,
    reciprocity=0.4,
    forward_bias=False,
    label_skew=0.0,
    seed=3,
    paper_n_vertices=24,
    paper_n_edges=72,
    paper_n_labels=2,
    paper_degree=1.5,
)


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self, spark):
        return sweep(spark, TINY, (1, 2), (1,), 1)

    def test_one_record_per_rpq_count(self, points):
        assert [p.dataset for p in points] == ["tiny", "tiny"]
        assert [
            {run.n_rpqs for run in p.runs.values()} for p in points
        ] == [{1}, {2}]
        assert all(list(p.runs) == list(METHODS) for p in points)
        assert points[0].stats["n_labels"] == 2

    def test_methods_agree_and_no_shares_nothing(self, points):
        for p in points:
            rows = {m: run.result_rows for m, run in p.runs.items()}
            assert len(set(rows.values())) == 1 and rows["RTC"] > 0, rows
            assert p.runs["No"].shared_size == 0

    def test_json_records_feed_every_table(self, points, monkeypatch):
        monkeypatch.setitem(DATASETS, TINY.name, TINY)
        records = json.loads(json.dumps([asdict(p) for p in points]))
        builders = [
            stats_rows,
            partial(phase_rows, key="dataset", paper={}),
            partial(response_rows, key="dataset", paper={}),
            partial(phase_rows, key="#RPQs", paper={}),
            partial(response_rows, key="#RPQs", paper={}),
        ]
        for build in builders:
            rows = build(records)
            assert len(rows) == 2
            format_table(rows, "T")
        by_n = response_rows(records, key="#RPQs", paper={})
        assert [r["#RPQs"] for r in by_n] == [1, 2]
        assert by_n[0]["paper Full/RTC"] == "-"


class TestReporting:
    def test_format_table(self):
        out = format_table(
            [{"a": 1, "bb": "x"}, {"a": 22, "bb": "y"}], "T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], "T")
