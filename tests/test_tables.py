"""Tests for the table-row builders (repro.tables) on sweep records."""
import json
from dataclasses import asdict

import pytest

from repro.experiments import MethodRun, SweepPoint
from repro.graph.generators import DATASETS
from repro.tables import (
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE8,
    phase_rows,
    response_rows,
    stats_rows,
)


def fake_run(method, n_rpqs=4, scale=1.0):
    return {
        "method": method,
        "n_rpqs": n_rpqs,
        "shared_data_ms": 100.0 * scale,
        "pre_join_ms": 50.0 * scale,
        "remainder_ms": 25.0 * scale,
        "response_ms": 175.0 * scale,
        "shared_size": 1000,
        "result_rows": 10,
    }


def fake_point(dataset, deg, n_rpqs=4):
    return {
        "dataset": dataset,
        "stats": {
            "n_vertices": 100,
            "n_edges": 300,
            "n_labels": 3,
            "degree_per_label": deg,
        },
        "runs": {
            "Full": fake_run("Full", n_rpqs, 2.0),
            "RTC": fake_run("RTC", n_rpqs),
            "No": fake_run("No", n_rpqs, 3.0),
        },
    }


def fake_exp1():
    return [
        fake_point(name, deg)
        for name, deg in [
            ("yago2s_lite", 0.02),
            ("robots_lite", 0.52),
            ("advogato_lite", 2.61),
            ("youtube_lite", 11.42),
        ]
    ]


def fake_exp2():
    return [fake_point("advogato_lite", 2.61, n) for n in (1, 2, 4, 6, 8, 10)]


class TestRowBuilders:
    def test_table4(self):
        rows = stats_rows(fake_exp1())
        assert [r["dataset"] for r in rows] == list(DATASETS)
        adv = rows[2]
        assert (adv["n_vertices"], adv["degree_per_label"]) == (100, 2.61)
        assert adv["paper_n_edges"] == DATASETS["advogato_lite"].paper_n_edges

    def test_table5(self):
        rows = phase_rows(fake_exp1(), key="dataset", paper=PAPER_TABLE5)
        assert len(rows) == 4
        assert rows[0]["Shared F/R"] == "2.00"
        # Paper ratio for advogato shared data is ~170x.
        adv = next(r for r in rows if r["dataset"] == "advogato_lite")
        assert float(adv["paper Shared F/R"]) == pytest.approx(170.22, abs=0.5)
        assert adv["paper PreJoin F/R"] == "3.10"
        assert adv["paper Rem F/R"] == "1.05"

    def test_table6(self):
        rows = response_rows(fake_exp1(), key="dataset", paper=PAPER_TABLE6)
        assert all(r["Full/RTC"] == "2.00" for r in rows)
        assert all(r["No/RTC"] == "3.00" for r in rows)
        yt = next(r for r in rows if r["dataset"] == "youtube_lite")
        assert float(yt["paper Full/RTC"]) == pytest.approx(3.72, abs=0.01)

    def test_table7(self):
        rows = phase_rows(fake_exp2(), key="#RPQs", paper=PAPER_TABLE7)
        assert [r["#RPQs"] for r in rows] == [1, 2, 4, 6, 8, 10]
        assert all(r["Shared F/R"] == "2.00" for r in rows)
        assert all(r["Rem F/R"] == "2.00" for r in rows)
        assert rows[0]["paper PreJoin F/R"] == "3.05"
        assert "deg" not in rows[0]

    def test_table8(self):
        rows = response_rows(fake_exp2(), key="#RPQs", paper=PAPER_TABLE8)
        one = next(r for r in rows if r["#RPQs"] == 1)
        assert float(one["paper Full/RTC"]) == pytest.approx(8.86, abs=0.01)
        assert one["|shared| RTC"] == 1000

    def test_rpq_count_the_paper_lacks_prints_dash(self):
        points = [fake_point("advogato_lite", 2.61, 3)]
        phases = phase_rows(points, key="#RPQs", paper=PAPER_TABLE7)
        response = response_rows(points, key="#RPQs", paper=PAPER_TABLE8)
        assert phases[0]["paper Shared F/R"] == "-"
        assert response[0]["paper No/RTC"] == "-"


class TestPaperConstants:
    def test_table6_paper_max_speedup(self):
        """The abstract's 8.86x comes from Table VIII at #RPQs = 1."""
        assert PAPER_TABLE8[1]["full"] / PAPER_TABLE8[1]["rtc"] == (
            pytest.approx(8.86, abs=0.005)
        )

    def test_tables_cover_all_datasets(self):
        assert set(PAPER_TABLE5) == set(PAPER_TABLE6)

    def test_table7_rpq_counts(self):
        assert sorted(PAPER_TABLE7) == [1, 2, 4, 6, 8, 10]
        assert sorted(PAPER_TABLE8) == [1, 2, 4, 6, 8, 10]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        run = MethodRun("RTC", 4, 1.0, 2.0, 3.0, 6.0, 10, 20)
        stats = {"n_vertices": 5, "n_edges": 6, "n_labels": 2,
                 "degree_per_label": 0.6}
        live = [asdict(SweepPoint("robots_lite", stats, {"RTC": run}))]
        expected = [
            {
                "dataset": "robots_lite",
                "stats": stats,
                "runs": {
                    "RTC": {
                        "method": "RTC",
                        "n_rpqs": 4,
                        "shared_data_ms": 1.0,
                        "pre_join_ms": 2.0,
                        "remainder_ms": 3.0,
                        "response_ms": 6.0,
                        "shared_size": 10,
                        "result_rows": 20,
                    }
                },
            }
        ]
        assert live == expected
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(live, indent=2))
        assert json.loads(p.read_text()) == expected
