"""Tests for table-row builders and sweep (de)serialization (repro.tables)."""
import json
from dataclasses import asdict

import pytest

from repro.experiments import DatasetResult, MethodRun, SizeResult
from repro.graph.generators import DATASETS
from repro.tables import (
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE8,
    as_dicts,
    table5_rows,
    table6_rows,
    table7_rows,
    table8_rows,
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


def fake_exp1():
    return [
        {
            "dataset": name,
            "stats": {"degree_per_label": deg},
            "runs": {
                "Full": fake_run("Full", scale=2.0),
                "RTC": fake_run("RTC"),
                "No": fake_run("No", scale=3.0),
            },
        }
        for name, deg in [
            ("yago2s_lite", 0.02),
            ("robots_lite", 0.52),
            ("advogato_lite", 2.61),
            ("youtube_lite", 11.42),
        ]
    ]


def fake_exp2():
    return [
        {
            "n_rpqs": n,
            "runs": {
                "Full": fake_run("Full", n, 2.0),
                "RTC": fake_run("RTC", n),
                "No": fake_run("No", n, 3.0),
            },
        }
        for n in (1, 2, 4, 6, 8, 10)
    ]


class TestRowBuilders:
    def test_table5(self):
        rows = table5_rows(fake_exp1())
        assert len(rows) == 4
        assert rows[0]["Shared F/R"] == "2.00"
        # Paper ratio for advogato shared data is ~170x.
        adv = next(r for r in rows if r["dataset"] == "advogato_lite")
        assert float(adv["paper F/R"]) == pytest.approx(170.22, abs=0.5)

    def test_table6(self):
        rows = table6_rows(fake_exp1())
        assert all(r["Full/RTC"] == "2.00" for r in rows)
        assert all(r["No/RTC"] == "3.00" for r in rows)
        yt = next(r for r in rows if r["dataset"] == "youtube_lite")
        assert float(yt["paper Full/RTC"]) == pytest.approx(3.72, abs=0.01)

    def test_table7(self):
        rows = table7_rows(fake_exp2())
        assert [r["#RPQs"] for r in rows] == [1, 2, 4, 6, 8, 10]
        assert all(r["Shared F/R"] == "2.00" for r in rows)

    def test_table8(self):
        rows = table8_rows(fake_exp2())
        one = next(r for r in rows if r["#RPQs"] == 1)
        assert float(one["paper Full/RTC"]) == pytest.approx(8.86, abs=0.01)


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
        spec = DATASETS["robots_lite"]
        runs = {"RTC": asdict(run)}
        exp1 = [{"dataset": spec.name, "stats": {}, "runs": runs}]
        exp2 = [{"n_rpqs": 4, "runs": runs}]
        live1 = as_dicts([DatasetResult(spec, {}, {"RTC": run})])
        live2 = as_dicts([SizeResult(4, {"RTC": run})])
        assert (live1, live2) == (exp1, exp2)
        p = tmp_path / "exp.json"
        for payload in (exp1, live1, live2):
            p.write_text(json.dumps(payload, indent=2))
            assert json.loads(p.read_text()) == payload
