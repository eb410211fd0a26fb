"""Tests for the experiment entrypoint (repro.cli).

The sweeps themselves are exercised by ``tests/test_experiments.py``;
here every table prints from a cached sweep without starting Spark, a
missing or ``--fresh`` sweep runs and is cached, and the parser only
accepts the paper's tables.
"""
import json

import pytest

from repro import cli
from repro.experiments import MethodRun, SweepPoint
from repro.graph.generators import DATASETS


STATS = {
    "n_vertices": 10,
    "n_edges": 20,
    "n_labels": 2,
    "degree_per_label": 1.0,
}


def _fake_runs(scale, n_rpqs=4):
    return {
        m: {
            "method": m,
            "n_rpqs": n_rpqs,
            "shared_data_ms": 10.0 * s,
            "pre_join_ms": 5.0 * s,
            "remainder_ms": 2.0 * s,
            "response_ms": 17.0 * s,
            "shared_size": 7,
            "result_rows": 3,
        }
        for m, s in [("Full", scale), ("RTC", 1.0), ("No", 2 * scale)]
    }


EXP1 = [
    {"dataset": name, "stats": STATS, "runs": _fake_runs(2.0)}
    for name in DATASETS
]
EXP2 = [
    {"dataset": "advogato_lite", "stats": STATS, "runs": _fake_runs(2.0, n)}
    for n in (1, 2, 4)
]


@pytest.fixture
def results(tmp_path, monkeypatch):
    """A results directory holding both sweeps; starting Spark fails."""
    (tmp_path / "exp1.json").write_text(json.dumps(EXP1))
    (tmp_path / "exp2.json").write_text(json.dumps(EXP2))
    monkeypatch.setattr(cli, "RESULTS", tmp_path)

    def no_spark(*args, **kwargs):
        raise AssertionError("a cached table started Spark")

    monkeypatch.setattr(cli, "spark_session", no_spark)
    return tmp_path


def test_table4_prints_from_cached_json(results, capsys):
    cli.main(["table", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("TABLE IV:") and len(lines) == 3 + len(DATASETS)
    assert "paper_n_edges" in lines[1] and "youtube_lite" in lines[-1]


def test_table5_and_6_print_from_cached_json(results, capsys):
    cli.main(["table", "5"])
    out = capsys.readouterr().out
    assert out.startswith("TABLE V:") and "advogato_lite" in out
    cli.main(["table", "6"])
    out = capsys.readouterr().out
    assert out.startswith("TABLE VI:") and "Full/RTC" in out


def test_table7_and_8_print_from_cached_json(results, capsys):
    cli.main(["table", "7"])
    out = capsys.readouterr().out
    assert out.startswith("TABLE VII:") and "Shared F/R" in out
    cli.main(["table", "8"])
    out = capsys.readouterr().out
    assert out.startswith("TABLE VIII:") and "No/RTC" in out


@pytest.mark.parametrize("missing", [False, True])
def test_fresh_or_missing_sweep_runs_and_is_cached(
    results, capsys, monkeypatch, missing
):
    class FakeSpark:
        stopped = False

        def stop(self):
            FakeSpark.stopped = True

    run = MethodRun("RTC", 10, 1.0, 2.0, 3.0, 6.0, 5, 9)
    runs = {m: run for m in ("Full", "RTC", "No")}
    sweep = [SweepPoint("advogato_lite", STATS, runs)]
    monkeypatch.setattr(cli, "spark_session", lambda app, n: FakeSpark())
    sets_run = []
    monkeypatch.setitem(
        cli.SWEEPS, "exp2", lambda spark, sets: sets_run.append(sets) or sweep
    )
    if missing:
        (results / "exp2.json").unlink()
        cli.main(["table", "8", "--sets", "2"])
    else:
        cli.main(["table", "8", "--fresh", "--sets", "2"])

    assert sets_run == [2] and FakeSpark.stopped
    cached = json.loads((results / "exp2.json").read_text())
    assert cached[0]["runs"]["RTC"]["n_rpqs"] == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("TABLE VIII:") and len(lines) == 4


def test_parser_rejects_unknown_table(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "9"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
