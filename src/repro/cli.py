"""The experiment entrypoint: ``python -m repro.cli table {4,5,6,7,8}``.

Tables IV/V/VI read the Experiment-1 sweep and Tables VII/VIII the
Experiment-2 sweep. Each sweep is cached as ``results/exp{1,2}.json``
and runs only when its file is missing or ``--fresh`` is given;
``--sets N`` is the number of multiple-RPQ sets per R length of a sweep
that runs. Spark starts only for a sweep that runs.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from functools import partial
from pathlib import Path

from repro.experiments import format_table, sweep
from repro.graph.generators import DATASETS
from repro.session import spark_session
from repro.tables import (
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE8,
    phase_rows,
    response_rows,
    stats_rows,
)

RESULTS = Path(__file__).resolve().parents[2] / "results"
SHUFFLE_PARTITIONS = 16  # what results/exp{1,2}.json were produced with

# Experiment 1: every dataset at 4 RPQs per set, R lengths 1–3.
# Experiment 2: advogato_lite as #RPQs varies, R length 2 only: the
# sweep multiplies the per-set cost by sum(rpq_counts) = 31, and No pays
# a full closure per query.
SWEEPS = {
    "exp1": lambda spark, sets: [
        point
        for spec in DATASETS.values()
        for point in sweep(spark, spec, (4,), (1, 2, 3), sets)
    ],
    "exp2": lambda spark, sets: sweep(
        spark, DATASETS["advogato_lite"], (1, 2, 4, 6, 8, 10), (2,), sets
    ),
}

TABLES = {
    4: (
        "exp1",
        stats_rows,
        "TABLE IV: Statistics of datasets (built vs paper).",
    ),
    5: (
        "exp1",
        partial(phase_rows, key="dataset", paper=PAPER_TABLE5),
        "TABLE V: Computation time of three parts, Full vs RTC "
        "(#RPQs = 4; paper ratios alongside).",
    ),
    6: (
        "exp1",
        partial(response_rows, key="dataset", paper=PAPER_TABLE6),
        "TABLE VI: Query response time (#RPQs = 4; paper ratios "
        "alongside). Also reports shared-data sizes (Fig. 11).",
    ),
    7: (
        "exp2",
        partial(phase_rows, key="#RPQs", paper=PAPER_TABLE7),
        "TABLE VII: Computation time of three parts vs #RPQs "
        "(advogato_lite; paper ratios alongside).",
    ),
    8: (
        "exp2",
        partial(response_rows, key="#RPQs", paper=PAPER_TABLE8),
        "TABLE VIII: Query response time vs #RPQs (advogato_lite; "
        "paper ratios alongside).",
    ),
}


def cached_sweep(name: str, fresh: bool, sets: int) -> list[dict]:
    """The sweep ``name`` as dicts, run and saved first if need be."""
    path = RESULTS / f"{name}.json"
    if fresh or not path.exists():
        spark = spark_session(name, SHUFFLE_PARTITIONS)
        try:
            points = SWEEPS[name](spark, sets)
        finally:
            spark.stop()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(p) for p in points], indent=2))
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="python -m repro.cli")
    sub = ap.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", help="print one of Tables IV-VIII")
    table.add_argument("n", type=int, choices=list(TABLES))
    table.add_argument(
        "--fresh", action="store_true", help="rerun the sweep if cached"
    )
    table.add_argument(
        "--sets", type=int, default=1, help="RPQ sets per R length"
    )
    args = ap.parse_args(argv)

    sweep_name, table_rows, title = TABLES[args.n]
    points = cached_sweep(sweep_name, args.fresh, args.sets)
    print(format_table(table_rows(points), title))


if __name__ == "__main__":
    main()
