"""The experiment entrypoint: ``python -m repro.cli table {4,5,6,7,8}``.

Tables V/VI read the Experiment-1 sweep and Tables VII/VIII the
Experiment-2 sweep. Each sweep is cached as ``results/exp{1,2}.json``
and runs only when its file is missing or ``--fresh`` is given;
``--sets N`` is the number of multiple-RPQ sets per R length of a sweep
that runs. Spark starts only for Table IV or a sweep that runs.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments import (
    dataset_stats,
    format_table,
    run_experiment1,
    run_experiment2,
)
from repro.session import spark_session
from repro.tables import (
    as_dicts,
    table5_rows,
    table6_rows,
    table7_rows,
    table8_rows,
)

RESULTS = Path(__file__).resolve().parents[2] / "results"
SHUFFLE_PARTITIONS = 16  # what results/exp{1,2}.json were produced with

SWEEPS = {
    "exp1": lambda spark, sets: run_experiment1(
        spark, n_rpqs=4, sets_per_length=sets
    ),
    "exp2": lambda spark, sets: run_experiment2(spark, sets_per_length=sets),
}

TABLES = {
    5: (
        "exp1",
        table5_rows,
        "TABLE V: Computation time of three parts, Full vs RTC "
        "(#RPQs = 4; paper ratios alongside).",
    ),
    6: (
        "exp1",
        table6_rows,
        "TABLE VI: Query response time (#RPQs = 4; paper ratios "
        "alongside). Also reports shared-data sizes (Fig. 11).",
    ),
    7: (
        "exp2",
        table7_rows,
        "TABLE VII: Computation time of three parts vs #RPQs "
        "(advogato_lite; paper Shared ratios alongside).",
    ),
    8: (
        "exp2",
        table8_rows,
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
            results = SWEEPS[name](spark, sets)
        finally:
            spark.stop()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(as_dicts(results), indent=2))
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="python -m repro.cli")
    sub = ap.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", help="print one of Tables IV-VIII")
    table.add_argument("n", type=int, choices=[4, *TABLES])
    table.add_argument(
        "--fresh", action="store_true", help="rerun the sweep if cached"
    )
    table.add_argument(
        "--sets", type=int, default=1, help="RPQ sets per R length"
    )
    args = ap.parse_args(argv)

    if args.n == 4:
        spark = spark_session("table4", SHUFFLE_PARTITIONS)
        try:
            rows = dataset_stats(spark)
        finally:
            spark.stop()
        title = "TABLE IV: Statistics of datasets (built vs paper)."
        print(format_table(rows, title))
        return
    sweep, table_rows, title = TABLES[args.n]
    exp = cached_sweep(sweep, args.fresh, args.sets)
    print(format_table(table_rows(exp), title))


if __name__ == "__main__":
    main()
