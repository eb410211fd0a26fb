"""Table-row builders and the sweeps' JSON form for the paper tables.

Tables V and VI come from one Experiment-1 sweep, and Tables VII and
VIII from one Experiment-2 sweep, so ``repro.cli`` runs a sweep once,
caches ``as_dicts`` of it as JSON, and prints both tables from that.
Paper numbers are embedded so every printed table shows paper vs built
side by side (the diff EXPERIMENTS.md records).
"""
from __future__ import annotations

from dataclasses import asdict

from repro.experiments import DatasetResult, SizeResult

# Paper-reported numbers (ms), Tables V & VI (#RPQs = 4).
PAPER_TABLE5 = {
    "yago2s_lite": {
        "shared_full": 153.8, "shared_rtc": 200.0,
        "prejoin_full": 80.9, "prejoin_rtc": 154.9,
        "rem_full": 1359.0, "rem_rtc": 1682.3,
    },
    "robots_lite": {
        "shared_full": 5.3, "shared_rtc": 0.8,
        "prejoin_full": 6.7, "prejoin_rtc": 5.7,
        "rem_full": 7.4, "rem_rtc": 7.3,
    },
    "advogato_lite": {
        "shared_full": 7881.3, "shared_rtc": 46.3,
        "prejoin_full": 2509.9, "prejoin_rtc": 809.0,
        "rem_full": 3280.0, "rem_rtc": 3129.3,
    },
    "youtube_lite": {
        "shared_full": 2120.8, "shared_rtc": 4.3,
        "prejoin_full": 874.6, "prejoin_rtc": 86.6,
        "rem_full": 967.2, "rem_rtc": 973.4,
    },
}

PAPER_TABLE6 = {
    "yago2s_lite": {"full": 1601, "rtc": 2090, "no": 2533},
    "robots_lite": {"full": 20, "rtc": 14, "no": 25},
    "advogato_lite": {"full": 13762, "rtc": 4046, "no": 33891},
    "youtube_lite": {"full": 3963, "rtc": 1065, "no": 9304},
}

# Tables VII & VIII (Advogato, varying #RPQs).
PAPER_TABLE7 = {
    1: {"shared_full": 31528.5, "shared_rtc": 185.1,
        "prejoin_full": 2337.2, "prejoin_rtc": 766.0,
        "rem_full": 3361.8, "rem_rtc": 3193.0},
    2: {"shared_full": 15765.5, "shared_rtc": 92.4,
        "prejoin_full": 2453.4, "prejoin_rtc": 795.1,
        "rem_full": 3309.1, "rem_rtc": 3158.0},
    4: {"shared_full": 7881.3, "shared_rtc": 46.3,
        "prejoin_full": 2509.9, "prejoin_rtc": 809.0,
        "rem_full": 3280.0, "rem_rtc": 3129.3},
    6: {"shared_full": 5254.7, "shared_rtc": 30.8,
        "prejoin_full": 2514.2, "prejoin_rtc": 801.6,
        "rem_full": 3242.6, "rem_rtc": 3092.1},
    8: {"shared_full": 3942.0, "shared_rtc": 23.1,
        "prejoin_full": 2504.6, "prejoin_rtc": 803.6,
        "rem_full": 3219.1, "rem_rtc": 3064.5},
    10: {"shared_full": 3167.7, "shared_rtc": 18.4,
        "prejoin_full": 2500.9, "prejoin_rtc": 803.1,
        "rem_full": 3205.8, "rem_rtc": 3034.6},
}

PAPER_TABLE8 = {
    1: {"full": 37326, "rtc": 4212, "no": 33575},
    2: {"full": 21620, "rtc": 4109, "no": 34171},
    4: {"full": 13762, "rtc": 4046, "no": 33891},
    6: {"full": 11098, "rtc": 3983, "no": 34101},
    8: {"full": 9756, "rtc": 3951, "no": 33988},
    10: {"full": 8691, "rtc": 3916, "no": 33689},
}


def as_dicts(results: list[DatasetResult] | list[SizeResult]) -> list[dict]:
    """A sweep as the JSON-ready dicts that ``results/exp{1,2}.json`` hold
    and the row builders below read."""
    out = []
    for r in results:
        if isinstance(r, DatasetResult):
            head = {"dataset": r.spec.name, "stats": r.stats}
        else:
            head = {"n_rpqs": r.n_rpqs}
        runs = {m: asdict(run) for m, run in r.runs.items()}
        out.append({**head, "runs": runs})
    return out


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.2f}" if b else "inf"


def table5_rows(exp1: list[dict]) -> list[dict]:
    rows = []
    for r in exp1:
        full, rtc = r["runs"]["Full"], r["runs"]["RTC"]
        paper = PAPER_TABLE5[r["dataset"]]
        rows.append(
            {
                "dataset": r["dataset"],
                "deg": round(r["stats"]["degree_per_label"], 2),
                "Shared_Full(ms)": round(full["shared_data_ms"], 1),
                "Shared_RTC(ms)": round(rtc["shared_data_ms"], 1),
                "Shared F/R": _ratio(
                    full["shared_data_ms"], rtc["shared_data_ms"]
                ),
                "paper F/R": _ratio(
                    paper["shared_full"], paper["shared_rtc"]
                ),
                "PreJoin_Full(ms)": round(full["pre_join_ms"], 1),
                "PreJoin_RTC(ms)": round(rtc["pre_join_ms"], 1),
                "PreJoin F/R": _ratio(
                    full["pre_join_ms"], rtc["pre_join_ms"]
                ),
                "paper F/R ": _ratio(
                    paper["prejoin_full"], paper["prejoin_rtc"]
                ),
                "Rem_Full(ms)": round(full["remainder_ms"], 1),
                "Rem_RTC(ms)": round(rtc["remainder_ms"], 1),
                "Rem F/R": _ratio(
                    full["remainder_ms"], rtc["remainder_ms"]
                ),
                "paper F/R  ": _ratio(paper["rem_full"], paper["rem_rtc"]),
            }
        )
    return rows


def table6_rows(exp1: list[dict]) -> list[dict]:
    rows = []
    for r in exp1:
        runs = r["runs"]
        paper = PAPER_TABLE6[r["dataset"]]
        rows.append(
            {
                "dataset": r["dataset"],
                "deg": round(r["stats"]["degree_per_label"], 2),
                "Full(ms)": round(runs["Full"]["response_ms"]),
                "RTC(ms)": round(runs["RTC"]["response_ms"]),
                "No(ms)": round(runs["No"]["response_ms"]),
                "Full/RTC": _ratio(
                    runs["Full"]["response_ms"], runs["RTC"]["response_ms"]
                ),
                "No/RTC": _ratio(
                    runs["No"]["response_ms"], runs["RTC"]["response_ms"]
                ),
                "paper Full/RTC": _ratio(paper["full"], paper["rtc"]),
                "paper No/RTC": _ratio(paper["no"], paper["rtc"]),
                "|shared| Full": runs["Full"]["shared_size"],
                "|shared| RTC": runs["RTC"]["shared_size"],
            }
        )
    return rows


def table7_rows(exp2: list[dict]) -> list[dict]:
    rows = []
    for r in exp2:
        full, rtc = r["runs"]["Full"], r["runs"]["RTC"]
        paper = PAPER_TABLE7.get(r["n_rpqs"])
        rows.append(
            {
                "#RPQs": r["n_rpqs"],
                "Shared_Full(ms)": round(full["shared_data_ms"], 1),
                "Shared_RTC(ms)": round(rtc["shared_data_ms"], 1),
                "Shared F/R": _ratio(
                    full["shared_data_ms"], rtc["shared_data_ms"]
                ),
                "paper F/R": _ratio(
                    paper["shared_full"], paper["shared_rtc"]
                )
                if paper
                else "-",
                "PreJoin_Full(ms)": round(full["pre_join_ms"], 1),
                "PreJoin_RTC(ms)": round(rtc["pre_join_ms"], 1),
                "PreJoin F/R": _ratio(
                    full["pre_join_ms"], rtc["pre_join_ms"]
                ),
                "Rem_Full(ms)": round(full["remainder_ms"], 1),
                "Rem_RTC(ms)": round(rtc["remainder_ms"], 1),
            }
        )
    return rows


def table8_rows(exp2: list[dict]) -> list[dict]:
    rows = []
    for r in exp2:
        runs = r["runs"]
        paper = PAPER_TABLE8.get(r["n_rpqs"])
        rows.append(
            {
                "#RPQs": r["n_rpqs"],
                "Full(ms)": round(runs["Full"]["response_ms"]),
                "RTC(ms)": round(runs["RTC"]["response_ms"]),
                "No(ms)": round(runs["No"]["response_ms"]),
                "Full/RTC": _ratio(
                    runs["Full"]["response_ms"], runs["RTC"]["response_ms"]
                ),
                "No/RTC": _ratio(
                    runs["No"]["response_ms"], runs["RTC"]["response_ms"]
                ),
                "paper Full/RTC": _ratio(paper["full"], paper["rtc"])
                if paper
                else "-",
                "paper No/RTC": _ratio(paper["no"], paper["rtc"])
                if paper
                else "-",
            }
        )
    return rows
