"""Table-row builders for the paper's Tables IV–VIII.

Every table reads the records of one sweep (``repro.experiments.sweep``
as JSON): Tables IV, V and VI the Experiment-1 sweep, keyed by dataset,
and Tables VII and VIII the Experiment-2 sweep, keyed by #RPQs. Paper
numbers are embedded so every printed table shows paper vs built side
by side (the diff EXPERIMENTS.md records); a cell the paper does not
report prints as ``-``.
"""
from __future__ import annotations

from repro.graph.generators import DATASETS

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


# The three phases of Tables V and VII: column stem, record field and
# the key stem of the paper's numbers.
PHASES = (
    ("Shared", "shared_data_ms", "shared"),
    ("PreJoin", "pre_join_ms", "prejoin"),
    ("Rem", "remainder_ms", "rem"),
)


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.2f}" if b else "inf"


def _paper_ratio(ref: dict | None, a: str, b: str) -> str:
    """``ref[a] / ref[b]``, or ``-`` where the paper reports no row."""
    return _ratio(ref[a], ref[b]) if ref else "-"


def _head(point: dict, key: str) -> dict[str, object]:
    """The key cell of a row: the dataset with its degree per label, or
    the #RPQs every run of the point shares."""
    if key == "dataset":
        deg = round(point["stats"]["degree_per_label"], 2)
        return {"dataset": point["dataset"], "deg": deg}
    return {"#RPQs": point["runs"]["RTC"]["n_rpqs"]}


def stats_rows(points: list[dict]) -> list[dict]:
    """Table IV: each dataset's built statistics vs the paper's."""
    rows = []
    for p in points:
        stats, spec = p["stats"], DATASETS[p["dataset"]]
        rows.append(
            {
                "dataset": p["dataset"],
                "n_vertices": int(stats["n_vertices"]),
                "n_edges": int(stats["n_edges"]),
                "n_labels": int(stats["n_labels"]),
                "degree_per_label": round(stats["degree_per_label"], 2),
                "paper_n_vertices": spec.paper_n_vertices,
                "paper_n_edges": spec.paper_n_edges,
                "paper_n_labels": spec.paper_n_labels,
                "paper_degree": spec.paper_degree,
            }
        )
    return rows


def phase_rows(points: list[dict], key: str, paper: dict) -> list[dict]:
    """Tables V and VII: each phase's time, Full vs RTC, per ``key``
    (``"dataset"`` or ``"#RPQs"``), with the ratios of ``paper``."""
    rows = []
    for p in points:
        row = _head(p, key)
        ref = paper.get(row[key])
        full, rtc = p["runs"]["Full"], p["runs"]["RTC"]
        for stem, field, ref_stem in PHASES:
            row[f"{stem}_Full(ms)"] = round(full[field], 1)
            row[f"{stem}_RTC(ms)"] = round(rtc[field], 1)
            row[f"{stem} F/R"] = _ratio(full[field], rtc[field])
            row[f"paper {stem} F/R"] = _paper_ratio(
                ref, f"{ref_stem}_full", f"{ref_stem}_rtc"
            )
        rows.append(row)
    return rows


def response_rows(points: list[dict], key: str, paper: dict) -> list[dict]:
    """Tables VI and VIII: response time per method, per ``key``, with
    the ratios of ``paper`` and the shared-data sizes (Fig. 11)."""
    rows = []
    for p in points:
        row = _head(p, key)
        ref = paper.get(row[key])
        ms = {m: run["response_ms"] for m, run in p["runs"].items()}
        row.update(
            {
                "Full(ms)": round(ms["Full"]),
                "RTC(ms)": round(ms["RTC"]),
                "No(ms)": round(ms["No"]),
                "Full/RTC": _ratio(ms["Full"], ms["RTC"]),
                "No/RTC": _ratio(ms["No"], ms["RTC"]),
                "paper Full/RTC": _paper_ratio(ref, "full", "rtc"),
                "paper No/RTC": _paper_ratio(ref, "no", "rtc"),
                "|shared| Full": p["runs"]["Full"]["shared_size"],
                "|shared| RTC": p["runs"]["RTC"]["shared_size"],
            }
        )
        rows.append(row)
    return rows
