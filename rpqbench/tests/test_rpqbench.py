"""Self-tests of the RPQ benchmark (not part of the tier-1 suite).

    python3 -m pytest rpqbench/tests -q

Each test starts the benchmark as a subprocess, the way it is run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "rpqbench"

# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNT_SUFFIXES = (
    "jobs", "rounds", "rows", "seeds", "edges", "components", "batch_units",
    "checkpoints_per_rpq", "jobs_per_rpq", "cache_hit_ratio", "cyclic_vertex_frac",
)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "rpqbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        k: m["value"] for k, m in result["metrics"].items()
        if k.rsplit(".", 1)[-1].endswith(COUNT_SUFFIXES)
    }


@pytest.mark.parametrize("workload", ["dense-reuse", "kb-mixed"])
def test_trace_counts_repeat_for_one_seed(workload):
    first = _traced_counts(workload, 5)
    assert first["spark.rtc_jobs_per_rpq"] > 0 and first["scc.rounds"] > 0
    assert _traced_counts(workload, 5) == first


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "rpqbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = _run(bare, "--workload", "dense-reuse", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
