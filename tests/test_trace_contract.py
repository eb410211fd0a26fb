"""The benchmark's layer trace (``rpqbench/spans.py``) wraps evaluator
functions by module and name. Installing and uninstalling it here makes
a renamed or removed layer function fail tier-1, not only a traced
benchmark run."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

RPQBENCH = Path(__file__).resolve().parents[1] / "rpqbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(RPQBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


# What ``SparkContext.setJobGroup`` sets, and ``uninstall`` overwrites.
JOB_GROUP_KEYS = (
    "spark.jobGroup.id",
    "spark.job.description",
    "spark.job.interruptOnCancel",
)


def test_tracer_installs_and_uninstalls(spark, spans):
    sc = spark.sparkContext
    saved = {k: sc.getLocalProperty(k) for k in JOB_GROUP_KEYS}
    tracer = spans.Tracer(spark)
    try:
        tracer.install()
        # A name wrapped twice was saved twice: the first is the original.
        originals: dict = {}
        for owner, name, orig in tracer._saved:
            originals.setdefault((owner, name), orig)
        assert originals
        assert all(getattr(o, n) is not f for (o, n), f in originals.items())
    finally:
        tracer.uninstall()
        for k, v in saved.items():
            sc.setLocalProperty(k, v)
    assert all(getattr(o, n) is f for (o, n), f in originals.items())
