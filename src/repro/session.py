"""The one Spark bootstrap, shared by the tests and ``repro.cli``.

Two environment variables are read: ``SPARK_MASTER`` (default
``local[*]``) and ``SPARK_DRIVER_MEM``. The driver heap is fixed when the
JVM launches, so it goes into ``PYSPARK_SUBMIT_ARGS`` before the first
session starts; a ``PYSPARK_SUBMIT_ARGS`` already set is left alone.
"""
from __future__ import annotations

import os
import re
from typing import Iterable

CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",  # v2
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # v1
)


def driver_memory(
    env: str | None, cgroup_limits: Iterable[str], meminfo: str
) -> str:
    """The driver heap as a ``--driver-memory`` value.

    ``env`` (``SPARK_DRIVER_MEM``) wins. Else 75 % of the first bounded
    cgroup limit: v2's ``max`` and v1's "unlimited" sentinel (~8.6e9 GiB)
    are not bounds. Else half of ``MemTotal`` from ``meminfo``, clamped
    to [2, 8] GiB, as the test command in ROADMAP.md computes it.
    """
    if env:
        return env
    for raw in cgroup_limits:
        try:
            gib = int(raw) / 2**30
        except ValueError:
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g"
    m = re.search(r"^MemTotal:\s+(\d+)", meminfo, re.MULTILINE)
    half_gib = int(m.group(1)) // 2**21 if m else 0  # kB → GiB / 2
    return f"{min(8, max(2, half_gib))}g"


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def spark_session(app: str, shuffle_partitions: int):
    """Start (or reuse) the local SparkSession with the project's conf.

    Arrow is on for ``toPandas``. Automatic broadcast joins are off, so
    joins take the shuffle path unless a plan hints a broadcast itself
    (the driver-built SCC/RTC frames do).
    """
    mem = driver_memory(
        os.environ.get("SPARK_DRIVER_MEM"),
        [_read(p) for p in CGROUP_LIMITS],
        _read("/proc/meminfo"),
    )
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
