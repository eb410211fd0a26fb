#!/usr/bin/env python3
"""RPQ benchmark: response time of RTCSharing and FullSharing.

    python3 rpqbench/run.py --workload dense-reuse --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``. One client, closed loop: RPQs are evaluated one after
another, each through ``MultiRPQEvaluator.evaluate`` with its own
``PhaseTimings``, with a fresh evaluator per RPQ set and method, so the
first RPQ of every set is a real cache miss. Each answer is compared,
after its timed window, with the ``repro.pyref`` answer computed during
set-up and with the other method's answer.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
``spans.py``). The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
timing's median, tail percentile and sample count, and the host and
Spark configuration. Exits 1 if any RPQ raised or answered wrongly, 2
if ``src/repro`` is missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 3


@dataclass
class Sample:
    method: str
    round_no: int
    set_no: int
    ms: float
    shared_data_ms: float
    pre_join_ms: float
    remainder_ms: float
    ok: bool
    traced: bool

    @property
    def first(self) -> bool:
        """Built a shared structure: its ``shared_data`` phase ran."""
        return self.shared_data_ms > 0.0


def _meminfo_kb(key: str) -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError("VmHWM")


def _steal_jiffies() -> tuple[int, int]:
    """(steal, total) CPU jiffies of the host's vCPUs so far."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def _reset_hwm(pid: int | str = "self") -> bool:
    """Restart the peak-RSS count (Linux ``clear_refs`` code 5)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def spark_config() -> dict[str, object]:
    """Master, partitions and driver memory derived from this host."""
    cores = min(4, len(os.sched_getaffinity(0)))
    mem_gib = _meminfo_kb("MemTotal") / 2**20
    return {
        "master": f"local[{cores}]",
        # The graphs have a few thousand edges: one reducer per shuffle
        # keeps the task count, and with it the run's length, down.
        "shuffle_partitions": 1,
        "driver_memory": f"{max(1, min(4, round(mem_gib / 16)))}g",
        "autoBroadcastJoinThreshold": -1,
    }


def start_spark(cfg: dict[str, object]):
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep every file Spark and the JVM write inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {cfg['master']}",
            f"--driver-memory {cfg['driver_memory']}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("rpqbench")
        .config("spark.sql.shuffle.partitions", str(cfg["shuffle_partitions"]))
        .config("spark.sql.autoBroadcastJoinThreshold", str(cfg["autoBroadcastJoinThreshold"]))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile (>= 50) with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


class Runner:
    def __init__(self, spark, inst, tracer):
        from repro.core.fullsharing import FullSharingEvaluator
        from repro.core.rtcsharing import RTCSharingEvaluator

        self.spark = spark
        self.inst = inst
        self.tracer = tracer
        self.methods = (("RTC", RTCSharingEvaluator), ("Full", FullSharingEvaluator))

    def _one(self, ev, method, round_no, set_no, query, traced, other) -> Sample:
        from repro.core.timing import PhaseTimings

        t = PhaseTimings()
        ms, ok = 0.0, False
        try:
            if traced:
                with self.tracer.span("rpq", method) as root:
                    df = ev.evaluate(query, t)
                ms = root.ms
            else:
                t0 = time.perf_counter()
                # evaluate() returns a checkpointed (already computed) result.
                df = ev.evaluate(query, t)
                ms = 1000.0 * (time.perf_counter() - t0)
            got = {(r[0], r[1]) for r in df.collect()}
            ok = got == self.inst.answers[query] and other.setdefault(query, got) == got
            if not ok:
                print(f"rpqbench: WRONG {method} {query}: {len(got)} rows, "
                      f"oracle {len(self.inst.answers[query])}", file=sys.stderr)
        except Exception:
            print(f"rpqbench: FAILED {method} {query}", file=sys.stderr)
            traceback.print_exc()
        return Sample(method, round_no, set_no, ms, 1000.0 * t.shared_data,
                      1000.0 * t.pre_join, 1000.0 * t.remainder, ok, traced)

    def round(self, round_no: int, traced: bool) -> list[Sample]:
        samples = []
        for set_no, queries in enumerate(self.inst.sets):
            other: dict[str, set] = {}
            order = self.methods if (round_no + set_no) % 2 == 0 else self.methods[::-1]
            for method, cls in order:
                # Collect garbage outside the timed windows, so that no
                # set pays for an earlier one's.
                gc.collect()
                self.spark.sparkContext._jvm.System.gc()
                ev = cls(self.inst.graph)
                for q in queries:
                    samples.append(self._one(ev, method, round_no, set_no, q, traced, other))
        return samples


def end_to_end(samples: list[Sample]) -> dict[str, tuple[list[float], str]]:
    """Sample lists of the per-RPQ end-to-end timings, per method."""
    out: dict[str, tuple[list[float], str]] = {}
    for method, key in (("RTC", "rtc"), ("Full", "full")):
        ss = [s for s in samples if s.method == method]
        sets: dict[tuple[int, int], list[float]] = {}
        for s in ss:
            sets.setdefault((s.round_no, s.set_no), []).append(s.ms)
        # The paper's metric: a set's wall time over its number of RPQs.
        out[f"{key}.response_ms"] = ([statistics.fmean(v) for v in sets.values()], "ms/RPQ")
        out[f"{key}.first_rpq_ms"] = ([s.ms for s in ss if s.first], "ms")
        out[f"{key}.reuse_rpq_ms"] = ([s.ms for s in ss if not s.first], "ms")
    return out


def phase_metrics(samples: list[Sample]) -> dict[str, tuple[float, str]]:
    out = {}
    for method, key in (("RTC", "rtc"), ("Full", "full")):
        ss = [s for s in samples if s.method == method]
        for phase in ("shared_data_ms", "pre_join_ms", "remainder_ms"):
            out[f"{key}.{phase}"] = (statistics.fmean(getattr(s, phase) for s in ss), "ms/RPQ")
    return out


def host_record(spark, cfg, args, py_hwm_reset: bool, jvm_hwm_reset: bool,
                steal_frac: float) -> dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": _meminfo_kb("MemTotal"),
        "spark": spark.version,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        **cfg,
        "peak_rss_window": "measured loop" if py_hwm_reset and jvm_hwm_reset else "whole run",
        # Share of the vCPUs' time the hypervisor gave to other guests
        # during the measured rounds; slow runs show it.
        "steal_frac": steal_frac,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"rpqbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"rpqbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    cfg = spark_config()
    spark = start_spark(cfg)
    try:
        from spans import Tracer, layer_metrics

        t_spark = time.perf_counter() - t0
        build_s, inst = [], None
        for _ in range(SETUP_REPEATS):
            if inst is not None:
                inst.graph.edges.unpersist()
            t0 = time.perf_counter()
            inst = build(spark, workload, args.seed)
            build_s.append(time.perf_counter() - t0)
        # Untimed JIT and codegen warm-up, counted in set-up: one whole
        # round. A first round runs 20-40 % slower than later ones, by an
        # amount that swings with the host's load; timing it made the
        # benchmark too noisy for its bounds.
        t0 = time.perf_counter()
        warm = Runner(spark, inst, None).round(0, False)
        t_warm = time.perf_counter() - t0
        setup_s = t_spark + statistics.median(build_s) + t_warm

        jvm_pid = spark.sparkContext._jvm.ProcessHandle.current().pid()
        py_reset, jvm_reset = _reset_hwm(), _reset_hwm(jvm_pid)
        tracer = Tracer(spark)
        runner = Runner(spark, inst, tracer)
        samples: list[Sample] = []
        steal0 = _steal_jiffies()
        deadline = time.perf_counter() + args.seconds
        round_no, round_s = 0, []
        while True:
            traced = bool(args.trace) and round_no % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracer.install()
            try:
                samples += runner.round(round_no, traced)
            finally:
                if traced:
                    tracer.uninstall()
            round_no += 1
            now = time.perf_counter()
            round_s.append(now - t0)
            if round_no < 1 + args.trace:
                continue
            if now + (now - t0) > deadline:
                break
        steal1 = _steal_jiffies()
        py_peak, jvm_peak = _hwm_mb(), _hwm_mb(jvm_pid)
        host = host_record(spark, cfg, args, py_reset, jvm_reset,
                           (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]))
    finally:
        stop_spark(spark)

    attempted = len(warm) + len(samples)
    failed = sum(not s.ok for s in warm + samples)
    untraced = [s for s in samples if not s.traced]
    series = end_to_end(untraced)
    series["setup_s"] = ([setup_s], "s")
    series["rpq_failed_frac"] = ([failed / attempted], "ratio")
    series["py_peak_rss_mb"] = ([py_peak], "MB")
    series["jvm_peak_rss_mb"] = ([jvm_peak], "MB")

    report = {}
    for name, (values, unit) in series.items():
        t = tail(values)
        report[name] = {
            "median": statistics.median(values) if values else None,
            "tail": {"pct": t[0], "value": t[1]} if t else None,
            "n": len(values),
            "unit": unit,
        }
        tail_txt = f"p{t[0]:g}={t[1]:.4g}" if t else "no tail (n<20)"
        med = f"{report[name]['median']:.6g}" if values else "-"
        print(f"{name:24s} median={med:>12s} {unit:8s} {tail_txt:18s} n={len(values)}")
    print(json.dumps({
        "host": host,
        "setup": {"spark_s": t_spark, "warmup_s": t_warm, "build_s": build_s},
        "round_s": round_s,
        "sets": inst.sets,
        "answer_rows": {q: len(a) for q, a in inst.answers.items()},
        "end_to_end": report,
    }))

    if args.trace:
        metrics = layer_metrics(
            tracer.spans,
            {m: sum(1 for s in samples if s.traced and s.method == m) for m in ("RTC", "Full")},
        )
        metrics.update(phase_metrics(untraced))
        traced_rtc = end_to_end([s for s in samples if s.traced])["rtc.response_ms"][0]
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_rtc) / report["rtc.response_ms"]["median"] - 1.0, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:14.6g} {unit}")
    else:
        metrics = {
            name: (r["median"], r["unit"]) for name, r in report.items()
            if name != "rpq_failed_frac"
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
