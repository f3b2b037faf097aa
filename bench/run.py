"""qrclab benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload cli-cases --seed 42 --seconds 15 --trace 0
    python3 bench/run.py --workload all --trace 1 --out bench/BENCH_1.json

Each workload runs in its own fresh process (bench/workload.py) with BLAS
capped at one thread. Every metric is printed by name with its unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. ``--workload all`` runs every workload (both kinds of
metric with ``--trace 1``, then the report-only width and mode sweep) and
``--out`` writes everything, with the machine record, to a JSON file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import stats  # noqa: E402
import workload  # noqa: E402  (imports no qrclab code at module level)
from tracer import EVOLVE_CHILDREN, evolve_residual  # noqa: E402

RUN_LIMIT_S = 170.0  # every child is killed before a run reaches 180 s
BLAS_THREADS = "1"
SETUP_REPEATS = 9
P90_MIN_BEYOND = 10

# Gated by the bounds in BENCHMARK.json. op_p50_s, op_p90_s and error_rate are
# printed too but not gated: see README.md, "End-to-end metrics".
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

# Per op (a case command call, or one whole theory-scan) unless a ratio.
PER_LAYER = {
    "cli.self_s": "s", "cli.bundle_s": "s", "cli.bundle_bytes": "B",
    "config.parse_s": "s", "config.echo_s": "s",
    "tasks.generate_s": "s", "tasks.generate_calls": "count", "tasks.narma_redraws": "count",
    "encoding.build_s": "s", "encoding.encode_s": "s", "encoding.encode_calls": "count",
    "reservoir.build_s": "s", "reservoir.apply_s": "s", "reservoir.apply_calls": "count",
    "sim.gate_ops": "count", "sim.apply_gate_calls": "count", "sim.us_per_gate": "us",
    "sim.bytes_computed": "B",
    "sim.expectation_s": "s", "sim.expectation_calls": "count",
    "sim.sample_s": "s", "sim.estimate_s": "s", "sim.count_bins": "count",
    "experiment.case_s": "s", "experiment.evolve_s": "s", "experiment.evolve_self_s": "s",
    "experiment.steps": "count", "experiment.rows": "count", "experiment.steps_per_row": "ratio",
    "experiment.csv_s": "s", "experiment.scan_call_s": "s", "experiment.scan_cells": "count",
    "experiment.pool_speedup": "ratio",
    "readout.fit_s": "s", "readout.fit_calls": "count", "readout.predict_s": "s",
    "readout.score_s": "s",
    "plot.render_s": "s", "plot.svg_bytes": "B",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qrclab.cli
from qrclab.config import load_config_file, parse_config
parse_config(load_config_file(sys.argv[2]) if sys.argv[2] else {}, task_kind=sys.argv[3])
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """A run that cannot produce a result: nothing is printed to stdout for it."""


def machine_record() -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pytest_benchmark": version("pytest-benchmark"),
        "blas_threads_cap": int(BLAS_THREADS),
        "qrclab_threads": {name: w.threads for name, w in workload.WORKLOADS.items()},
    }


def child_env(threads: str) -> dict:
    env = dict(os.environ, QRCLAB_THREADS=threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants (0 once it is gone)."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
            for task in Path(f"/proc/{p}/task").iterdir():
                stack.extend(int(c) for c in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return total


def run_child(args: list[str], threads: str, deadline: float) -> dict:
    """Run bench/workload.py to completion; adds ``peak_rss_kb``: the larger of
    the child's own peak and the sampled peak of its process tree."""
    result_file = workload.OUT / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), *args, "--result", str(result_file)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(threads), stdout=subprocess.DEVNULL, start_new_session=True)
    peak = 0
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise BenchError(f"{' '.join(args)} did not finish within the run limit")
            peak = max(peak, tree_rss_kb(proc.pid))
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.wait()
        shutil.rmtree(workload.OUT / f"tmp-{proc.pid}", ignore_errors=True)  # left only if killed
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result_file.unlink()
    if isinstance(result, dict) and "maxrss_kb" in result:
        result["peak_rss_kb"] = max(peak, result["maxrss_kb"])
    return result


def measure_setup(name: str, deadline: float) -> float:
    """Median over fresh interpreters of importing qrclab.cli and parsing the
    workload's config."""
    w = workload.WORKLOADS[name]
    config = str(BENCH / w.config) if w.config else ""
    kind = "narma10" if w.kind == "scan" else "stm"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(workload.SRC), config, kind],
            cwd=ROOT, env=child_env(w.threads), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if out.returncode != 0:
            raise BenchError(f"setup for {name} failed: {out.stderr.strip()[-400:]}")
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def workload_args(name: str, seed: int, seconds: float, trace: bool = False) -> list[str]:
    return ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)] + (["--trace"] if trace else [])


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    setup_s = measure_setup(name, deadline)
    res = run_child(workload_args(name, seed, seconds), workload.WORKLOADS[name].threads, deadline)
    ops = res["op_s"]
    metrics = {
        "setup_s": setup_s,
        "rows_per_s": res["timed_rows"] / res["timed_s"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    enough = stats.beyond(ops, 90) >= P90_MIN_BEYOND
    extra = {
        "op_p50_s": statistics.median(ops),
        "op_p90_s": stats.percentile(ops, 90) if enough else None,
        "error_rate": res["failed"] / res["attempted"],
        "raw": res,
    }
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"], "extra": extra}


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Pairs of untraced and traced runs of the same ops in one fresh process;
    the pairs' difference is the tracing overhead."""
    res = run_child(workload_args(name, seed, seconds, trace=True), workload.WORKLOADS[name].threads, deadline)
    layers = res["layers"]
    extra = {
        "pairs": len(res["op_s"]),
        "untraced_s": res["timed_s"],
        "traced_s": sum(res["traced_op_s"]),
        "evolve_identity_residual_s": evolve_residual(layers),
        "raw": res,
    }
    return {"metrics": layers, "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"], "extra": extra}


def print_metric(name: str, metric: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else f"{value:>16}"
    print(f"{name:<15} {metric:<28} {shown} {unit:<7} {note}".rstrip())


def print_end_to_end(name: str, report: dict) -> None:
    m, extra = report["metrics"], report["extra"]
    ops, warmup = extra["raw"]["op_s"], extra["raw"]["warmup_ops"]
    is_scan = workload.WORKLOADS[name].kind == "scan"
    print_metric(name, "setup_s", m["setup_s"], "s", f"median of {SETUP_REPEATS} fresh interpreters")
    if is_scan:
        print_metric(name, "scan_s", extra["op_p50_s"], "s", f"median of {len(ops)} scans")
    else:
        print_metric(name, "op_p50_s", extra["op_p50_s"], "s", f"{len(ops)} timed ops, {warmup} warm-up")
    if name == "cli-cases":
        beyond = stats.beyond(ops, 90)
        if extra["op_p90_s"] is not None:
            print_metric(name, "op_p90_s", extra["op_p90_s"], "s", f"{beyond} ops beyond it")
        else:
            print_metric(name, "op_p90_s", "n/a", "s", f"needs {P90_MIN_BEYOND} ops beyond p90; {len(ops)} timed ops leave {beyond}")
    print_metric(name, "rows_per_s", m["rows_per_s"], "rows/s")
    print_metric(name, "peak_rss_mb", m["peak_rss_mb"], "MB", "summed over the process tree" if is_scan else "")
    print_metric(name, "error_rate", extra["error_rate"], "fraction", f"{report['failed']}/{report['attempted']} ops failed")


def print_per_layer(name: str, report: dict) -> None:
    for metric, unit in PER_LAYER.items():
        print_metric(name, metric, report["metrics"][metric], unit)
    extra = report["extra"]
    print(f"# {name} tracing overhead: traced {extra['traced_s']:.4f} s - untraced {extra['untraced_s']:.4f} s over {extra['pairs']} op pairs")
    children = " + ".join(f"{c}_s" for c in EVOLVE_CHILDREN)
    print(f"# {name} evolve_s - ({children} + evolve_self_s) = {extra['evolve_identity_residual_s']:.3g} s")
    base = extra["raw"].get("pool_speedup_base")
    if base:
        print(
            f"# {name} pool_speedup = 1-worker scan_call_s {base['one_worker_scan_call_s']:.4f} / "
            f"{base['workers']}-worker {report['metrics']['experiment.scan_call_s']:.4f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workload.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=workload.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    # a terminated run unwinds through run_child's cleanup, which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    names = list(workload.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workload.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in (workload.SRC / "qrclab" / "__init__.py", workload.BASELINE) if not p.is_file()]
    if missing:
        print(f"error: not a qrclab checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    start = time.monotonic()
    machine = machine_record()
    print("# machine " + json.dumps(machine))
    workload.OUT.mkdir(exist_ok=True)
    record = {"machine": machine, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + (RUN_LIMIT_S if len(names) == 1 else 3600.0)
            entry = record["workloads"][name] = {}
            if args.trace == 0 or len(names) > 1:
                entry["end_to_end"] = end_to_end(name, args.seed, args.seconds, deadline)
                print_end_to_end(name, entry["end_to_end"])
            if args.trace == 1:
                entry["per_layer"] = per_layer(name, args.seed, args.seconds, deadline)
                print_per_layer(name, entry["per_layer"])
            for kind, report in entry.items():
                for failure in report["failures"]:
                    print(f"# FAILED {name}: {failure}", file=sys.stderr)
                final["attempted"] += report["attempted"]
                final["failed"] += report["failed"]
                prefix = f"{name}." if len(names) > 1 else ""
                for metric, unit in (END_TO_END if kind == "end_to_end" else PER_LAYER).items():
                    final["metrics"][prefix + metric] = {"value": report["metrics"][metric], "unit": unit}
        if args.trace == 1 and len(names) > 1:
            # report-only, once per full traced run; criterion 08's case alone takes about a minute
            record["sweep"] = []
            for part in ("grid", "crit08"):
                record["sweep"] += run_child(["--sweep", part], "1", time.monotonic() + 3600.0)
            for row in record["sweep"]:
                print("# sweep " + json.dumps(row))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final["correct"] = final["failed"] == 0
    record["elapsed_s"] = time.monotonic() - start
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
