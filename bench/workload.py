"""Runs one benchmark workload in this process and writes its raw results.

``run.py`` starts this script in a fresh process per workload and pass, so
that peak memory and qrclab's rotation-matrix LRU cache never carry over from
another workload. It is a single closed-loop caller: each op is one call of a
public entry point (``qrclab.cli.main``, or ``run_case`` in the sweep), the
next starting when the previous one returns.

    python3 bench/workload.py --workload cli-cases --seed 42 --seconds 15 --result out.json
    python3 bench/workload.py --sweep grid --result sweep.json
    python3 bench/workload.py --make-reference
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
BASELINE = ROOT / "tests" / "data" / "scan_baseline.csv"
DEFAULT_SEED = 42  # the CLI's default master seed; references are recorded at it

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

CASE_COMMANDS = ("case-memory", "case-parity", "case-narma10")
SCAN_REPLICATES = 10  # theory-scan's default, passed explicitly to count the scan's rows


@dataclass(frozen=True)
class Workload:
    kind: str  # "case" or "scan"
    threads: str  # QRCLAB_THREADS
    warmup: int  # leading ops run and checked but not timed
    config: str | None = None  # config file under bench/

    @property
    def commands(self) -> int:
        """Distinct commands; a run times at least one op of each."""
        return len(CASE_COMMANDS) if self.kind == "case" else 1


WORKLOADS = {
    "cli-cases": Workload("case", "1", warmup=3),
    "wide-shots": Workload("case", "1", warmup=1, config="wide-shots.json"),
    "theory-scan": Workload("scan", "1", warmup=0),
    "theory-scan-2w": Workload("scan", "2", warmup=0),
}


def op_argv(workload: Workload, seed: int, index: int, out_dir: Path) -> list[str]:
    """Op ``index`` of a run: the case commands in turn, master seed seed + index."""
    if workload.kind == "scan":
        argv = ["theory-scan", "--replicates", str(SCAN_REPLICATES)]
    else:
        argv = [CASE_COMMANDS[index % len(CASE_COMMANDS)]]
        if workload.config:
            argv += ["--config", str(BENCH / workload.config)]
    return argv + ["--seed", str(seed + index), "--out", str(out_dir)]


def import_cli():
    """Import qrclab from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    from qrclab import cli

    if Path(cli.__file__).resolve().parent != SRC / "qrclab":
        raise ImportError(f"qrclab imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class OpResult:
    seconds: float
    run_dir: Path | None
    error: str | None


def call_cli(cli, argv) -> OpResult:
    """One op: ``cli.main(argv)`` with its stdout captured for the run_dir line."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit):
        return OpResult(time.perf_counter() - start, None, traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    if code != 0:
        return OpResult(seconds, None, f"{argv[0]} exited {code}")
    run_dirs = [line[len("run_dir: "):] for line in buf.getvalue().splitlines() if line.startswith("run_dir: ")]
    if len(run_dirs) != 1:
        return OpResult(seconds, None, f"{argv[0]} printed no run_dir")
    return OpResult(seconds, Path(run_dirs[0]), None)


class Run:
    """Attempted and failed op counts plus the first failure messages."""

    def __init__(self, references: list | None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rows = 0
        self.references = references

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.extend(f"{label}: {e}" for e in errors[: 20 - len(self.failures)])
        return not errors

    def check(self, workload: Workload, index: int, argv, op: OpResult) -> bool:
        """Record one op, checking its bundle; returns whether it passed."""
        label = f"op {index} ({' '.join(argv[:3])})"
        if op.error:
            return self.record(label, [op.error])
        try:
            if workload.kind == "scan":
                compare = argv[argv.index("--seed") + 1] == str(DEFAULT_SEED)
                errors = checks.check_scan_bundle(op.run_dir, BASELINE, compare)
                rows = checks.scan_rows(op.run_dir, SCAN_REPLICATES)
            else:
                errors, rows = checks.check_case_bundle(op.run_dir)
                if self.references is not None and index < len(self.references):
                    ref = self.references[index]
                    for name in ("features", "predictions"):
                        got = checks.digest(op.run_dir / f"{name}.csv")
                        errors += checks.compare_digest(f"{name}.csv", got, ref[name])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            errors, rows = [f"unreadable bundle: {exc}"], 0
        if not errors:
            self.rows += rows
        return self.record(label, errors)


def load_references(name: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Warm-up ops, then the timed closed loop, then reruns from the echoed
    configs.

    Untraced, each round of the loop is one op. Traced, each round runs one
    op twice, once untraced and once traced, in alternating order: both
    halves of a pair see the same machine state, so their difference is the
    tracing overhead, and the alternation cancels any gain the second run
    gets from caches the first one filled."""
    workload = WORKLOADS[name]
    cli = import_cli()
    run = Run(load_references(name, seed))
    keep: dict[str, tuple[int, Path]] = {}  # first passing op of each command, for the rerun

    def one_op(index: int) -> float:
        argv = op_argv(workload, seed, index, tmp)
        op = call_cli(cli, argv)
        ok = run.check(workload, index, argv, op)
        if ok and workload.kind == "case" and argv[0] not in keep:
            keep[argv[0]] = (index, op.run_dir)
        elif op.run_dir is not None:
            shutil.rmtree(op.run_dir, ignore_errors=True)
        return op.seconds

    def traced_op(tracer, index: int) -> float:
        tracer.install()
        try:
            return one_op(index)
        finally:
            tracer.restore()

    for index in range(workload.warmup):
        one_op(index)

    tracer = Tracer()
    durations: list[float] = []  # untraced op times
    traced: list[float] = []
    rows_before = run.rows
    loop_start = time.perf_counter()
    while len(durations) < workload.commands or (
        time.perf_counter() - loop_start
        + statistics.median(durations) + sum(traced) / len(durations) <= seconds
    ):
        index = workload.warmup + len(durations)
        if not trace:
            durations.append(one_op(index))
        elif len(durations) % 2 == 0:
            durations.append(one_op(index))
            traced.append(traced_op(tracer, index))
        else:
            traced.append(traced_op(tracer, index))
            durations.append(one_op(index))
    timed_rows = run.rows - rows_before

    for command, (index, run_dir) in keep.items():
        echo = run_dir / "config_echo.json"
        rerun = call_cli(cli, [command, "--config", str(echo)])
        errors = [rerun.error] if rerun.error else checks.same_bytes(run_dir, rerun.run_dir)
        run.record(f"rerun of op {index} ({command})", errors)

    result = {
        "workload": name,
        "seed": seed,
        "qrclab_threads": os.environ.get("QRCLAB_THREADS"),
        "warmup_ops": workload.warmup,
        "op_s": durations,
        "timed_s": sum(durations),
        "timed_rows": timed_rows,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "references_checked": run.references is not None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        n = len(traced)
        layers = layer_metrics(tracer, n)
        layers["trace.overhead_s"] = (sum(traced) - sum(durations)) / n
        layers["trace.overhead_frac"] = sum(traced) / sum(durations) - 1
        layers["experiment.pool_speedup"] = 0.0
        if workload.threads != "1":
            # base: the same scans traced again with one worker
            base = Tracer()
            os.environ["QRCLAB_THREADS"] = "1"
            try:
                for i in range(n):
                    traced_op(base, workload.warmup + i)
            finally:
                os.environ["QRCLAB_THREADS"] = workload.threads
            base_s = layer_metrics(base, n)["experiment.scan_call_s"]
            layers["experiment.pool_speedup"] = base_s / layers["experiment.scan_call_s"]
            result["pool_speedup_base"] = {"one_worker_scan_call_s": base_s, "workers": workload.threads}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.csv"
        tracer.write_spans(spans)
        result.update(layers=layers, traced_op_s=traced, spans_file=str(spans.relative_to(ROOT)))
    return result


# --------------------------------------------------------------------------
# Report-only sweep: width x mode, traced, one run_case per cell
# --------------------------------------------------------------------------

SWEEP_WIDTHS = (2, 4, 6, 8, 10, 12)
SWEEP_MODES = {
    "recurrent": ({"type": "recurrent"}, "ideal"),
    "k3": ({"type": "reupload_k", "k": 3}, "ideal"),
    "k10": ({"type": "reupload_k", "k": 10}, "ideal"),
    "k3-shots": ({"type": "reupload_k", "k": 3}, "shots"),
}
SWEEP_T = 200  # per-gate cost does not depend on T; the n=4 baselines use T=600


def sweep_cases(part: str):
    """(name, config document, window) for each sweep cell. ``full`` is not a
    schema value for mode.k, so criterion 08's window is applied afterwards."""
    if part == "crit08":
        return [("crit08-stm-n4-full-T600", {}, "full")]
    cases = []
    for n in SWEEP_WIDTHS:
        for mode_name, (mode, backend) in SWEEP_MODES.items():
            doc = {"task": {"T": SWEEP_T}, "reservoir": {"n_qubits": n}, "mode": mode, "backend": {"type": backend}}
            cases.append((f"n{n}-{mode_name}-T{SWEEP_T}", doc, None))
    for mode_name in ("recurrent", "k3", "k10"):
        cases.append((f"baseline-n4-{mode_name}-T600", {"mode": SWEEP_MODES[mode_name][0]}, None))
    return cases


def run_sweep(part: str, tmp: Path) -> list[dict]:
    import_cli()
    from dataclasses import replace

    from qrclab import experiment
    from qrclab.config import parse_config

    out = []
    for name, doc, window in sweep_cases(part):
        config, _ = parse_config(doc, task_kind="stm")
        if window is not None:
            config = replace(config, mode=experiment.ModeSpec(kind="reupload_k", k=window))
        tracer = Tracer()
        tracer.install()
        try:
            experiment.run_case(config)  # looked up after install, so it is the traced one
        finally:
            tracer.restore()
        layers = layer_metrics(tracer, 1)
        out.append(
            {
                "case": name,
                "n_qubits": config.reservoir.n_qubits,
                "evolve_s": layers["experiment.evolve_s"],
                "case_s": layers["experiment.case_s"],
                "gate_ops": layers["sim.gate_ops"],
                "us_per_gate": layers["sim.us_per_gate"],
                "steps_per_row": layers["experiment.steps_per_row"],
            }
        )
    if part == "grid":
        out.append(cli_process_case(tmp))
    return out


def cli_process_case(tmp: Path, repeats: int = 3) -> dict:
    """``python -m qrclab.cli case-memory`` in a fresh interpreter: import included."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "qrclab.cli", "case-memory", "--out", str(tmp)],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return {"case": "cli-process-case-memory", "wall_s": statistics.median(times), "repeats": repeats}


# --------------------------------------------------------------------------
# Reference recording
# --------------------------------------------------------------------------

REFERENCE_OPS = {"cli-cases": 150, "wide-shots": 30}


def make_reference(tmp: Path) -> None:
    """Record digests of the first ops of each case workload at DEFAULT_SEED."""
    cli = import_cli()
    refs = {}
    for name, count in REFERENCE_OPS.items():
        entries = []
        for index in range(count):
            argv = op_argv(WORKLOADS[name], DEFAULT_SEED, index, tmp)
            op = call_cli(cli, argv)
            if op.error:
                raise RuntimeError(f"{name} op {index}: {op.error}")
            entries.append(
                {
                    "command": argv[0],
                    "seed": DEFAULT_SEED + index,
                    "features": checks.digest(op.run_dir / "features.csv"),
                    "predictions": checks.digest(op.run_dir / "predictions.csv"),
                }
            )
            shutil.rmtree(op.run_dir)
        refs[name] = entries
    REFERENCE.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--sweep", choices=("grid", "crit08"))
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", type=Path, help="where to write the JSON result")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.make_reference:
            make_reference(tmp)
            return 0
        if args.sweep:
            result = run_sweep(args.sweep, tmp)
        elif args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, tmp)
        else:
            parser.error("one of --workload, --sweep or --make-reference is required")
        args.result.write_text(json.dumps(result), encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
