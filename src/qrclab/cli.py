"""Config-driven command line entry points.

Commands: ``case-memory``, ``case-parity``, ``case-narma10``, ``theory-scan``.
Each run writes a timestamped output bundle (atomically, via temp-dir rename)
containing config_echo.json plus the run's CSV/JSON/SVG artifacts.

Exit codes: 0 success (``--help`` too), 1 config/schema violation or a
command line argparse rejects (an unknown flag, a missing command or value,
a value that is not a number), 2 runtime or fit error, out of memory or a
worker process that ended, 3 I/O error (a closed stdout included: the
bundle is written, the summary is not), 130 interrupted (Ctrl-C), 143
terminated (SIGTERM, under the console script).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import replace
from datetime import datetime
from operator import attrgetter
from pathlib import Path

from .config import config_hash, dump_echo, echo_config, load_config_file, parse_config
from .errors import QRCLabError, SchemaError
from .experiment import (
    SEEDS,
    check_scan_args,
    features_csv,
    predictions_csv,
    run_case,
    scan_csv,
    theory_scan,
    worker_count,
)
from .plot import render_overlay_svg, render_scan_svg
from .sim import check_seed

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_RUNTIME = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command that Ctrl-C ended
EXIT_TERMINATED = 143  # 128 + SIGTERM

CASE_KINDS = {
    "case-memory": "stm",
    "case-parity": "parity",
    "case-narma10": "narma10",
}


class _Terminated(BaseException):
    """Raised by the SIGTERM handler that ``entry`` installs, so a run
    unwinds as on Ctrl-C: its workers are stopped and its temp dir goes."""


def _terminate(signum, frame):
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors (an unknown flag, a missing command or
    value) raise ArgumentError, so ``main`` reports them as one ``error:``
    line and exit 1, not argparse's usage text and exit 2. Its subparsers
    are of this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrclab",
        description="Quantum reservoir computing benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    common.add_argument("--config", help="JSON config file (defaults used when omitted)")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--out", help="override the output directory")

    for name in CASE_KINDS:
        sub.add_parser(name, parents=[common], help=f"run the {name.removeprefix('case-')} case study")

    p = sub.add_parser("theory-scan", parents=[common], help="qubit-width generalization-gap scan")
    p.add_argument("--qubits", type=int_list, default="2,3,4,5,6,7", help="comma-separated ascending widths")
    p.add_argument("--delta", type=float, default=0.05, help="risk bound failure probability")
    p.add_argument("--replicates", type=int, default=10, help="seed replicates per width")
    return parser


def int_list(raw: str) -> list[int]:
    """``--qubits``'s type: comma-separated integers, empty parts skipped."""
    return [int(part) for part in raw.split(",") if part.strip()]


def _load(args, task_kind=None):
    """Parse --config and apply --seed and --out, each whenever it is given.
    Without a task kind (the theory scan) the run is narma10 unless the
    config names a kind. A config file that cannot be read raises OSError."""
    doc = load_config_file(args.config) if args.config is not None else {}
    if task_kind is None and not (isinstance(doc.get("task"), dict) and "kind" in doc["task"]):
        task_kind = "narma10"
    config, output = parse_config(doc, task_kind=task_kind)
    if args.seed is not None:
        config = replace(config, master_seed=check_seed("--seed", args.seed))
    if args.out is not None:
        try:
            output = replace(output, dir=args.out)
        except SchemaError as exc:  # name the flag that set the directory
            raise SchemaError("--out", exc.message) from exc
    return config, output


def _write_bundle(output_dir: str, name: str, files: dict[str, str]) -> Path:
    """Write all files into a temp dir, then rename: no partial bundles. Any
    failure, Ctrl-C included, removes the temp dir. The rename takes the name,
    or ``<name>-2``, ``-3``, ... while it finds the name taken, so a run that
    takes the same name meanwhile keeps its own. ``_run`` makes the dir first."""
    out = Path(output_dir)
    tmp = out / f".{name}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
    tmp.mkdir()  # not tempfile.mkdtemp: its 0700 mode would become the bundle's
    try:
        for fname, content in files.items():
            (tmp / fname).write_bytes(content.encode("utf-8"))
        final, counter = out / name, 1
        while True:
            try:
                return tmp.rename(final)
            except OSError:
                if not final.exists():
                    raise
                counter += 1
                final = out / f"{name}-{counter}"
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _run_dir_name(hash8: str) -> str:
    stamp = datetime.now().strftime("%Y%m%d_%H%M%S")
    return f"run_{stamp}_{hash8}"


def cmd_case(command: str, args):
    """Set up a case command: its config, output options and run."""
    kind = CASE_KINDS[command]
    config, output = _load(args, kind)

    def run():
        result = run_case(config)
        files = {
            "metrics.json": json.dumps(
                {"task": kind, **result.metrics}
                | ({"alpha_sweep": [list(r) for r in result.alpha_sweep]} if result.alpha_sweep else {}),
                indent=2,
                sort_keys=True,
            )
            + "\n",
            "predictions.csv": predictions_csv(result),
        }
        if output.features:
            files["features.csv"] = features_csv(result.features)
        if output.plots:
            files["overlay.svg"] = render_overlay_svg(
                result.features.t_index[result.split_at :],
                result.targets[result.split_at :],
                result.predictions[result.split_at :],
                title=f"{kind}: test-horizon target vs prediction",
            )
        summary = " ".join(f"{k}={v:.6f}" for k, v in sorted(result.metrics.items()))
        return files, [f"{command} seed={config.master_seed} {summary}"]

    return config, output, run


def cmd_theory_scan(args):
    """Set up the theory scan: its config, output options and run."""
    config, output = _load(args)
    for key in SEEDS:  # the echo would name a seed never used
        if attrgetter(key)(config) is not None:
            raise SchemaError(key, "a scan derives every replicate's seeds from master_seed; set that or --seed")
    try:
        check_scan_args(config, args.qubits, args.delta, args.replicates)
    except SchemaError as exc:  # name the flag that set the argument
        flag = {"qubit_list": "--qubits", "delta": "--delta", "replicates": "--replicates"}[exc.key]
        raise SchemaError(flag, exc.message) from exc
    worker_count()

    def run():
        rows = theory_scan(config, args.qubits, args.delta, args.replicates)
        files = {"scan.csv": scan_csv(rows)}
        if output.plots:
            files["scan.svg"] = render_scan_svg(rows)
        return files, [
            f"N={row.n_qubits} train={row.train_score:.6f} test={row.test_score:.6f} "
            f"gap={row.gap:.6f} confidence={row.confidence_term:.6f}"
            for row in rows
        ]

    return config, output, run


def _run(config, output, run) -> int:
    """Echo the config, make the output dir, run (exit 2 on a QRCLabError or
    a MemoryError), write the bundle, then print the run's summary lines and
    the run dir. An OSError while making the dir or writing exits 3, as
    does a closed stdout; the dir is made first, so one that cannot be made
    costs no run."""
    echo = echo_config(config, output)
    try:
        Path(output.dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write output bundle: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        files, summary = run()
    except QRCLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # a width too large for this machine's memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_RUNTIME

    try:
        run_dir = _write_bundle(
            output.dir, _run_dir_name(config_hash(echo)), {"config_echo.json": dump_echo(echo), **files}
        )
    except OSError as exc:
        print(f"error: cannot write output bundle: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        for line in summary:
            print(line)
        print(f"run_dir: {run_dir}")
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets that exit flush
        print(f"error: cannot print the summary: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; Ctrl-C prints one ``error: interrupted`` line and
    returns 130, and a SIGTERM under ``entry`` one ``error: terminated``
    line and 143, once any worker processes are stopped."""
    try:
        try:
            args = build_parser().parse_args(argv)
            if args.command in CASE_KINDS:
                config, output, run = cmd_case(args.command, args)
            else:
                config, output, run = cmd_theory_scan(args)
        except (SchemaError, argparse.ArgumentError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except OSError as exc:  # the config file cannot be read
            print(f"error: cannot read config {args.config}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
        return _run(config, output, run)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return EXIT_TERMINATED


def entry():
    """The console script: ``main`` with a SIGTERM handler that raises."""
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())


if __name__ == "__main__":
    entry()
