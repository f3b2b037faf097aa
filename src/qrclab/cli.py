"""Config-driven command line entry points.

Commands: ``case-memory``, ``case-parity``, ``case-narma10``, ``theory-scan``.
Each run writes a timestamped output bundle (atomically, via temp-dir rename)
containing config_echo.json plus the run's CSV/JSON/SVG artifacts.

Exit codes: 0 success, 1 config/schema violation, 2 runtime or fit error,
out of memory or a worker process that ended, 3 I/O error, 130 interrupted
(Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
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

CASE_KINDS = {
    "case-memory": "stm",
    "case-parity": "parity",
    "case-narma10": "narma10",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrclab",
        description="Quantum reservoir computing benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    common.add_argument("--config", help="JSON config file (defaults used when omitted)")
    common.add_argument("--seed", help="override the master seed")
    common.add_argument("--out", help="override the output directory")

    for name in CASE_KINDS:
        sub.add_parser(name, parents=[common], help=f"run the {name.removeprefix('case-')} case study")

    p = sub.add_parser("theory-scan", parents=[common], help="qubit-width generalization-gap scan")
    p.add_argument("--qubits", default="2,3,4,5,6,7", help="comma-separated ascending widths")
    p.add_argument("--delta", default="0.05", help="risk bound failure probability")
    p.add_argument("--replicates", default="10", help="seed replicates per width")
    return parser


def _load(args, task_kind=None):
    """Parse --config and apply --seed and --out, each whenever it is given.
    Without a task kind (the theory scan) the run is narma10 unless the
    config names a kind. A config file that cannot be read raises OSError."""
    doc = load_config_file(args.config) if args.config is not None else {}
    if task_kind is None and not (isinstance(doc.get("task"), dict) and "kind" in doc["task"]):
        task_kind = "narma10"
    config, output = parse_config(doc, task_kind=task_kind)
    if args.seed is not None:
        config = replace(config, master_seed=check_seed("--seed", _parse_number("--seed", args.seed)))
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


def _parse_number(flag: str, raw: str, kind=int):
    """A numeric flag's value, ``kind(raw)``; a value that does not parse
    raises SchemaError keyed by the flag, so it exits 1 like any rule."""
    try:
        return kind(raw)
    except ValueError:
        raise SchemaError(flag, f"must be {'an integer' if kind is int else 'a number'}, got {raw!r}") from None


def cmd_theory_scan(args):
    """Set up the theory scan: its config, output options and run."""
    config, output = _load(args)
    for key in SEEDS:  # the echo would name a seed never used
        if attrgetter(key)(config) is not None:
            raise SchemaError(key, "a scan derives every replicate's seeds from master_seed; set that or --seed")
    qubits = [_parse_number("--qubits", part) for part in args.qubits.split(",") if part.strip() != ""]
    delta = _parse_number("--delta", args.delta, float)
    replicates = _parse_number("--replicates", args.replicates)
    try:
        check_scan_args(config, qubits, delta, replicates)
    except SchemaError as exc:  # name the flag that set the argument
        flag = {"qubit_list": "--qubits", "delta": "--delta", "replicates": "--replicates"}[exc.key]
        raise SchemaError(flag, exc.message) from exc
    worker_count()

    def run():
        rows = theory_scan(config, qubits, delta, replicates)
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
    the run dir. An OSError while making the dir or writing exits 3; the
    dir is made first, so one that cannot be made costs no run."""
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

    for line in summary:
        print(line)
    print(f"run_dir: {run_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; Ctrl-C prints one ``error: interrupted`` line and
    returns 130, once any worker processes are stopped."""
    args = build_parser().parse_args(argv)
    try:
        try:
            if args.command in CASE_KINDS:
                config, output, run = cmd_case(args.command, args)
            else:
                config, output, run = cmd_theory_scan(args)
        except SchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except OSError as exc:  # the config file cannot be read
            print(f"error: cannot read config {args.config}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
        return _run(config, output, run)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
