"""Config-driven command line entry points.

Commands: ``case-memory``, ``case-parity``, ``case-narma10``, ``theory-scan``.
Each run writes a timestamped output bundle (atomically, via temp-dir rename)
containing config_echo.json plus the run's CSV/JSON/SVG artifacts.

Exit codes: 0 success, 1 config/schema violation, 2 runtime or fit error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from .config import config_hash, dump_echo, echo_config, load_config_file, parse_config, validate
from .errors import QRCLabError, SchemaError
from .experiment import (
    _replicate_config,
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

    for name in CASE_KINDS:
        p = sub.add_parser(name, help=f"run the {name.removeprefix('case-')} case study")
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("theory-scan", help="qubit-width generalization-gap scan")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--qubits", default="2,3,4,5,6,7", help="comma-separated ascending widths")
    p.add_argument("--delta", type=float, default=0.05, help="risk bound failure probability")
    p.add_argument("--replicates", type=int, default=10, help="seed replicates per width")
    return parser


def _load(args, task_kind=None):
    """Parse --config and apply --seed and --out. Without a task kind (the
    theory scan) the run is narma10 unless the config names a kind."""
    doc = load_config_file(args.config) if args.config else {}
    if task_kind is None and not (isinstance(doc.get("task"), dict) and "kind" in doc["task"]):
        task_kind = "narma10"
    config, output = parse_config(doc, task_kind=task_kind)
    if args.seed is not None:
        config = replace(config, master_seed=check_seed("--seed", args.seed))
    if args.out:
        output = replace(output, dir=args.out)
    return config, output


def _write_bundle(output_dir: str, name: str, files: dict[str, str]) -> Path:
    """Write all files into a temp dir, then rename: no partial bundles."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f".{name}.tmp-{os.getpid()}"
    counter = 0
    while tmp.exists():
        counter += 1
        tmp = out / f".{name}.tmp-{os.getpid()}-{counter}"
    tmp.mkdir()
    try:
        for fname, content in files.items():
            (tmp / fname).write_bytes(content.encode("utf-8"))
        final = out / name
        counter = 1
        while final.exists():
            counter += 1
            final = out / f"{name}-{counter}"
        tmp.rename(final)
    except OSError:
        for leftover in tmp.glob("*"):
            leftover.unlink(missing_ok=True)
        tmp.rmdir()
        raise
    return final


def _run_dir_name(hash8: str) -> str:
    stamp = datetime.now().strftime("%Y%m%d_%H%M%S")
    return f"run_{stamp}_{hash8}"


def cmd_case(command: str, args) -> int:
    kind = CASE_KINDS[command]
    try:
        config, output = _load(args, kind)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    echo = echo_config(config, output)
    try:
        result = run_case(config)
        test_t = result.features.t_index[result.split_at :]
        files = {
            "config_echo.json": dump_echo(echo),
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
                test_t,
                result.targets[result.split_at :],
                result.predictions[result.split_at :],
                title=f"{kind}: test-horizon target vs prediction",
            )
    except QRCLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        run_dir = _write_bundle(output.dir, _run_dir_name(config_hash(echo)), files)
    except OSError as exc:
        print(f"error: cannot write output bundle: {exc}", file=sys.stderr)
        return EXIT_IO

    summary = " ".join(f"{k}={v:.6f}" for k, v in sorted(result.metrics.items()))
    print(f"{command} seed={config.master_seed} {summary}")
    print(f"run_dir: {run_dir}")
    return EXIT_OK


def _parse_qubits(raw: str) -> list[int]:
    try:
        qubits = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise SchemaError("--qubits", f"must be comma-separated integers, got {raw!r}")
    if not qubits:
        raise SchemaError("--qubits", "must name at least one width")
    if any(b <= a for a, b in zip(qubits, qubits[1:])):
        raise SchemaError("--qubits", "must be strictly ascending")
    return qubits


def cmd_theory_scan(args) -> int:
    try:
        config, output = _load(args)
        qubits = _parse_qubits(args.qubits)
        if not 0.0 < args.delta < 1.0:
            raise SchemaError("--delta", f"must be in (0, 1), got {args.delta}")
        if args.replicates < 1:
            raise SchemaError("--replicates", "must be >= 1")
        for n in qubits:  # rules that depend on the scanned width
            try:
                validate(_replicate_config(config, 0, n))
            except SchemaError as exc:
                raise SchemaError("--qubits", f"width {n}: {exc}") from exc
        worker_count()
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    echo = echo_config(config, output)
    try:
        rows = theory_scan(config, qubits, args.delta, args.replicates)
        files = {
            "config_echo.json": dump_echo(echo),
            "scan.csv": scan_csv(rows),
        }
        if output.plots:
            files["scan.svg"] = render_scan_svg(rows)
    except QRCLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        run_dir = _write_bundle(output.dir, _run_dir_name(config_hash(echo)), files)
    except OSError as exc:
        print(f"error: cannot write output bundle: {exc}", file=sys.stderr)
        return EXIT_IO

    for row in rows:
        print(
            f"N={row.n_qubits} train={row.train_score:.6f} test={row.test_score:.6f} "
            f"gap={row.gap:.6f} confidence={row.confidence_term:.6f}"
        )
    print(f"run_dir: {run_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in CASE_KINDS:
        return cmd_case(args.command, args)
    return cmd_theory_scan(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
