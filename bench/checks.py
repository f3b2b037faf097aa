"""Correctness checks on the files a CLI run writes.

Each check returns a list of failure messages; an empty list means the output
passed. Digests summarise a CSV in a few numbers so reference values recorded
at one commit can be compared within a tolerance on another machine.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REF_TOLERANCE = 1e-9  # relative to max(1, |reference|); rounding noise is ~1e-14
SCAN_TOLERANCE = 1e-8  # the tolerance of the scan baseline test
Z_LIMIT = 1.0 + 1e-12  # |<Z>| <= 1 up to float rounding of a unit-norm state


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _as_float(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def digest(path: Path) -> dict:
    """Row count, and per column either [sum, sum of squares, row-weighted
    sum] of its numbers or the SHA-256 of its text."""
    header, rows = read_csv(path)
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        nums = [_as_float(c) for c in cells]
        if all(v is not None for v in nums):
            columns[name] = [
                math.fsum(nums),
                math.fsum(v * v for v in nums),
                math.fsum((i + 1) * v for i, v in enumerate(nums)),
            ]
        else:
            columns[name] = hashlib.sha256("\n".join(cells).encode("utf-8")).hexdigest()
    return {"header": header, "rows": len(rows), "columns": columns}


def compare_digest(label: str, got: dict, want: dict) -> list[str]:
    if got["rows"] != want["rows"] or got["header"] != want["header"]:
        return [f"{label}: {got['rows']} rows with header {got['header']} != reference"]
    errors = []
    for name, ref in want["columns"].items():
        val = got["columns"][name]
        if isinstance(ref, str):
            if val != ref:
                errors.append(f"{label}: column {name} text differs from reference")
            continue
        for a, b in zip(val, ref):
            if not abs(a - b) <= REF_TOLERANCE * max(1.0, abs(b)):
                errors.append(f"{label}: column {name} summary {a!r} != reference {b!r}")
                break
    return errors


def check_case_bundle(run_dir: Path) -> tuple[list[str], int]:
    """Invariants of a case bundle at any seed; returns (errors, feature rows)."""
    errors = []
    header, rows = read_csv(run_dir / "features.csv")
    for row in rows:
        values = [float(v) for v in row[1:]]
        if not all(math.isfinite(v) and abs(v) <= Z_LIMIT for v in values):
            errors.append(f"features.csv: row t={row[0]} has a non-finite value or |Z| > 1")
            break
    p_header, p_rows = read_csv(run_dir / "predictions.csv")
    if p_header != ["t", "target", "prediction", "split"]:
        errors.append(f"predictions.csv: unexpected header {p_header}")
    elif len(p_rows) != len(rows):
        errors.append(f"predictions.csv: {len(p_rows)} rows for {len(rows)} feature rows")
    elif any(
        not (math.isfinite(float(r[1])) and math.isfinite(float(r[2]))) or r[3] not in ("train", "test")
        for r in p_rows
    ):
        errors.append("predictions.csv: non-finite value or unknown split label")
    if len(header) < 2:
        errors.append("features.csv: no feature columns")
    return errors, len(rows)


def check_scan_bundle(run_dir: Path, baseline: Path, compare: bool) -> list[str]:
    """Scan invariants at any seed; with ``compare``, every value within
    SCAN_TOLERANCE of the baseline. The confidence term depends only on T,
    washout and delta, so it must equal the baseline's at every seed."""
    header, rows = read_csv(run_dir / "scan.csv")
    b_header, b_rows = read_csv(baseline)
    if header != b_header or [r[0] for r in rows] != [r[0] for r in b_rows]:
        return [f"scan.csv: header or widths differ from {baseline.name}"]
    errors = []
    for row, ref in zip(rows, b_rows):
        train, test, gap, conf = (float(v) for v in row[1:])
        if not all(math.isfinite(v) for v in (train, test, gap, conf)):
            errors.append(f"scan.csv: N={row[0]} has a non-finite value")
        if abs(gap - (train - test)) > 1e-12:
            errors.append(f"scan.csv: N={row[0]} gap != train - test")
        if abs(conf - float(ref[4])) > 1e-12:
            errors.append(f"scan.csv: N={row[0]} confidence term {conf!r} != {ref[4]}")
        if compare:
            for name, got, want in zip(header[1:], row[1:], ref[1:]):
                if abs(float(got) - float(want)) > SCAN_TOLERANCE:
                    errors.append(f"scan.csv: N={row[0]} {name} {got} differs from baseline {want}")
    return errors


def scan_rows(run_dir: Path, replicates: int) -> int:
    """Feature rows a scan evolved: widths in scan.csv x replicates x rows per
    case, T - washout from the bundle's config_echo.json. The scan bundle
    records no per-case row count, so this is the echoed config's count."""
    _, rows = read_csv(run_dir / "scan.csv")
    echo = json.loads((run_dir / "config_echo.json").read_text(encoding="utf-8"))
    return len(rows) * replicates * (echo["task"]["T"] - echo["protocol"]["washout"])


def same_bytes(a: Path, b: Path) -> list[str]:
    """The rerun check: both bundles hold byte-identical CSVs."""
    names = ("features.csv", "predictions.csv")
    return [f"rerun from config_echo.json: {n} differs" for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
