"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 bench/spread.py cli-cases wide-shots theory-scan theory-scan-2w

Runs ``bench/run.py`` once per seed 1..10 on each workload named and prints,
per metric, the median, the quartiles and the interquartile distance as a
share of the median, next to the bound BENCHMARK.json fixes for it.
``bench/SPREAD.txt`` is this command's output on all four workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import stats  # noqa: E402

SEEDS = range(1, 11)


def spread(spec: dict, name: str) -> bool:
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in SEEDS:
        cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{name} seed {seed}: {result['failed']}/{result['attempted']} ops failed", flush=True)
            return False
        for metric in values:
            values[metric].append(result["metrics"][metric]["value"])
        print(f"{name} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(
            f"{name:<15} {m['name']:<12} median {statistics.median(vals):<12.6g} "
            f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {stats.spread(vals):.4f} bound {m['bound']}",
            flush=True,
        )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 0 if all([spread(spec, name) for name in args.workloads]) else 1


if __name__ == "__main__":
    sys.exit(main())
