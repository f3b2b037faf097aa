#!/usr/bin/env bash
# The checks CI runs after pytest, from the repository root:
#
#   bash ci/check.sh
#
# QRCLAB is the command that runs the CLI (default: the installed console
# script `qrclab`); RUNNER_TEMP is where outputs go (default: a fresh
# temporary directory, removed on exit). Without an install:
#
#   PYTHONPATH=src QRCLAB="python3 -m qrclab.cli" bash ci/check.sh
set -eo pipefail
QRCLAB=${QRCLAB:-qrclab}
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# console script: every CLI test calls main() in process; this runs the
# installed console script, a non-default config rerun from its own bundle's
# config_echo.json must give the same echo, features and predictions, and a
# config with an unknown key and a malformed numeric flag must each exit
# exactly 1
$QRCLAB case-parity --out "$RUNNER_TEMP/runs"
$QRCLAB theory-scan --qubits 2,3 --replicates 2 --out "$RUNNER_TEMP/runs"
echo '{"readout":{"alpha":1,"alpha_grid":[0,1,0.5]},"observables":{"zz":[[1,0],[2,3]]},"mode":{"type":"reupload_k","k":3}}' > "$RUNNER_TEMP/echo.json"
first=$($QRCLAB case-memory --config "$RUNNER_TEMP/echo.json" --out "$RUNNER_TEMP/echo" | sed -n 's/^run_dir: //p')
again=$($QRCLAB case-memory --config "$first/config_echo.json" | sed -n 's/^run_dir: //p')
test "$first" != "$again"
for file in config_echo.json features.csv predictions.csv; do cmp "$first/$file" "$again/$file"; done
# an odd width (a = 5, b = 4) whose fused blocks keep crossing CRYs and CRZs
echo '{"task":{"T":80},"reservoir":{"n_qubits":9,"topology":"all_to_all"},"encoder":{"scheme":"reupload","layers":2},"mode":{"type":"reupload_k","k":2},"output":{"plots":false}}' > "$RUNNER_TEMP/wide.json"
first=$($QRCLAB case-parity --config "$RUNNER_TEMP/wide.json" --out "$RUNNER_TEMP/wide" | sed -n 's/^run_dir: //p')
again=$($QRCLAB case-parity --config "$first/config_echo.json" | sed -n 's/^run_dir: //p')
test "$first" != "$again"
for file in features.csv predictions.csv; do cmp "$first/$file" "$again/$file"; done
echo '{"qbits": 4}' > "$RUNNER_TEMP/unknown-key.json"
status=0
$QRCLAB case-parity --config "$RUNNER_TEMP/unknown-key.json" --out "$RUNNER_TEMP/runs" || status=$?
test "$status" -eq 1
status=0
$QRCLAB theory-scan --replicates 1.5 --out "$RUNNER_TEMP/runs" || status=$?
test "$status" -eq 1

# bench correctness: seed-42 case bundles must match the digests in
# bench/reference.json, a scan must match tests/data/scan_baseline.csv (in
# process, then in two pool workers), and a rerun must give the same bytes;
# the last stdout line of a run is its JSON summary
for workload in cli-cases wide-shots theory-scan theory-scan-2w; do
  python3 bench/run.py --workload "$workload" --seconds 3 > "$RUNNER_TEMP/$workload.out"
  tail -n 1 "$RUNNER_TEMP/$workload.out" | grep -q '"correct": true'
done
