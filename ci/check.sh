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
# config with an unknown key, a config with a task.T past 2**53 and a
# malformed numeric flag must each exit exactly 1; the task.T error must be
# the keyed error line, not a traceback, which exits 1 too
$QRCLAB case-parity --out "$RUNNER_TEMP/runs"
$QRCLAB theory-scan --qubits 2,3 --replicates 2 --out "$RUNNER_TEMP/runs"

# rerun COMMAND NAME DOC FILE...: run COMMAND (a subcommand and its flags) on
# the config DOC, rerun it with the same flags from its bundle's
# config_echo.json, and compare each FILE of the two bundles
rerun() {
  local command=$1 name=$2 doc=$3 first again
  shift 3
  echo "$doc" > "$RUNNER_TEMP/$name.json"
  first=$($QRCLAB $command --config "$RUNNER_TEMP/$name.json" --out "$RUNNER_TEMP/$name" | sed -n 's/^run_dir: //p')
  again=$($QRCLAB $command --config "$first/config_echo.json" | sed -n 's/^run_dir: //p')
  test "$first" != "$again"
  for file in "$@"; do cmp "$first/$file" "$again/$file"; done
}
rerun case-memory echo '{"readout":{"alpha":1,"alpha_grid":[0,1,0.5]},"observables":{"zz":[[1,0],[2,3]]},"mode":{"type":"reupload_k","k":3}}' \
  config_echo.json features.csv predictions.csv
# n = 7, the widest dense width: the largest frame matrix W, and a chunk of 128 steps
rerun case-narma10 dense '{"reservoir":{"n_qubits":7},"output":{"plots":false}}' features.csv predictions.csv
# an odd width (groups of 5 and 4 qubits) whose fused blocks keep crossing CRYs and CRZs
rerun case-parity wide '{"task":{"T":80},"reservoir":{"n_qubits":9,"topology":"all_to_all"},"encoder":{"scheme":"reupload","layers":2},"mode":{"type":"reupload_k","k":2},"output":{"plots":false}}' \
  features.csv predictions.csv
# n = 12, the widest width of two fused groups (6 and 6 qubits): each crossing CRY that takes
# its target group's neighbouring factors is a (2, 64, 64) controlled stack
rerun case-parity twelve '{"task":{"T":60},"reservoir":{"n_qubits":12},"mode":{"type":"reupload_k","k":3},"backend":{"type":"shots","shots":256},"protocol":{"washout":12},"output":{"plots":false}}' \
  features.csv predictions.csv
# n = 13, the narrowest width of three fused groups (5, 4 and 4 qubits), over chunks of 2 rows
rerun case-parity three '{"task":{"T":40},"reservoir":{"n_qubits":13},"mode":{"type":"reupload_k","k":3},"protocol":{"washout":12},"output":{"plots":false}}' \
  features.csv predictions.csv
# n = 13 all_to_all with two re-upload layers: three groups, each crossing CRY's control below its
# target; six are controlled group ops on the two upper groups, 162 stay gates
rerun case-parity three-all '{"task":{"T":24},"reservoir":{"n_qubits":13,"topology":"all_to_all"},"encoder":{"scheme":"reupload","layers":2},"mode":{"type":"reupload_k","k":2},"protocol":{"washout":12},"output":{"plots":false}}' \
  features.csv predictions.csv
# n = 19, the narrowest width of four fused groups (5, 5, 5 and 4 qubits)
rerun case-parity four '{"task":{"T":16},"reservoir":{"n_qubits":19},"protocol":{"washout":4},"output":{"plots":false}}' \
  features.csv predictions.csv
# a scan's echo holds its config, not its flags: it reruns from the echo plus the same flags
rerun "theory-scan --qubits 2,3 --replicates 2" scan '{}' scan.csv config_echo.json
# each replicate's series is generated once and travels inside its task: a scan in
# process, the same scan on two workers (the caller and one worker process) and on three
# (the caller and two) write the same bytes. At n = 6 the plan's group size is 4, so 5
# replicates run as a full group and a partial one
one=$(QRCLAB_THREADS=1 $QRCLAB theory-scan --qubits 2,6,7 --replicates 5 --out "$RUNNER_TEMP/threads" | sed -n 's/^run_dir: //p')
two=$(QRCLAB_THREADS=2 $QRCLAB theory-scan --qubits 2,6,7 --replicates 5 --out "$RUNNER_TEMP/threads" | sed -n 's/^run_dir: //p')
three=$(QRCLAB_THREADS=3 $QRCLAB theory-scan --qubits 2,6,7 --replicates 5 --out "$RUNNER_TEMP/threads" | sed -n 's/^run_dir: //p')
# only the case commands fit readout.alpha_grid: a scan scores at readout.alpha, so a grid
# leaves its bytes as they are
echo '{"readout": {"alpha_grid": [0.001, 1]}}' > "$RUNNER_TEMP/grid.json"
grid=$(QRCLAB_THREADS=2 $QRCLAB theory-scan --qubits 2,6,7 --replicates 5 --config "$RUNNER_TEMP/grid.json" --out "$RUNNER_TEMP/threads" | sed -n 's/^run_dir: //p')
test "$one" != "$two" && test "$two" != "$three" && test "$two" != "$grid"
cmp "$one/scan.csv" "$two/scan.csv"
cmp "$one/scan.csv" "$three/scan.csv"
cmp "$two/scan.csv" "$grid/scan.csv"
# the same three-worker scan under the spawn start method (the default on macOS) and under
# forkserver (the default on Linux from Python 3.14): each worker starts from a fresh import,
# receives its target pickled and then its share pickled on its pipe, so a target that is
# not a module-level function, or a share that does not pickle, fails here
for method in spawn forkserver; do
  started=$(QRCLAB_THREADS=3 python3 -c 'import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from qrclab.cli import main
sys.exit(main(sys.argv[2:]))' "$method" theory-scan --qubits 2,6,7 --replicates 5 --out "$RUNNER_TEMP/$method" | sed -n 's/^run_dir: //p')
  cmp "$one/scan.csv" "$started/scan.csv"
done
# an output dir that cannot be made exits exactly 3, before the scan runs
touch "$RUNNER_TEMP/afile"
status=0
$QRCLAB theory-scan --out "$RUNNER_TEMP/afile/x" 2> "$RUNNER_TEMP/afile.err" || status=$?
test "$status" -eq 3
grep -q '^error: cannot write output bundle' "$RUNNER_TEMP/afile.err"
echo '{"qbits": 4}' > "$RUNNER_TEMP/unknown-key.json"
status=0
$QRCLAB case-parity --config "$RUNNER_TEMP/unknown-key.json" --out "$RUNNER_TEMP/runs" || status=$?
test "$status" -eq 1
echo '{"task": {"T": 100000000000000000000}}' > "$RUNNER_TEMP/huge-T.json"
status=0
$QRCLAB case-memory --config "$RUNNER_TEMP/huge-T.json" --out "$RUNNER_TEMP/runs" 2> "$RUNNER_TEMP/huge-T.err" || status=$?
test "$status" -eq 1
grep -q '^error: task.T: ' "$RUNNER_TEMP/huge-T.err"
printf '%s\n' '{"output": {"dir": "runs/a\u0000b"}}' > "$RUNNER_TEMP/nul-dir.json"
status=0
$QRCLAB case-memory --config "$RUNNER_TEMP/nul-dir.json" 2> "$RUNNER_TEMP/nul-dir.err" || status=$?
test "$status" -eq 1
grep -q '^error: output.dir: ' "$RUNNER_TEMP/nul-dir.err"
status=0
$QRCLAB theory-scan --replicates 1.5 --out "$RUNNER_TEMP/runs" || status=$?
test "$status" -eq 1

# bench correctness: seed-42 case bundles must match the digests in
# bench/reference.json, a scan must match tests/data/scan_baseline.csv (in
# process, then on two workers), and a rerun must give the same bytes;
# the last stdout line of a run is its JSON summary
for workload in cli-cases wide-shots theory-scan theory-scan-2w; do
  python3 bench/run.py --workload "$workload" --seconds 3 > "$RUNNER_TEMP/$workload.out"
  tail -n 1 "$RUNNER_TEMP/$workload.out" | grep -q '"correct": true'
done

# every bundle write above, the failed ones included, removed its temp dir
# (`.<name>.tmp-<pid>-<hex>`)
test -z "$(find "$RUNNER_TEMP" -name '.*.tmp-*' -print -quit)"
