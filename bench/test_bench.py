"""Self-tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer, evolve_residual, layer_metrics  # noqa: E402

cli = workload.import_cli()

SMALL_CASE = {"task": {"T": 80}, "reservoir": {"n_qubits": 2}, "protocol": {"washout": 10}}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 90) == 3.0
    assert stats.percentile([5, 1, 4, 2, 3], 90) == 5


def test_beyond_counts_samples_above_the_percentile_rank():
    assert stats.beyond(list(range(100)), 90) == 10
    assert stats.beyond(list(range(99)), 90) == 9
    assert stats.beyond(list(range(22)), 90) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.4, 10.1, 9.9, 10.2, 10.8, 9.7, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.spread([2.0] * 10) == 0.0


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    # A [0, 10] has children B [1, 4] and D [5, 6]; B has child C [2, 3]
    tracer.names = ["A", "B", "C", "D"]
    tracer.starts = [0.0, 1.0, 2.0, 5.0]
    tracer.ends = [10.0, 4.0, 3.0, 6.0]
    tracer.parents = [-1, 0, 1, 0]
    assert tracer.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = tracer.totals()
    assert totals["A"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 6.0})


def test_span_wrappers_record_parents():
    tracer = Tracer()
    inner = tracer._span("inner", lambda: 1, None)
    outer = tracer._span("outer", lambda: inner() + inner(), None)
    assert outer() == 2
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    own = tracer.self_times()
    assert own[0] == pytest.approx(tracer.ends[0] - tracer.starts[0] - sum(e - s for s, e in zip(tracer.starts[1:], tracer.ends[1:])))


def test_evolve_residual_catches_a_span_outside_evolve():
    tracer = Tracer()
    # evolve [0, 10] holds encode [1, 4] and apply [5, 9]; a stray encode [11, 12] runs outside it
    tracer.names = ["experiment.evolve", "encoding.encode", "reservoir.apply", "encoding.encode"]
    tracer.starts = [0.0, 1.0, 5.0, 11.0]
    tracer.ends = [10.0, 4.0, 9.0, 12.0]
    tracer.parents = [-1, 0, 0, -1]
    layers = layer_metrics(tracer, 1)
    assert layers["experiment.evolve_self_s"] == pytest.approx(3.0)
    assert evolve_residual(layers) == pytest.approx(-1.0)
    for spans in (tracer.names, tracer.starts, tracer.ends, tracer.parents):
        spans.pop()
    assert evolve_residual(layer_metrics(tracer, 1)) == pytest.approx(0.0)


def _qrclab_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "qrclab" or name.startswith("qrclab.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import qrclab.encoding
    import qrclab.sim

    before = _qrclab_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert qrclab.sim.apply_gate is not before[("qrclab.sim", "apply_gate")]
        assert qrclab.encoding.apply_gate is not before[("qrclab.encoding", "apply_gate")]
        config = tmp_path / "small.json"
        config.write_text(json.dumps(SMALL_CASE))
        op = workload.call_cli(cli, ["case-memory", "--config", str(config), "--out", str(tmp_path)])
        assert op.error is None
    finally:
        tracer.restore()
    after = _qrclab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    layers = layer_metrics(tracer, 1)
    assert layers["experiment.steps"] == 80
    assert layers["experiment.rows"] == 70
    assert layers["sim.apply_gate_calls"] == layers["sim.gate_ops"] == 80 * (2 + 3 * (1 + 2))
    assert layers["experiment.evolve_self_s"] > 0
    assert evolve_residual(layers) == pytest.approx(0.0, abs=1e-9 * layers["experiment.evolve_s"])


def test_error_rate_counts_a_forced_failure(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SMALL_CASE))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL_CASE, "no_such_key": 1}))  # schema error: exit 1
    case = workload.WORKLOADS["cli-cases"]
    outcome = workload.Run(references=None)
    for index, config in enumerate((good, bad)):
        argv = ["case-memory", "--config", str(config), "--seed", "1", "--out", str(tmp_path)]
        outcome.check(case, index, argv, workload.call_cli(cli, argv))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.failed / outcome.attempted == 0.5
    assert "exited 1" in outcome.failures[0]


def test_checks_catch_a_corrupted_bundle(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CASE))
    op = workload.call_cli(cli, ["case-parity", "--config", str(config), "--out", str(tmp_path)])
    assert checks.check_case_bundle(op.run_dir) == ([], 70)
    ref = checks.digest(op.run_dir / "features.csv")
    features = op.run_dir / "features.csv"
    lines = features.read_text().splitlines()
    t, first, *rest = lines[1].split(",")
    lines[1] = ",".join([t, "1.5", *rest])
    features.write_text("\n".join(lines) + "\n")
    errors, _ = checks.check_case_bundle(op.run_dir)
    assert errors and "|Z| > 1" in errors[0]
    assert checks.compare_digest("features.csv", checks.digest(features), ref)


def test_scan_rows_come_from_the_bundle(tmp_path):
    (tmp_path / "scan.csv").write_text("n_qubits,train_score,test_score,gap,confidence_term\n2,0,0,0,0\n3,0,0,0,0\n")
    (tmp_path / "config_echo.json").write_text(json.dumps({"task": {"T": 80}, "protocol": {"washout": 10}}))
    assert checks.scan_rows(tmp_path, 3) == 2 * 3 * 70


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    reported = set(layer_metrics(Tracer(), 1)) | {"trace.overhead_s", "trace.overhead_frac", "experiment.pool_speedup"}
    assert reported == set(run.PER_LAYER)
