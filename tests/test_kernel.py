"""Parity of the fused evolution kernel with the gate-by-gate reference path.

``run_recurrent`` and ``run_windowed`` evolve batches of rows through the
two-factor RY layer and dense step operators (n <= 7) or batched gates with
folded diagonal runs (n >= 8). Here their features are
compared with a loop of ``step`` + ``expectation`` (or ``sample_counts`` +
``estimate_expectations`` on the shots backend) and with the independent
dense-matrix oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from qrclab import experiment, sim, tasks
from qrclab.encoding import EncoderSpec, build_encoder, scale_input
from qrclab.errors import ConfigurationError, DataError
from qrclab.experiment import (
    BackendSpec,
    ExperimentConfig,
    ModeSpec,
    ObservableSpec,
    ProtocolSpec,
    build_observables,
    resolve_seeds,
    run_recurrent,
    run_windowed,
    step,
)
from qrclab.reservoir import ReservoirSpec, build_reservoir
from qrclab.sim import (
    GateOp,
    PauliString,
    RandomStream,
    StateVector,
    apply_gate,
    apply_gate_rows,
    compile_gates,
    estimate_expectations,
    expectation,
    fold_diagonals,
    new_zero_state,
    ry_factors,
    ry_layer,
    sample_counts,
)
from qrclab.tasks import TaskSpec, TimeSeries, generate

from dense_oracle import apply_dense, dense_gate_matrix, random_circuit

TOL = 1e-12


def kernel_config(n, k=None, layers=1, zz="all_pairs", T=30, washout=12, backend=None):
    scheme = "angle" if layers == 1 else "reupload"
    return ExperimentConfig(
        task=TaskSpec("stm", T=T, seed=17),
        reservoir=ReservoirSpec(n_qubits=n, seed=23),
        encoder=EncoderSpec(n_qubits=n, scheme=scheme, layers=layers, interleave_seed=29),
        observables=ObservableSpec(local_z=True, zz=zz),
        mode=ModeSpec() if k is None else ModeSpec(kind="reupload_k", k=k),
        backend=backend or BackendSpec(),
        protocol=ProtocolSpec(washout=washout, train_fraction=0.5),
        master_seed=31,
    )


def run_kernel(series, cfg):
    return run_recurrent(series, cfg) if cfg.mode.kind == "recurrent" else run_windowed(series, cfg)


def window_start(cfg, t):
    k = cfg.mode.k
    return 0 if cfg.mode.kind == "recurrent" or k == "full" else t - k + 1


def reference_features(series, cfg, t_index):
    """Gate by gate: ``step`` per input, a fresh state per windowed row."""
    cfg = resolve_seeds(cfg)
    n = cfg.reservoir.n_qubits
    encoder, reservoir = build_encoder(cfg.encoder), build_reservoir(cfg.reservoir)
    observables = build_observables(cfg.observables, n, cfg.reservoir.topology)
    stream = RandomStream(cfg.backend.shot_seed) if cfg.backend.kind == "shots" else None
    rows = []
    state, done = new_zero_state(n), 0
    for t in t_index:
        if cfg.mode.kind != "recurrent":
            state, done = new_zero_state(n), window_start(cfg, t)
        for s in range(done, t + 1):
            step(state, series.inputs[s], encoder, reservoir)
        done = t + 1
        if stream is None:
            rows.append([expectation(state, obs) for obs in observables])
        else:
            counts = sample_counts(state, cfg.backend.shots, stream)
            rows.append(estimate_expectations(counts, cfg.backend.shots, observables))
    return np.array(rows)


def oracle_row(series, cfg, t):
    """One feature row from explicit Kronecker-product matrices."""
    cfg = resolve_seeds(cfg)
    n = cfg.reservoir.n_qubits
    encoder, reservoir = build_encoder(cfg.encoder), build_reservoir(cfg.reservoir)
    gates = []
    for s in range(window_start(cfg, t), t + 1):
        angle = float(scale_input(series.inputs[s]))
        for layer in encoder.layers:
            gates += [GateOp("RY", angle, target=q) for q in layer.angle_qubits]
            gates += layer.fixed_gates
        gates += reservoir.gates
    zero = np.zeros(2**n, dtype=np.complex128)
    zero[0] = 1.0
    probs = np.abs(apply_dense(zero, gates, n)) ** 2
    index = np.arange(2**n)
    out = []
    for obs in build_observables(cfg.observables, n, cfg.reservoir.topology):
        parity = sum((index >> q) & 1 for q in obs.qubits) % 2
        out.append(float(np.sum(probs * (1 - 2 * parity))))
    return np.array(out)


KERNEL_CASES = [
    pytest.param(7, None, 1, id="recurrent-angle-n7"),
    pytest.param(8, None, 2, id="recurrent-reupload2-n8"),
    pytest.param(8, 3, 1, id="k3-angle-n8"),
    pytest.param(7, 3, 2, id="k3-reupload2-n7"),
    pytest.param(7, 10, 1, id="k10-angle-n7"),
    pytest.param(8, 10, 2, id="k10-reupload2-n8"),
    pytest.param(7, "full", 2, id="full-reupload2-n7"),
    pytest.param(8, "full", 1, id="full-angle-n8"),
    pytest.param(9, 3, 2, id="k3-reupload2-n9"),
]


@pytest.mark.parametrize("n, k, layers", KERNEL_CASES)
def test_kernel_matches_gate_by_gate_step(n, k, layers):
    cfg = kernel_config(n, k=k, layers=layers)
    series = generate(resolve_seeds(cfg).task)
    got = run_kernel(series, cfg)
    assert got.values.shape == (len(got.t_index), n + n * (n - 1) // 2)
    want = reference_features(series, cfg, got.t_index)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n, k, layers", [(7, 3, 2), (8, "full", 2), (8, None, 1)])
def test_kernel_matches_dense_oracle(n, k, layers):
    cfg = kernel_config(n, k=k, layers=layers, T=17, washout=6)
    series = generate(resolve_seeds(cfg).task)
    got = run_kernel(series, cfg)
    # a row's oracle costs one 2**n x 2**n product per gate of its whole window
    for i in (0, -1) if isinstance(k, int) else (0,):
        want = oracle_row(series, cfg, int(got.t_index[i]))
        np.testing.assert_allclose(got.values[i], want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n, layers", [(7, 1), (8, 2)])
def test_shots_match_sample_counts_exactly(n, layers):
    shots = BackendSpec(kind="shots", shots=256, shot_seed=5)
    cfg = kernel_config(n, k=3, layers=layers, backend=shots)
    series = generate(resolve_seeds(cfg).task)
    got = run_windowed(series, cfg)
    np.testing.assert_array_equal(got.values, reference_features(series, cfg, got.t_index))


def test_explicit_pairs_and_chunk_boundaries():
    # 70 rows at n = 8 span three chunks (32 steps or 31 windows of 2 each)
    cfg = kernel_config(8, zz=((0, 7), (3, 4)), T=80, washout=10)
    series = generate(resolve_seeds(cfg).task)
    for mode in (ModeSpec(), ModeSpec(kind="reupload_k", k=2)):
        cfg_mode = replace(cfg, mode=mode)
        got = run_kernel(series, cfg_mode)
        assert len(got.t_index) == 70
        want = reference_features(series, cfg_mode, got.t_index)
        np.testing.assert_allclose(got.values, want, rtol=0, atol=TOL)


# --------------------------------------------------------------------------
# The batch helpers against apply_gate and the dense oracle
# --------------------------------------------------------------------------


def random_rows(b, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((b, 2**n)) + 1j * rng.standard_normal((b, 2**n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_apply_gate_rows_matches_apply_gate(n):
    gates = random_circuit(n, 40, seed=n)
    rows = random_rows(4, n, seed=n)
    got = rows.copy()
    for gate in gates:
        apply_gate_rows(got, gate, n)
    for row, want in zip(got, rows):
        state = StateVector(n, want.copy())
        for gate in gates:
            apply_gate(state, gate)
        np.testing.assert_allclose(row, state.amplitudes, rtol=0, atol=TOL)


def test_compile_gates_is_the_transposed_unitary():
    n = 4
    gates = random_circuit(n, 25, seed=3)
    unitary = np.eye(2**n, dtype=np.complex128)
    for gate in gates:
        unitary = dense_gate_matrix(gate, n) @ unitary
    np.testing.assert_allclose(compile_gates(gates, n), unitary.T, rtol=0, atol=TOL)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_ry_layer_rotates_each_qubit_of_each_row(n, shared):
    b = 3
    angles = np.random.default_rng(n).uniform(0.0, np.pi, size=(b, n))
    if shared:
        angles[:] = angles[0]
    half = 0.5 * angles
    rotations = np.stack(
        [np.stack([np.cos(half), -np.sin(half)], -1), np.stack([np.sin(half), np.cos(half)], -1)], -2
    ).astype(np.complex128)
    rows = random_rows(b, n, seed=9)
    got = ry_layer(rows, ry_factors(rotations[:1] if shared else rotations))
    for i in range(b):
        gates = [GateOp("RY", float(angles[i, q]), target=q) for q in range(n)]
        np.testing.assert_allclose(got[i], apply_dense(rows[i], gates, n), rtol=0, atol=TOL)


def test_fold_diagonals_matches_apply_gate():
    n = 8
    gates = random_circuit(n, 60, seed=11)
    folded = fold_diagonals(gates, n)
    assert any(isinstance(op, np.ndarray) for op in folded)
    assert len(folded) < len(gates)
    rows = random_rows(2, n, seed=12)
    got = rows.copy()
    for op in folded:
        if isinstance(op, np.ndarray):
            got *= op
        else:
            apply_gate_rows(got, op, n)
    for row, want in zip(got, rows):
        state = StateVector(n, want.copy())
        for gate in gates:
            apply_gate(state, gate)
        np.testing.assert_allclose(row, state.amplitudes, rtol=0, atol=TOL)


def test_estimate_rejects_negative_basis_index():
    with pytest.raises(DataError, match="negative"):
        estimate_expectations({-1: 4}, 4, [PauliString((0,))])


# --------------------------------------------------------------------------
# Invariants checked on real runs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", [None, 3])
def test_non_finite_input_raises(k):
    cfg = kernel_config(3, k=k)
    series = generate(resolve_seeds(cfg).task)
    inputs = series.inputs.copy()
    inputs[0] = np.nan  # before the first window: only the up-front check sees it
    with pytest.raises(DataError, match="non-finite"):
        run_kernel(TimeSeries(inputs, series.targets, series.valid_from), cfg)


@pytest.mark.parametrize("n, k", [(3, None), (3, "full"), (8, 2)])
def test_corrupted_state_raises(monkeypatch, n, k):
    # a block that is not unitary makes the norm drift past NORM_TOLERANCE
    if n <= 7:
        monkeypatch.setattr(experiment, "compile_gates", lambda gates, n: 1.001 * sim.compile_gates(gates, n))
    else:
        def leaky(rows, gate, n):
            sim.apply_gate_rows(rows, gate, n)
            rows *= 1.0001
            return rows

        monkeypatch.setattr(experiment, "apply_gate_rows", leaky)
    cfg = kernel_config(n, k=k)
    series = generate(resolve_seeds(cfg).task)
    with pytest.raises(DataError, match="norm"):
        run_kernel(series, cfg)


# --------------------------------------------------------------------------
# Replicate groups: R replicates of one width evolved as one recurrent batch
# --------------------------------------------------------------------------


def replicate_configs(n, replicates, task=None):
    base = kernel_config(n, T=20, washout=6)
    if task is not None:
        base = replace(base, task=task, protocol=ProtocolSpec(washout=12, train_fraction=0.5))
    return [experiment._replicate_config(base, r) for r in replicates]


def check_group(configs):
    """The grouped run against one ``run_recurrent`` per replicate, and the
    first and last replicates' first rows against the dense oracle."""
    series = [generate(resolve_seeds(c).task) for c in configs]
    got = experiment.run_recurrent_group(series, configs)
    assert len(got) == len(configs)
    for s, c, features in zip(series, configs, got):
        want = run_recurrent(s, c)
        np.testing.assert_array_equal(features.t_index, want.t_index)
        np.testing.assert_allclose(features.values, want.values, rtol=0, atol=TOL)
    for i in {0, len(configs) - 1}:
        want = oracle_row(series[i], configs[i], int(got[i].t_index[0]))
        np.testing.assert_allclose(got[i].values[0], want, rtol=0, atol=TOL)
    return series, got


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_group_matches_per_replicate_runs(n):
    # three replicates where the budget allows; R = 1 at n = 7 and at n = 8,
    # where the blocks are gate lists
    size = experiment._group_size(n)
    assert size == {2: 1024, 3: 256, 4: 64, 5: 16, 6: 4, 7: 1, 8: 1}[n]
    check_group(replicate_configs(n, range(min(size, 3))))


def test_full_and_partial_groups_at_n6():
    groups = experiment._replicate_groups(list(range(10)), 6)
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    check_group(replicate_configs(6, groups[0]))  # full: 4 stacked 64 x 64 blocks per layer
    check_group(replicate_configs(6, groups[-1]))  # the partial last group


def test_group_with_reupload_layers():
    configs = replicate_configs(4, range(3))
    check_group([replace(c, encoder=replace(c.encoder, scheme="reupload", layers=2)) for c in configs])


def test_group_beyond_the_budget_is_rejected():
    configs = replicate_configs(7, range(2))
    series = [generate(resolve_seeds(c).task) for c in configs]
    with pytest.raises(ConfigurationError, match="group size"):
        experiment.run_recurrent_group(series, configs)


def test_group_with_a_narma10_redraw(monkeypatch, caplog):
    # at this bound replicate 2's series diverges (max |y| 0.611) and is
    # redrawn from seed + 1 (0.469); the other three keep their first draw
    monkeypatch.setattr(tasks, "NARMA_DIVERGENCE_BOUND", 0.6)
    configs = replicate_configs(3, range(4), task=TaskSpec("narma10", T=40))
    series, _ = check_group(configs)
    assert caplog.text.count("diverged") == 1
    redrawn = RandomStream(resolve_seeds(configs[2]).task.seed + 1).uniform(0.0, 0.5, size=40)
    np.testing.assert_array_equal(series[2].inputs, redrawn / 0.5)
    # the scan's pool task scores every replicate as run_case does
    scores = experiment._group_scores([[c] for c in configs])
    for (cell,), cfg in zip(scores, configs):
        res = experiment.run_case(cfg)
        assert cell == (res.metrics["train_r2"], res.metrics["test_r2"], len(res.targets) - res.split_at)


def per_case_means(cells_by_replicate, name):
    """Mean train and test scores of each column of cells, one ``run_case``
    per cell: how scans and sweeps were scored before replicate groups."""
    results = [[experiment.run_case(c) for c in cells] for cells in cells_by_replicate]
    return [
        tuple(np.mean([row[i].metrics[f"{part}_{name}"] for row in results]) for part in ("train", "test"))
        for i in range(len(results[0]))
    ]


@pytest.mark.parametrize("k", [None, 3], ids=["recurrent", "k3"])
def test_scan_matches_per_case_scores(k):
    config = kernel_config(2, k=k, T=60, washout=12)
    rows = experiment.theory_scan(config, [2, 3, 5], delta=0.05, replicates=3)
    for row in rows:
        cells = [[experiment._replicate_config(config, r, n_qubits=row.n_qubits)] for r in range(3)]
        [(train, test)] = per_case_means(cells, "r2")
        assert row.train_score == pytest.approx(train, rel=0, abs=TOL)
        assert row.test_score == pytest.approx(test, rel=0, abs=TOL)


@pytest.mark.parametrize(
    "k, backend",
    [(None, None), (3, None), ("full", None), (2, BackendSpec(kind="shots", shots=64))],
    ids=["recurrent", "k3", "full", "k2-shots"],
)
def test_delay_sweep_matches_per_cell_scores(k, backend):
    # unsorted delays: each replicate evolves once from its smallest delay
    config = kernel_config(3, k=k, T=60, washout=12, backend=backend)
    delays = [4, 1, 13]
    got = experiment.stm_delay_sweep(config, delays, replicates=3)
    cells = []
    for r in range(3):
        base = experiment._replicate_config(config, r)
        cells.append([replace(base, task=replace(base.task, kind="stm", delay=d)) for d in delays])
    want = per_case_means(cells, "r2")
    assert [d for d, _ in got] == delays
    for (_, score), (_, test) in zip(got, want):
        assert score == pytest.approx(test, rel=0, abs=TOL)
