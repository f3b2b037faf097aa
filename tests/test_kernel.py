"""Parity of the fused evolution kernel with the gate-by-gate reference path.

``run_recurrent`` and ``run_windowed`` evolve batches of rows in the
eigenbasis of Pauli-Y, entered and left by one matmul with the frame matrix
W, through one phase multiply per RY layer and dense step operators
(n <= 7, one qubit group), or through group ops (``sim.GroupOp``, one row
operator on one qubit group per pass): one per group for the RY layer, and
the fixed gates fused into such ops, with only the gates that cross a cut
left (n >= 8: two groups through n = 12, three through 18, four through
24). Here their features are compared with a loop of ``step`` +
``expectation`` (or ``sample_counts`` + ``estimate_expectations`` on the
shots backend), by hand and by a hypothesis property over drawn configs, and
with the independent dense-matrix oracle.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrclab import experiment, sim, tasks
from qrclab.encoding import SCHEMES, EncoderSpec, build_encoder, scale_input
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
from qrclab.readout import fit_ridge, predict, r2_score
from qrclab.reservoir import TOPOLOGIES, ReservoirSpec, build_reservoir
from qrclab.sim import (
    Y_FRAME,
    GateOp,
    GroupOp,
    PauliString,
    RandomStream,
    StateVector,
    apply_gate,
    apply_circuit,
    apply_gate_rows,
    compile_gates,
    estimate_expectations,
    expectation,
    fuse_groups,
    new_zero_state,
    ry_factors,
    ry_phases,
    sample_counts,
    y_frame,
)
from qrclab.tasks import TaskSpec, TimeSeries, generate, stm_series

from dense_oracle import apply_dense, dense_gate_matrix, random_circuit

TOL = 1e-12


def kernel_config(n, k=None, layers=1, zz="all_pairs", T=30, washout=12, backend=None, topology="ring"):
    scheme = "angle" if layers == 1 else "reupload"
    return ExperimentConfig(
        task=TaskSpec("stm", T=T, seed=17),
        reservoir=ReservoirSpec(n_qubits=n, seed=23, topology=topology),
        encoder=EncoderSpec(scheme=scheme, layers=layers, interleave_seed=29),
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
    encoder, reservoir = build_encoder(cfg.encoder, n), build_reservoir(cfg.reservoir)
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
    encoder, reservoir = build_encoder(cfg.encoder, n), build_reservoir(cfg.reservoir)
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


WIDE_CASES = [
    pytest.param(n, k, layers, topology, id=f"{topology}-{'angle' if layers == 1 else 'reupload2'}-{mode}-{n}")
    for topology in ("ring", "chain", "all_to_all")
    for layers in (1, 2)
    for k, mode in ((None, "recurrent"), (3, "k3"))
    for n in (10, 12)
] + [
    pytest.param(n, k, 1, "ring", id=f"ring-angle-{mode}-{n}")
    for n in (13, 14, 15)
    for k, mode in ((None, "recurrent"), (3, "k3"))
]


@pytest.mark.parametrize("n, k, layers, topology", WIDE_CASES)
def test_wide_kernel_matches_gate_by_gate_step(n, k, layers, topology):
    # wide blocks are fused into one factor per qubit group; ring and
    # all_to_all leave crossing CRYs (and, with reupload, crossing CRZs),
    # chain one CRY per depth layer and cut. From n = 13 the qubits split
    # into three groups, and a chunk holds 2 rows at n = 13, one from 14.
    cfg = kernel_config(n, k=k, layers=layers, zz="edges", T=18, washout=6, topology=topology)
    series = generate(resolve_seeds(cfg).task)
    got = run_kernel(series, cfg)
    want = reference_features(series, cfg, got.t_index)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("k", [None, 3], ids=["recurrent", "k3"])
@pytest.mark.parametrize("n", [4, 9], ids=["dense-n4", "fused-n9"])
def test_kernel_on_vector_inputs(n, k):
    # a (T, 3) series: the kernel tiles each input vector across the qubits
    # as encode_input does, qubit q taking component q % 3, on the dense
    # path (n = 4) and on fused groups of 5 and 4 qubits (n = 9)
    cfg = kernel_config(n, k=k, layers=2)
    rng = np.random.default_rng(5)
    series = TimeSeries(rng.uniform(size=(30, 3)), rng.uniform(size=30), valid_from=0)
    got = run_kernel(series, cfg)
    want = reference_features(series, cfg, got.t_index)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n, k, layers", [(7, 3, 2), (8, "full", 2), (8, None, 1), (10, 1, 1)])
def test_kernel_matches_dense_oracle(n, k, layers):
    cfg = kernel_config(n, k=k, layers=layers, T=17, washout=6)
    series = generate(resolve_seeds(cfg).task)
    got = run_kernel(series, cfg)
    # a row's oracle costs one 2**n x 2**n product per gate of its whole
    # window: at n = 10 one row of a one-step window (at n = 12 a 256 MB
    # matrix per gate, so not there)
    for i in (0, -1) if isinstance(k, int) and n < 10 else (0,):
        want = oracle_row(series, cfg, int(got.t_index[i]))
        np.testing.assert_allclose(got.values[i], want, rtol=0, atol=TOL)


@pytest.mark.parametrize(
    "n, layers, k",
    [
        pytest.param(7, 1, 3, id="7-1"),
        pytest.param(8, 2, 3, id="8-2"),
        pytest.param(10, 1, 3, id="10-1"),
        pytest.param(7, 2, "full", id="full-7-2"),
    ],
)
def test_shots_match_sample_counts_exactly(n, layers, k):
    # a full window is one recurrent state, measured with the draws of a
    # fresh state per row
    shots = BackendSpec(kind="shots", shots=256, shot_seed=5)
    cfg = kernel_config(n, k=k, layers=layers, backend=shots)
    series = generate(resolve_seeds(cfg).task)
    got = run_windowed(series, cfg)
    np.testing.assert_array_equal(got.values, reference_features(series, cfg, got.t_index))


@pytest.mark.parametrize("n", [4, 7])
def test_long_run_keeps_the_reference_accuracy(n):
    # 600 steps of one persistent state in the Y frame: the exact +-1/+-i
    # frame with a 2**-n scale stays within about 5e-14 of the gate-by-gate
    # path; a frame normalized by 1/sqrt(2) per qubit drifts to about 5e-13
    cfg = kernel_config(n, zz="edges", T=600, washout=12)
    series = generate(resolve_seeds(cfg).task)
    got = run_recurrent(series, cfg)
    want = reference_features(series, cfg, got.t_index)
    assert np.max(np.abs(got.values - want)) <= 1e-13


def test_dense_path_applies_no_group_op(monkeypatch):
    # the dense blocks compile through group ops; the run itself applies none
    fixed_blocks, apply_group = experiment._fixed_blocks, sim.apply_group

    def refused(rows, op, groups):
        raise AssertionError("a group op was applied")

    def compiled(configs, p, frame=None):  # refuse group ops only once the blocks are built
        monkeypatch.setattr(sim, "apply_group", apply_group)
        blocks = fixed_blocks(configs, p, frame)
        monkeypatch.setattr(sim, "apply_group", refused)
        return blocks

    monkeypatch.setattr(experiment, "_fixed_blocks", compiled)
    for k in (None, 3, "full"):
        cfg = kernel_config(4, k=k)
        run_kernel(generate(resolve_seeds(cfg).task), cfg)
    cfg = kernel_config(8, k=3)  # the fused form applies its RY layer as group ops
    with pytest.raises(AssertionError, match="group op"):
        run_kernel(generate(resolve_seeds(cfg).task), cfg)


@st.composite
def kernel_groups(draw, widths):
    """R replicate configs of one drawn width in ``widths``, circuit, mode,
    backend and observables, small enough to run gate by gate (T <= 24)."""
    n = draw(st.integers(*widths))
    topology = draw(st.sampled_from(TOPOLOGIES))
    scheme = draw(st.sampled_from(SCHEMES))
    layers = 1 if scheme == "angle" else draw(st.integers(1, 2))
    T = draw(st.integers(12, 24))
    washout = draw(st.integers(0, T - 11))
    k = draw(st.sampled_from([None, "full", "int"]))
    mode = ModeSpec() if k is None else ModeSpec(kind="reupload_k", k=draw(st.integers(1, T - 1)) if k == "int" else k)
    backend = BackendSpec()
    if k is not None and draw(st.booleans()):
        backend = BackendSpec(kind="shots", shots=draw(st.integers(1, 64)))
    zz = draw(st.sampled_from([None, "edges", "all_pairs", "pairs"]))
    if zz == "pairs":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        zz = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)))
    local_z = draw(st.booleans()) if zz else True
    base = ExperimentConfig(
        task=TaskSpec("stm", T=T),
        reservoir=ReservoirSpec(n_qubits=n, topology=topology, depth=draw(st.integers(1, 3))),
        encoder=EncoderSpec(scheme=scheme, layers=layers),
        observables=ObservableSpec(local_z=local_z, zz=zz),
        mode=mode,
        backend=backend,
        protocol=ProtocolSpec(washout=washout, train_fraction=0.5),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )
    R = draw(st.integers(1, min(experiment.plan(n).size, 3)))
    return [experiment._replicate_config(base, r) for r in range(R)]


@pytest.mark.parametrize(
    "widths, examples",
    [((2, 7), 30), ((8, 9), 10), ((10, 12), 6), ((13, 15), 4)],
    ids=["dense", "fused", "wide", "three-groups"],
)
def test_run_group_matches_the_gate_by_gate_reference(widths, examples):
    # drawn apart per path, so each gets its examples: Y-frame dense blocks
    # at n <= 7, two fused groups and crossing gates at n = 8, 9 and at
    # n = 10..12, and three groups at n = 13..15 (slower to run gate by gate
    # the wider they are, so fewer)
    @settings(derandomize=True, database=None, deadline=None, max_examples=examples)
    @given(kernel_groups(widths))
    def matches(configs):
        series = [generate(resolve_seeds(c).task) for c in configs]
        got = experiment.run_group(series, configs)
        shots = configs[0].backend.kind == "shots"
        for s, c, features in zip(series, configs, got):
            want = reference_features(s, c, features.t_index)
            np.testing.assert_allclose(features.values, want, rtol=0, atol=0 if shots else TOL)

    matches()


def test_explicit_pairs_and_chunk_boundaries():
    # 70 rows at n = 8 span two chunks (64 steps or 64 windows of 2 each)
    assert experiment.plan(8).rows == 64
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


def apply_gates(row, gates, n):
    """One amplitude row through ``apply_gate``, gate by gate."""
    return apply_circuit(StateVector(n, row.copy()), gates).amplitudes


def ry_ops(angles, groups):
    """The RY layer of (S, n) angles as the kernel runs it: one GroupOp per
    qubit group, its factor from ``ry_factors``."""
    return [GroupOp(i, f) for i, f in enumerate(ry_factors(angles, groups))]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 13, 19])
def test_ry_layer_rotates_each_qubit_of_each_row(n, shared):
    # two groups of n - n//2 and n//2 qubits below n = 8, then the kernel's
    # split: two groups at n = 8 and 9, three at 13 and four at 19
    b, groups = 3, experiment.plan(n).groups if n > 7 else (n - n // 2, n // 2)
    angles = np.random.default_rng(n).uniform(0.0, np.pi, size=(b, n))
    if shared:
        angles[:] = angles[0]
    rows = random_rows(b, n, seed=9)
    got = sim.apply_ops(rows, ry_ops(angles[:1] if shared else angles, groups), groups)
    for i in range(b):
        gates = [GateOp("RY", float(angles[i, q]), target=q) for q in range(n)]
        want = apply_dense(rows[i], gates, n) if n < 10 else apply_gates(rows[i], gates, n)
        np.testing.assert_allclose(got[i], want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n", range(1, 8))
def test_y_frame_turns_the_ry_layer_into_phases(n):
    # rows moved into the frame (rows @ conj(W)), multiplied by their phases
    # and moved back (@ W^T / 2**n) take the RY layer of two group factors
    angles = np.random.default_rng(n).uniform(-np.pi, 2 * np.pi, size=(3, n))
    rows = random_rows(3, n, seed=n + 20)
    w = y_frame(n)
    got = (rows @ w.conj() * ry_phases(angles)) @ w.T / 2**n
    groups = (n - n // 2, n // 2)
    np.testing.assert_allclose(got, sim.apply_ops(rows, ry_ops(angles, groups), groups), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_y_frame_is_the_kronecker_power(n):
    power = np.ones((1, 1))
    for _ in range(n):
        power = np.kron(power, Y_FRAME)
    np.testing.assert_array_equal(y_frame(n), power)


@pytest.mark.parametrize("n", [8, 9, 13, 19])
def test_fuse_groups_matches_apply_gate(n):
    # the kernel's groups: two at n = 8 and at 9 (5 top qubits and 4
    # bottom ones), three at 13 and four at 19. Across every cut a CRY and a
    # run of two CRZs; after the last crossing CRY a group-local CRZ and a
    # trailing RZ run
    groups = experiment.plan(n).groups
    owner = [i for i, g in enumerate(groups) for _ in range(g)][::-1]
    gates = random_circuit(n, 80, seed=11)
    for cut in np.cumsum(groups[::-1])[:-1].tolist():  # the bottom qubit of the group above the cut
        gates += [GateOp("CRZ", 0.7, target=0, control=n - 1), GateOp("CRZ", 1.1, target=cut, control=cut - 1)]
        gates += [GateOp("CRY", 0.4, target=cut - 1, control=cut)]
    gates += [GateOp("CRZ", 0.9, target=n - 2, control=n - 1)]
    gates += [GateOp("RZ", 0.5, target=0), GateOp("RZ", 1.3, target=n - 1)]

    def crossing(g):
        return g.control is not None and owner[g.control] != owner[g.target]

    assert {g.kind for g in gates if crossing(g)} == {"CRY", "CRZ"}
    assert {g.kind for g in gates if not crossing(g)} == {"RY", "RZ", "CRY", "CRZ"}
    ops = fuse_groups(gates, groups)
    # each crossing CRY, in order, is a GateOp, or a GroupOp on its target's
    # group with its control
    crossing_cry = [g for g in gates if crossing(g) and g.kind == "CRY"]
    cry_ops = [op for op in ops if isinstance(op, GateOp) or isinstance(op, GroupOp) and op.control is not None]
    for op, gate in zip(cry_ops, crossing_cry, strict=True):
        assert op == gate if isinstance(op, GateOp) else (op.control, op.group) == (gate.control, owner[gate.target])
    assert any(isinstance(op, GroupOp) for op in cry_ops)
    # the last crossing CRY has phase vectors on both sides, so it stays a
    # GateOp, and the gates after it are RZ/CRZ only: one phase vector, not group ops
    assert ops[-2] == gates[-4] and isinstance(ops[-1], np.ndarray)
    # a run of group-local gates is at most one op per group, top group first
    last = None
    for op in ops:
        if isinstance(op, GroupOp) and op.control is None:
            assert last is None or op.group > last
            last = op.group
        else:
            last = None
    for i, g in enumerate(groups):  # every group has gates of its own, each in an op on its qubits
        mine = [op for op in ops if isinstance(op, GroupOp) and op.group == i]
        assert mine
        assert all(op.factor.shape == ((2**g, 2**g) if op.control is None else (2, 2**g, 2**g)) for op in mine)
    rows = random_rows(2, n, seed=12)
    got = sim.apply_ops(rows.copy(), ops, groups)
    for row, want in zip(got, rows):
        np.testing.assert_allclose(row, apply_gates(want, gates, n), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [9, 10, 13, 19])
def test_controlled_op_matches_apply_gate(n):
    # per target group, the bottom one included, a CRY from the group above
    # it and one from the group below, each next to group-local RY runs:
    # each becomes a controlled GroupOp, with its control above or below the
    # group. Then a CRY between two crossing CRZs has no factor to take and
    # stays a GateOp
    groups = experiment.plan(n).groups
    lows = np.cumsum((0,) + groups[::-1])[::-1][1:].tolist()  # each group's bottom qubit
    gates = []
    for i, (g, low) in enumerate(zip(groups, lows)):
        for j in (i - 1, i + 1):  # the group above, then the one below
            if 0 <= j < len(groups):
                gates += [GateOp("RY", 0.3 + low, target=low)]
                gates += [GateOp("CRY", 1.2 + j, target=low + g - 1, control=lows[j])]
                gates += [GateOp("RY", 0.8 + j, target=low + g // 2)]
    gates += [GateOp("CRZ", 0.5, target=0, control=n - 1), GateOp("CRY", 0.9, target=0, control=n - 1)]
    gates += [GateOp("CRZ", 1.7, target=n - 1, control=0)]
    ops = fuse_groups(gates, groups)
    placed = {(op.group, op.control > lows[op.group]) for op in ops if isinstance(op, GroupOp) and op.control is not None}
    m = len(groups)
    assert placed == {(i, True) for i in range(1, m)} | {(i, False) for i in range(m - 1)}
    assert [op for op in ops if isinstance(op, GateOp)] == [gates[-2]]
    rows = random_rows(4, n, seed=n).reshape(2, 2, 2**n)  # leading axes, as run_group's (R, B, 2**n)
    got = sim.apply_ops(rows.copy(), ops, groups)
    for row, want in zip(got.reshape(4, -1), rows.reshape(4, -1)):
        np.testing.assert_allclose(row, apply_gates(want, gates, n), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [9, 15, 19])
def test_every_group_factor_is_a_row_operator(n):
    # two, three and four groups: each factor, whatever its group, is what
    # compile_gates builds (rows @ M), so no group's factor is transposed,
    # and each controlled stack is prev @ [I, RY_t] @ next of such factors
    groups = experiment.plan(n).groups
    owner = [i for i, g in enumerate(groups) for _ in range(g)][::-1]
    lows = np.cumsum((0,) + groups[::-1])[::-1][1:].tolist()  # each group's bottom qubit
    gates = random_circuit(n, 300, seed=n)
    # the op list as fuse_groups splits it: a list of factors per run of
    # group-local gates, "phase" for a run of RZ/CRZ only or a crossing CRZ,
    # and each crossing CRY
    want, run = [], []
    for gate in gates + [None]:
        if gate is not None and (gate.control is None or owner[gate.control] == owner[gate.target]):
            run.append(gate)
            continue
        if any(g.kind in ("RY", "CRY") for g in run):
            factors = []
            for i, (g, low) in enumerate(zip(groups, lows)):
                local = [GateOp(x.kind, x.angle, x.target - low, None if x.control is None else x.control - low)
                         for x in run if owner[x.target] == i]
                factors.append(compile_gates(local, g) if local else None)
            want.append(factors)
        elif run:
            want.append("phase")
        if gate is not None:
            want.append(gate if gate.kind == "CRY" else "phase")
        run = []
    for k, op in enumerate(want):  # each crossing CRY takes its target group's factors next to it
        if isinstance(op, GateOp):
            t = owner[op.target]
            before, after = (want[j][t] if 0 <= j < len(want) and isinstance(want[j], list) else None
                             for j in (k - 1, k + 1))
            if before is None and after is None:
                continue
            ry = compile_gates([GateOp("RY", op.angle, op.target - lows[t])], groups[t])
            stack = np.stack([np.eye(2 ** groups[t]), ry])
            if before is not None:
                stack, want[k - 1][t] = before @ stack, None
            if after is not None:
                stack, want[k + 1][t] = stack @ after, None
            want[k] = (op.control, t, stack)
    # each list is one uncontrolled (None, group, factor) per factor it kept, top group first
    want = [x for op in want if not isinstance(op, str)
            for x in ([(None, i, f) for i, f in enumerate(op) if f is not None] if isinstance(op, list) else [op])]
    got = [op for op in fuse_groups(gates, groups) if not isinstance(op, np.ndarray)]
    assert len(got) == len(want)
    for op, expected in zip(got, want):
        if isinstance(op, GroupOp):
            control, group, factor = expected
            assert (op.control, op.group) == (control, group) and np.array_equal(op.factor, factor)
        else:
            assert op == expected
    controlled = [op for op in got if isinstance(op, GroupOp) and op.control is not None]
    assert {op.control > lows[op.group] for op in controlled} == {True, False}
    assert any(isinstance(op, GateOp) for op in got)
    assert {op.group for op in got if isinstance(op, GroupOp)} == set(range(len(groups)))

    angles = np.random.default_rng(n).uniform(-np.pi, 2 * np.pi, size=(3, n))
    cos, sin = np.cos(0.5 * angles), np.sin(0.5 * angles)
    for factor, g, low in zip(ry_factors(angles, groups), groups, lows):
        for s in range(3):
            want = np.ones((1, 1))
            for q in range(low + g - 1, low - 1, -1):  # top qubit first
                want = np.kron(want, np.array([[cos[s, q], -sin[s, q]], [sin[s, q], cos[s, q]]]).T)
            assert np.array_equal(factor[s], want)


def drawn_segments(rng, groups):
    """A gate list as segments drawn on qubit groups ``groups`` (top
    first): a run of group-local gates of every kind ("run"), one of RZ/CRZ
    only ("rz"), or one crossing CRY ("cry") or CRZ ("crz"). Half the CRYs
    reuse the last one's target group. Returns (kind, target group, gates)
    per segment."""
    lows = np.cumsum((0,) + groups[::-1])[::-1][1:].tolist()  # each group's bottom qubit

    def qubit(i):
        return lows[i] + int(rng.integers(groups[i]))

    segments, last = [], None
    for _ in range(int(rng.integers(1, 9))):
        kind = ("run", "rz", "cry", "crz")[rng.integers(4)]
        if kind in ("cry", "crz"):
            t = last if kind == "cry" and last is not None and rng.random() < 0.5 else int(rng.integers(len(groups)))
            c = int(rng.integers(len(groups) - 1))  # any group but t's
            gates = [GateOp(kind.upper(), float(rng.uniform(0, 2 * np.pi)), qubit(t), qubit(c + (c >= t)))]
            last = t if kind == "cry" else last
        else:
            pool, gates, t = ("RY", "RZ", "CRY", "CRZ") if kind == "run" else ("RZ", "CRZ"), [], None
            for _ in range(int(rng.integers(1, 5))):
                i = int(rng.integers(len(groups)))
                gate, target, control = pool[rng.integers(len(pool))], qubit(i), None
                if gate.startswith("C") and groups[i] == 1:  # no second qubit in the group
                    gate = gate[1:]
                if gate.startswith("C"):  # another qubit of the target's group
                    control = lows[i] + (target - lows[i] + 1 + int(rng.integers(groups[i] - 1))) % groups[i]
                gates.append(GateOp(gate, float(rng.uniform(0, 2 * np.pi)), target, control))
        segments.append((kind, t, gates))
    return segments


def test_fuse_groups_on_drawn_gate_orders():
    # mixed gate lists on near-equal groupings in any order, drawn as
    # segments: the op list must act as the gates one by one, whatever order
    # of runs, phase vectors and crossing gates the builders never emit
    rng = np.random.default_rng(2111)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, min(n, 4) + 1))
        groups = tuple(rng.permutation([n // m + (i < n % m) for i in range(m)]).tolist())
        segments = drawn_segments(rng, groups)
        gates = [gate for _, _, seg in segments for gate in seg]
        if segments[0][0] == "cry":
            seen.add("cry first")
        if segments[-1][0] == "cry":
            seen.add("cry last")
        for (a, ta, _), (b, _, _), (c, tc, _) in zip(segments, segments[1:], segments[2:]):
            if (a, b, c) == ("cry", "run", "cry") and ta == tc:
                seen.add("two crys on one group, one run between")
            if a in ("cry", "crz") and b == "rz" and c in ("cry", "crz"):
                seen.add("rz run between crossing gates")
        ops = fuse_groups(gates, groups)
        for before, op, after in zip(ops, ops[1:], ops[2:]):
            if isinstance(op, GateOp) and isinstance(before, np.ndarray) and isinstance(after, np.ndarray):
                seen.add("cry between phase vectors")
        for op in ops:
            if isinstance(op, GroupOp):
                d = 2 ** groups[op.group]
                assert op.factor.shape == ((d, d) if op.control is None else (2, d, d))
        rows = random_rows(3, n, seed=int(rng.integers(2**31)))
        got = sim.apply_ops(rows.copy(), ops, groups)
        for row, want in zip(got, rows):
            np.testing.assert_allclose(row, apply_gates(want, gates, n), rtol=0, atol=TOL)
    assert seen == {"cry first", "cry last", "two crys on one group, one run between",
                    "rz run between crossing gates", "cry between phase vectors"}


@pytest.mark.parametrize(
    "topology, layers, most", [("ring", 1, 13), ("chain", 1, 7), ("ring", 2, 15)]
)
def test_fused_blocks_leave_the_crossing_gates(topology, layers, most):
    # ops per step at n = 10 (depth 3): the parent's gate lists had 33, 30
    # and 35; each crossing CRY ends a run of group-local gates, and a run
    # of RZ/CRZ gates only (the re-upload interleave) is one phase vector
    cfg = resolve_seeds(kernel_config(10, layers=layers, topology=topology))
    blocks = experiment._fixed_blocks([cfg], experiment.plan(10))
    assert sum(len(block) for block in blocks) <= most


@pytest.mark.parametrize(
    "n, topology, layers, passes",
    [
        (10, "ring", 1, 10),
        (10, "all_to_all", 1, 90),
        (10, "chain", 1, 9),
        (10, "ring", 2, 14),
        (18, "ring", 1, 16),
        (18, "all_to_all", 1, 359),
        (3, "ring", 1, 2),
        (6, "all_to_all", 2, 4),
    ],
)
def test_passes_per_step(n, topology, layers, passes):
    # the passes over the state that one step makes (depth 3): per encoder
    # layer, in the dense Y frame form one multiply by its phases and one
    # matmul with its (R, d, d) stack; in the fused form its RY layer, one
    # GroupOp per group, then one pass per op of its block
    p = experiment.plan(n)
    cfg = resolve_seeds(kernel_config(n, layers=layers, topology=topology))
    blocks = experiment._fixed_blocks([cfg], p, y_frame(n) if p.dense else None)
    per_layer = [2 if p.dense else len(p.groups) + len(block) for block in blocks]
    assert sum(per_layer) == passes


@pytest.mark.parametrize("layers", [1, 2], ids=["angle", "reupload2"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("n", range(2, 8))
def test_dense_blocks_match_the_compiled_gates(n, topology, layers):
    # a dense block is compiled by fuse_groups on the plan's groups, two
    # halves from n = 6 and one group below; each replicate's slice of it
    # is its gate list compiled one gate at a time and moved to the Y frame
    p, w = experiment.plan(n), y_frame(n)
    assert p.dense and p.groups == ((n,) if n <= 5 else (n - n // 2, n // 2))
    base = kernel_config(n, layers=layers, topology=topology)
    configs = [experiment._replicate_config(base, r) for r in range(min(2, p.size))]
    blocks = experiment._fixed_blocks(configs, p, w)
    for r, cfg in enumerate(configs):
        gates = [list(layer.fixed_gates) for layer in build_encoder(cfg.encoder, n).layers]
        gates[-1] += build_reservoir(cfg.reservoir).gates
        assert len(blocks) == len(gates)
        for stack, block in zip(blocks, gates):
            want = w.T @ compile_gates(block, n) @ w.conj() / 2**n
            np.testing.assert_allclose(stack[r], want, rtol=0, atol=TOL)


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


@pytest.mark.parametrize("k", [None, 3])
def test_three_dimensional_inputs_raise(k):
    cfg = kernel_config(3, k=k)
    with pytest.raises(DataError, match="series of non-empty scalars or 1-d vectors"):
        run_kernel(TimeSeries(np.zeros((30, 2, 2)), np.zeros(30), valid_from=0), cfg)


@pytest.mark.parametrize("n, k", [(3, None), (3, "full"), (8, 2)])
def test_corrupted_state_raises(monkeypatch, n, k):
    # a block that is not unitary makes the norm drift past NORM_TOLERANCE
    if n <= 7:  # every factor fuse_groups compiles; this module's compile_gates stays unpatched
        monkeypatch.setattr(sim, "compile_gates", lambda gates, n: 1.001 * compile_gates(gates, n))
    else:
        calls, fixed_blocks = [], experiment._fixed_blocks

        def leaky(rows, gate, n):  # the ring's crossing CRYs stay per-gate calls
            calls.append(gate)
            apply_gate_rows(rows, gate, n)  # this module's own binding, not the patched sim one
            rows *= 1.0001
            return rows

        def compiled(configs, p, frame=None):  # leak only once the blocks are built
            blocks = fixed_blocks(configs, p, frame)
            monkeypatch.setattr(sim, "apply_gate_rows", leaky)
            return blocks

        monkeypatch.setattr(experiment, "_fixed_blocks", compiled)
    cfg = kernel_config(n, k=k)
    series = generate(resolve_seeds(cfg).task)
    with pytest.raises(DataError, match="norm"):
        run_kernel(series, cfg)
    if n > 7:
        assert calls and all(g.kind == "CRY" for g in calls)


@pytest.mark.parametrize("backend", [BackendSpec(), BackendSpec("shots", shots=256)])
def test_nan_state_raises(monkeypatch, backend):
    # a NaN norm fails the norm check; unchecked, sampling turns a NaN CDF
    # into finite counts and a run that succeeds with wrong features
    def nan_block(gates, n):
        block = compile_gates(gates, n)
        block[0, 0] = np.nan
        return block

    monkeypatch.setattr(sim, "compile_gates", nan_block)
    cfg = kernel_config(4, k=3, backend=backend)
    series = generate(resolve_seeds(cfg).task)
    with pytest.raises(DataError, match="norm.*nan"):
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
    """The grouped run against one run per replicate (``run_recurrent``, or
    ``run_windowed`` for a full window), exactly on the shots backend; on
    the ideal backend also the first and last replicates' first rows
    against the dense oracle."""
    series = [generate(resolve_seeds(c).task) for c in configs]
    got = experiment.run_group(series, configs)
    assert len(got) == len(configs)
    shots = configs[0].backend.kind == "shots"
    for s, c, features in zip(series, configs, got):
        want = run_kernel(s, c)
        np.testing.assert_array_equal(features.t_index, want.t_index)
        np.testing.assert_allclose(features.values, want.values, rtol=0, atol=0 if shots else TOL)
    if shots:
        return series, got
    for i in {0, len(configs) - 1}:
        want = oracle_row(series[i], configs[i], int(got[i].t_index[0]))
        np.testing.assert_allclose(got[i].values[0], want, rtol=0, atol=TOL)
    return series, got


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_group_matches_per_replicate_runs(n):
    # three replicates where the budget allows; R = 1 at n = 7 and at n = 8,
    # where the blocks are gate lists
    size = experiment.plan(n).size
    assert size == {2: 1024, 3: 256, 4: 64, 5: 16, 6: 4, 7: 1, 8: 1}[n]
    check_group(replicate_configs(n, range(min(size, 3))))


def test_full_and_partial_groups_at_n6(monkeypatch):
    # the replicate groups a 10-replicate scan at n = 6 schedules, one
    # task each, as indices of the scan's replicate configs
    scheduled, group_scores = [], experiment._group_scores
    monkeypatch.setattr(experiment, "_group_scores", lambda task: scheduled.append(task) or group_scores(task))
    monkeypatch.setenv("QRCLAB_THREADS", "1")
    base = kernel_config(6, T=20, washout=6)
    experiment.theory_scan(base, [6], delta=0.05, replicates=10)
    scanned = [experiment._replicate_config(base, r, n_qubits=6) for r in range(10)]
    groups = [[scanned.index(cfg) for cfg in task[0]] for task in scheduled]
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    check_group(replicate_configs(6, groups[0]))  # full: 4 stacked 64 x 64 blocks per layer
    check_group(replicate_configs(6, groups[-1]))  # the partial last group
    # a full-window shots group: each replicate draws from its own stream.
    # 4 replicates take 64 steps per chunk, so 80 steps span two chunks
    assert experiment.plan(6, 4).rows == 64
    shots = [
        replace(c, mode=ModeSpec(kind="reupload_k", k="full"), backend=replace(c.backend, kind="shots", shots=64))
        for c in replicate_configs(6, groups[0], task=TaskSpec("stm", T=80))
    ]
    _, got = check_group(shots)
    assert [int(f.t_index[0]) for f in got] == [12, 12, 12, 12]
    # a group keeps one row range: a replicate that keeps its rows from step
    # 40 on cannot join replicates that keep theirs from step 12 on
    shots[1] = replace(shots[1], protocol=ProtocolSpec(washout=40, train_fraction=0.5))
    series = [generate(resolve_seeds(c).task) for c in shots]
    with pytest.raises(ConfigurationError, match=r"different steps: \[12, 40\]"):
        experiment.run_group(series, shots)


def test_group_with_reupload_layers():
    configs = replicate_configs(4, range(3))
    check_group([replace(c, encoder=replace(c.encoder, scheme="reupload", layers=2)) for c in configs])


def test_group_beyond_the_budget_is_rejected():
    configs = replicate_configs(7, range(2))
    series = [generate(resolve_seeds(c).task) for c in configs]
    with pytest.raises(ConfigurationError, match="group size"):
        experiment.run_group(series, configs)


def test_group_of_different_lengths_is_rejected():
    configs = replicate_configs(3, range(2), task=TaskSpec("narma10", T=80))
    configs[1] = replace(configs[1], task=replace(configs[1].task, T=90))
    series = [generate(resolve_seeds(c).task) for c in configs]
    with pytest.raises(ConfigurationError, match=r"different steps: \[12\] to \[80, 90\]"):
        experiment.run_group(series, configs)


@pytest.mark.parametrize(
    "change",
    [
        lambda c: replace(c, reservoir=replace(c.reservoir, n_qubits=4)),
        lambda c: replace(c, observables=ObservableSpec()),
        lambda c: replace(c, encoder=EncoderSpec(scheme="reupload", layers=2)),
        lambda c: replace(c, mode=ModeSpec(kind="reupload_k", k=3)),
        lambda c: replace(c, mode=ModeSpec(kind="reupload_k", k=3), backend=BackendSpec(kind="shots", shots=64)),
    ],
    ids=["n_qubits", "observables", "layers", "mode", "backend"],
)
def test_group_that_differs_in_more_than_seeds_is_rejected(change):
    # the driver reads width, observables, mode and backend from one config,
    # so a replicate that differs in them would run as the first one
    configs = replicate_configs(3, range(2))
    if change(configs[0]).backend.kind == "shots":  # shots needs reupload_k in every replicate
        configs[0] = replace(configs[0], mode=ModeSpec(kind="reupload_k", k=3))
    configs[1] = change(configs[1])
    series = [generate(resolve_seeds(c).task) for c in configs]
    with pytest.raises(ConfigurationError, match="differ in more than their seeds"):
        experiment.run_group(series, configs)


@pytest.mark.parametrize(
    "k, backend", [(3, None), (2, BackendSpec(kind="shots", shots=64))], ids=["k3", "k2-shots"]
)
@pytest.mark.parametrize("n", [3, 6])
def test_bounded_window_group_matches_reference(n, k, backend):
    # replicates of a bounded window evolve as one group: each row against a
    # fresh gate-by-gate window, exactly on shots. At n = 6, 4 replicates
    # take 64 rows per chunk, so 68 rows span two chunks
    configs = [
        replace(c, mode=ModeSpec(kind="reupload_k", k=k), backend=backend or c.backend)
        for c in replicate_configs(n, range(4), task=TaskSpec("stm", T=80))
    ]
    series = [generate(resolve_seeds(c).task) for c in configs]
    got = experiment.run_group(series, configs)
    assert len(got) == 4 and len(got[0].t_index) == 68
    if n == 6:
        assert experiment.plan(n, len(configs)).rows == 64
    for s, c, features in zip(series, configs, got):
        want = reference_features(s, c, features.t_index)
        np.testing.assert_allclose(features.values, want, rtol=0, atol=0 if backend else TOL)


def test_rows_per_chunk_stays_within_the_budget():
    budget = experiment.CHUNK_AMPLITUDES
    for n in range(2, 15):
        for R in range(1, experiment.plan(n).size + 1):
            B = experiment.plan(n, R).rows  # R x B rows of 2**n amplitudes
            assert R * B * 2**n <= budget or B == 1  # one row at least, even past the budget
            assert R * (B + 1) * 2**n > budget


# Each width's plan, from the one budget: the form of its fixed blocks, its
# qubit groups, its group size, and its rows per chunk for one replicate
# and for a full group
PLAN = {
    2: ("dense", (2,), 1024, 4096, 4),
    3: ("dense", (3,), 256, 2048, 8),
    4: ("dense", (4,), 64, 1024, 16),
    5: ("dense", (5,), 16, 512, 32),
    6: ("dense", (3, 3), 4, 256, 64),
    7: ("dense", (4, 3), 1, 128, 128),
    8: ("fused", (4, 4), 1, 64, 64),
    9: ("fused", (5, 4), 1, 32, 32),
    10: ("fused", (5, 5), 1, 16, 16),
    11: ("fused", (6, 5), 1, 8, 8),
    12: ("fused", (6, 6), 1, 4, 4),
    13: ("fused", (5, 4, 4), 1, 2, 2),
    14: ("fused", (5, 5, 4), 1, 1, 1),
    15: ("fused", (5, 5, 5), 1, 1, 1),
    16: ("fused", (6, 5, 5), 1, 1, 1),
    17: ("fused", (6, 6, 5), 1, 1, 1),
    18: ("fused", (6, 6, 6), 1, 1, 1),
    19: ("fused", (5, 5, 5, 4), 1, 1, 1),
    20: ("fused", (5, 5, 5, 5), 1, 1, 1),
    21: ("fused", (6, 5, 5, 5), 1, 1, 1),
    22: ("fused", (6, 6, 5, 5), 1, 1, 1),
    23: ("fused", (6, 6, 6, 5), 1, 1, 1),
    24: ("fused", (6, 6, 6, 6), 1, 1, 1),
}


@pytest.mark.parametrize("n", range(2, sim.MAX_QUBITS + 1))
def test_each_width_keeps_its_plan(n):
    p = experiment.plan(n)
    full = experiment.plan(n, p.size)
    assert (full.groups, full.size) == (p.groups, p.size)  # R sets only the rows
    assert ("dense" if p.dense else "fused", p.groups, p.size, p.rows, full.rows) == PLAN[n]


@pytest.mark.parametrize("n", range(2, 15))
def test_compiled_blocks_take_the_plan_form(n):
    # a dense plan compiles each block to one (R, d, d) stack; a fused one
    # to an op list whose group ops' factors are one row operator on their
    # group, or two with a control
    p = experiment.plan(n)
    blocks = experiment._fixed_blocks([resolve_seeds(kernel_config(n))], p, y_frame(n) if p.dense else None)
    assert all(isinstance(block, np.ndarray) and block.shape == (1, 2**n, 2**n) for block in blocks) == p.dense
    assert all(isinstance(block, list) for block in blocks) != p.dense
    if not p.dense:
        for op in (op for block in blocks for op in block if isinstance(op, GroupOp)):
            d = 2 ** p.groups[op.group]
            assert op.factor.shape == ((d, d) if op.control is None else (2, d, d))


@pytest.mark.parametrize("n, R, frames", [(4, 3, 1), (7, 1, 1), (8, 1, 0)])
def test_run_builds_the_y_frame_once(monkeypatch, n, R, frames):
    # one W per dense run: it compiles the blocks and takes the kept rows
    # out of the frame; the fused form needs none
    built = []

    def counted(width):
        built.append(width)
        return y_frame(width)

    monkeypatch.setattr(experiment, "y_frame", counted)
    configs = replicate_configs(n, range(R))
    experiment.run_group([generate(resolve_seeds(c).task) for c in configs], configs)
    assert built == [n] * frames


def test_qubit_groups_are_the_fewest_that_fit_the_budget():
    # near-equal groups, top group largest, whose factors fit the budget,
    # at least two from n = 6, and one group fewer would not do: 1 group
    # through n = 5, 2 through 12, 3 through 18 and 4 through 24, never
    # more than 6 qubits from n = 6. The dense form is the widths whose
    # 4**n operators fit, through n = 7
    budget = experiment.CHUNK_AMPLITUDES
    for n in range(2, sim.MAX_QUBITS + 1):
        p = experiment.plan(n)
        groups, m = p.groups, len(p.groups)
        assert sum(groups) == n and list(groups) == sorted(groups, reverse=True) and groups[0] - groups[-1] <= 1
        assert sum(4**g for g in groups) <= budget
        fewer = [n // (m - 1) + (i < n % (m - 1)) for i in range(m - 1)] if m > 1 else []
        assert not fewer or sum(4**g for g in fewer) > budget or n in (6, 7)  # one group fits, two at least
        assert m == 1 + (n > 5) + (n > 12) + (n > 18)
        assert n <= 5 or max(groups) <= 6
        assert p.dense == (4**n <= budget) == (n <= 7)


def test_group_with_a_narma10_redraw(monkeypatch, caplog):
    # at this bound replicate 2's series diverges (max |y| 0.611) and is
    # redrawn from seed + 1 (0.469); the other three keep their first draw
    monkeypatch.setattr(tasks, "NARMA_DIVERGENCE_BOUND", 0.6)
    configs = replicate_configs(3, range(4), task=TaskSpec("narma10", T=40))
    series, _ = check_group(configs)
    assert caplog.text.count("diverged") == 1
    redrawn = RandomStream(resolve_seeds(configs[2]).task.seed + 1).uniform(0.0, 0.5, size=40)
    np.testing.assert_array_equal(series[2].inputs, redrawn / 0.5)
    # the scan's one task carries the configs, no delays and the
    # redrawn series, and scores every replicate as run_case does
    scheduled, group_scores = [], experiment._group_scores
    monkeypatch.setattr(experiment, "_group_scores", lambda task: scheduled.append(task) or group_scores(task))
    monkeypatch.setenv("QRCLAB_THREADS", "1")
    scores = experiment._replicate_scores([configs], ())
    [task] = scheduled
    assert task[0] == configs and task[2] == ()
    for got, want in zip(task[1], series):
        np.testing.assert_array_equal(got.inputs, want.inputs)
    for (cell,), cfg in zip(scores, configs):
        res = experiment.run_case(cfg)
        assert cell == (res.metrics["train_r2"], res.metrics["test_r2"])
    # a scan generates each replicate's series once, for every width: the
    # redraw is logged once, not once per width
    caplog.clear()
    base = replace(kernel_config(3), task=TaskSpec("narma10", T=40),
                   protocol=ProtocolSpec(washout=12, train_fraction=0.5))
    experiment.theory_scan(base, [2, 3], delta=0.05, replicates=4)
    assert caplog.text.count("diverged") == 1


def per_case_means(cells_by_replicate, name):
    """Mean train and test scores of each column of cells, one ``run_case``
    per cell: how scans and sweeps were scored before replicate groups."""
    results = [[experiment.run_case(c) for c in cells] for cells in cells_by_replicate]
    return [
        tuple(np.mean([row[i].metrics[f"{part}_{name}"] for row in results]) for part in ("train", "test"))
        for i in range(len(results[0]))
    ]


@pytest.mark.parametrize("k", [None, 3, "full"], ids=["recurrent", "k3", "full"])
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
    [
        (None, None),
        (3, None),
        ("full", None),
        (2, BackendSpec(kind="shots", shots=64)),
        ("full", BackendSpec(kind="shots", shots=64)),
    ],
    ids=["recurrent", "k3", "full", "k2-shots", "full-shots"],
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
    if backend is not None:
        # shots sample each replicate's run once, from delay 1's first kept
        # row (the washout, 12): delays 1 and 4 keep the same rows as their
        # own runs, and delay 13 reads the rows t >= 13 of those samples
        want[2] = (None, np.mean([stm_readout_score(experiment.run_case(c[1]), 13) for c in cells]))
    for (_, score), (_, test) in zip(got, want):
        assert score == pytest.approx(test, rel=0, abs=TOL)


def stm_readout_score(result, delay):
    """Test R^2 of a delay-``delay`` readout fit, as ``run_case`` fits, on
    the rows t >= delay of a finished STM run's features."""
    keep = result.features.t_index >= delay
    X, t = result.features.values[keep], result.features.t_index[keep]
    y = stm_series(generate(result.config.task).inputs, delay).targets[t]
    n_train = result.config.protocol.train_rows(len(t))
    model = fit_ridge(X[:n_train], y[:n_train], alpha=result.config.alpha)
    return r2_score(predict(model, X[n_train:]), y[n_train:])


@pytest.mark.parametrize("k", [2, "full"])
def test_shots_delay_sweep_evolves_each_replicate_once(monkeypatch, k):
    # count the replicates each driver call evolves: one run per replicate,
    # whatever the number of delays
    monkeypatch.setenv("QRCLAB_THREADS", "1")  # in process, where the wrappers count
    evolved = []
    for name in ("run_windowed", "run_group"):
        def counted(series, configs, driver=getattr(experiment, name)):
            evolved.append(len(configs) if isinstance(configs, list) else 1)
            return driver(series, configs)

        monkeypatch.setattr(experiment, name, counted)
    config = kernel_config(3, k=k, T=60, washout=12, backend=BackendSpec(kind="shots", shots=16))
    experiment.stm_delay_sweep(config, [4, 1, 13, 2], replicates=3)
    assert evolved == [3]
