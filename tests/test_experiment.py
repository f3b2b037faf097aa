"""Temporal driver, protocol, sweep, and scan tests."""

from fractions import Fraction
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from qrclab.encoding import EncoderSpec, build_encoder, scale_input
from qrclab import experiment
from qrclab.errors import ConfigurationError, DataError, SchemaError
from qrclab.experiment import (
    BackendSpec,
    ExperimentConfig,
    FeatureMatrix,
    ModeSpec,
    ObservableSpec,
    ProtocolSpec,
    RunResult,
    build_observables,
    confidence_term,
    features_csv,
    predictions_csv,
    raw_window_features,
    resolve_seeds,
    run_case,
    run_recurrent,
    run_windowed,
    scan_csv,
    step,
    stm_delay_sweep,
    theory_scan,
    worker_count,
)
from qrclab.reservoir import ReservoirSpec, build_reservoir
from qrclab.sim import GateOp, new_zero_state
from qrclab.tasks import TaskSpec, TimeSeries, generate

from dense_oracle import apply_dense


def small_config(kind="stm", T=150, mode=None, backend=None, observables=None, **kw):
    return ExperimentConfig(
        task=TaskSpec(kind, T=T, seed=kw.pop("task_seed", 3)),
        reservoir=ReservoirSpec(n_qubits=3, seed=11),
        encoder=EncoderSpec(interleave_seed=12),
        observables=observables or ObservableSpec(),
        mode=mode or ModeSpec(),
        backend=backend or BackendSpec(),
        protocol=kw.pop("protocol", ProtocolSpec(washout=30, train_fraction=0.7)),
        master_seed=kw.pop("master_seed", 5),
        **kw,
    )


def count_generate(monkeypatch) -> list:
    """The tasks of every ``experiment.generate`` call from here on, with
    the scans and sweeps run in this process."""
    monkeypatch.setenv("QRCLAB_THREADS", "1")
    calls = []

    def counted(spec, generate=experiment.generate):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr(experiment, "generate", counted)
    return calls


def encoder_gates_for_input(circuit, u):
    """The documented gate expansion of one encode call, for oracle tests."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    gates = []
    for layer in circuit.layers:
        for q in layer.angle_qubits:
            gates.append(GateOp("RY", float(scale_input(u[q % u.size])), target=q))
        gates.extend(layer.fixed_gates)
    return gates


class TestStep:
    def test_zero_angles_identity(self):
        encoder = build_encoder(EncoderSpec(interleave_seed=0), 2)
        res = build_reservoir(ReservoirSpec(n_qubits=2, depth=1, seed=0))
        zeroed = type(res)(2, tuple(GateOp(g.kind, 0.0, g.target, g.control) for g in res.gates))
        state = step(new_zero_state(2), 0.0, encoder, zeroed)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("u_seq", [[0.3], [0.3, 0.8]])
    def test_matches_dense_oracle(self, u_seq):
        encoder = build_encoder(EncoderSpec(scheme="reupload", layers=2, interleave_seed=4), 3)
        res = build_reservoir(ReservoirSpec(n_qubits=3, depth=2, seed=9))
        state = new_zero_state(3)
        oracle_gates = []
        for u in u_seq:
            step(state, u, encoder, res)
            oracle_gates += encoder_gates_for_input(encoder, u) + list(res.gates)
        want = apply_dense(new_zero_state(3).amplitudes, oracle_gates, 3)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)


class TestBuildObservables:
    def test_local_z_labels(self):
        obs = build_observables(ObservableSpec(), 3, "ring")
        assert [o.label for o in obs] == ["Z0", "Z1", "Z2"]

    def test_edges_zz(self):
        obs = build_observables(ObservableSpec(zz="edges"), 3, "ring")
        assert [o.label for o in obs] == ["Z0", "Z1", "Z2", "Z0Z1", "Z1Z2", "Z0Z2"]

    def test_all_pairs_count(self):
        obs = build_observables(ObservableSpec(zz="all_pairs"), 4, "ring")
        assert len(obs) == 4 + 6

    def test_explicit_pairs(self):
        obs = build_observables(ObservableSpec(local_z=False, zz=((0, 2),)), 3, "chain")
        assert [o.label for o in obs] == ["Z0Z2"]

    def test_out_of_range_pair(self):
        with pytest.raises(ConfigurationError):
            build_observables(ObservableSpec(zz=((0, 5),)), 3, "ring")

    def test_nothing_configured(self):
        with pytest.raises(ConfigurationError):
            build_observables(ObservableSpec(local_z=False), 3, "ring")


class TestResolveSeeds:
    def test_fills_all_children_deterministically(self):
        cfg = ExperimentConfig(task=TaskSpec("stm", T=100), master_seed=77)
        a = resolve_seeds(cfg)
        b = resolve_seeds(cfg)
        assert a == b
        seeds = {a.task.seed, a.reservoir.seed, a.encoder.interleave_seed, a.backend.shot_seed}
        assert None not in seeds and len(seeds) == 4

    def test_explicit_seeds_kept(self):
        cfg = small_config()
        resolved = resolve_seeds(cfg)
        assert resolved.task.seed == 3
        assert resolved.reservoir.seed == 11
        assert resolved.encoder.interleave_seed == 12

    def test_encoder_runs_at_the_reservoir_width(self, monkeypatch):
        # one register: the encoder has no width of its own
        with pytest.raises(TypeError):
            EncoderSpec(n_qubits=4)
        built = []

        def recorded(spec, n_qubits):  # the width a run builds its encoder at
            built.append(build_encoder(spec, n_qubits))
            return built[-1]

        monkeypatch.setattr(experiment, "build_encoder", recorded)
        cfg = resolve_seeds(ExperimentConfig(task=TaskSpec("stm"), reservoir=ReservoirSpec(n_qubits=3)))
        run_recurrent(generate(cfg.task), cfg)
        [encoder] = built
        assert encoder.n_qubits == 3 and encoder.layers[0].angle_qubits == (0, 1, 2)


class TestRunRecurrent:
    def test_local_z_gives_n_columns(self):
        cfg = small_config()
        fm = run_recurrent(generate(resolve_seeds(cfg).task), cfg)
        assert fm.values.shape[1] == 3
        assert fm.labels == ("Z0", "Z1", "Z2")

    def test_features_bounded(self):
        cfg = small_config()
        fm = run_recurrent(generate(resolve_seeds(cfg).task), cfg)
        assert np.all(fm.values >= -1.0) and np.all(fm.values <= 1.0)

    def test_washout_drops_rows(self):
        cfg = small_config()
        fm = run_recurrent(generate(resolve_seeds(cfg).task), cfg)
        assert fm.t_index[0] == 30
        assert fm.t_index[-1] == 149

    def test_series_no_longer_than_washout_gives_empty(self):
        cfg = small_config(protocol=ProtocolSpec(washout=40, train_fraction=0.5))
        series = generate(resolve_seeds(cfg).task)
        short = TimeSeries(series.inputs[:40], series.targets[:40], series.valid_from)
        fm = run_recurrent(short, cfg)
        assert fm.values.shape == (0, 3)

    def test_shots_backend_rejected(self):
        with pytest.raises(SchemaError, match="backend.kind.*reupload_k"):
            small_config(backend=BackendSpec(kind="shots", shots=64, shot_seed=1))


@pytest.mark.parametrize(
    "driver, mode",
    [(run_recurrent, ModeSpec(kind="reupload_k", k=3)), (run_windowed, ModeSpec())],
    ids=["recurrent-on-reupload_k", "windowed-on-recurrent"],
)
def test_driver_rejects_the_other_mode(driver, mode):
    cfg = small_config(kind="parity", T=120, mode=mode)
    with pytest.raises(ConfigurationError, match="mode.kind"):
        driver(generate(resolve_seeds(cfg).task), cfg)


class TestRunWindowed:
    def test_k1_features_depend_only_on_current_input(self):
        # binary inputs: rows sharing u_t must produce identical features
        cfg = small_config(kind="parity", mode=ModeSpec(kind="reupload_k", k=1))
        series = generate(resolve_seeds(cfg).task)
        fm = run_windowed(series, cfg)
        by_input = {}
        for i, t in enumerate(fm.t_index):
            by_input.setdefault(series.inputs[t], []).append(fm.values[i])
        for rows in by_input.values():
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])

    def test_full_window_matches_recurrent_exactly(self):
        cfg = small_config(T=90, protocol=ProtocolSpec(washout=20, train_fraction=0.5))
        series = generate(resolve_seeds(cfg).task)
        rec = run_recurrent(series, cfg)
        win = run_windowed(series, replace_mode(cfg, ModeSpec(kind="reupload_k", k="full")))
        np.testing.assert_array_equal(rec.t_index, win.t_index)
        np.testing.assert_allclose(rec.values, win.values, atol=1e-12)

    def test_window_start_respected(self):
        cfg = small_config(
            T=90,
            mode=ModeSpec(kind="reupload_k", k=4),
            protocol=ProtocolSpec(washout=0, train_fraction=0.5),
        )
        series = generate(resolve_seeds(cfg).task)
        fm = run_windowed(series, cfg)
        assert fm.t_index[0] == 3  # first full window ends at k-1

    def test_range_shorter_than_window_rejected(self):
        with pytest.raises(SchemaError, match="mode.k"):
            small_config(
                T=90,
                mode=ModeSpec(kind="reupload_k", k=200),
                protocol=ProtocolSpec(washout=0, train_fraction=0.5),
            )

    def test_shots_close_to_ideal(self):
        # 1024 shots: estimate sd per feature <= 1/sqrt(1024) on the +-1 scale
        cfg = small_config(
            T=130,
            mode=ModeSpec(kind="reupload_k", k=2),
            protocol=ProtocolSpec(washout=20, train_fraction=0.5),
        )
        series = generate(resolve_seeds(cfg).task)
        ideal = run_windowed(series, cfg)
        shots = run_windowed(
            series, replace_backend(cfg, BackendSpec(kind="shots", shots=1024, shot_seed=8))
        )
        assert ideal.values.shape[0] >= 100
        assert np.mean(np.abs(ideal.values - shots.values)) <= 0.05
        assert np.all(shots.values >= -1.0) and np.all(shots.values <= 1.0)

    def test_shots_deterministic(self):
        cfg = small_config(
            T=100,
            mode=ModeSpec(kind="reupload_k", k=2),
            backend=BackendSpec(kind="shots", shots=128, shot_seed=21),
            protocol=ProtocolSpec(washout=10, train_fraction=0.5),
        )
        series = generate(resolve_seeds(cfg).task)
        a = run_windowed(series, cfg)
        b = run_windowed(series, cfg)
        np.testing.assert_array_equal(a.values, b.values)


def replace_mode(cfg, mode):
    from dataclasses import replace

    return replace(cfg, mode=mode)


def replace_backend(cfg, backend):
    from dataclasses import replace

    return replace(cfg, backend=backend)


class TestPrefixIndependence:
    @staticmethod
    def _with_prefix(series, value=0.5):
        inputs = np.concatenate([[value], series.inputs])
        targets = np.concatenate([[np.nan], series.targets])
        return TimeSeries(inputs, targets, series.valid_from + 1)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "unitary recurrent evolution cannot forget its initial condition: "
            "every gate preserves the norm of state differences, so features "
            "never converge after a prefix perturbation; bounded windows are "
            "the mechanism that actually provides prefix independence"
        ),
    )
    def test_recurrent_washout_independence(self):
        cfg = small_config(T=120, protocol=ProtocolSpec(washout=40, train_fraction=0.5))
        series = generate(resolve_seeds(cfg).task)
        base = run_recurrent(series, cfg)
        shifted = run_recurrent(self._with_prefix(series), cfg)
        # align: row at original step t sits at prefixed step t+1
        base_rows = {int(t): base.values[i] for i, t in enumerate(base.t_index)}
        diffs = [
            np.max(np.abs(shifted.values[i] - base_rows[int(t) - 1]))
            for i, t in enumerate(shifted.t_index)
            if int(t) - 1 in base_rows
        ]
        assert max(diffs) <= 1e-12

    def test_windowed_prefix_independence_is_exact(self):
        # bounded windows read only the last k inputs, so a prefix shifts rows
        # without changing them at all
        cfg = small_config(
            T=120,
            mode=ModeSpec(kind="reupload_k", k=3),
            protocol=ProtocolSpec(washout=40, train_fraction=0.5),
        )
        series = generate(resolve_seeds(cfg).task)
        base = run_windowed(series, cfg)
        shifted = run_windowed(self._with_prefix(series), cfg)
        base_rows = {int(t): base.values[i] for i, t in enumerate(base.t_index)}
        for i, t in enumerate(shifted.t_index):
            if int(t) - 1 in base_rows:
                np.testing.assert_array_equal(shifted.values[i], base_rows[int(t) - 1])


class TestRunCase:
    def test_parity_reports_accuracy(self):
        cfg = small_config(kind="parity")
        res = run_case(cfg)
        assert {"train_accuracy", "test_accuracy", "train_mse", "test_mse"} <= set(res.metrics)
        assert "train_r2" not in res.metrics

    def test_regression_reports_r2(self):
        res = run_case(small_config(kind="stm"))
        assert {"train_r2", "test_r2"} <= set(res.metrics)

    def test_split_sizes(self):
        # washout 50, stm delay 2, T=150 -> T_eff=100; half/half split
        cfg = small_config(
            T=150, protocol=ProtocolSpec(washout=50, train_fraction=0.5)
        )
        res = run_case(cfg)
        assert len(res.targets) == 100
        assert res.split_at == 50

    def test_deterministic_artifacts(self):
        a = run_case(small_config())
        b = run_case(small_config())
        assert features_csv(a.features) == features_csv(b.features)
        assert predictions_csv(a) == predictions_csv(b)

    def test_too_short_series_rejected(self):
        with pytest.raises(SchemaError, match="task.T"):
            small_config(T=35, protocol=ProtocolSpec(washout=30, train_fraction=0.5))

    def test_empty_train_segment_rejected(self):
        with pytest.raises(SchemaError, match="protocol.train_fraction"):
            small_config(T=61, protocol=ProtocolSpec(washout=50, train_fraction=0.01))

    def test_single_row_test_segment_has_undefined_r2(self):
        from qrclab.errors import MetricError

        cfg = small_config(T=61, protocol=ProtocolSpec(washout=50, train_fraction=0.99))
        with pytest.raises(MetricError):
            run_case(cfg)

    def test_alpha_grid_sweep(self):
        cfg = small_config(alpha_grid=(1e-4, 1e-2, 1.0))
        res = run_case(cfg)
        assert len(res.alpha_sweep) == 3
        assert all(len(row) == 3 for row in res.alpha_sweep)


class TestConfidenceTerm:
    def test_reference_value(self):
        want = np.sqrt(np.log(20.0) / 400.0)
        assert abs(confidence_term(200, 0.05) - want) < 1e-15
        assert abs(confidence_term(200, 0.05) - 0.0865409) < 1e-6

    def test_vanishes_for_large_m(self):
        assert confidence_term(10**12, 0.05) < 1e-5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            confidence_term(0, 0.05)
        with pytest.raises(ConfigurationError):
            confidence_term(10, 0.0)
        with pytest.raises(ConfigurationError):
            confidence_term(10, 1.0)


class TestDelaySweep:
    def test_single_delay_single_row(self):
        rows = stm_delay_sweep(small_config(), delays=[2], replicates=2)
        assert len(rows) == 1 and rows[0][0] == 2

    def test_delay_zero_rejected(self):
        with pytest.raises(ConfigurationError, match="delays"):
            stm_delay_sweep(small_config(), delays=[0], replicates=1)

    def test_out_of_range_delay_is_named(self):
        with pytest.raises(SchemaError, match=r"^delays: must be >= 1, got 0$"):
            stm_delay_sweep(small_config(), delays=[1, 0, 3], replicates=1)

    def test_delay_breaking_a_config_rule_is_named(self):
        # the series must outlast the washout and the longest delay
        cfg = ExperimentConfig(task=TaskSpec("stm", T=100))
        message = "delays: delay 60: task.T: must be > washout 50 + dependency horizon 60, got 100"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            stm_delay_sweep(cfg, [60], 1)

    def test_empty_delays_rejected(self):
        with pytest.raises(ConfigurationError):
            stm_delay_sweep(small_config(), delays=[], replicates=1)

    @pytest.mark.parametrize(
        "key, delays, replicates",
        [("delays", [1.7], 1), ("delays", [True], 1), ("delays", [2, 2.0], 1), ("replicates", [2], 1.5),
         ("replicates", [2], True)],
    )
    def test_non_integer_arguments_rejected(self, key, delays, replicates):
        # never truncated: delay 1.7 is not delay 1
        with pytest.raises(SchemaError, match=f"^{key}: must be an integer"):
            stm_delay_sweep(small_config(), delays=delays, replicates=replicates)

    def test_each_series_is_generated_once(self, monkeypatch):
        # every delay of a replicate reads one series
        calls = count_generate(monkeypatch)
        stm_delay_sweep(small_config(), delays=[4, 1, 2], replicates=3)
        assert len(calls) == len(set(calls)) == 3

    def test_numpy_integers_accepted(self):
        rows = stm_delay_sweep(small_config(), delays=np.array([2]), replicates=np.int64(2))
        assert rows == stm_delay_sweep(small_config(), delays=[2], replicates=2)


GROUP_SCORES = experiment._group_scores
TASK_LOG = {}  # "path": the file record_task appends to; forked worker processes inherit it


def record_task(task):
    """``_group_scores``, after appending the pid that runs the task and the
    task's width and replicate seeds as one line to ``TASK_LOG["path"]``."""
    configs = task[0]
    with open(TASK_LOG["path"], "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()} {configs[0].reservoir.n_qubits} {[c.master_seed for c in configs]}\n")
    return GROUP_SCORES(task)


class TestTheoryScan:
    def test_rows_and_gap(self):
        cfg = small_config()
        rows = theory_scan(cfg, [2, 3], delta=0.05, replicates=2)
        assert [r.n_qubits for r in rows] == [2, 3]
        for r in rows:
            assert abs(r.gap - (r.train_score - r.test_score)) < 1e-15
            assert abs(r.confidence_term - confidence_term(r.m, 0.05)) < 1e-12

    def test_unsorted_qubits_rejected(self):
        with pytest.raises(ConfigurationError, match="qubit_list"):
            theory_scan(small_config(), [3, 2], delta=0.05, replicates=1)

    def test_delta_bounds(self):
        with pytest.raises(ConfigurationError, match="delta"):
            theory_scan(small_config(), [2, 3], delta=0.0, replicates=1)

    @pytest.mark.parametrize("delta", [np.float64(0.1), Fraction(1, 10)], ids=["numpy", "fraction"])
    def test_rows_store_delta_as_float(self, delta):
        # np.float64 subclasses float, so the type is compared exactly
        rows = theory_scan(small_config(), [2, 3], delta, 2)
        assert [(type(r.delta), r.delta) for r in rows] == [(float, 0.1)] * 2

    @pytest.mark.parametrize("delta", ["0.5", None, True], ids=["str", "none", "bool"])
    def test_non_number_delta_rejected(self, delta):
        with pytest.raises(SchemaError, match="^delta: must be a finite number"):
            theory_scan(small_config(), [2], delta=delta, replicates=1)

    @pytest.mark.parametrize(
        "kind, mode, washout",
        [("stm", None, 30), ("parity", None, 0), ("narma10", None, 0), ("stm", ModeSpec("reupload_k", 7), 2)],
        ids=["washout", "parity-target", "narma10-target", "window"],
    )
    def test_m_is_each_replicate_test_rows(self, kind, mode, washout):
        # the first kept row is set by the washout, the first target or the first full window
        cfg = small_config(kind, T=80, mode=mode, protocol=ProtocolSpec(washout=washout, train_fraction=0.7))
        rows = theory_scan(cfg, [2, 3], delta=0.05, replicates=2)
        for row in rows:
            for r in range(2):
                res = run_case(experiment._replicate_config(cfg, r, n_qubits=row.n_qubits))
                assert row.m == len(res.targets) - res.split_at

    @pytest.mark.parametrize(
        "key, qubits, replicates",
        [("qubit_list", [2.5, 3], 1), ("qubit_list", [2, 3.0], 1), ("qubit_list", [True, 2], 1),
         ("replicates", [2], 1.5), ("replicates", [2], True)],
    )
    def test_non_integer_arguments_rejected(self, key, qubits, replicates):
        # never truncated: width 2.5 is not width 2
        with pytest.raises(SchemaError, match=f"^{key}: must be an integer"):
            theory_scan(small_config(), qubits, delta=0.05, replicates=replicates)

    def test_numpy_integers_accepted(self):
        rows = theory_scan(small_config(), np.array([2, 3]), delta=np.float64(0.05), replicates=np.int64(1))
        assert rows == theory_scan(small_config(), [2, 3], delta=0.05, replicates=1)
        assert [type(r.n_qubits) for r in rows] == [int, int]

    def test_each_series_is_generated_once(self, monkeypatch):
        # the default scan, 6 widths x 10 replicates: every width of a
        # replicate reads one series, so 10 calls, not 60
        calls = count_generate(monkeypatch)
        theory_scan(ExperimentConfig(task=TaskSpec("narma10")), [2, 3, 4, 5, 6, 7], delta=0.05, replicates=10)
        assert len(calls) == len(set(calls)) == 10

    def test_width_means_are_list_means(self, monkeypatch):
        # each width's mean over its replicates, read from one score array,
        # is bit-identical to np.mean of that width's list of scores (at 10
        # replicates numpy's pairwise sum takes its unrolled path)
        rng = np.random.default_rng(7)
        drawn = rng.standard_normal((3 * 10, 1, 2)) * 10.0 ** rng.integers(-6, 3, (3 * 10, 1, 2))
        monkeypatch.setattr(experiment, "_replicate_scores", lambda widths, delays: drawn.tolist())
        rows = theory_scan(small_config(T=100), [2, 3, 4], delta=0.1, replicates=10)
        for i, row in enumerate(rows):
            block = drawn[i * 10 : (i + 1) * 10, 0].tolist()
            assert row.train_score == float(np.mean([b[0] for b in block]))
            assert row.test_score == float(np.mean([b[1] for b in block]))

    def test_alpha_grid_is_not_fit_by_a_scan(self, monkeypatch):
        # only run_case reports the sweep: a scan fits once per cell, at
        # alpha, and its rows do not depend on the grid
        protocol = ProtocolSpec(washout=20, train_fraction=0.5)
        rows = theory_scan(small_config(T=100, protocol=protocol), [2, 3], delta=0.1, replicates=2)
        fit, alphas = experiment.fit_ridge, []
        monkeypatch.setattr(experiment, "fit_ridge", lambda X, y, alpha: alphas.append(alpha) or fit(X, y, alpha=alpha))
        cfg = small_config(T=100, protocol=protocol, alpha_grid=(1e-4, 1e-2, 1.0))
        assert theory_scan(cfg, [2, 3], delta=0.1, replicates=2) == rows
        assert alphas == [cfg.alpha] * 4  # 2 widths x 2 replicates

    def test_parallel_matches_sequential(self, monkeypatch):
        cfg = small_config(T=100, protocol=ProtocolSpec(washout=20, train_fraction=0.5))
        seq = theory_scan(cfg, [2, 3], delta=0.1, replicates=2)
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        par = theory_scan(cfg, [2, 3], delta=0.1, replicates=2)
        assert seq == par

    def test_workers_start_without_a_signal_mask(self, monkeypatch):
        # a platform without signal.pthread_sigmask (Windows) starts its
        # workers unmasked, with the rows of the scan in process
        cfg = small_config(T=100, protocol=ProtocolSpec(washout=20, train_fraction=0.5))
        seq = theory_scan(cfg, [2, 3], 0.05, 2)
        monkeypatch.delattr(signal, "pthread_sigmask")
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        assert theory_scan(cfg, [2, 3], 0.05, 2) == seq

    @pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="the start mask needs signal.pthread_sigmask")
    def test_terminate_ends_a_worker_started_masked(self):
        # a worker starts with SIGINT and SIGTERM held, as the caller starts
        # it, and unblocks SIGTERM once it has reset it: terminate() ends a
        # worker still waiting for its share, not only once its share is done
        conn, child = multiprocessing.Pipe()
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            worker = multiprocessing.Process(target=experiment._run_share, args=(child,))
            worker.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        try:
            worker.terminate()
            worker.join(10)
            assert worker.exitcode == -signal.SIGTERM
        finally:
            worker.kill()
            worker.join()

    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        starts = []  # each worker process a scan starts
        start = multiprocessing.Process.start
        monkeypatch.setattr(multiprocessing.Process, "start", lambda process: starts.append(process) or start(process))
        cfg = small_config(T=100, protocol=ProtocolSpec(washout=20, train_fraction=0.5))
        monkeypatch.setenv("QRCLAB_THREADS", "5000")
        rows = theory_scan(cfg, [2, 3], delta=0.1, replicates=2)
        assert len(starts) == 1  # one replicate group per width: the caller and one worker process
        assert multiprocessing.active_children() == []  # stopped and joined when the scan returns
        monkeypatch.setenv("QRCLAB_THREADS", "0")  # auto, but one task: no worker process
        theory_scan(cfg, [2], delta=0.1, replicates=2)
        monkeypatch.setenv("QRCLAB_THREADS", "1")
        assert theory_scan(cfg, [2, 3], delta=0.1, replicates=2) == rows
        assert len(starts) == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
    @pytest.mark.parametrize("threads", [2, 3])
    def test_caller_runs_its_interleaved_share(self, tmp_path, monkeypatch, threads):
        # [6, 7] x 5 replicates is 7 tasks: groups of 4 + 1 at n = 6, one replicate each at n = 7
        cfg = small_config(T=100, protocol=ProtocolSpec(washout=20, train_fraction=0.5))
        monkeypatch.setattr(experiment, "_group_scores", record_task)
        logs = {}
        for w in (1, threads):
            monkeypatch.setitem(TASK_LOG, "path", tmp_path / f"tasks-{w}.txt")
            monkeypatch.setenv("QRCLAB_THREADS", str(w))
            rows = theory_scan(cfg, [6, 7], delta=0.1, replicates=5)
            lines = TASK_LOG["path"].read_text().splitlines()
            logs[w] = rows, [line.split(" ", 1) for line in lines]
        (seq_rows, seq_log), (rows, log) = logs[1], logs[threads]
        order = [task for _, task in seq_log]
        assert len(order) == 7 and rows == seq_rows
        assert sorted(task for _, task in log) == sorted(order)  # each task ran once
        assert [task for pid, task in log if pid == str(os.getpid())] == order[::threads]
        assert len({pid for pid, _ in log}) <= threads
        assert multiprocessing.active_children() == []

    def test_negative_threads_rejected(self, monkeypatch):
        monkeypatch.setenv("QRCLAB_THREADS", "-1")
        with pytest.raises(SchemaError, match="QRCLAB_THREADS"):
            worker_count()

    def test_auto_threads_follow_the_cpu_mask(self, monkeypatch):
        # a process pinned to one CPU of several gets one worker, not one per CPU
        monkeypatch.setenv("QRCLAB_THREADS", "0")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1


class TestRawWindowFeatures:
    def test_rows_are_last_k_inputs(self):
        series = TimeSeries(np.arange(10, dtype=float) / 10, np.zeros(10), 0)
        X = raw_window_features(series, 3, [2, 5, 9])
        np.testing.assert_allclose(X, [[0.0, 0.1, 0.2], [0.3, 0.4, 0.5], [0.7, 0.8, 0.9]])

    def test_short_history_rejected(self):
        series = TimeSeries(np.ones(5), np.zeros(5), 0)
        with pytest.raises(ConfigurationError):
            raw_window_features(series, 3, [1])
        with pytest.raises(ConfigurationError, match=r"^row t=1 has no 3-step window$"):  # the first short row
            raw_window_features(series, 3, [4, 1, 0])
        with pytest.raises(ConfigurationError, match=r"^window k must be >= 1$"):
            raw_window_features(series, 0, [4])

    def test_no_rows_give_an_empty_matrix(self):
        series = TimeSeries(np.ones(5), np.zeros(5), 0)
        assert raw_window_features(series, 3, []).shape == (0, 3)


@pytest.mark.parametrize(
    "values, t_index, labels, message",
    [
        (np.zeros(2), np.arange(2), ("Z0",), "must be 2-d"),
        (np.zeros((2, 1)), np.arange(3), ("Z0",), "row count must match timestamp count"),
        (np.zeros((2, 1)), np.arange(2), ("Z0", "Z1"), "column count must match label count"),
        (np.array([[0.5], [np.inf]]), np.arange(2), ("Z0",), "non-finite feature values"),
    ],
    ids=["1-d", "rows", "columns", "non-finite"],
)
def test_feature_matrix_rejects_a_bad_layout(values, t_index, labels, message):
    with pytest.raises(DataError, match=message):
        FeatureMatrix(values=values, t_index=t_index, labels=labels)


class TestCsvRendering:
    def test_features_csv_layout(self):
        fm = FeatureMatrix(
            values=np.array([[0.5, -1.0]]), t_index=np.array([7]), labels=("Z0", "Z0Z1")
        )
        lines = features_csv(fm).strip().split("\n")
        assert lines[0] == "t,Z0,Z0Z1"
        assert lines[1] == "7,0.5,-1"

    def test_csv_bytes_equal_per_value_format(self):
        # the writers format whole rows at once; each value must read as f"{v:.17g}"
        values = np.array([[-0.0, 1e-300, 2 / 3], [5e-324, -1.0, 1e300], [0.1, 1.0, -2 / 3]])
        fm = FeatureMatrix(values=values, t_index=np.array([3, 4, 5]), labels=("Z0", "Z1", "Z0Z1"))
        want = ["t,Z0,Z1,Z0Z1"]
        want += [f"{int(t)}," + ",".join(f"{v:.17g}" for v in row) for t, row in zip(fm.t_index, values)]
        assert features_csv(fm) == "\n".join(want) + "\n"

        targets = np.array([np.nan, -0.0, 2 / 3])
        predictions = np.array([1e-300, np.nan, -np.inf])
        res = RunResult(None, fm, targets, predictions, 2, {}, None)
        want = ["t,target,prediction,split"]
        want += [
            f"{int(t)},{targets[i]:.17g},{predictions[i]:.17g},{'train' if i < 2 else 'test'}"
            for i, t in enumerate(fm.t_index)
        ]
        assert predictions_csv(res) == "\n".join(want) + "\n"

    def test_predictions_csv_split_column(self):
        res = run_case(small_config(T=150, protocol=ProtocolSpec(washout=50, train_fraction=0.5)))
        lines = predictions_csv(res).strip().split("\n")
        assert lines[0] == "t,target,prediction,split"
        assert lines[1].endswith("train")
        assert lines[-1].endswith("test")
        assert sum(1 for l in lines[1:] if l.endswith("test")) == 50

    def test_scan_csv_header(self):
        rows = theory_scan(small_config(T=100, protocol=ProtocolSpec(washout=20, train_fraction=0.5)),
                           [2], delta=0.05, replicates=1)
        lines = scan_csv(rows).strip().split("\n")
        assert lines[0] == "n_qubits,train_score,test_score,gap,confidence_term"
        assert len(lines) == 2
