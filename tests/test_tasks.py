"""Benchmark generator tests."""

import numpy as np
import pytest

from qrclab import tasks
from qrclab.errors import ConfigurationError, DataError, SchemaError
from qrclab.tasks import (
    NARMA_DIVERGENCE_BOUND,
    TaskSpec,
    TimeSeries,
    gen_narma10,
    gen_parity,
    gen_stm,
    generate,
    narma10_recurrence,
    stm_series,
)


class TestStm:
    def test_target_is_exact_shift(self):
        ts = gen_stm(50, seed=3, delay=2)
        np.testing.assert_array_equal(ts.targets[2:], ts.inputs[:-2])
        assert np.all(np.isnan(ts.targets[:2]))
        assert ts.valid_from == 2

    def test_delay_one(self):
        ts = gen_stm(10, seed=1, delay=1)
        assert np.isnan(ts.targets[0])
        assert ts.targets[1] == ts.inputs[0]

    @pytest.mark.parametrize("delay", [1, 3, 49])
    def test_sweep_targets_reproduce_gen_stm(self, delay):
        # an STM sweep draws the inputs once and builds each delay's targets
        # with stm_series; gen_stm builds them the same way, bit for bit
        ts = gen_stm(50, seed=7, delay=delay)
        again = stm_series(gen_stm(50, seed=7, delay=1).inputs, delay)
        assert again.inputs.tobytes() == ts.inputs.tobytes()
        assert again.targets.tobytes() == ts.targets.tobytes()
        assert again.valid_from == ts.valid_from == delay

    def test_deterministic(self):
        a = gen_stm(100, seed=7, delay=3)
        b = gen_stm(100, seed=7, delay=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_inputs_in_unit_interval(self):
        ts = gen_stm(500, seed=0)
        assert ts.inputs.min() >= 0.0 and ts.inputs.max() <= 1.0

    def test_delay_too_large(self):
        with pytest.raises(ConfigurationError):
            gen_stm(10, seed=0, delay=10)

    def test_delay_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_stm(10, seed=0, delay=0)


class TestParity:
    def test_xor_definition(self):
        ts = gen_parity(200, seed=5, window=2)
        bits = ts.inputs.astype(int)
        for t in range(1, 200):
            assert ts.targets[t] == float(bits[t - 1] ^ bits[t])
        assert np.isnan(ts.targets[0])
        assert ts.valid_from == 1

    def test_window_three(self):
        ts = gen_parity(100, seed=2, window=3)
        bits = ts.inputs.astype(int)
        for t in range(2, 100):
            assert ts.targets[t] == float(bits[t - 2] ^ bits[t - 1] ^ bits[t])
        assert np.all(np.isnan(ts.targets[:2]))

    def test_inputs_are_bits(self):
        ts = gen_parity(300, seed=9)
        assert set(np.unique(ts.inputs)) <= {0.0, 1.0}

    def test_labels_balanced(self):
        # binomial bound for T >= 500
        ts = gen_parity(800, seed=4, window=2)
        frac = np.nanmean(ts.targets)
        assert 0.4 <= frac <= 0.6

    def test_window_too_small(self):
        with pytest.raises(ConfigurationError):
            gen_parity(10, seed=0, window=1)

    def test_window_longer_than_series(self):
        with pytest.raises(ConfigurationError, match="window 11 must be <= T=10"):
            gen_parity(10, seed=0, window=11)

    def test_deterministic(self):
        a = gen_parity(64, seed=11)
        b = gen_parity(64, seed=11)
        np.testing.assert_array_equal(a.inputs, b.inputs)


class TestNarma10:
    def test_zero_input_recurrence_values(self):
        y = narma10_recurrence(np.zeros(40))
        assert y[10] == 0.0
        assert abs(y[11] - 0.1) < 1e-15
        assert abs(y[12] - 0.1305) < 1e-15  # 0.3*0.1 + 0.05*0.1*0.1 + 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_recurrence_matches_array_loop(self, seed):
        # the recurrence as an ndarray loop with one np.sum per step
        def array_loop(u):
            y = np.zeros(len(u) + 1)
            for t in range(10, len(u)):
                y[t + 1] = 0.3 * y[t] + 0.05 * y[t] * np.sum(y[t - 9 : t + 1]) + 1.5 * u[t - 9] * u[t] + 0.1
                if abs(y[t + 1]) > NARMA_DIVERGENCE_BOUND:
                    break
            return y

        rng = np.random.default_rng(seed)
        for u in (rng.uniform(0.0, 0.5, 400), np.full(200, 0.5), rng.uniform(0.0, 0.8, 300)):
            want = array_loop(u)
            got = narma10_recurrence(u)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.max(np.abs(array_loop(np.full(200, 0.5)))) > NARMA_DIVERGENCE_BOUND  # one diverges

    def test_target_is_one_step_ahead(self):
        ts = gen_narma10(100, seed=6)
        u_raw = ts.inputs * 0.5
        y = narma10_recurrence(u_raw)
        np.testing.assert_allclose(ts.targets[10:], y[11:], atol=1e-12)
        assert ts.valid_from == 10

    def test_bounded_and_positive_over_seeds(self):
        for seed in range(100):
            ts = gen_narma10(300, seed=seed)
            defined = ts.targets[10:]
            assert np.all(defined > 0.0) and np.all(defined < 10.0)

    def test_positive_variance(self):
        ts = gen_narma10(400, seed=1)
        assert np.nanvar(ts.targets) > 0.0

    def test_inputs_rescaled_to_unit_interval(self):
        ts = gen_narma10(400, seed=2)
        assert ts.inputs.min() >= 0.0 and ts.inputs.max() <= 1.0
        assert ts.inputs.max() > 0.5  # raw inputs live in [0, 0.5]

    def test_diverging_seed_substituted(self, caplog):
        # seed 262 diverges at T=600; the generator falls through to seed 263
        with caplog.at_level("WARNING"):
            substituted = gen_narma10(600, seed=262)
        direct = gen_narma10(600, seed=263)
        np.testing.assert_array_equal(substituted.inputs, direct.inputs)
        assert "diverged" in caplog.text

    def test_redraw_after_the_top_seed_wraps_to_zero(self, monkeypatch, caplog):
        # at T = 30 the series of seed 2**64 - 1 peaks at 0.501 and that of
        # seed 0 at 0.478: a bound between them redraws from seed 0, not from
        # 2**64, which is no seed
        monkeypatch.setattr(tasks, "NARMA_DIVERGENCE_BOUND", 0.49)
        with caplog.at_level("WARNING"):
            redrawn = gen_narma10(30, seed=2**64 - 1)
        np.testing.assert_array_equal(redrawn.inputs, gen_narma10(30, seed=0).inputs)
        assert f"diverged for seed {2**64 - 1}; used seed 0 after 1 redraw" in caplog.text

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            gen_narma10(20, seed=0)
        with pytest.raises(SchemaError, match="T"):
            TaskSpec("narma10", T=29)
        assert TaskSpec("narma10", T=30).T == 30

    def test_deterministic(self):
        a = gen_narma10(128, seed=13)
        b = gen_narma10(128, seed=13)
        np.testing.assert_array_equal(a.targets, b.targets)


class TestTaskSpec:
    def test_dispatch(self):
        # the spec's valid_from is the generated series' own
        for spec, first in (
            (TaskSpec("stm", T=50, seed=1), 2),
            (TaskSpec("stm", T=50, seed=1, delay=7), 7),
            (TaskSpec("parity", T=50, seed=1, window=3), 2),
            (TaskSpec("narma10", T=50, seed=1), 10),
        ):
            assert generate(spec).valid_from == spec.valid_from == first

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            TaskSpec("mackey_glass")

    def test_unresolved_seed(self):
        with pytest.raises(ConfigurationError):
            generate(TaskSpec("stm", T=50))


@pytest.mark.parametrize(
    "targets, valid_from, message",
    [(np.zeros(4), 0, "equal length"), (np.zeros(5), -1, "valid_from"), (np.zeros(5), 6, "valid_from")],
    ids=["lengths", "negative-valid-from", "valid-from-past-the-end"],
)
def test_time_series_rejects_a_bad_layout(targets, valid_from, message):
    with pytest.raises(DataError, match=message):
        TimeSeries(np.zeros(5), targets, valid_from)
