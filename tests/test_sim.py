"""Core statevector simulator tests."""

import hashlib

import numpy as np
import pytest

from qrclab.errors import ConfigurationError, DataError
from qrclab.sim import (
    GateOp,
    PauliString,
    RandomStream,
    StateVector,
    apply_circuit,
    apply_gate,
    child_seed,
    estimate_expectations,
    expectation,
    new_zero_state,
    sample_counts,
    sign_matrix,
)

from dense_oracle import apply_dense, random_circuit

SQ2 = np.sqrt(2) / 2


class TestNewZeroState:
    def test_one_qubit(self):
        state = new_zero_state(1)
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_two_qubits(self):
        state = new_zero_state(2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_zero_qubits_rejected(self):
        with pytest.raises(ConfigurationError):
            new_zero_state(0)

    def test_memory_guard(self):
        with pytest.raises(ConfigurationError):
            new_zero_state(25)


class TestStateVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(DataError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="norm.*nan"):
            StateVector(1, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("n", [0, 25])
    def test_width_range(self, n):
        with pytest.raises(ConfigurationError, match=r"n_qubits must be in \[1, 24\]"):
            StateVector(n, np.array([1.0]))

    def test_no_silent_renormalization(self):
        state = new_zero_state(1)
        state.amplitudes[0] = 2.0  # corrupt deliberately
        assert state.norm_error() > 1.0  # reported, not repaired


class TestGateOp:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            GateOp("RX", 0.1, target=0)

    def test_controlled_requires_control(self):
        with pytest.raises(ConfigurationError):
            GateOp("CRY", 0.1, target=0)

    def test_plain_rejects_control(self):
        with pytest.raises(ConfigurationError):
            GateOp("RY", 0.1, target=0, control=1)

    def test_control_equals_target(self):
        with pytest.raises(ConfigurationError):
            GateOp("CRZ", 0.1, target=1, control=1)

    def test_non_finite_angle(self):
        with pytest.raises(ConfigurationError):
            GateOp("RY", float("nan"), target=0)

    @pytest.mark.parametrize("target, control", [(-1, None), (0, -1)], ids=["target", "control"])
    def test_negative_qubit(self, target, control):
        with pytest.raises(ConfigurationError, match="non-negative"):
            GateOp("RY" if control is None else "CRY", 0.1, target=target, control=control)


class TestApplyGate:
    def test_ry_pi_flips(self):
        state = apply_gate(new_zero_state(1), GateOp("RY", np.pi, target=0))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_ry_half_pi(self):
        state = apply_gate(new_zero_state(1), GateOp("RY", np.pi / 2, target=0))
        np.testing.assert_allclose(state.amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_rz_phases(self):
        theta = 0.7
        state = apply_gate(new_zero_state(1), GateOp("RZ", theta, target=0))
        np.testing.assert_allclose(state.amplitudes, [np.exp(-1j * theta / 2), 0], atol=1e-15)

    def test_cry_control_set(self):
        # |01> (index 1): control qubit 0 is 1, so the target flips -> |11>
        state = new_zero_state(2)
        apply_gate(state, GateOp("RY", np.pi, target=0))
        apply_gate(state, GateOp("CRY", np.pi, target=1, control=0))
        expected = np.zeros(4)
        expected[3] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_cry_control_clear(self):
        state = new_zero_state(2)
        apply_gate(state, GateOp("CRY", np.pi, target=1, control=0))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            apply_gate(new_zero_state(2), GateOp("RY", 0.3, target=2))
        with pytest.raises(ConfigurationError):
            apply_gate(new_zero_state(2), GateOp("CRY", 0.3, target=0, control=5))

    def test_norm_preserved_random_circuit(self):
        state = new_zero_state(3)
        apply_circuit(state, random_circuit(3, 200, seed=5))
        assert state.norm_error() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, n):
        for seed in range(10):
            gates = random_circuit(n, 30, seed=seed)
            state = apply_circuit(new_zero_state(n), gates)
            want = apply_dense(new_zero_state(n).amplitudes, gates, n)
            np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(new_zero_state(1), PauliString((0,))) == 1.0

    @pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2, np.pi])
    def test_z_after_ry(self, theta):
        state = apply_gate(new_zero_state(1), GateOp("RY", theta, target=0))
        assert abs(expectation(state, PauliString((0,))) - np.cos(theta)) < 1e-12

    def test_zz_anticorrelated(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = amps[2] = SQ2  # (|01> + |10>)/sqrt(2)
        state = StateVector(2, amps)
        assert abs(expectation(state, PauliString((0, 1))) + 1.0) < 1e-12

    def test_non_destructive(self):
        state = apply_circuit(new_zero_state(3), random_circuit(3, 30, seed=1))
        before = state.amplitudes.tobytes()
        expectation(state, PauliString((0, 2)))
        assert state.amplitudes.tobytes() == before

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            expectation(new_zero_state(2), PauliString((3,)))

    def test_bounded(self):
        state = apply_circuit(new_zero_state(3), random_circuit(3, 50, seed=9))
        for q in range(3):
            assert -1.0 <= expectation(state, PauliString((q,))) <= 1.0


class TestPauliString:
    def test_labels(self):
        assert PauliString((0,)).label == "Z0"
        assert PauliString((2, 1)).label == "Z1Z2"  # sorted

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            PauliString((1, 1))

    def test_size_limits(self):
        with pytest.raises(ConfigurationError):
            PauliString(())
        with pytest.raises(ConfigurationError):
            PauliString((0, 1, 2))

    def test_negative_qubit(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            PauliString((-1, 0))


def test_sign_matrix_rejects_an_observable_out_of_range():
    with pytest.raises(ConfigurationError, match="observable Z1Z2 out of range for n=2"):
        sign_matrix([PauliString((0,)), PauliString((1, 2))], 2)


class TestSampleCounts:
    def test_deterministic_state(self):
        state = apply_gate(new_zero_state(1), GateOp("RY", np.pi, target=0))
        assert sample_counts(state, 100, RandomStream(3)) == {1: 100}

    def test_zero_state_all_zero(self):
        assert sample_counts(new_zero_state(2), 7, RandomStream(0)) == {0: 7}

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_counts(new_zero_state(1), 0, RandomStream(0))

    def test_counts_sum_to_shots(self):
        state = apply_gate(new_zero_state(2), GateOp("RY", 1.1, target=1))
        counts = sample_counts(state, 999, RandomStream(7))
        assert sum(counts.values()) == 999

    def test_plus_state_large_shots(self):
        # binomial sd at 1e6 shots is 5e-4; 0.005 is a 10-sigma bound
        state = apply_gate(new_zero_state(1), GateOp("RY", np.pi / 2, target=0))
        counts = sample_counts(state, 10**6, RandomStream(11))
        assert abs(counts[0] / 10**6 - 0.5) < 0.005

    def test_same_seed_same_counts(self):
        state = apply_gate(new_zero_state(2), GateOp("RY", 0.9, target=0))
        a = sample_counts(state, 500, RandomStream(42))
        b = sample_counts(state, 500, RandomStream(42))
        assert a == b

    @pytest.mark.parametrize("corrupt", ["nan", "scaled"])
    def test_drifted_norm_rejected(self, corrupt):
        # a state's amplitudes changed after it was built are checked again
        # before they are sampled; unchecked, the NaN state samples {0: 16}
        state = new_zero_state(2)
        if corrupt == "nan":
            state.amplitudes[1] = np.nan
        else:
            state.amplitudes *= 2
        with pytest.raises(DataError, match="drifted"):
            sample_counts(state, 16, RandomStream(1))


class TestEstimateExpectations:
    def test_single_z(self):
        got = estimate_expectations({0: 3, 1: 1}, 4, [PauliString((0,))])
        np.testing.assert_allclose(got, [0.5])

    def test_zz_both_bits_set(self):
        got = estimate_expectations({3: 10}, 10, [PauliString((0, 1))])
        np.testing.assert_allclose(got, [1.0])

    def test_empty_counts(self):
        with pytest.raises(DataError):
            estimate_expectations({}, 4, [PauliString((0,))])

    def test_wrong_total(self):
        with pytest.raises(DataError):
            estimate_expectations({0: 3}, 4, [PauliString((0,))])

    def test_joint_table_consistency(self):
        # all observables come from one count table; estimates stay in [-1, 1]
        state = apply_circuit(new_zero_state(3), random_circuit(3, 30, seed=2))
        counts = sample_counts(state, 2048, RandomStream(5))
        obs = [PauliString((q,)) for q in range(3)] + [PauliString((0, 2))]
        est = estimate_expectations(counts, 2048, obs)
        assert np.all(est >= -1.0) and np.all(est <= 1.0)

    def test_converges_to_exact(self):
        state = apply_circuit(new_zero_state(2), random_circuit(2, 20, seed=8))
        obs = [PauliString((0,)), PauliString((1,)), PauliString((0, 1))]
        exact = np.array([expectation(state, o) for o in obs])
        counts = sample_counts(state, 10**6, RandomStream(1))
        est = estimate_expectations(counts, 10**6, obs)
        np.testing.assert_allclose(est, exact, atol=0.01)


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = RandomStream(123).uniform(size=10)
        b = RandomStream(123).uniform(size=10)
        np.testing.assert_array_equal(a, b)

    def test_is_numpy_generator_on_pcg64(self):
        stream = RandomStream(2**64 - 1)
        assert isinstance(stream, np.random.Generator) and isinstance(stream.bit_generator, np.random.PCG64)
        want = np.random.Generator(np.random.PCG64(2**64 - 1))
        np.testing.assert_array_equal(stream.uniform(0.0, 2.0, size=5), want.uniform(0.0, 2.0, size=5))
        np.testing.assert_array_equal(stream.integers(0, 7, size=5), want.integers(0, 7, size=5))

    def test_child_depends_only_on_seed_and_label(self):
        # the documented rule: the first 8 bytes of sha256("<seed>/<label>"),
        # little-endian; no generator, so no draw can shift it
        digest = hashlib.sha256(b"99/data").digest()
        assert child_seed(99, "data") == int.from_bytes(digest[:8], "little") == 2072687163612882865

    def test_distinct_labels_distinct_children(self):
        seeds = {child_seed(7, lbl) for lbl in ("data", "reservoir", "shots", "encoder-interleave")}
        assert len(seeds) == 4

    def test_seed_range(self):
        with pytest.raises(ConfigurationError):
            RandomStream(-1)
        with pytest.raises(ConfigurationError):
            RandomStream(2**64)
