"""Reservoir construction, topology, and fixedness tests."""

import numpy as np
import pytest

from qrclab.encoding import EncoderSpec, build_encoder, encode_input
from qrclab.errors import ConfigurationError
from qrclab.reservoir import (
    ReservoirSpec,
    apply_reservoir,
    build_reservoir,
    topology_edges,
)
from qrclab.sim import GateOp, new_zero_state

from dense_oracle import apply_dense


class TestTopologyEdges:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 4), (6, 6)])
    def test_ring_counts(self, n, count):
        assert len(topology_edges("ring", n)) == count

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chain_counts(self, n):
        assert len(topology_edges("chain", n)) == n - 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_all_to_all_counts(self, n):
        assert len(topology_edges("all_to_all", n)) == n * (n - 1) // 2

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            topology_edges("ring", 1)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            topology_edges("star", 4)


class TestBuildReservoir:
    def test_gate_count_ring_default(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=4, depth=3, seed=0))
        assert len(circ.gates) == 3 * (4 + 4)

    def test_gate_count_two_qubit_ring(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=2, depth=1, seed=0))
        assert len(circ.gates) == 1 * (1 + 2)

    def test_deterministic(self):
        spec = ReservoirSpec(n_qubits=3, depth=2, seed=17)
        a = build_reservoir(spec)
        b = build_reservoir(spec)
        assert a == b
        assert a.gates == b.gates

    def test_layer_structure(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=3, depth=2, seed=4))
        kinds = [g.kind for g in circ.gates]
        per_layer = ["CRY"] * 3 + ["RZ"] * 3
        assert kinds == per_layer * 2

    def test_depth_validation(self):
        with pytest.raises(ConfigurationError):
            ReservoirSpec(n_qubits=3, depth=0)

    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            ReservoirSpec(n_qubits=1)

    def test_unresolved_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            build_reservoir(ReservoirSpec(n_qubits=2))


class TestApplyReservoir:
    def test_zero_angles_are_identity(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=2, depth=1, seed=0))
        zeroed = type(circ)(
            n_qubits=2,
            gates=tuple(GateOp(g.kind, 0.0, g.target, g.control) for g in circ.gates),
        )
        state = apply_reservoir(zeroed, new_zero_state(2))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_unitarity(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=4, depth=5, seed=23))
        state = apply_reservoir(circ, new_zero_state(4))
        assert state.norm_error() <= 1e-10

    def test_qubit_count_mismatch(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=3, depth=1, seed=0))
        with pytest.raises(ConfigurationError):
            apply_reservoir(circ, new_zero_state(2))

    def test_matches_dense_oracle(self):
        circ = build_reservoir(ReservoirSpec(n_qubits=2, depth=3, seed=31))
        state = apply_reservoir(circ, new_zero_state(2))
        want = apply_dense(new_zero_state(2).amplitudes, circ.gates, 2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)


class TestEntanglingEffect:
    def test_generic_seeds_entangle(self):
        # encode(0.5) then reservoir on 2 qubits: Schmidt rank 2 for at least
        # 95 of 100 seeds (both singular values of the reshaped state nonzero)
        encoder = build_encoder(EncoderSpec(n_qubits=2, interleave_seed=0))
        entangled = 0
        for seed in range(100):
            circ = build_reservoir(ReservoirSpec(n_qubits=2, depth=1, seed=seed))
            state = encode_input(encoder, 0.5, new_zero_state(2))
            apply_reservoir(circ, state)
            # basis index = q1*2 + q0: rows indexed by qubit 1, cols by qubit 0
            mat = state.amplitudes.reshape(2, 2)
            svals = np.linalg.svd(mat, compute_uv=False)
            if svals[1] > 1e-6:
                entangled += 1
        assert entangled >= 95


class TestSerialization:
    def test_gate_list_fixed_across_a_run(self):
        # applying the circuit many times must not perturb its gate list
        spec = ReservoirSpec(n_qubits=3, depth=2, seed=13)
        circ = build_reservoir(spec)
        state = new_zero_state(3)
        for _ in range(25):
            apply_reservoir(circ, state)
        assert circ.gates == build_reservoir(spec).gates
