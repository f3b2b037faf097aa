"""Encoder construction and input-injection tests."""

import numpy as np
import pytest

from qrclab import encoding
from qrclab.encoding import EncoderSpec, build_encoder, encode_input, scale_input
from qrclab.errors import ConfigurationError, DataError
from qrclab.sim import PauliString, RandomStream, expectation, new_zero_state


class TestEncoderSpec:
    def test_angle_scheme_single_layer_only(self):
        with pytest.raises(ConfigurationError):
            EncoderSpec(scheme="angle", layers=2)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            EncoderSpec(scheme="amplitude")

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            EncoderSpec(scale="tanh")


class TestBuildEncoder:
    def test_plain_angle_layout(self):
        circ = build_encoder(EncoderSpec(interleave_seed=1), 3)
        assert len(circ.layers) == 1
        assert circ.layers[0].angle_qubits == (0, 1, 2)
        assert sum(len(layer.fixed_gates) for layer in circ.layers) == 0

    def test_reupload_fixed_gate_count(self):
        # two qubits: the ring degenerates to one edge, so each layer carries
        # 1 CRZ + 2 RZ fixed gates
        spec = EncoderSpec(scheme="reupload", layers=2, interleave_seed=3)
        circ = build_encoder(spec, 2)
        assert sum(len(layer.fixed_gates) for layer in circ.layers) == 2 * (1 + 2)
        assert all(len(layer.angle_qubits) == 2 for layer in circ.layers)

    def test_reupload_ring_count_three_qubits(self):
        spec = EncoderSpec(scheme="reupload", layers=2, interleave_seed=3)
        circ = build_encoder(spec, 3)
        assert sum(len(layer.fixed_gates) for layer in circ.layers) == 2 * (3 + 3)

    def test_ring_edges_and_draw_order(self):
        # one CRZ per ring edge (0,1), (1,2), (2,0), then one RZ per qubit,
        # drawn in that order from the interleave stream
        circ = build_encoder(EncoderSpec(scheme="reupload", interleave_seed=7), 3)
        gates = circ.layers[0].fixed_gates
        assert [(g.kind, g.control, g.target) for g in gates] == [
            ("CRZ", 0, 1), ("CRZ", 1, 2), ("CRZ", 2, 0), ("RZ", None, 0), ("RZ", None, 1), ("RZ", None, 2),
        ]
        rng = RandomStream(7)
        assert [g.angle for g in gates] == [float(rng.uniform(0.0, 2 * np.pi)) for _ in gates]

    def test_layers_draw_in_turn(self):
        # every re-upload layer draws its ring's CRZ angles, then its RZ
        # angles, one stream value per gate, after the layers before it
        circ = build_encoder(EncoderSpec(scheme="reupload", layers=3, interleave_seed=8), 4)
        rng = RandomStream(8)
        for layer in circ.layers:
            assert [g.angle for g in layer.fixed_gates] == [float(rng.uniform(0.0, 2 * np.pi)) for _ in range(8)]

    def test_single_qubit_reupload_has_no_ring(self):
        circ = build_encoder(EncoderSpec(scheme="reupload", layers=2, interleave_seed=0), 1)
        assert [[g.kind for g in layer.fixed_gates] for layer in circ.layers] == [["RZ"], ["RZ"]]

    def test_deterministic(self):
        spec = EncoderSpec(scheme="reupload", layers=2, interleave_seed=11)
        assert build_encoder(spec, 3) == build_encoder(spec, 3)

    def test_fixed_block_invariant_across_inputs(self):
        # only the angle slots vary with the input; the interleaving gates are
        # frozen inside the circuit and shared by every encode call
        spec = EncoderSpec(scheme="reupload", layers=2, interleave_seed=5)
        circ = build_encoder(spec, 2)
        s1 = encode_input(circ, 0.2, new_zero_state(2))
        s2 = encode_input(circ, 0.9, new_zero_state(2))
        assert circ == build_encoder(spec, 2)  # untouched by encoding
        assert not np.allclose(s1.amplitudes, s2.amplitudes)

    def test_unresolved_seed_rejected(self):
        for spec in (EncoderSpec(), EncoderSpec(scheme="reupload")):  # angle draws nothing, but checks too
            with pytest.raises(ConfigurationError, match="interleave seed unresolved"):
                build_encoder(spec, 2)

    @pytest.mark.parametrize("scheme, layers, streams", [("angle", 1, 0), ("reupload", 2, 1)])
    def test_one_stream_only_when_it_draws(self, monkeypatch, scheme, layers, streams):
        # the plain angle scheme has no fixed gates, so it builds no
        # generator; a re-upload encoder builds one for all its layers
        built = []

        def counted(seed):
            built.append(seed)
            return RandomStream(seed)

        monkeypatch.setattr(encoding, "RandomStream", counted)
        circ = build_encoder(EncoderSpec(scheme=scheme, layers=layers, interleave_seed=9), 3)
        assert built == [9] * streams
        assert sum(len(layer.fixed_gates) for layer in circ.layers) == 6 * (layers if scheme == "reupload" else 0)


class TestEncodeInput:
    def test_zero_input_is_identity(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 1)
        state = encode_input(circ, 0.0, new_zero_state(1))
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-15)

    def test_unit_input_flips(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 1)
        state = encode_input(circ, 1.0, new_zero_state(1))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_half_input_balances_z(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 1)
        state = encode_input(circ, 0.5, new_zero_state(1))
        assert abs(expectation(state, PauliString((0,)))) < 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_z_matches_cosine(self, u):
        # angle scheme on |00..0>: <Z_i> = cos(f(u_i)) exactly
        circ = build_encoder(EncoderSpec(interleave_seed=0), 3)
        state = encode_input(circ, [u, 1 - u, u / 2], new_zero_state(3))
        for q, val in enumerate([u, 1 - u, u / 2]):
            got = expectation(state, PauliString((q,)))
            assert abs(got - np.cos(np.pi * val)) < 1e-12

    def test_scalar_tiled_across_qubits(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 3)
        state = encode_input(circ, 0.3, new_zero_state(3))
        vals = [expectation(state, PauliString((q,))) for q in range(3)]
        np.testing.assert_allclose(vals, vals[0])

    def test_vector_tiled_cyclically(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 4)
        state = encode_input(circ, [0.2, 0.8], new_zero_state(4))
        z = [expectation(state, PauliString((q,))) for q in range(4)]
        assert abs(z[0] - z[2]) < 1e-12 and abs(z[1] - z[3]) < 1e-12
        assert abs(z[0] - z[1]) > 0.1

    def test_non_finite_rejected(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 1)
        with pytest.raises(DataError):
            encode_input(circ, float("nan"), new_zero_state(1))

    @pytest.mark.parametrize("width", [2, 4])
    def test_state_of_another_width_rejected(self, width):
        # rejected before any gate, as apply_reservoir rejects it: on a wider
        # state the encoder would leave the qubits past its own unencoded
        circ = build_encoder(EncoderSpec(interleave_seed=1), 3)
        with pytest.raises(ConfigurationError, match=f"encoder on 3 qubits cannot act on {width}-qubit state"):
            encode_input(circ, 1.0, new_zero_state(width))

    def test_empty_rejected(self):
        circ = build_encoder(EncoderSpec(interleave_seed=0), 1)
        with pytest.raises(DataError):
            encode_input(circ, [], new_zero_state(1))


class TestScaleInput:
    def test_clamps_both_sides(self):
        assert scale_input(1.7) == scale_input(1.0) == np.pi
        assert scale_input(-3.0) == scale_input(0.0) == 0.0

    def test_linear_inside(self):
        np.testing.assert_allclose(scale_input(0.25), np.pi / 4)
