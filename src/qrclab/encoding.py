"""Input encoder circuits: plain angle encoding and data re-uploading.

The encoder applies, per layer, one input-dependent RY per qubit followed by
a fixed interleaving block (one CRZ ``random_layer`` on the ring, drawn once
from the interleave seed and reused for every time step). Plain angle
encoding is the single-layer case with no fixed block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError
from .reservoir import check_width, random_layer, topology_edges
from .sim import GateOp, RandomStream, StateVector, apply_circuit, check_int, check_seed
from .sim import apply_gate  # noqa: F401  the bench tracer's self-test rewraps this binding

SCHEMES = ("angle", "reupload")
SCALE_TAGS = ("pi_linear",)


def scale_input(u):
    """Map raw inputs to rotation angles: pi_linear, pi * clamp(u, 0, 1)."""
    return np.pi * np.clip(u, 0.0, 1.0)


@dataclass(frozen=True)
class EncoderSpec:
    scheme: str = "angle"
    layers: int = 1
    scale: str = "pi_linear"
    interleave_seed: int | None = None  # None = derive from the experiment master seed

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SchemaError("scheme", f"must be one of {list(SCHEMES)}, got {self.scheme!r}")
        if self.scale not in SCALE_TAGS:
            raise SchemaError("scale", f"must be one of {list(SCALE_TAGS)}, got {self.scale!r}")
        object.__setattr__(self, "layers", check_int("layers", self.layers, 1))
        if self.scheme == "angle" and self.layers != 1:
            raise SchemaError("layers", "must be 1 for the plain angle scheme")
        object.__setattr__(self, "interleave_seed", check_seed("interleave_seed", self.interleave_seed, optional=True))


@dataclass(frozen=True)
class EncoderLayer:
    angle_qubits: tuple[int, ...]  # RY slots, applied in this order
    fixed_gates: tuple[GateOp, ...]  # interleaving block; identical for every input


@dataclass(frozen=True)
class EncoderCircuit:
    n_qubits: int
    layers: tuple[EncoderLayer, ...]


def build_encoder(spec: EncoderSpec, n_qubits: int) -> EncoderCircuit:
    """Build the encoder on ``n_qubits`` qubits deterministically from
    (spec, interleave seed).

    Each re-upload layer's fixed block is ``reservoir.random_layer("CRZ",
    ring, n_qubits, rng)``, drawn in layer order from one interleave stream.
    """
    if spec.interleave_seed is None:
        raise ConfigurationError("interleave seed unresolved; fill it or go through resolve_seeds")
    rng = RandomStream(spec.interleave_seed) if spec.scheme == "reupload" else None  # angle draws nothing
    slots = tuple(range(n_qubits))
    ring = topology_edges("ring", n_qubits) if n_qubits > 1 else ()  # 1 qubit: no ring
    layers = []
    for _ in range(spec.layers):
        fixed = random_layer("CRZ", ring, n_qubits, rng) if rng else []
        layers.append(EncoderLayer(angle_qubits=slots, fixed_gates=tuple(fixed)))
    return EncoderCircuit(n_qubits=n_qubits, layers=tuple(layers))


def encode_input(circuit: EncoderCircuit, u, state: StateVector) -> StateVector:
    """Apply the input-dependent encoder to ``state`` in place.

    Inputs shorter than the register are tiled cyclically across qubits, so
    scalar series drive every qubit. Each re-upload layer re-encodes the same
    input vector.
    """
    check_width("encoder", circuit, state)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if u.ndim != 1 or u.size == 0:
        raise DataError("input must be a non-empty scalar or 1-d vector")
    if not np.all(np.isfinite(u)):
        raise DataError("non-finite input value")
    angles = scale_input(u)
    for layer in circuit.layers:
        slots = [GateOp("RY", float(angles[q % u.size]), target=q) for q in layer.angle_qubits]
        apply_circuit(state, [*slots, *layer.fixed_gates])
    return state
