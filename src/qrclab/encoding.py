"""Input encoder circuits: plain angle encoding and data re-uploading.

The encoder applies, per layer, one input-dependent RY per qubit followed by
a fixed interleaving block (a CRZ ring plus a per-qubit RZ layer, drawn once
from the interleave seed and reused for every time step). Plain angle
encoding is the single-layer case with no fixed block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError
from .reservoir import topology_edges
from .sim import GateOp, RandomStream, StateVector, apply_gate, check_seed

SCHEMES = ("angle", "reupload")
SCALE_TAGS = ("pi_linear",)


def scale_input(u, tag: str = "pi_linear"):
    """Map raw inputs to rotation angles; pi_linear is pi * clamp(u, 0, 1)."""
    if tag not in SCALE_TAGS:
        raise ConfigurationError(f"unknown scale function {tag!r}")
    return np.pi * np.clip(u, 0.0, 1.0)


@dataclass(frozen=True)
class EncoderSpec:
    n_qubits: int
    scheme: str = "angle"
    layers: int = 1
    scale: str = "pi_linear"
    interleave_seed: int | None = None  # None = derive from the experiment master seed

    def __post_init__(self):
        if self.n_qubits < 1:
            raise SchemaError("n_qubits", f"must be >= 1, got {self.n_qubits}")
        if self.scheme not in SCHEMES:
            raise SchemaError("scheme", f"must be one of {list(SCHEMES)}, got {self.scheme!r}")
        if self.scale not in SCALE_TAGS:
            raise SchemaError("scale", f"must be one of {list(SCALE_TAGS)}, got {self.scale!r}")
        if self.layers < 1:
            raise SchemaError("layers", f"must be >= 1, got {self.layers}")
        if self.scheme == "angle" and self.layers != 1:
            raise SchemaError("layers", "must be 1 for the plain angle scheme")
        check_seed("interleave_seed", self.interleave_seed, optional=True)


@dataclass(frozen=True)
class EncoderLayer:
    angle_qubits: tuple[int, ...]  # RY slots, applied in this order
    fixed_gates: tuple[GateOp, ...]  # interleaving block; identical for every input


@dataclass(frozen=True)
class EncoderCircuit:
    n_qubits: int
    scale: str
    layers: tuple[EncoderLayer, ...]


def build_encoder(spec: EncoderSpec) -> EncoderCircuit:
    """Build the encoder deterministically from (spec, interleave seed).

    Draw order per re-upload layer: CRZ angle for each ring edge in ascending
    order, then one RZ angle per qubit in ascending order.
    """
    if spec.interleave_seed is None:
        raise ConfigurationError("interleave seed unresolved; fill it or go through resolve_seeds")
    rng = RandomStream(spec.interleave_seed)
    slots = tuple(range(spec.n_qubits))
    ring = topology_edges("ring", spec.n_qubits) if spec.n_qubits > 1 else ()  # 1 qubit: no ring
    layers = []
    for _ in range(spec.layers):
        fixed: list[GateOp] = []
        if spec.scheme == "reupload":
            for i, j in ring:
                fixed.append(GateOp("CRZ", float(rng.uniform(0.0, 2 * np.pi)), target=j, control=i))
            for q in range(spec.n_qubits):
                fixed.append(GateOp("RZ", float(rng.uniform(0.0, 2 * np.pi)), target=q))
        layers.append(EncoderLayer(angle_qubits=slots, fixed_gates=tuple(fixed)))
    return EncoderCircuit(n_qubits=spec.n_qubits, scale=spec.scale, layers=tuple(layers))


def encode_input(circuit: EncoderCircuit, u, state: StateVector) -> StateVector:
    """Apply the input-dependent encoder to ``state`` in place.

    Inputs shorter than the register are tiled cyclically across qubits, so
    scalar series drive every qubit. Each re-upload layer re-encodes the same
    input vector.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if u.ndim != 1 or u.size == 0:
        raise DataError("input must be a non-empty scalar or 1-d vector")
    if not np.all(np.isfinite(u)):
        raise DataError("non-finite input value")
    angles = scale_input(u, circuit.scale)
    for layer in circuit.layers:
        for q in layer.angle_qubits:
            apply_gate(state, GateOp("RY", float(angles[q % u.size]), target=q))
        for gate in layer.fixed_gates:
            apply_gate(state, gate)
    return state
