"""Fixed random reservoir circuits built once from a seed and held constant.

Each depth layer appends one CRY per topology edge (edges in ascending
order, control = first endpoint) followed by one RZ per qubit; all angles
are drawn Uniform[0, 2*pi) in that documented order, so a spec fully
determines the gate list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SchemaError
from .sim import MAX_QUBITS, GateOp, RandomStream, StateVector, apply_circuit, check_int, check_seed

TOPOLOGIES = ("ring", "chain", "all_to_all")


def topology_edges(topology: str, n_qubits: int) -> tuple[tuple[int, int], ...]:
    """Edge list for a topology: ring(N)=N for N>=3 (1 for N=2), chain(N)=N-1,
    all_to_all(N)=N(N-1)/2. Edges are (i, j) pairs in ascending order of i."""
    if topology not in TOPOLOGIES:
        raise ConfigurationError(f"unknown topology {topology!r}")
    if n_qubits < 2:
        raise ConfigurationError(f"topology {topology!r} needs at least 2 qubits")
    if topology == "ring":  # the closing edge (n-1, 0) last; N=2 has one edge
        return tuple((i, (i + 1) % n_qubits) for i in range(n_qubits if n_qubits > 2 else 1))
    if topology == "chain":
        return tuple((i, i + 1) for i in range(n_qubits - 1))
    return tuple(
        (i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)
    )


@dataclass(frozen=True)
class ReservoirSpec:
    n_qubits: int
    depth: int = 3
    topology: str = "ring"
    seed: int | None = None  # None = derive from the experiment master seed

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise SchemaError("topology", f"must be one of {list(TOPOLOGIES)}, got {self.topology!r}")
        object.__setattr__(self, "n_qubits", check_int("n_qubits", self.n_qubits, 2, MAX_QUBITS))
        object.__setattr__(self, "depth", check_int("depth", self.depth, 1))
        object.__setattr__(self, "seed", check_seed("seed", self.seed, optional=True))


@dataclass(frozen=True)
class ReservoirCircuit:
    n_qubits: int
    gates: tuple[GateOp, ...]


def build_reservoir(spec: ReservoirSpec) -> ReservoirCircuit:
    """Freeze the random reservoir gate list for the lifetime of a run."""
    if spec.seed is None:
        raise ConfigurationError("reservoir seed unresolved; fill it or go through resolve_seeds")
    rng = RandomStream(spec.seed)
    edges = topology_edges(spec.topology, spec.n_qubits)
    gates: list[GateOp] = []
    for _ in range(spec.depth):  # one draw per layer, the same values as one scalar draw per gate
        angles = rng.uniform(0.0, 2 * np.pi, size=len(edges) + spec.n_qubits).tolist()
        gates += [GateOp("CRY", a, target=j, control=i) for (i, j), a in zip(edges, angles)]
        gates += [GateOp("RZ", a, target=q) for q, a in enumerate(angles[len(edges) :])]
    return ReservoirCircuit(n_qubits=spec.n_qubits, gates=tuple(gates))


def apply_reservoir(circuit: ReservoirCircuit, state: StateVector) -> StateVector:
    if circuit.n_qubits != state.n_qubits:
        raise ConfigurationError(
            f"reservoir on {circuit.n_qubits} qubits cannot act on "
            f"{state.n_qubits}-qubit state"
        )
    return apply_circuit(state, circuit.gates)
