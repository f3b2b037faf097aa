"""Dense statevector simulator: gate kernels, Pauli-Z expectations, shot sampling.

Conventions (frozen; tests depend on them):

* Qubit 0 is the least significant bit of the basis index, so basis state
  ``|q_{n-1} ... q_1 q_0>`` has index ``sum(q_i * 2**i)``.
* ``RY(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]``
* ``RZ(theta) = diag(exp(-i*theta/2), exp(+i*theta/2))``
* Controlled variants rotate the target only on the control=1 subspace.

All arithmetic is double-precision complex. Norm drift is checked by
``check_norm``, never silently repaired here.

Two layers of kernels live here. ``apply_gate``, ``expectation``,
``sample_counts`` and ``estimate_expectations`` act on one ``StateVector``
or its count table and are the reference path; ``tests/dense_oracle.py``
checks ``apply_gate`` in turn. The batch helpers ``apply_gate_rows``,
``compile_gates``, ``fuse_groups``, ``apply_group``, ``apply_ops``,
``ry_factors``, ``ry_phases``, ``y_frame`` and ``sign_matrix`` act on, or
build operators for, a ``(B, 2**n)`` array of amplitude rows
(``apply_group`` and ``apply_ops`` on any leading axes); the fused
evolution kernel in ``experiment`` is built from them and tested against
the reference path.

The RY layer on every qubit is a Kronecker product, applied in one of two
forms; ``experiment.plan`` picks the form and splits the qubits into the
fewest near-equal groups whose factors fit its chunk budget. Where a 2**n x
2**n operator fits it (n <= 7), the eigenbasis of Pauli-Y makes the layer
diagonal: ``ry_phases`` gives its 2**n phases, and one matmul with the frame
matrix W from ``y_frame`` moves rows into or out of that frame. Past it, on
m >= 2 groups of consecutive qubits, the layer is one factor per group
(``ry_factors``), each a ``GroupOp`` that ``apply_group`` runs as one
matmul. In both forms ``fuse_groups`` compiles the fixed gates that stay
within one group to such ops, and leaves only the gates that cross a cut:
CRZ runs as one phase vector, and CRYs, each merged with its target group's
neighbouring factors into a GroupOp with a control, one factor on that
group per value of its control.
Every factor is a row operator, as ``compile_gates`` builds it: ``rows @
M`` applies M, the transpose of the gates' unitary.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError

MAX_QUBITS = 24  # 2**24 complex128 amplitudes = 256 MB; desk-scale ceiling
MAX_COUNT = 2**53  # the largest count a float64 holds exactly: the bound on a series length or shot count

GATE_KINDS = ("RY", "RZ", "CRY", "CRZ")


# --------------------------------------------------------------------------
# Seeded randomness
# --------------------------------------------------------------------------


def check_seed(key: str, seed, optional: bool = False) -> int | None:
    """The rule for every seed: an integer in [0, 2**64), the range of a
    PCG64 seed, or None if ``optional``. Returns it as a Python int; ``key``
    names it in the error."""
    if optional and seed is None:
        return None
    if not 0 <= (seed := check_int(key, seed)) < 2**64:
        raise SchemaError(key, f"must be in [0, 2**64), got {shown(seed)}")
    return seed


def shown(value) -> str:
    """``value`` as an error message shows it: its repr, or for an integer
    of more than 128 bits, its size (Python cannot print one of more than
    4,300 digits)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and int(value).bit_length() > 128:
        return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"
    return repr(value)


def check_int(key: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int, at least ``low`` and at most ``high`` when
    given. A numpy integer is one; a bool, a non-integer or a value out of
    bounds raises SchemaError keyed ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SchemaError(key, f"must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SchemaError(key, f"must be {bound}, got {shown(value)}")
    return value


def check_real(key: str, value) -> float:
    """``value`` as a finite Python float. A numpy number is one; a bool, a
    non-number, NaN, an infinity or an integer too large for a float raises
    SchemaError keyed ``key``."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise SchemaError(key, f"must be a finite number, got {shown(value)}")


def check_bool(key: str, value) -> bool:
    """``value`` if it is a bool; anything else raises SchemaError keyed ``key``."""
    if not isinstance(value, bool):
        raise SchemaError(key, f"must be true or false, got {value!r}")
    return value


def child_seed(seed: int, label: str) -> int:
    """The seed of ``seed``'s child labelled ``label``: ``sha256(f"{seed}/{label}")``,
    its first 8 bytes taken little-endian."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream(np.random.Generator):
    """numpy's Generator on PCG64, seeded by a seed that passes ``check_seed``.
    Same seed + same draw sequence gives identical outputs on every platform
    numpy supports. A derived seed needs no stream: ``child_seed`` hashes the
    parent seed and a label, so it does not depend on how many values were
    drawn.
    """

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(check_seed("seed", seed)))


# --------------------------------------------------------------------------
# Domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GateOp:
    """One elementary unitary: a rotation or controlled rotation.

    ``control`` must be present exactly for the controlled kinds and must
    differ from ``target``; index-vs-state validation happens at apply time.
    """

    kind: str
    angle: float
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        controlled = self.kind.startswith("C")
        if controlled and self.control is None:
            raise ConfigurationError(f"{self.kind} requires a control qubit")
        if not controlled and self.control is not None:
            raise ConfigurationError(f"{self.kind} takes no control qubit")
        if self.control is not None and self.control == self.target:
            raise ConfigurationError("control and target must differ")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ConfigurationError("qubit indices must be non-negative")
        if not math.isfinite(self.angle):
            raise ConfigurationError(f"gate angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class PauliString:
    """A product of Pauli-Z factors on one or two distinct qubits."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        qs = tuple(int(q) for q in self.qubits)
        if not 1 <= len(qs) <= 2:
            raise ConfigurationError("PauliString supports 1 or 2 Z factors")
        if len(set(qs)) != len(qs):
            raise ConfigurationError("PauliString qubits must be distinct")
        if any(q < 0 for q in qs):
            raise ConfigurationError("qubit indices must be non-negative")
        object.__setattr__(self, "qubits", tuple(sorted(qs)))

    @property
    def label(self) -> str:
        return "".join(f"Z{q}" for q in self.qubits)


NORM_TOLERANCE = 1e-8  # max |sum |psi|**2 - 1| of a state or a measured row


def check_norm(probs: np.ndarray) -> None:
    """Raise DataError unless every row of ``probs`` (|amplitude|**2 on the
    last axis) sums to 1 within ``NORM_TOLERANCE``; a NaN sum fails too."""
    drift = np.abs(probs.sum(axis=-1) - 1.0)
    if not np.all(drift <= NORM_TOLERANCE):
        raise DataError(f"state norm**2 drifted from 1 by {float(np.max(drift)):.3e}")


class StateVector:
    """An n-qubit pure state as a dense array of 2**n complex amplitudes."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
            )
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**n_qubits,):
            raise ConfigurationError(
                f"expected {2**n_qubits} amplitudes, got shape {amps.shape}"
            )
        check_norm(np.abs(amps) ** 2)
        self.n_qubits = n_qubits
        self.amplitudes = amps

    def norm_error(self) -> float:
        """|sum |a_i|**2 - 1|; callers assert this, it is never auto-repaired."""
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


def new_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = 0.5 * angle
    if kind in ("RY", "CRY"):
        c, s = np.cos(half), np.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    # RZ / CRZ
    return np.array(
        [[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=np.complex128
    )


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate in place on the designated amplitude pairs.

    Qubit q lives on axis (n-1-q) of the amplitudes reshaped to [2]*n.
    """
    n = state.n_qubits
    if gate.target >= n or (gate.control is not None and gate.control >= n):
        raise ConfigurationError(
            f"gate {gate.kind} indices out of range for {n}-qubit state"
        )
    mat = _rotation_matrix(gate.kind, gate.angle)
    psi = state.amplitudes.reshape([2] * n)

    sel0: list = [slice(None)] * n
    sel1: list = [slice(None)] * n
    t_ax = n - 1 - gate.target
    sel0[t_ax] = 0
    sel1[t_ax] = 1
    if gate.control is not None:
        c_ax = n - 1 - gate.control
        sel0[c_ax] = 1
        sel1[c_ax] = 1
    i0, i1 = tuple(sel0), tuple(sel1)

    a0 = psi[i0]
    a1 = psi[i1]
    new0 = mat[0, 0] * a0 + mat[0, 1] * a1
    new1 = mat[1, 0] * a0 + mat[1, 1] * a1
    psi[i0] = new0
    psi[i1] = new1
    return state


def apply_circuit(state: StateVector, gates) -> StateVector:
    for gate in gates:
        apply_gate(state, gate)
    return state


def expectation(state: StateVector, obs: PauliString) -> float:
    """Exact <psi|O|psi> for a Z-product observable; non-destructive.

    Equals sum_i sign(i) |a_i|**2 where sign flips with each factor qubit
    whose bit is 1.
    """
    n = state.n_qubits
    if any(q >= n for q in obs.qubits):
        raise ConfigurationError(f"observable {obs.label} out of range for n={n}")
    probs = np.abs(state.amplitudes) ** 2
    p = probs.reshape([2] * n)
    axes = tuple(n - 1 - q for q in obs.qubits)
    p = np.moveaxis(p, axes, tuple(range(len(axes))))
    if len(axes) == 1:
        val = p[0].sum() - p[1].sum()
    else:
        val = p[0, 0].sum() + p[1, 1].sum() - p[0, 1].sum() - p[1, 0].sum()
    return float(val)


def sample_counts(state: StateVector, shots: int, rng: RandomStream) -> dict[int, int]:
    """Draw ``shots`` i.i.d. basis indices from |a_i|**2 via inverse CDF.

    Returns a basis-index -> count map whose values sum to ``shots``.
    Raises DataError if the state's norm drifted (``check_norm``).
    """
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    check_norm(probs)
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the last bin against rounding
    draws = rng.uniform(0.0, 1.0, size=shots)
    indices = np.searchsorted(cdf, draws, side="right")
    values, counts = np.unique(indices, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def estimate_expectations(
    counts: dict[int, int], shots: int, obs_list
) -> np.ndarray:
    """Estimate each observable from one joint Z-basis count table.

    The table becomes a histogram over basis indices, and ``sign_matrix``
    turns it into the signed count of every observable. The sums are exact
    integers, so the estimates are exact multiples of 1/shots.
    """
    if not counts:
        raise DataError("empty count table")
    total = sum(counts.values())
    if total != shots:
        raise DataError(f"counts sum to {total}, expected shots={shots}")
    index = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    if index.min() < 0:
        raise DataError("count table has a negative basis index")
    tally = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    n = max([int(index.max()).bit_length(), 1] + [q + 1 for obs in obs_list for q in obs.qubits])
    histogram = np.bincount(index, weights=tally, minlength=2**n)
    return sign_matrix(obs_list, n) @ histogram / shots


# --------------------------------------------------------------------------
# Batch helpers: one (B, 2**n) array of amplitude rows at a time
# --------------------------------------------------------------------------


def apply_gate_rows(rows: np.ndarray, gate: GateOp, n: int) -> np.ndarray:
    """Apply one gate in place to every row of a C-contiguous (B, 2**n) batch.

    The batched twin of ``apply_gate``: the rows are viewed as at most
    (B, hi, 2, mid, 2, lo) around the gate's qubits, RZ/CRZ multiply the two
    target halves by their phases, and RY/CRY mix them.
    """
    b, t, c = rows.shape[0], gate.target, gate.control
    if c is None:
        view = rows.reshape(b, 2 ** (n - 1 - t), 2, 2**t)
        a0, a1 = view[:, :, 0], view[:, :, 1]
    else:
        high, low = max(c, t), min(c, t)
        view = rows.reshape(b, 2 ** (n - 1 - high), 2, 2 ** (high - low - 1), 2, 2**low)
        if c > t:  # control on the high axis: keep its 1 half
            a0, a1 = view[:, :, 1, :, 0], view[:, :, 1, :, 1]
        else:
            a0, a1 = view[:, :, 0, :, 1], view[:, :, 1, :, 1]
    half = 0.5 * gate.angle
    if gate.kind in ("RZ", "CRZ"):
        a0 *= np.exp(-1j * half)
        a1 *= np.exp(1j * half)
    else:
        cos, sin = np.cos(half), np.sin(half)
        old0 = a0.copy()
        a0 *= cos
        a0 -= sin * a1
        a1 *= cos
        a1 += sin * old0
    return rows


def compile_gates(gates, n: int) -> np.ndarray:
    """Dense row operator of a fixed gate list: ``rows @ M`` applies the
    gates to every row. Built by pushing the identity's rows (the basis
    states) through ``apply_gate_rows``, so M is the transpose of the
    circuit's unitary."""
    op = np.eye(2**n, dtype=np.complex128)
    for gate in gates:
        apply_gate_rows(op, gate, n)
    return op


def ry_factors(angles: np.ndarray, groups) -> list:
    """Row operators of the RY layer of each of S steps or rows: one
    (S, 2**g, 2**g) factor per qubit group of ``apply_group``, the Kronecker
    product of its qubits' RY^T, top qubit first.

    ``angles`` has shape (S, n): the RY angle of each step and qubit. The
    factors are built for all S at once in real numbers, one qubit per
    broadcast product, and cast to complex once.
    """
    s, n = angles.shape
    cos, sin = np.cos(0.5 * angles), np.sin(0.5 * angles)
    rotations = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)], -2)  # (S, n, 2, 2), RY^T
    factors, top = [], n
    for g in groups:  # top qubit first: it is the leading factor
        factors.append(_kron([rotations[:, q] for q in range(top - 1, top - g - 1, -1)], s).astype(np.complex128))
        top -= g
    return factors


def _kron(factors, s: int) -> np.ndarray:
    """(s, 2**m, 2**m) stack of Kronecker products ``F[0] (x) ... (x)
    F[m-1]`` of m 2x2 factors, each (2, 2) or (s, 2, 2): one broadcast
    product per factor, with no ``np.kron`` call."""
    out = np.ones((s, 1, 1))
    for f in factors:
        d = out.shape[1]
        out = (out[:, :, None, :, None] * f[..., None, :, None, :]).reshape(s, 2 * d, 2 * d)
    return out


@dataclass(frozen=True, eq=False)
class GroupOp:
    """One row operator on qubit group ``group`` (its index, top first) of
    ``apply_group``. With no ``control``, ``factor`` is a (..., d, d) row
    operator, d = 2**g, that broadcasts against the rows' leading axes (one
    step's RY factor, shared by every row, or one per row); with a control
    qubit it is a (2, d, d) stack, and rows whose control bit is b take
    ``factor[b]``."""

    group: int
    factor: np.ndarray
    control: int | None = None


def apply_group(rows: np.ndarray, op: GroupOp, groups) -> np.ndarray:
    """``rows``, (..., 2**n), through a GroupOp on the qubit groups
    ``groups`` (the qubit counts of m >= 2 groups, top first); returns a new
    batch. One matmul: a group's (..., pre, d, post) view X of the rows
    becomes ``F^T @ X``, or ``X @ F`` for the bottom group (post = 1), just
    as ``rows @ F`` applies F to rows of g qubits. A control above the group
    splits its bit out of pre, as an axis of 2 that the stack's leading axis
    broadcasts against. A control below it splits its bit out of post: the
    group axis of the (..., P, d, M, 2, C) view, and of the output it is
    written to through ``out=``, moves next to the last."""
    lead, n, f = rows.shape[:-1], sum(groups), op.factor
    c, g, low = op.control, groups[op.group], sum(groups[op.group + 1 :])
    if c is None or c > low:
        pre = (-1,) if c is None else (2 ** (n - 1 - c), 2, 2 ** (c - low - g))
        view = rows.reshape(*lead, *pre, 2**g, 2**low)
        out = view[..., 0] @ f if low == 0 else f.swapaxes(-1, -2)[..., None, :, :] @ view
        return out.reshape(rows.shape)
    view = rows.reshape(*lead, 2 ** (n - low - g), 2**g, 2 ** (low - 1 - c), 2, 2**c)
    out = np.empty_like(rows)
    np.matmul(f.swapaxes(-1, -2), np.moveaxis(view, -4, -2), out=np.moveaxis(out.reshape(view.shape), -4, -2))
    return out


def fuse_groups(gates, groups) -> list:
    """A fixed gate list as ops on the qubit groups of ``apply_group``. The
    groups commute, so each run of gates that stay within one group is one
    dict ``{group: factor}``, top group first: per group it touches,
    ``compile_gates`` of that group's gates on its own qubits (indices
    shifted by its bottom qubit). A gate that crosses a cut ends the run:
    consecutive CRZs fold into one (2**n,) phase vector, their diagonal,
    applied as ``rows *= phase``, and a run of only RZ/CRZ gates joins that
    phase vector instead. A CRY(c -> t) pops the factors on t's group from
    the runs just before and just after it, and becomes a GroupOp controlled
    by c with the stack ``prev @ [I, RY_t] @ next``; this is exact, because
    a factor on t's group commutes with the projectors on c. A CRY with no
    factor to pop stays a GateOp. Each dict then becomes one GroupOp per
    factor it kept, in group order."""
    n = sum(groups)
    owner = [i for i, g in reversed(list(enumerate(groups))) for _ in range(g)]  # each qubit's group
    lows = [sum(groups[i + 1 :]) for i in range(len(groups))]  # each group's bottom qubit
    out: list = []
    run: list = []  # the pending group-local gates

    def phase(gate):
        if not out or not isinstance(out[-1], np.ndarray):
            out.append(np.ones(2**n, dtype=np.complex128))
        apply_gate_rows(out[-1][None], gate, n)

    def flush():
        if all(g.kind in ("RZ", "CRZ") for g in run):
            for gate in run:
                phase(gate)
        else:
            factors = {}
            for i, (g, low) in enumerate(zip(groups, lows)):
                local = [GateOp(x.kind, x.angle, x.target - low, None if x.control is None else x.control - low)
                         if low else x for x in run if owner[x.target] == i]
                if local:
                    factors[i] = compile_gates(local, g)
            out.append(factors)
        run.clear()

    for gate in gates:
        if gate.control is None or owner[gate.control] == owner[gate.target]:
            run.append(gate)
            continue
        flush()
        if gate.kind == "CRZ":
            phase(gate)
        else:
            out.append(gate)
    flush()
    for k, op in enumerate(out):
        if isinstance(op, GateOp):  # a crossing CRY
            t = owner[op.target]
            before, after = (out[j].pop(t, None) if 0 <= j < len(out) and isinstance(out[j], dict) else None
                             for j in (k - 1, k + 1))
            if before is None and after is None:
                continue
            ry = compile_gates([GateOp("RY", op.angle, op.target - lows[t])], groups[t])
            stack = np.stack([np.eye(2 ** groups[t], dtype=np.complex128), ry])
            if before is not None:
                stack = before @ stack
            if after is not None:
                stack = stack @ after
            out[k] = GroupOp(t, stack, op.control)
    return [x for op in out for x in ([GroupOp(i, f) for i, f in op.items()] if isinstance(op, dict) else [op])]


def apply_ops(rows: np.ndarray, ops, groups) -> np.ndarray:
    """``rows``, (..., 2**n) amplitudes, through an op list of
    ``fuse_groups`` in order, each op one pass over the rows. A GroupOp is
    one ``apply_group``; a (2**n,) phase vector and a crossing GateOp
    (``apply_gate_rows``) act in place on ``rows``."""
    for op in ops:
        if isinstance(op, GroupOp):
            rows = apply_group(rows, op, groups)
        elif isinstance(op, GateOp):
            apply_gate_rows(rows.reshape(-1, rows.shape[-1]), op, sum(groups))
        else:
            rows *= op
    return rows


# Y's eigenvectors, for +1 and -1, as columns, unnormalized: W1^dagger W1 = 2I
# exactly, so a frame change and back scales by exactly 2**n
Y_FRAME = np.array([[1, 1], [1j, -1j]])


def y_frame(n: int) -> np.ndarray:
    """The (2**n, 2**n) frame matrix W = W1 (x) ... (x) W1, W1 = ``Y_FRAME``:
    ``rows @ conj(W)`` moves rows into the eigenbasis of Pauli-Y, and
    ``rows @ W.T / 2**n`` back. Its entries are +-1 and +-i, so both are
    exact up to the rounding of the sums."""
    return _kron([Y_FRAME] * n, 1)[0]


def ry_phases(angles: np.ndarray) -> np.ndarray:
    """The RY layer of each of S steps or rows in the Y frame: (S, 2**n)
    phases from (S, n) angles, ``exp(-0.5j * angles @ Z)`` with Z the
    (n, 2**n) ``sign_matrix`` of local Z on each qubit.

    With W = ``y_frame(n)``, the Kronecker power of W1 = ``Y_FRAME``
    holding Y's eigenvectors as columns,
    ``RY[n-1] (x) ... (x) RY[0] = W diag(phase) W^dagger / 2**n``.
    So a row held in the frame, ``rows @ conj(W)``, takes the layer as one
    multiply by its phases. They are built from real cosines and sines (a
    complex exp of every entry costs several times more), one qubit at a
    time in place, with the S steps as the long last axis until the end.
    """
    s, n = angles.shape
    half = 0.5 * angles.T
    up = np.empty((n, s), dtype=np.complex128)  # each qubit's phase where its bit is 1
    up.real, up.imag = np.cos(half), np.sin(half)
    out = np.empty((2**n, s), dtype=np.complex128)
    out[0] = 1.0
    for q in range(n):  # the indices with bit q set take the ones below it times its phase
        low = out[: 2**q]
        np.multiply(low, up[q], out=out[2**q : 2 ** (q + 1)])
        low *= up[q].conj()
    return out.T.copy()


def sign_matrix(obs_list, n: int) -> np.ndarray:
    """(M, 2**n) array of +-1: each observable's eigenvalue on each basis
    index, so ``probs @ S.T`` gives exact expectations and ``S @ counts``
    signed shot counts."""
    index = np.arange(2**n)
    signs = np.empty((len(obs_list), 2**n))
    for m, obs in enumerate(obs_list):
        if any(q >= n for q in obs.qubits):
            raise ConfigurationError(f"observable {obs.label} out of range for n={n}")
        parity = np.zeros(2**n, dtype=np.int64)
        for q in obs.qubits:
            parity ^= (index >> q) & 1
        signs[m] = 1 - 2 * parity
    return signs
