"""Temporal drivers: recurrent and windowed evolution, the train/test
protocol, the STM delay sweep, and the qubit-width theory scan.

Both drivers evolve through one fused kernel (``_advance`` and ``_measure``
below, built on the batch helpers in ``sim``): fixed gate blocks compiled
once (dense for n <= 7, else gate lists with each diagonal run folded into a
phase vector), a (B, 2**n) batch of rows advanced per step, and one sign
matrix for the features. Each step's RY layer is two Kronecker half-factors
from ``sim.ry_factors``, built once per chunk of steps: a recurrent run
builds them per group of steps, a windowed run per chunk of rows, whose
windows cover consecutive steps, so each advance takes a contiguous slice.
``sim.CHUNK_AMPLITUDES`` bounds a chunk's rows and, apart, the factors of
its steps. ``step`` is the gate-by-gate reference the kernel is tested
against.

Scans and sweeps evolve replicates of one width in groups: a recurrent run
advances R replicates as one (R, 2**n) batch, each row with its own RY
factors and its own dense blocks, stacked as (R, d, d) and applied as
``(rows[:, None] @ blocks)[:, 0]``. A single run (R = 1) keeps the shared
2-d factors and blocks, ``rows @ block``, as ``ry_layer`` does for shared
factors. R is at most ``CHUNK_AMPLITUDES // 4**n`` (at least 1), the budget
that also makes blocks dense: 16 at n = 5, 4 at n = 6, 1 from n = 7 on.
Input rotations are built per chunk of steps. A group is one pool task.

Seed derivation: one master seed yields labelled child seeds for
{data, reservoir, encoder-interleave, shots} (see sim.RandomStream), so a
single integer reproduces a whole run. Sweeps and scans derive per-replicate
sub-masters with labels ``replicate-<r>``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .encoding import EncoderCircuit, EncoderSpec, build_encoder, encode_input, scale_input
from .errors import ConfigurationError, DataError, SchemaError
from .readout import (
    DEFAULT_ALPHA,
    accuracy,
    fit_ridge,
    mse,
    predict,
    r2_score,
)
from .reservoir import (
    ReservoirCircuit,
    ReservoirSpec,
    apply_reservoir,
    build_reservoir,
    topology_edges,
)
from .sim import (
    CHUNK_AMPLITUDES,
    PauliString,
    RandomStream,
    StateVector,
    apply_gate_rows,
    check_seed,
    compile_gates,
    fold_diagonals,
    ry_factor_size,
    ry_factors,
    ry_layer,
    sign_matrix,
)
from .tasks import TaskSpec, TimeSeries, generate

MODE_KINDS = ("recurrent", "reupload_k")
BACKEND_KINDS = ("ideal", "shots")
FULL_WINDOW = "full"  # reupload window covering the entire input prefix


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSpec:
    """Which Pauli-Z products are measured.

    ``zz`` is None (no pair observables), "edges" (the reservoir topology's
    edge pairs), "all_pairs", or an explicit tuple of (i, j) pairs.
    """

    local_z: bool = True
    zz: str | tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if isinstance(self.zz, str) and self.zz not in ("edges", "all_pairs"):
            raise SchemaError("zz", f"must be 'edges', 'all_pairs' or pairs, got {self.zz!r}")
        if isinstance(self.zz, (list, tuple)):
            pairs = tuple((int(i), int(j)) for i, j in self.zz)
            if any(i == j for i, j in pairs):
                raise SchemaError("zz", "pairs must join distinct qubits")
            if any(min(p) < 0 for p in pairs):
                raise SchemaError("zz", "qubit indices must be >= 0")
            if len({frozenset(p) for p in pairs}) < len(pairs):
                raise SchemaError("zz", "pairs must not repeat")
            object.__setattr__(self, "zz", pairs)
        if not self.local_z and not self.zz:
            raise SchemaError("local_z", "no observables configured: local_z is false and zz is empty")


@dataclass(frozen=True)
class ModeSpec:
    kind: str = "recurrent"
    k: int | str = 1  # window length in reupload_k mode; FULL_WINDOW = whole prefix

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise SchemaError("kind", f"must be one of {list(MODE_KINDS)}, got {self.kind!r}")
        if self.k != FULL_WINDOW and (not isinstance(self.k, int) or self.k < 1):
            raise SchemaError("k", f"must be an integer >= 1 or '{FULL_WINDOW}', got {self.k!r}")


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "ideal"
    shots: int = 1024
    shot_seed: int | None = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise SchemaError("kind", f"must be one of {list(BACKEND_KINDS)}, got {self.kind!r}")
        if self.shots < 1:
            raise SchemaError("shots", f"must be >= 1, got {self.shots}")
        check_seed("shot_seed", self.shot_seed, optional=True)


@dataclass(frozen=True)
class ProtocolSpec:
    washout: int = 50
    train_fraction: float = 0.7

    def __post_init__(self):
        if self.washout < 0:
            raise SchemaError("washout", f"must be >= 0, got {self.washout}")
        if not 0.0 < self.train_fraction < 1.0:
            raise SchemaError("train_fraction", f"must be in (0, 1), got {self.train_fraction}")

    def train_rows(self, rows: int) -> int:
        """How many of ``rows`` feature rows the contiguous split trains on."""
        return int(np.floor(self.train_fraction * rows))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run; defaults mirror the reference setup
    (4 qubits, depth 3, ring topology, angle encoding, local Z, ideal
    backend, washout 50, alpha 1e-2). Building one checks every rule that
    spans its sections, so a config that builds runs: what can still stop
    ``run_case`` is the data (DataError), the fit (FitError) or a metric
    (MetricError). A rule's key is the field path of the value to change."""

    task: TaskSpec
    reservoir: ReservoirSpec = ReservoirSpec(n_qubits=4)
    encoder: EncoderSpec = EncoderSpec(n_qubits=4)
    observables: ObservableSpec = ObservableSpec()
    mode: ModeSpec = ModeSpec()
    backend: BackendSpec = BackendSpec()
    protocol: ProtocolSpec = ProtocolSpec()
    alpha: float = DEFAULT_ALPHA
    alpha_grid: tuple[float, ...] | None = None
    master_seed: int = 42

    def __post_init__(self):
        if self.encoder.n_qubits != self.reservoir.n_qubits:
            raise SchemaError(
                "encoder",
                f"width {self.encoder.n_qubits} != reservoir width {self.reservoir.n_qubits}",
            )
        if self.alpha < 0:
            raise SchemaError("alpha", f"must be >= 0, got {self.alpha}")
        if self.alpha_grid is not None and (not self.alpha_grid or any(a < 0 for a in self.alpha_grid)):
            raise SchemaError("alpha_grid", "must be a non-empty list of numbers >= 0")
        check_seed("master_seed", self.master_seed)
        task, mode, washout = self.task, self.mode, self.protocol.washout
        windowed = mode.kind == "reupload_k" and mode.k != FULL_WINDOW
        if windowed and mode.k > task.T:
            raise SchemaError("mode.k", f"window {mode.k} is longer than the series (task.T = {task.T})")
        build_observables(self.observables, self.reservoir.n_qubits, self.reservoir.topology)
        if self.backend.kind == "shots" and mode.kind != "reupload_k":
            raise SchemaError(
                "backend.kind",
                "shots needs mode reupload_k: sampling collapses the state, so a "
                "recurrent run cannot read expectations mid-series",
            )
        horizon = max(task.delay, task.window, 10)
        if task.T <= washout + horizon:
            raise SchemaError("task.T", f"must be > washout {washout} + dependency horizon {horizon}, got {task.T}")
        # The drivers keep the steps from the washout, the first target and
        # the first full window on.
        first = max(washout, task.valid_from, mode.k - 1 if windowed else 0)
        t_eff = task.T - first
        n_train = self.protocol.train_rows(t_eff)
        if t_eff < 2:
            raise SchemaError("task.T", f"keeps {t_eff} feature row, from step {first}; a train/test split needs 2")
        if not 1 <= n_train < t_eff:
            raise SchemaError(
                "protocol.train_fraction",
                f"splits {t_eff} feature rows into {n_train} train and {t_eff - n_train} test rows; each needs 1",
            )


def resolve_seeds(config: ExperimentConfig) -> ExperimentConfig:
    """Fill every unset seed from the master seed's labelled children."""
    master = RandomStream(config.master_seed)
    task = config.task
    if task.seed is None:
        task = replace(task, seed=master.child_seed("data"))
    reservoir = config.reservoir
    if reservoir.seed is None:
        reservoir = replace(reservoir, seed=master.child_seed("reservoir"))
    encoder = config.encoder
    if encoder.interleave_seed is None:
        encoder = replace(encoder, interleave_seed=master.child_seed("encoder-interleave"))
    backend = config.backend
    if backend.shot_seed is None:
        backend = replace(backend, shot_seed=master.child_seed("shots"))
    return replace(config, task=task, reservoir=reservoir, encoder=encoder, backend=backend)


def build_observables(
    obs: ObservableSpec, n_qubits: int, topology: str
) -> tuple[PauliString, ...]:
    out: list[PauliString] = []
    if obs.local_z:
        out.extend(PauliString((q,)) for q in range(n_qubits))
    if obs.zz is not None:
        if obs.zz == "edges":
            pairs = topology_edges(topology, n_qubits)
        elif obs.zz == "all_pairs":
            pairs = tuple((i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits))
        else:
            pairs = obs.zz
        for i, j in pairs:
            if i >= n_qubits or j >= n_qubits:
                raise SchemaError("observables.zz", f"pair ({i}, {j}) out of range for N={n_qubits}")
            out.append(PauliString((i, j)))
    return tuple(out)


# --------------------------------------------------------------------------
# Evolution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMatrix:
    """T_eff x M matrix of measured expectations with row timestamps."""

    values: np.ndarray
    t_index: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("feature matrix must be 2-d")
        if self.values.shape[0] != self.t_index.shape[0]:
            raise DataError("row count must match timestamp count")
        if self.values.shape[1] != len(self.labels):
            raise DataError("column count must match label count")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite feature values")


def step(
    state: StateVector,
    u,
    encoder: EncoderCircuit,
    reservoir: ReservoirCircuit,
) -> StateVector:
    """One reservoir time step: encode the input, then apply the fixed
    reservoir (encoder first, matching the operator order of the channel).
    Gate by gate on one state: the reference for the fused kernel below."""
    encode_input(encoder, u, state)
    apply_reservoir(reservoir, state)
    return state


# --------------------------------------------------------------------------
# The fused evolution kernel: B = 1 row for the recurrent state, one row per
# output row for reupload_k windows, at most CHUNK_AMPLITUDES per batch
# --------------------------------------------------------------------------

NORM_TOLERANCE = 1e-8  # max |sum |psi|**2 - 1| of a measured row


def _input_series(inputs) -> np.ndarray:
    """The series as a (T, c) array of scalar (c = 1) or vector inputs. It
    is validated here, once: it must be finite."""
    u = np.asarray(inputs, dtype=np.float64)
    u = u[:, None] if u.ndim == 1 else u
    if u.ndim != 2 or u.shape[1] == 0:
        raise DataError("inputs must be a series of non-empty scalars or 1-d vectors")
    if not np.all(np.isfinite(u)):
        raise DataError("non-finite input value")
    return u


def _rotations(u: np.ndarray, encoder: EncoderCircuit) -> np.ndarray:
    """RY matrices of inputs u (..., c) on every qubit, shape (..., n, 2, 2).
    Vector inputs are tiled cyclically across the qubits, as in
    ``encode_input``."""
    angles = scale_input(u, encoder.scale)[..., np.arange(encoder.n_qubits) % u.shape[-1]]
    cos, sin = np.cos(0.5 * angles), np.sin(0.5 * angles)
    rotations = np.empty(angles.shape + (2, 2), dtype=np.complex128)
    rotations[..., 0, 0] = cos
    rotations[..., 0, 1] = -sin
    rotations[..., 1, 0] = sin
    rotations[..., 1, 1] = cos
    return rotations


def _fixed_blocks(encoder: EncoderCircuit, reservoir: ReservoirCircuit) -> list:
    """The fixed gates after each encoder layer's RY layer, with the reservoir
    folded into the last block: a dense row operator when its 4**n entries
    fit in one chunk, else the gate list with its diagonal runs folded."""
    n = reservoir.n_qubits
    blocks = [list(layer.fixed_gates) for layer in encoder.layers]
    blocks[-1] += reservoir.gates
    if 4**n <= CHUNK_AMPLITUDES:
        return [compile_gates(block, n) for block in blocks]
    return [fold_diagonals(block, n) for block in blocks]


def _compile_run(series: TimeSeries, cfg: ExperimentConfig):
    """What the kernel needs, built once per run: (encoder, inputs, fixed
    blocks, observables, sign matrix)."""
    n = cfg.reservoir.n_qubits
    encoder = build_encoder(cfg.encoder)
    observables = build_observables(cfg.observables, n, cfg.reservoir.topology)
    return (
        encoder,
        _input_series(series.inputs),
        _fixed_blocks(encoder, build_reservoir(cfg.reservoir)),
        observables,
        sign_matrix(observables, n),
    )


def _rows_per_chunk(n: int, extra_steps: int = 0) -> int:
    """Rows per chunk, and steps per factor build: the rows hold at most
    CHUNK_AMPLITUDES amplitudes, and so do the RY factors of their steps (one
    per row plus ``extra_steps``). Never fewer than one row, so a window
    too long for the budget builds its k steps of factors at once."""
    steps = CHUNK_AMPLITUDES // ry_factor_size(n)
    return max(1, min(CHUNK_AMPLITUDES >> n, steps - extra_steps))


def _group_size(n: int) -> int:
    """Replicates of width n that one recurrent run evolves together: as many
    as have their stacked dense blocks fit in one chunk, at least one."""
    return max(1, CHUNK_AMPLITUDES // 4**n)


def _advance(rows: np.ndarray, factors, blocks, n: int) -> np.ndarray:
    """One time step on every row: per encoder layer, the RY layer, then
    that layer's fixed block. A 2-d block is shared by every row, a stack of
    (B, d, d) holds one per row, and in a gate list a phase vector
    multiplies."""
    for block in blocks:
        rows = ry_layer(rows, factors)
        if isinstance(block, np.ndarray):
            rows = rows @ block if block.ndim == 2 else (rows[:, None] @ block)[:, 0]
            continue
        for op in block:
            if isinstance(op, np.ndarray):
                rows *= op
            else:
                apply_gate_rows(rows, op, n)
    return rows


def _measure(rows: np.ndarray, signs: np.ndarray, shots: int = 0, stream=None) -> np.ndarray:
    """Feature rows of a batch: exact expectations, or with a shot stream,
    one count table per row from ``stream.uniform(size=shots)`` drawn in row
    order, as ``sample_counts`` draws them. Raises DataError if any row's
    norm drifted."""
    probs = np.abs(rows) ** 2
    drift = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if drift > NORM_TOLERANCE:
        raise DataError(f"state norm**2 drifted from 1 by {drift:.3e}")
    if stream is None:
        return probs @ signs.T
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)  # guard the last bin against rounding
    counts = np.empty(probs.shape, dtype=np.int64)
    for i in range(len(cdf)):
        draws = stream.uniform(0.0, 1.0, size=shots)
        counts[i] = np.bincount(np.searchsorted(cdf[i], draws, side="right"), minlength=cdf.shape[1])
    return counts @ signs.T / shots


def _feature_matrix(chunks: list, t_index: np.ndarray, observables) -> FeatureMatrix:
    values = np.concatenate(chunks) if chunks else np.empty((0, len(observables)))
    return FeatureMatrix(values, t_index, tuple(o.label for o in observables))


def run_recurrent(series: TimeSeries, config: ExperimentConfig) -> FeatureMatrix:
    """Evolve one persistent state through the whole series, reading exact
    expectations after every step; rows before max(washout, valid_from) are
    dropped. Ideal backend only."""
    return run_recurrent_group([series], [config])[0]


def run_recurrent_group(series_list, configs) -> list[FeatureMatrix]:
    """``run_recurrent`` for R replicates of one width at once: configs that
    differ only in their seeds, and series of one length. The R states
    evolve as one (R, 2**n) batch, each row with its own RY factors and its
    own dense blocks stacked as (R, d, d); R = 1 keeps the shared 2-d
    factors and blocks. R may be at most ``_group_size(n)``."""
    cfgs = [resolve_seeds(c) for c in configs]
    runs = [_compile_run(s, c) for s, c in zip(series_list, cfgs)]
    encoder, _, _, observables, signs = runs[0]
    n, R = encoder.n_qubits, len(runs)
    if R > _group_size(n):
        raise ConfigurationError(f"{R} replicates of width {n} exceed the group size {_group_size(n)}")
    inputs = [run[1] for run in runs]
    blocks = runs[0][2] if R == 1 else [np.stack(layer) for layer in zip(*(run[2] for run in runs))]
    del runs  # the stacked blocks replace the per-replicate ones
    T = len(inputs[0])
    keep = [max(c.protocol.washout, s.valid_from) for c, s in zip(cfgs, series_list)]
    keep_from = min(keep)

    state = np.zeros((R, 2**n), dtype=np.complex128)
    state[:, 0] = 1.0
    per_chunk = max(1, _rows_per_chunk(n) // R)
    chunks: list = []
    for start in range(0, T, per_chunk):
        rotations = _rotations(np.stack([u[start : start + per_chunk] for u in inputs], axis=1), encoder)
        hi, lo = ry_factors(rotations.reshape(-1, n, 2, 2))
        steps = (len(rotations), R) if R > 1 else (len(rotations),)
        hi, lo = hi.reshape(steps + hi.shape[1:]), lo.reshape(steps + lo.shape[1:])
        kept: list = []
        for i in range(len(hi)):
            state = _advance(state, (hi[i], lo[i]), blocks, n)
            if start + i >= keep_from:
                kept.append(state)
        del rotations, hi, lo  # free this chunk's factors before the next chunk builds its own
        if kept:
            rows = np.stack(kept, axis=1).reshape(-1, 2**n)
            chunks.append(_measure(rows, signs).reshape(R, len(kept), -1))
    values = np.concatenate(chunks, axis=1) if chunks else np.empty((R, 0, len(observables)))
    labels = tuple(o.label for o in observables)
    return [
        FeatureMatrix(values[r, k - keep_from :], np.arange(k, T, dtype=np.int64), labels)
        for r, k in enumerate(keep)
    ]


def run_windowed(series: TimeSeries, config: ExperimentConfig) -> FeatureMatrix:
    """reupload_k evolution: each row rebuilds a fresh state from the last k
    inputs (or the whole prefix when k == "full"). Rows evolve together, one
    chunk at a time; with k == "full" step s advances only the rows t >= s.
    The shots backend samples one count table per row and estimates every
    observable from it."""
    cfg = resolve_seeds(config)
    k = cfg.mode.k
    encoder, inputs, blocks, observables, signs = _compile_run(series, cfg)
    n, rotations = encoder.n_qubits, _rotations(inputs, encoder)
    T = len(rotations)
    first_full = 0 if k == FULL_WINDOW else k - 1
    keep_from = max(cfg.protocol.washout, series.valid_from, first_full)

    shot_stream = RandomStream(cfg.backend.shot_seed) if cfg.backend.kind == "shots" else None
    t_index = np.arange(keep_from, T, dtype=np.int64)
    chunks: list = []
    per_chunk = _rows_per_chunk(n, 0 if k == FULL_WINDOW else k - 1)
    for start in range(0, len(t_index), per_chunk):
        ts = t_index[start : start + per_chunk]
        rows = np.zeros((len(ts), 2**n), dtype=np.complex128)
        rows[:, 0] = 1.0
        if k == FULL_WINDOW:  # every row starts at step 0; per_chunk steps of factors at a time
            for group in range(0, ts[-1] + 1, per_chunk):
                hi, lo = ry_factors(rotations[group : min(group + per_chunk, ts[-1] + 1)])
                for i in range(len(hi)):
                    active = max(0, group + i - ts[0])  # rows t >= s: a suffix of the chunk
                    rows[active:] = _advance(rows[active:], (hi[i], lo[i]), blocks, n)
                del hi, lo  # free these factors before the next group builds its own
        else:  # window j of row t is step t - k + 1 + j: one slice of the chunk's factors
            hi, lo = ry_factors(rotations[ts[0] - k + 1 : ts[-1] + 1])
            for j in range(k):
                rows = _advance(rows, (hi[j : j + len(ts)], lo[j : j + len(ts)]), blocks, n)
            del hi, lo  # free these factors before the next chunk builds its own
        chunks.append(_measure(rows, signs, cfg.backend.shots, shot_stream))
    return _feature_matrix(chunks, t_index, observables)


def raw_window_features(series: TimeSeries, k: int, t_index) -> np.ndarray:
    """Classical baseline features: the last k raw inputs at each row."""
    if k < 1:
        raise ConfigurationError("window k must be >= 1")
    rows = []
    for t in t_index:
        if t < k - 1:
            raise ConfigurationError(f"row t={t} has no {k}-step window")
        rows.append(series.inputs[t - k + 1 : t + 1])
    return np.array(rows, dtype=np.float64).reshape(len(rows), k)


# --------------------------------------------------------------------------
# The case protocol
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig  # seed-resolved echo of the run
    features: FeatureMatrix
    targets: np.ndarray
    predictions: np.ndarray
    split_at: int  # first test row (train rows are [0, split_at))
    metrics: dict
    model: object
    alpha_sweep: tuple | None = None


def task_metric(kind: str):
    """(metric name, scorer) used for a task's headline numbers."""
    if kind == "parity":
        return "accuracy", accuracy
    return "r2", r2_score


def run_case(config: ExperimentConfig) -> RunResult:
    """The full protocol: generate the series, evolve, split contiguously
    into train-then-test, fit the ridge readout, score both segments."""
    cfg = resolve_seeds(config)
    series = generate(cfg.task)
    if cfg.mode.kind == "recurrent":
        features = run_recurrent(series, cfg)
    else:
        features = run_windowed(series, cfg)
    return _fit_and_score(cfg, series, features)


def _fit_and_score(cfg: ExperimentConfig, series: TimeSeries, features: FeatureMatrix) -> RunResult:
    """Split the rows contiguously into train-then-test, fit the ridge
    readout on the train rows, score both segments."""
    n_train = cfg.protocol.train_rows(features.values.shape[0])
    targets = series.targets[features.t_index]
    X_train, X_test = features.values[:n_train], features.values[n_train:]
    y_train, y_test = targets[:n_train], targets[n_train:]

    model = fit_ridge(X_train, y_train, alpha=cfg.alpha)
    pred = predict(model, features.values)

    name, scorer = task_metric(cfg.task.kind)
    metrics = {
        f"train_{name}": scorer(pred[:n_train], y_train),
        f"test_{name}": scorer(pred[n_train:], y_test),
        "train_mse": mse(pred[:n_train], y_train),
        "test_mse": mse(pred[n_train:], y_test),
    }

    sweep = None
    if cfg.alpha_grid:
        sweep_rows = []
        for a in cfg.alpha_grid:
            m = fit_ridge(X_train, y_train, alpha=a)
            p = predict(m, features.values)
            sweep_rows.append(
                (float(a), scorer(p[:n_train], y_train), scorer(p[n_train:], y_test))
            )
        sweep = tuple(sweep_rows)

    return RunResult(
        config=cfg,
        features=features,
        targets=targets,
        predictions=pred,
        split_at=n_train,
        metrics=metrics,
        model=model,
        alpha_sweep=sweep,
    )


# --------------------------------------------------------------------------
# Sweeps and the theory scan
# --------------------------------------------------------------------------


def confidence_term(m: int, delta: float) -> float:
    """sqrt(ln(1/delta) / (2m)): the sample-size term of the risk bound."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    return float(np.sqrt(np.log(1.0 / delta) / (2.0 * m)))


@dataclass(frozen=True)
class ScanRow:
    n_qubits: int
    train_score: float
    test_score: float
    gap: float
    confidence_term: float
    m: int
    delta: float


def worker_count() -> int:
    """Worker processes for sweeps and scans, from QRCLAB_THREADS."""
    raw = os.environ.get("QRCLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise SchemaError("QRCLAB_THREADS", f"must be an integer, got {raw!r}")
    if n < 0:
        raise SchemaError("QRCLAB_THREADS", f"must be >= 0, got {n}")
    return n or os.cpu_count() or 1


def _group_scores(group: list) -> list:
    """One pool task: a group of replicates of one width, each a list of
    cells (configs) that differ only in the STM delay; a scan has one cell
    per replicate. Returns (train score, test score, test rows) per cell.

    A replicate's cells share its inputs and reservoir, since ``gen_stm``
    draws the inputs before it reads the delay. On the ideal backend each
    replicate is evolved once, from its cell with the smallest
    ``valid_from``, the whole group through one ``_evolve``, and each cell
    keeps the rows t >= max(washout, valid_from). The shots backend draws in
    row order, so there each cell is its own run."""
    series = [[generate(cfg.task) for cfg in cells] for cells in group]
    if group[0][0].backend.kind == "shots":
        features = [[_evolve([s], [c])[0] for c, s in zip(cells, ss)] for cells, ss in zip(group, series)]
    else:
        first = [min(range(len(ss)), key=lambda j: ss[j].valid_from) for ss in series]
        evolved = _evolve(
            [ss[j] for ss, j in zip(series, first)], [cells[j] for cells, j in zip(group, first)]
        )
        features = [
            [_rows_from(f, max(c.protocol.washout, s.valid_from)) for c, s in zip(cells, ss)]
            for cells, ss, f in zip(group, series, evolved)
        ]
    name, _ = task_metric(group[0][0].task.kind)
    scores = []
    for cells, ss, fs in zip(group, series, features):
        results = [_fit_and_score(c, s, f) for c, s, f in zip(cells, ss, fs)]
        scores.append([
            (float(r.metrics[f"train_{name}"]), float(r.metrics[f"test_{name}"]), len(r.targets) - r.split_at)
            for r in results
        ])
    return scores


def _evolve(series: list, configs: list) -> list[FeatureMatrix]:
    """Feature matrices of replicates of one width: recurrent ones as one
    batch, reupload_k ones one window run each."""
    if configs[0].mode.kind == "recurrent":
        return run_recurrent_group(series, configs)
    return [run_windowed(s, c) for s, c in zip(series, configs)]


def _rows_from(features: FeatureMatrix, t0: int) -> FeatureMatrix:
    """The rows of a feature matrix with t >= t0."""
    start = int(np.searchsorted(features.t_index, t0))
    return FeatureMatrix(features.values[start:], features.t_index[start:], features.labels)


def _map_cases(groups: list) -> list:
    """``_group_scores`` of every group, in order, on at most one worker
    process per group."""
    workers = min(worker_count(), len(groups))
    if workers <= 1:
        return [_group_scores(g) for g in groups]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_group_scores, groups))


def _replicate_groups(replicates: list, n: int) -> list:
    """Consecutive replicates of width n, ``_group_size(n)`` per group."""
    size = _group_size(n)
    return [replicates[i : i + size] for i in range(0, len(replicates), size)]


def _replicate_config(config: ExperimentConfig, r: int, n_qubits: int | None = None) -> ExperimentConfig:
    """Per-replicate seed derivation. Data is shared across widths within a
    replicate so the scan compares reservoirs on identical series."""
    rep = RandomStream(config.master_seed).child(f"replicate-{r}")
    suffix = "" if n_qubits is None else f"-n{n_qubits}"
    n_qubits = config.reservoir.n_qubits if n_qubits is None else n_qubits
    task = replace(config.task, seed=rep.child_seed("data"))
    reservoir = replace(config.reservoir, n_qubits=n_qubits, seed=rep.child_seed(f"reservoir{suffix}"))
    encoder = replace(
        config.encoder,
        n_qubits=n_qubits,
        interleave_seed=rep.child_seed(f"encoder-interleave{suffix}"),
    )
    backend = replace(config.backend, shot_seed=rep.child_seed(f"shots{suffix}"))
    return replace(
        config,
        task=task,
        reservoir=reservoir,
        encoder=encoder,
        backend=backend,
        master_seed=rep.seed,
    )


def stm_delay_sweep(
    config: ExperimentConfig, delays, replicates: int = 10
) -> list[tuple[int, float]]:
    """Mean test R^2 per delay, averaged over replicate seeds; reservoir and
    encoder seeds are shared across delays within each replicate."""
    delays = [int(d) for d in delays]
    if not delays:
        raise ConfigurationError("delays must be non-empty")
    if any(d < 1 for d in delays):
        raise ConfigurationError("delays must be >= 1")
    if replicates < 1:
        raise ConfigurationError("replicates must be >= 1")

    cells = []
    for r in range(replicates):
        base = _replicate_config(config, r)
        cells.append([replace(base, task=replace(base.task, kind="stm", delay=d)) for d in delays])
    groups = _replicate_groups(cells, config.reservoir.n_qubits)
    scores = [replicate for group in _map_cases(groups) for replicate in group]
    return [(d, float(np.mean([replicate[i][1] for replicate in scores]))) for i, d in enumerate(delays)]


def theory_scan(
    config: ExperimentConfig, qubit_list, delta: float, replicates: int = 10
) -> list[ScanRow]:
    """Replicate-averaged train/test scores per reservoir width, with the
    risk bound's sample-size confidence term."""
    qubits = [int(n) for n in qubit_list]
    if not qubits:
        raise ConfigurationError("qubit list must be non-empty")
    if any(b <= a for a, b in zip(qubits, qubits[1:])):
        raise ConfigurationError("qubit list must be strictly ascending")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    if replicates < 1:
        raise ConfigurationError("replicates must be >= 1")

    groups = []
    for n in qubits:
        cells = [[_replicate_config(config, r, n_qubits=n)] for r in range(replicates)]
        groups += _replicate_groups(cells, n)
    scores = [cell for group in _map_cases(groups) for replicate in group for cell in replicate]

    rows = []
    for i, n in enumerate(qubits):
        block = scores[i * replicates : (i + 1) * replicates]
        m_values = {m for _, _, m in block}
        if len(m_values) != 1:
            raise ConfigurationError(f"inconsistent test sample counts across replicates: {m_values}")
        m = m_values.pop()
        train = float(np.mean([b[0] for b in block]))
        test = float(np.mean([b[1] for b in block]))
        rows.append(
            ScanRow(
                n_qubits=n,
                train_score=train,
                test_score=test,
                gap=train - test,
                confidence_term=confidence_term(m, delta),
                m=m,
                delta=delta,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Artifact rendering (CSV)
# --------------------------------------------------------------------------


def features_csv(features: FeatureMatrix) -> str:
    row = "%d," + ",".join(["%.17g"] * len(features.labels))
    lines = ["t," + ",".join(features.labels)]
    lines += [row % (t, *vals) for t, vals in zip(features.t_index.tolist(), features.values.tolist())]
    return "\n".join(lines) + "\n"


def predictions_csv(result: RunResult) -> str:
    columns = zip(result.features.t_index.tolist(), result.targets.tolist(), result.predictions.tolist())
    lines = ["t,target,prediction,split"]
    lines += [
        "%d,%.17g,%.17g,%s" % (t, y, p, "train" if i < result.split_at else "test")
        for i, (t, y, p) in enumerate(columns)
    ]
    return "\n".join(lines) + "\n"


def scan_csv(rows) -> str:
    lines = ["n_qubits,train_score,test_score,gap,confidence_term"]
    for row in rows:
        lines.append(
            f"{row.n_qubits},{row.train_score:.17g},{row.test_score:.17g},"
            f"{row.gap:.17g},{row.confidence_term:.17g}"
        )
    return "\n".join(lines) + "\n"
