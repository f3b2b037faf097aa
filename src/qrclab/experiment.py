"""Temporal drivers: recurrent and windowed evolution, the train/test
protocol, the STM delay sweep, and the qubit-width theory scan.

Every run evolves through one driver, ``run_group``, and one fused kernel
(``sim.apply_ops`` and ``_measure``, built on the batch helpers in ``sim``).
A group is R replicates of one width, held as an (R, B, 2**n) batch of
amplitude rows: B = 1 persistent state per replicate for the recurrent mode
and the full window (``mode.k = "full"``; the evolution is unitary, with no
reset, so re-uploading the whole prefix gives exactly the recurrent state),
and B output rows per chunk for a bounded window, each restarted from |0>.
Input angles are stacked once as (R, T, n), and each chunk's steps become
(R, S, ...) RY layers, of which sub-step j takes the slice ``[:, j:j+B]``;
a chunk's complete rows land in one (R, t1 - t0, 2**n) buffer, measured from
the first kept step on. A width's ``plan`` holds every rule of how it runs,
each one expression on the budget ``CHUNK_AMPLITUDES``: its qubit groups,
form, group size and rows per chunk. The fixed gates after each encoder
layer's RY layer are compiled once per run, by ``sim.fuse_groups`` on the
plan's groups. In the dense form (n <= 7) a block is one (R, d, d) stack,
and the run evolves in the eigenbasis of Pauli-Y: with W from
``sim.y_frame``, built once per run, each replicate's fused ops run on the
rows of W^T, and one matmul with conj(W) finishes the block in that frame;
``sim.ry_phases`` makes each RY layer one phase multiply, so a step is
``(rows * phase) @ stack``, and the kept rows go back by one matmul with W
before they are measured. In the fused form (R = 1) a block is its fused
ops, which ``sim.apply_ops`` runs after the RY layer, each op one pass over
the rows: one ``sim.GroupOp`` per group for the RY layer
(``sim.ry_factors``), and from ``sim.fuse_groups`` one per group that a run
of group-local gates touches, a phase vector per CRZ run, and per crossing
CRY a GroupOp controlled by it that holds its target group's neighbouring
factors (a GateOp if none). One sign matrix gives the features.
``run_recurrent`` and ``run_windowed`` run one series; scans and sweeps run
one group per task, which carries the group's series, each generated once
before any worker starts (``_replicate_scores``).
``step`` is the gate-by-gate reference the kernel is tested against.

Seed derivation: ``SEEDS`` names each derived seed and the label of its
child of the master seed (``sim.child_seed``, a hash of the parent seed and
the label that builds no generator), so one integer reproduces a run.
Replicate r of a sweep or scan is seeded from the master's ``replicate-<r>``
child; a scan adds ``-n<N>`` to every label but ``data``.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoding import EncoderCircuit, EncoderSpec, build_encoder, encode_input, scale_input
from .errors import ConfigurationError, DataError, QRCLabError, SchemaError
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
    MAX_COUNT,
    GroupOp,
    PauliString,
    RandomStream,
    StateVector,
    apply_ops,
    check_bool,
    check_int,
    check_norm,
    check_real,
    check_seed,
    child_seed,
    fuse_groups,
    ry_factors,
    ry_phases,
    shown,
    sign_matrix,
    y_frame,
)
from .tasks import TaskSpec, TimeSeries, generate, stm_series

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
        object.__setattr__(self, "local_z", check_bool("local_z", self.local_z))
        if isinstance(self.zz, (list, tuple)):
            if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in self.zz):
                raise SchemaError("zz", f"pairs must each be two qubit indices, got {self.zz!r}")
            pairs = tuple((check_int("zz", i, 0), check_int("zz", j, 0)) for i, j in self.zz)
            if any(i == j for i, j in pairs):
                raise SchemaError("zz", "pairs must join distinct qubits")
            if len({frozenset(p) for p in pairs}) < len(pairs):
                raise SchemaError("zz", "pairs must not repeat")
            object.__setattr__(self, "zz", pairs)
        elif self.zz is not None and self.zz not in ("edges", "all_pairs"):
            raise SchemaError("zz", f"must be 'edges', 'all_pairs' or pairs, got {self.zz!r}")
        if not self.local_z and not self.zz:
            raise SchemaError("local_z", "no observables configured: local_z is false and zz is empty")


@dataclass(frozen=True)
class ModeSpec:
    kind: str = "recurrent"
    k: int | str = 1  # window length in reupload_k mode; FULL_WINDOW = whole prefix

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise SchemaError("kind", f"must be one of {list(MODE_KINDS)}, got {self.kind!r}")
        if isinstance(self.k, str) and self.k != FULL_WINDOW:
            raise SchemaError("k", f"must be an integer >= 1 or '{FULL_WINDOW}', got {self.k!r}")
        object.__setattr__(self, "k", self.k if self.k == FULL_WINDOW else check_int("k", self.k, 1))

    @property
    def bounded(self) -> bool:
        """True for a reupload_k window of k steps. The recurrent state and
        the full window, which re-uploads the whole prefix and so is the
        recurrent state, are unbounded."""
        return self.kind == "reupload_k" and self.k != FULL_WINDOW


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "ideal"
    shots: int = 1024
    shot_seed: int | None = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise SchemaError("kind", f"must be one of {list(BACKEND_KINDS)}, got {self.kind!r}")
        object.__setattr__(self, "shots", check_int("shots", self.shots, 1, MAX_COUNT))
        object.__setattr__(self, "shot_seed", check_seed("shot_seed", self.shot_seed, optional=True))


@dataclass(frozen=True)
class ProtocolSpec:
    washout: int = 50
    train_fraction: float = 0.7

    def __post_init__(self):
        object.__setattr__(self, "washout", check_int("washout", self.washout, 0))
        object.__setattr__(self, "train_fraction", check_real("train_fraction", self.train_fraction))
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
    encoder: EncoderSpec = EncoderSpec()
    observables: ObservableSpec = ObservableSpec()
    mode: ModeSpec = ModeSpec()
    backend: BackendSpec = BackendSpec()
    protocol: ProtocolSpec = ProtocolSpec()
    alpha: float = DEFAULT_ALPHA
    alpha_grid: tuple[float, ...] | None = None
    master_seed: int = 42

    def __post_init__(self):
        sections = (TaskSpec, ReservoirSpec, EncoderSpec, ObservableSpec, ModeSpec, BackendSpec, ProtocolSpec)
        for f, spec in zip(fields(self), sections):  # the first fields, in order
            if not isinstance(getattr(self, f.name), spec):
                raise SchemaError(f.name, f"must be a {spec.__name__}, got {getattr(self, f.name)!r}")
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha))
        if self.alpha < 0:
            raise SchemaError("alpha", f"must be >= 0, got {self.alpha}")
        if (grid := self.alpha_grid) is not None:
            grid = tuple(check_real("alpha_grid", a) for a in grid) if isinstance(grid, (list, tuple)) else ()
            if not grid or min(grid) < 0:
                raise SchemaError("alpha_grid", "must be a non-empty list of numbers >= 0")
            object.__setattr__(self, "alpha_grid", grid)
        object.__setattr__(self, "master_seed", check_seed("master_seed", self.master_seed))
        task, mode, washout = self.task, self.mode, self.protocol.washout
        if mode.bounded and mode.k > task.T:
            raise SchemaError("mode.k", f"window {shown(mode.k)} is longer than the series (task.T = {task.T})")
        build_observables(self.observables, self.reservoir.n_qubits, self.reservoir.topology)
        if self.backend.kind == "shots" and mode.kind != "reupload_k":
            raise SchemaError(
                "backend.kind",
                "shots needs mode reupload_k: sampling collapses the state, so a "
                "recurrent run cannot read expectations mid-series",
            )
        horizon = max({"stm": task.delay, "parity": task.window}.get(task.kind, 0), 10)  # the task's own lag
        if task.T <= washout + horizon:
            raise SchemaError("task.T", f"must be > washout {washout} + dependency horizon {horizon}, got {task.T}")
        first = self.first_row(task.valid_from)
        t_eff = task.T - first
        n_train = self.protocol.train_rows(t_eff)
        if t_eff < 2:
            raise SchemaError("task.T", f"keeps {t_eff} feature row, from step {first}; a train/test split needs 2")
        if not 1 <= n_train < t_eff:
            raise SchemaError(
                "protocol.train_fraction",
                f"splits {t_eff} feature rows into {n_train} train and {t_eff - n_train} test rows; each needs 1",
            )

    def first_row(self, valid_from: int) -> int:
        """The first step the drivers keep, for a series whose targets start
        at ``valid_from``: the washout, the first target and the first full
        window are all behind it."""
        return max(self.protocol.washout, valid_from, self.mode.k - 1 if self.mode.bounded else 0)


SEEDS = {  # each derived seed's field path: its child seed's label, where a scan puts "-n<N>" for {width}
    "task.seed": "data",  # no {width}: every width of a replicate reads the same series
    "reservoir.seed": "reservoir{width}",
    "encoder.interleave_seed": "encoder-interleave{width}",
    "backend.shot_seed": "shots{width}",
}


def _with_fields(config: ExperimentConfig, paths: dict) -> ExperimentConfig:
    """``config`` with each field path of ``paths`` set to its value; a
    section's SchemaError is re-raised under ``section.field``."""
    sections = {}
    for path, value in paths.items():
        section, _, name = path.rpartition(".")
        sections.setdefault(section, {})[name] = value
    top = sections.pop("", {})  # the config's own fields
    for section, kw in sections.items():
        try:
            top[section] = replace(getattr(config, section), **kw)
        except SchemaError as exc:
            raise SchemaError(f"{section}.{exc.key}", exc.message) from None
    return replace(config, **top)


def resolve_seeds(config: ExperimentConfig) -> ExperimentConfig:
    """Fill every unset seed of ``SEEDS`` from the master seed's children;
    a config with none unset is returned as it is."""
    unset = [path for path in SEEDS if attrgetter(path)(config) is None]
    if not unset:
        return config
    return _with_fields(config, {path: child_seed(config.master_seed, SEEDS[path].format(width="")) for path in unset})


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
                raise SchemaError("observables.zz", f"pair ({shown(i)}, {shown(j)}) out of range for N={n_qubits}")
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
# The fused evolution kernel: (R, B, 2**n) batches of R replicates
# --------------------------------------------------------------------------

def _input_angles(inputs, n: int) -> np.ndarray:
    """The (T, n) RY angles of a series of scalar or vector inputs, vectors
    tiled cyclically across the qubits as in ``encode_input``. The series is
    validated here, once: it must be finite."""
    u = np.asarray(inputs, dtype=np.float64)
    u = u[:, None] if u.ndim == 1 else u
    if u.ndim != 2 or u.shape[1] == 0:
        raise DataError("inputs must be a series of non-empty scalars or 1-d vectors")
    if not np.all(np.isfinite(u)):
        raise DataError("non-finite input value")
    return scale_input(u)[:, np.arange(n) % u.shape[1]]


# The kernel's one budget, in complex128 entries (256 KB): every rule of a
# width's plan (``plan``) is one expression on it.
CHUNK_AMPLITUDES = 2**14


@dataclass(frozen=True)
class Plan:
    """How ``run_group`` runs R replicates of width n: every rule of the
    plan, each one expression on the budget.

    - ``groups``: the qubit groups, top first, the fewest near-equal ones,
      top group largest, whose per-step factors (4**g entries a group of g)
      fit, and at least two from n = 6: 1 through n = 5, and 2, 3 and 4 of
      at most 6 qubits through n = 12, 18 and 24. Every block compiles on
      them; from n = 6 a dense block's few fused ops push the 2**n rows of
      W^T through fewer passes than one per gate.
    - ``dense``: the Y frame form, where a width's 4**n dense operators fit
      the budget, through n = 7.
    - ``size``: the replicates one run evolves together, as many as have
      their stacked dense blocks fit, at least one.
    - ``rows``: rows per replicate per chunk (for a persistent state, steps
      per chunk), as many as keep R x B rows of 2**n amplitudes within the
      budget, at least one.

    So a chunk's RY layers, R x (B + k - 1) steps (k = 1 for a persistent
    state) of at most the budget each, take for its B rows at most the
    budget again dense and 2.5 times it (640 KB) fused."""

    groups: tuple[int, ...]
    size: int
    rows: int

    @property
    def dense(self) -> bool:
        return 4 ** sum(self.groups) <= CHUNK_AMPLITUDES


def plan(n: int, R: int = 1) -> Plan:
    """Width n's ``Plan`` for R replicates."""
    splits = (tuple(n // m + (i < n % m) for i in range(m)) for m in range(1 if n < 6 else 2, n + 1))
    groups = next(groups for groups in splits if sum(4**g for g in groups) <= CHUNK_AMPLITUDES)
    return Plan(groups, max(1, CHUNK_AMPLITUDES // 4**n), max(1, (CHUNK_AMPLITUDES >> n) // R))


def _fixed_blocks(configs, p: Plan, frame=None) -> list:
    """Per encoder layer, the fixed gates after its RY layer, with the
    reservoir folded into the last block, each compiled by
    ``sim.fuse_groups`` on the plan's groups. In the fused form (one
    replicate, as the plan's size allows) a block is those ops, an op list
    for ``sim.apply_ops``. In the dense form it is the replicates' dense row
    operators M stacked as (R, d, d) in the Y frame, ``W^T M conj(W) /
    2**n`` with W the ``frame``, ``sim.y_frame(n)``, to act on rows held
    there as ``rows @ conj(W)`` (see ``sim.ry_phases``): ``apply_ops`` runs
    the ops on the rows of W^T, which gives W^T M, and one matmul takes it
    to the frame."""
    n = sum(p.groups)
    replicates = []
    for cfg in configs:
        blocks = [list(layer.fixed_gates) for layer in build_encoder(cfg.encoder, n).layers]
        blocks[-1] += build_reservoir(cfg.reservoir).gates
        replicates.append([fuse_groups(block, p.groups) for block in blocks])
    if not p.dense:
        return replicates[0]
    return [np.stack([apply_ops(frame.T.copy(), ops, p.groups) for ops in layer]) @ frame.conj() / 2**n
            for layer in zip(*replicates)]


def _measure(rows: np.ndarray, signs: np.ndarray, shots: int, streams) -> np.ndarray:
    """Feature rows of an (R, B, 2**n) batch: exact expectations, or with one
    shot stream per replicate, one count table per row from
    ``stream.uniform(size=shots)`` drawn in row order, as ``sample_counts``
    draws them. The draws are sorted before their binary search, which
    then narrows from the last key; a count table does not depend on their
    order. Raises DataError if any row's norm drifted (``check_norm``)."""
    probs = np.abs(rows) ** 2
    check_norm(probs)
    if streams is None:
        return (probs.reshape(-1, probs.shape[-1]) @ signs.T).reshape(*probs.shape[:-1], len(signs))
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = np.maximum(cdf[..., -1], 1.0)  # guard the last bin against rounding
    counts = np.empty(probs.shape, dtype=np.int64)
    for r, i in np.ndindex(cdf.shape[:-1]):
        draws = np.sort(streams[r].uniform(0.0, 1.0, size=shots))
        counts[r, i] = np.bincount(np.searchsorted(cdf[r, i], draws, side="right"), minlength=cdf.shape[-1])
    return counts @ signs.T / shots


def run_recurrent(series: TimeSeries, config: ExperimentConfig) -> FeatureMatrix:
    """Evolve one persistent state through the whole series, reading exact
    expectations after every step; rows before max(washout, valid_from) are
    dropped. The config's mode must be recurrent."""
    if config.mode.kind != "recurrent":
        raise ConfigurationError(f"run_recurrent runs mode.kind 'recurrent', got {config.mode.kind!r}")
    return run_group([series], [config])[0]


def run_windowed(series: TimeSeries, config: ExperimentConfig) -> FeatureMatrix:
    """reupload_k evolution: each row rebuilds a fresh state from the last k
    inputs; a full window is the recurrent state. The shots backend samples
    one count table per row and estimates every observable from it. The
    config's mode must be reupload_k."""
    if config.mode.kind != "reupload_k":
        raise ConfigurationError(f"run_windowed runs mode.kind 'reupload_k', got {config.mode.kind!r}")
    return run_group([series], [config])[0]


def run_group(series_list, configs) -> list[FeatureMatrix]:
    """Feature matrices of R replicates of one width and mode: configs that
    differ in their seeds, and their series. The runs evolve as one
    (R, B, 2**n) batch, each replicate with its own RY layers and its own
    fixed blocks. A persistent state (recurrent, or a full window, whose
    re-upload of the whole prefix is the recurrent state) is B = 1 row
    advanced one step at a time; a bounded window of k steps restarts each
    chunk's B output rows from |0> and advances them k sub-steps, row b of
    sub-step j taking step t0 - k + 1 + j + b. R may be at most the size of
    width n's ``plan``. Every replicate keeps the rows from one
    ``first_row`` to one series length, sharing one t_index; replicates that
    keep different rows, or whose width, topology, encoder layers,
    observables, mode or backend differ, raise ConfigurationError. On the
    shots backend each replicate draws from its own shot stream (``_measure``)."""
    cfgs = [resolve_seeds(c) for c in configs]
    firsts = sorted({c.first_row(s.valid_from) for c, s in zip(cfgs, series_list)})
    ends = sorted({len(s.inputs) for s in series_list})
    if len(firsts) > 1 or len(ends) > 1:
        raise ConfigurationError(f"a group's replicates keep rows from different steps: {firsts} to {ends}")
    if len({(c.reservoir.n_qubits, c.reservoir.topology, c.encoder.layers, c.observables, c.mode,
              c.backend.kind, c.backend.shots) for c in cfgs}) > 1:
        raise ConfigurationError("a group's replicates differ in more than their seeds")
    (keep_from,), (T,) = firsts, ends
    cfg, R = cfgs[0], len(cfgs)
    n, bounded = cfg.reservoir.n_qubits, cfg.mode.bounded
    p = plan(n, R)
    if R > p.size:
        raise ConfigurationError(f"{R} replicates of width {n} exceed the group size {p.size}")
    observables = build_observables(cfg.observables, n, cfg.reservoir.topology)
    signs = sign_matrix(observables, n)
    groups, dense = p.groups, p.dense  # dense: evolved in the Y frame
    frame = y_frame(n) if dense else None
    blocks = _fixed_blocks(cfgs, p, frame)
    back = frame.T / 2**n if dense else None  # rows @ back leaves the frame
    angles = np.stack([_input_angles(s.inputs, n) for s in series_list])  # (R, T, n)
    streams = [RandomStream(c.backend.shot_seed) for c in cfgs] if cfg.backend.kind == "shots" else None

    w = cfg.mode.k if bounded else 1  # sub-steps that complete a row
    rows = None
    t_index = np.arange(keep_from, T, dtype=np.int64)
    values = np.empty((R, len(t_index), len(observables)))
    for t0 in range(keep_from if bounded else 0, T, p.rows):
        t1 = min(t0 + p.rows, T)
        done = None  # frees the last chunk's rows before this chunk's RY layers are built
        chunk = angles[:, t0 - w + 1 : t1]  # (R, S, n)
        if dense:
            layers = ry_phases(chunk.reshape(-1, n)).reshape(R, -1, 2**n)
        else:
            layers = [f.reshape(R, -1, *f.shape[1:]) for f in ry_factors(chunk.reshape(-1, n), groups)]
        if bounded or rows is None:  # a bounded window's rows start from |0> each chunk
            rows = np.zeros((R, t1 - t0 if bounded else 1, 2**n), dtype=np.complex128)
            rows[..., : 2**n if dense else 1] = 1.0  # in the Y frame, |0> is all ones
        B = rows.shape[1]
        for j in range(chunk.shape[1] - B + 1):
            layer = layers[:, j : j + B] if dense else [GroupOp(i, f[:, j : j + B]) for i, f in enumerate(layers)]
            for block in blocks:  # per encoder layer, its RY layer, then its fixed block
                rows = (rows * layer) @ block if dense else apply_ops(rows, layer + block, groups)
            if j >= w - 1:  # every sub-step of a persistent state completes a row, a window's last its B rows
                done = np.empty((R, t1 - t0, 2**n), dtype=np.complex128) if j == w - 1 else done  # off the loop's peak
                done[:, j - w + 1 : j - w + 1 + B] = rows
        del layers, layer  # free this chunk's RY layers before the next chunk builds its own
        done = done[:, max(keep_from - t0, 0) :]  # the rows from step keep_from on, up to step t1; maybe none
        values[:, t1 - keep_from - done.shape[1] : t1 - keep_from] = _measure(
            done @ back if dense else done, signs, cfg.backend.shots, streams
        )
    labels = tuple(o.label for o in observables)
    return [FeatureMatrix(v, t_index, labels) for v in values]


def raw_window_features(series: TimeSeries, k: int, t_index) -> np.ndarray:
    """Classical baseline features: the last k raw inputs at each row."""
    if k < 1:
        raise ConfigurationError("window k must be >= 1")
    t = np.asarray(t_index, dtype=np.intp)
    if np.any(t < k - 1):
        raise ConfigurationError(f"row t={t[t < k - 1][0]} has no {k}-step window")
    return sliding_window_view(np.asarray(series.inputs, dtype=np.float64), k)[t - k + 1]


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
    into train-then-test, fit the ridge readout, score both segments; with
    an ``alpha_grid``, the same for each of its alphas (the sweep)."""
    cfg = resolve_seeds(config)
    series = generate(cfg.task)
    features = (run_recurrent if cfg.mode.kind == "recurrent" else run_windowed)(series, cfg)
    result = _fit_and_score(cfg, series, features)
    if cfg.alpha_grid:
        name, _ = task_metric(cfg.task.kind)
        fits = [_fit_and_score(replace(cfg, alpha=a), series, features).metrics for a in cfg.alpha_grid]
        sweep = tuple((a, fit[f"train_{name}"], fit[f"test_{name}"]) for a, fit in zip(cfg.alpha_grid, fits))
        result = replace(result, alpha_sweep=sweep)
    return result


def _fit_and_score(cfg: ExperimentConfig, series: TimeSeries, features: FeatureMatrix) -> RunResult:
    """Split the rows contiguously into train-then-test, fit the ridge
    readout at ``cfg.alpha`` on the train rows, score both segments."""
    n_train = cfg.protocol.train_rows(features.values.shape[0])
    targets = series.targets[features.t_index]
    y_train, y_test = targets[:n_train], targets[n_train:]

    model = fit_ridge(features.values[:n_train], y_train, alpha=cfg.alpha)
    pred = predict(model, features.values)

    name, scorer = task_metric(cfg.task.kind)
    metrics = {
        f"train_{name}": scorer(pred[:n_train], y_train),
        f"test_{name}": scorer(pred[n_train:], y_test),
        "train_mse": mse(pred[:n_train], y_train),
        "test_mse": mse(pred[n_train:], y_test),
    }
    return RunResult(
        config=cfg,
        features=features,
        targets=targets,
        predictions=pred,
        split_at=n_train,
        metrics=metrics,
        model=model,
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
    """The processes that run a sweep's or scan's tasks, the calling one
    included, from QRCLAB_THREADS; 0 means one per CPU this process may run
    on (its affinity mask where the platform has one)."""
    raw = os.environ.get("QRCLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise SchemaError("QRCLAB_THREADS", f"must be an integer, got {raw!r}")
    if check_int("QRCLAB_THREADS", n, 0):
        return n
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _group_scores(task: tuple) -> list:
    """One task: ``(configs, series, delays)``, replicate configs of one
    width and their series (``_replicate_scores``), evolved once as one
    ``run_group``, and the STM delays to read. A scan has no delays and
    scores each replicate on its own task. A sweep's configs are each
    replicate's shortest-delay STM config; delay d reads the rows t >=
    ``first_row(d)`` of that run against ``stm_series(inputs, d)``. Returns
    per replicate a (train score, test score) per readout."""
    configs, series, delays = task
    name, _ = task_metric(configs[0].task.kind)
    scores = []
    for cfg, s, f in zip(configs, series, run_group(series, configs)):
        readouts = [(stm_series(s.inputs, d), _rows_from(f, cfg.first_row(d))) for d in delays] or [(s, f)]
        results = [_fit_and_score(cfg, *readout) for readout in readouts]
        scores.append([(float(r.metrics[f"train_{name}"]), float(r.metrics[f"test_{name}"])) for r in results])
    return scores


def _rows_from(features: FeatureMatrix, t0: int) -> FeatureMatrix:
    """The rows of a feature matrix with t >= t0."""
    start = int(np.searchsorted(features.t_index, t0))
    return FeatureMatrix(features.values[start:], features.t_index[start:], features.labels)


def _run_share(conn) -> None:
    """A worker's body: receives its share of the tasks on ``conn``, and
    sends back their scores, or the exception that stopped it. It ignores
    SIGINT and takes SIGTERM's default action (not a handler the caller
    may have had when it forked), each held blocked by the caller while it
    started (where the platform has ``signal.pthread_sigmask``): on Ctrl-C
    or SIGTERM the caller stops it, with ``terminate()``'s SIGTERM."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    try:
        conn.send([_group_scores(task) for task in conn.recv()])
    except Exception as exc:
        conn.send(exc)


def _replicate_scores(widths: list, delays) -> list:
    """The scores of each replicate, in order, from a list with each width's
    replicate configs: ``_group_scores`` of one task per replicate group of
    its ``plan`` size, with each distinct series generated once, here, keyed
    by its TaskSpec. Worker k of w = min(``worker_count()``, tasks) runs
    ``tasks[k::w]``: this process is worker 0, and each other receives its
    share on its own pipe once it has started, and sends the scores back on
    it. Reading the shares that have arrived before each of its own tasks,
    the caller ends the run within one task of a failure in any worker; a
    worker that cannot start, or ends early, raises QRCLabError."""
    series, tasks = {}, []
    for configs in widths:
        size = plan(configs[0].reservoir.n_qubits).size
        for i in range(0, len(configs), size):
            group = configs[i : i + size]
            for cfg in group:
                if cfg.task not in series:
                    series[cfg.task] = generate(cfg.task)
            tasks.append((group, [series[cfg.task] for cfg in group], delays))
    workers = min(worker_count(), len(tasks))
    shares = [[]] + [None] * (workers - 1)  # worker k's scores, in the order of tasks[k::w]
    started = []  # the pipe and process of each worker k >= 1 that started
    lost = "a worker process ended before its task was done"
    try:
        for k in range(1, workers):
            import multiprocessing.connection  # not on a sequential run
            try:
                conn, child = multiprocessing.Pipe()
                worker = multiprocessing.Process(target=_run_share, args=(child,))
                mask = getattr(signal, "pthread_sigmask", None)  # None on Windows: the worker starts unmasked
                stopping = {signal.SIGINT, signal.SIGTERM}  # held until the worker has reset them
                held = mask(signal.SIG_BLOCK, stopping) if mask else None
                try:
                    worker.start()
                    started.append((conn, worker))
                finally:  # a Ctrl-C or SIGTERM meanwhile is raised here, with the worker in started
                    if mask:
                        mask(signal.SIG_SETMASK, held)
            except OSError as exc:  # a fork that failed, say at a process limit
                raise QRCLabError(f"a worker process could not start: {exc}") from None
            child.close()  # so a worker that ends leaves its pipe at EOF, and a send to it fails
        pipes = {conn: k for k, (conn, _) in enumerate(started, 1)}  # each pipe not read yet: its worker k
        for conn, k in pipes.items():  # each share goes after start(), so a dead worker cannot block start()
            try:
                conn.send(tasks[k::workers])
            except ConnectionError:  # the worker ended: its end of the pipe is closed
                raise QRCLabError(lost) from None
        own = tasks[::workers]
        while own or pipes:  # before each of the caller's tasks, then until every share is read
            ready = [r for r in pipes if r.poll()] if own else multiprocessing.connection.wait(list(pipes))
            for reader in ready:
                try:
                    share = reader.recv()
                except (EOFError, ConnectionError):  # a worker that ended, with or without its share unread
                    raise QRCLabError(lost) from None
                if isinstance(share, Exception):
                    raise share
                shares[pipes.pop(reader)] = share
            if own:
                shares[0].append(_group_scores(own.pop(0)))
    finally:
        for _, worker in started:
            worker.terminate()
            worker.join()
    return [replicate for i in range(len(tasks)) for replicate in shares[i % workers][i // workers]]


def _replicate_config(config: ExperimentConfig, r: int, n_qubits: int | None = None) -> ExperimentConfig:
    """Replicate r's config, every seed of ``SEEDS`` from the master seed's
    ``replicate-<r>`` child; at a scan's width ``n_qubits``, with its suffix."""
    rep = child_seed(config.master_seed, f"replicate-{r}")
    width = "" if n_qubits is None else f"-n{n_qubits}"
    seeds = {path: child_seed(rep, label.format(width=width)) for path, label in SEEDS.items()}
    n_qubits = config.reservoir.n_qubits if n_qubits is None else n_qubits
    return _with_fields(config, {"reservoir.n_qubits": n_qubits, **seeds, "master_seed": rep})


def stm_delay_sweep(
    config: ExperimentConfig, delays, replicates: int = 10
) -> list[tuple[int, float]]:
    """Mean test R^2 per delay, averaged over replicate seeds. Each replicate
    evolves once, from its shortest delay's config, and each delay is a
    readout of that run (``_group_scores``); on the shots backend the run is
    sampled once, from that config's first kept row. The replicates' data,
    reservoir and shot seeds replace the config's own. Raises SchemaError
    keyed ``delays`` or ``replicates``; a delay whose config breaks a rule
    is named with the rule's key, ``delay 60: task.T: ...``."""
    delays = [check_int("delays", d, 1) for d in delays]
    if not delays:
        raise SchemaError("delays", "must name at least one delay")
    check_int("replicates", replicates, 1)

    for d in delays:  # building a delay's config checks the rules that depend on it
        try:
            _with_fields(config, {"task.kind": "stm", "task.delay": d})
        except SchemaError as exc:
            raise SchemaError("delays", f"delay {d}: {exc}") from exc
    shortest = {"task.kind": "stm", "task.delay": min(delays)}
    replicate_configs = [_with_fields(_replicate_config(config, r), shortest) for r in range(replicates)]
    scores = _replicate_scores([replicate_configs], delays)
    return [(d, float(np.mean([replicate[i][1] for replicate in scores]))) for i, d in enumerate(delays)]


def check_scan_args(config: ExperimentConfig, qubit_list, delta: float, replicates: int) -> tuple[list[int], float]:
    """The theory scan's argument rules, checked before anything runs: the
    widths are non-empty integers, strictly ascending, delta is a number in
    (0, 1), replicates is an integer >= 1, and each width's replicate config
    builds. Raises SchemaError keyed ``qubit_list``, ``delta`` or
    ``replicates``; returns the widths and delta as a Python float."""
    qubits = [check_int("qubit_list", n) for n in qubit_list]
    if not qubits:
        raise SchemaError("qubit_list", "must name at least one width")
    if any(b <= a for a, b in zip(qubits, qubits[1:])):
        raise SchemaError("qubit_list", f"must be strictly ascending, got [{', '.join(map(shown, qubits))}]")
    if not 0.0 < (delta := check_real("delta", delta)) < 1.0:
        raise SchemaError("delta", f"must be in (0, 1), got {shown(delta)}")
    check_int("replicates", replicates, 1)
    for n in qubits:  # building a width's config checks the rules that depend on it
        try:
            _replicate_config(config, 0, n)
        except SchemaError as exc:
            raise SchemaError("qubit_list", f"width {n}: {exc}") from exc
    return qubits, delta


def theory_scan(
    config: ExperimentConfig, qubit_list, delta: float, replicates: int = 10
) -> list[ScanRow]:
    """Replicate-averaged train/test scores per reservoir width, with the
    risk bound's sample-size confidence term. Every width and replicate
    keeps the same rows, so the m test rows follow from the config. The
    replicates' data, reservoir and shot seeds replace the config's own."""
    qubits, delta = check_scan_args(config, qubit_list, delta, replicates)
    t_eff = config.task.T - config.first_row(config.task.valid_from)
    m = t_eff - config.protocol.train_rows(t_eff)
    widths = [[_replicate_config(config, r, n_qubits=n) for r in range(replicates)] for n in qubits]
    scores = np.array(_replicate_scores(widths, ())).reshape(len(qubits), replicates, 2)
    train = scores[..., 0].mean(axis=1).tolist()  # per width, over its replicates
    test = scores[..., 1].mean(axis=1).tolist()
    bound = confidence_term(m, delta)
    return [ScanRow(n, a, b, a - b, bound, m, delta) for n, a, b in zip(qubits, train, test)]


# --------------------------------------------------------------------------
# Artifact rendering (CSV)
# --------------------------------------------------------------------------


def _csv(header: str, row: str, rows) -> str:
    """CSV text: the header line, then the %-format ``row`` of each tuple."""
    return "\n".join([header, *(row % values for values in rows)]) + "\n"


def features_csv(features: FeatureMatrix) -> str:
    row = "%d," + ",".join(["%.17g"] * len(features.labels))
    values = ((t, *vals) for t, vals in zip(features.t_index.tolist(), features.values.tolist()))
    return _csv("t," + ",".join(features.labels), row, values)


def predictions_csv(result: RunResult) -> str:
    split = ["train" if i < result.split_at else "test" for i in range(len(result.targets))]
    values = zip(result.features.t_index.tolist(), result.targets.tolist(), result.predictions.tolist(), split)
    return _csv("t,target,prediction,split", "%d,%.17g,%.17g,%s", values)


def scan_csv(rows) -> str:
    values = ((r.n_qubits, r.train_score, r.test_score, r.gap, r.confidence_term) for r in rows)
    return _csv("n_qubits,train_score,test_score,gap,confidence_term", "%s,%.17g,%.17g,%.17g,%.17g", values)
