"""Seeded synthetic generators for the three temporal benchmarks.

Every generator is a pure function of (T, seed, params). Inputs are delivered
already normalized to [0, 1] so the encoder contract is uniform across tasks.
Undefined early targets are stored as NaN and flagged via ``valid_from``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DataError, SchemaError
from .sim import MAX_COUNT, RandomStream, check_int, check_seed

log = logging.getLogger(__name__)

TASK_KINDS = ("stm", "parity", "narma10")

NARMA_MAX_REDRAWS = 50
NARMA_DIVERGENCE_BOUND = 10.0


@dataclass(frozen=True)
class TimeSeries:
    inputs: np.ndarray  # length T, values in [0, 1]
    targets: np.ndarray  # length T, NaN before valid_from
    valid_from: int

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise DataError("inputs and targets must have equal length")
        if not 0 <= self.valid_from <= len(self.targets):
            raise DataError("valid_from out of range")


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    T: int = 600
    seed: int | None = None  # None = derive from the experiment master seed
    delay: int = 2  # stm only
    window: int = 2  # parity only

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise SchemaError("kind", f"must be one of {list(TASK_KINDS)}, got {self.kind!r}")
        object.__setattr__(self, "T", check_int("T", self.T, 1, MAX_COUNT))
        object.__setattr__(self, "seed", check_seed("seed", self.seed, optional=True))
        object.__setattr__(self, "delay", check_int("delay", self.delay, 1))
        object.__setattr__(self, "window", check_int("window", self.window, 2))
        if self.kind == "narma10" and self.T < 30:
            raise SchemaError("T", f"narma10 needs T >= 30, got {self.T}")

    @property
    def valid_from(self) -> int:
        """The first step with a defined target, as ``generate`` flags it."""
        return {"stm": self.delay, "parity": self.window - 1, "narma10": 10}[self.kind]


def generate(spec: TaskSpec) -> TimeSeries:
    if spec.seed is None:
        raise ConfigurationError("task seed unresolved; fill it or go through resolve_seeds")
    if spec.kind == "stm":
        return gen_stm(spec.T, spec.seed, spec.delay)
    if spec.kind == "parity":
        return gen_parity(spec.T, spec.seed, spec.window)
    return gen_narma10(spec.T, spec.seed)


def gen_stm(T: int, seed: int, delay: int = 2) -> TimeSeries:
    """Memory reconstruction: y_t = u_{t-delay}, u ~ Uniform[0, 1]."""
    if delay < 1:
        raise ConfigurationError("delay must be >= 1")
    if delay >= T:
        raise ConfigurationError(f"delay {delay} must be < T={T}")
    return stm_series(RandomStream(seed).uniform(0.0, 1.0, size=T), delay)


def stm_series(inputs: np.ndarray, delay: int) -> TimeSeries:
    """y_t = u_{t-delay} on ``inputs``, NaN before ``delay``: every delay's
    STM series from one draw of inputs."""
    targets = np.full(len(inputs), np.nan)
    targets[delay:] = inputs[:-delay]
    return TimeSeries(inputs=inputs, targets=targets, valid_from=delay)


def gen_parity(T: int, seed: int, window: int = 2) -> TimeSeries:
    """Temporal XOR: y_t = u_{t-w+1} ^ ... ^ u_t over i.i.d. fair bits."""
    if window < 2:
        raise ConfigurationError("window must be >= 2")
    if window > T:
        raise ConfigurationError(f"window {window} must be <= T={T}")
    rng = RandomStream(seed)
    u = rng.integers(0, 2, size=T).astype(np.float64)
    y = np.full(T, np.nan)
    y[window - 1 :] = sliding_window_view(u, window).sum(axis=1) % 2
    return TimeSeries(inputs=u, targets=y, valid_from=window - 1)


def narma10_recurrence(u: np.ndarray) -> np.ndarray:
    """Run the tenth-order recurrence over raw inputs u (in [0, 0.5]).

    Returns y of length T+1 with y[0..10] = 0; the recurrence starts at t=10
    so the first computed value is y[11] (= 0.1 when u is identically zero).
    Iteration stops once |y| crosses the divergence bound; callers reject
    such series, so the tail past that point is never consumed. The loop
    runs on Python floats: one step is a handful of scalar operations.
    """
    u = np.asarray(u, dtype=np.float64).tolist()
    T = len(u)
    y = [0.0] * (T + 1)
    for t in range(10, T):
        y_t = y[t]
        y[t + 1] = 0.3 * y_t + 0.05 * y_t * sum(y[t - 9 : t + 1]) + 1.5 * u[t - 9] * u[t] + 0.1
        if abs(y[t + 1]) > NARMA_DIVERGENCE_BOUND:
            break
    return np.array(y)


def gen_narma10(T: int, seed: int) -> TimeSeries:
    """Tenth-order NARMA one-step-ahead forecasting.

    The target at step t is y_{t+1}. Raw inputs u ~ Uniform[0, 0.5] drive the
    recurrence; the stored inputs are u/0.5 so they live in [0, 1]. A seed
    whose series diverges (|y| > 10) is replaced by seed+1, and so on: a
    series redrawn that way logs one warning, naming the first seed, the seed
    used and the redraw count, and one that diverges for every seed tried
    logs nothing and raises DataError.
    """
    if T < 30:
        raise ConfigurationError(f"narma10 needs T >= 30, got {T}")
    for redraws in range(NARMA_MAX_REDRAWS):
        u = RandomStream(seed + redraws).uniform(0.0, 0.5, size=T)
        y = narma10_recurrence(u)
        if np.max(np.abs(y)) <= NARMA_DIVERGENCE_BOUND:
            if redraws:
                log.warning("narma10 series diverged for seed %d; used seed %d after %d redraw%s",
                            seed, seed + redraws, redraws, "s" * (redraws > 1))
            targets = y[1:].copy()
            targets[:10] = np.nan
            return TimeSeries(inputs=u / 0.5, targets=targets, valid_from=10)
    raise DataError(f"narma10 diverged for {NARMA_MAX_REDRAWS} consecutive seeds from {seed}")
