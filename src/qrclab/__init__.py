"""qrclab: a gate-based quantum reservoir computing engine.

A fixed random circuit evolves a classical input sequence, Pauli-Z
expectations become features, and a closed-form ridge readout is trained on
them. Ships deterministic harnesses for the short-term-memory, temporal
parity, and NARMA10 benchmarks plus a qubit-width generalization-gap scan.

The package root exports what the README's library section documents; every
other name is imported from its submodule (``qrclab.sim``,
``qrclab.experiment``, ...).
"""

from .errors import (
    ConfigurationError,
    DataError,
    FitError,
    MetricError,
    QRCLabError,
    SchemaError,
)
from .tasks import TaskSpec
from .experiment import ExperimentConfig, run_case, stm_delay_sweep, theory_scan

__version__ = "0.1.0"
