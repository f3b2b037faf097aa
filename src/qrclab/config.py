"""Strict JSON config schema for the CLI.

Unknown keys are rejected with the offending key named; omitted optionals are
filled from the reference defaults and echoed back, so a produced
config_echo.json always re-parses to the identical run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .encoding import SCALE_TAGS, SCHEMES, EncoderSpec
from .errors import SchemaError
from .experiment import (
    BACKEND_KINDS,
    MODE_KINDS,
    BackendSpec,
    ExperimentConfig,
    ModeSpec,
    ObservableSpec,
    ProtocolSpec,
)
from .readout import DEFAULT_ALPHA
from .reservoir import TOPOLOGIES, ReservoirSpec
from .tasks import TASK_KINDS, TaskSpec

TOP_LEVEL_KEYS = (
    "master_seed",
    "task",
    "reservoir",
    "encoder",
    "observables",
    "mode",
    "backend",
    "protocol",
    "readout",
    "output",
)

DEFAULT_MASTER_SEED = 42
SEED_LIMIT = 2**64  # seeds are 64-bit unsigned (sim.RandomStream)


@dataclass(frozen=True)
class OutputOptions:
    dir: str = "runs"
    plots: bool = True
    features: bool = True


def _section(doc: dict, name: str, allowed: tuple[str, ...]) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise SchemaError(name, "must be an object")
    for key in sec:
        if key not in allowed:
            raise SchemaError(f"{name}.{key}", "unknown key")
    return sec


def _get_int(sec: dict, path: str, key: str, default, minimum=None, allow_none=False, limit=None):
    val = sec.get(key, default)
    if val is None and allow_none:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"{path}.{key}", f"must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    if limit is not None and val >= limit:
        raise SchemaError(f"{path}.{key}", f"must be < {limit}, got {val}")
    return val


def _get_number(sec: dict, path: str, key: str, default):
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{path}.{key}", f"must be a number, got {val!r}")
    return float(val)


def _get_bool(sec: dict, path: str, key: str, default: bool) -> bool:
    val = sec.get(key, default)
    if not isinstance(val, bool):
        raise SchemaError(f"{path}.{key}", f"must be true or false, got {val!r}")
    return val


def _get_enum(sec: dict, path: str, key: str, default: str, choices) -> str:
    val = sec.get(key, default)
    if val not in choices:
        raise SchemaError(f"{path}.{key}", f"must be one of {list(choices)}, got {val!r}")
    return val


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("<config>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("<config>", "top level must be an object")
    return doc


def parse_config(
    doc: dict, task_kind: str | None = None
) -> tuple[ExperimentConfig, OutputOptions]:
    """Validate a config document and build the run configuration.

    ``task_kind`` is the kind implied by the CLI command; a conflicting
    explicit task.kind is a schema violation.
    """
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise SchemaError(key, "unknown key")

    master_seed = _get_int(doc, "<config>", "master_seed", DEFAULT_MASTER_SEED, minimum=0)
    if master_seed >= SEED_LIMIT:
        raise SchemaError("master_seed", f"must be < 2**64, got {master_seed}")

    task_sec = _section(doc, "task", ("kind", "T", "seed", "delay", "window"))
    kind = task_sec.get("kind", task_kind)
    if kind is None:
        raise SchemaError("task.kind", "missing (no task kind given by command or config)")
    if kind not in TASK_KINDS:
        raise SchemaError("task.kind", f"must be one of {list(TASK_KINDS)}, got {kind!r}")
    if task_kind is not None and kind != task_kind:
        raise SchemaError("task.kind", f"config says {kind!r} but the command runs {task_kind!r}")
    task = TaskSpec(
        kind=kind,
        T=_get_int(task_sec, "task", "T", 600, minimum=1),
        seed=_get_int(task_sec, "task", "seed", None, minimum=0, allow_none=True, limit=SEED_LIMIT),
        delay=_get_int(task_sec, "task", "delay", 2, minimum=1),
        window=_get_int(task_sec, "task", "window", 2, minimum=2),
    )

    res_sec = _section(doc, "reservoir", ("n_qubits", "depth", "topology", "seed"))
    reservoir = ReservoirSpec(
        n_qubits=_get_int(res_sec, "reservoir", "n_qubits", 4, minimum=2),
        depth=_get_int(res_sec, "reservoir", "depth", 3, minimum=1),
        topology=_get_enum(res_sec, "reservoir", "topology", "ring", TOPOLOGIES),
        seed=_get_int(res_sec, "reservoir", "seed", None, minimum=0, allow_none=True, limit=SEED_LIMIT),
    )

    enc_sec = _section(doc, "encoder", ("scheme", "layers", "scale"))
    scheme = _get_enum(enc_sec, "encoder", "scheme", "angle", SCHEMES)
    layers = _get_int(enc_sec, "encoder", "layers", 1, minimum=1)
    if scheme == "angle" and layers != 1:
        raise SchemaError("encoder.layers", "must be 1 for the plain angle scheme")
    encoder = EncoderSpec(
        n_qubits=reservoir.n_qubits,
        scheme=scheme,
        layers=layers,
        scale=_get_enum(enc_sec, "encoder", "scale", "pi_linear", SCALE_TAGS),
    )

    obs_sec = _section(doc, "observables", ("local_z", "zz"))
    zz = obs_sec.get("zz", None)
    if zz is not None and zz not in ("edges", "all_pairs"):
        if not isinstance(zz, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(q, int) and not isinstance(q, bool) for q in p)
            for p in zz
        ):
            raise SchemaError(
                "observables.zz", "must be null, 'edges', 'all_pairs' or a list of [i, j] pairs"
            )
        zz = tuple((p[0], p[1]) for p in zz)
    observables = ObservableSpec(
        local_z=_get_bool(obs_sec, "observables", "local_z", True),
        zz=zz,
    )

    mode_sec = _section(doc, "mode", ("type", "k"))
    mode = ModeSpec(
        kind=_get_enum(mode_sec, "mode", "type", "recurrent", MODE_KINDS),
        k=_get_int(mode_sec, "mode", "k", 1, minimum=1),
    )

    back_sec = _section(doc, "backend", ("type", "shots", "shot_seed"))
    backend = BackendSpec(
        kind=_get_enum(back_sec, "backend", "type", "ideal", BACKEND_KINDS),
        shots=_get_int(back_sec, "backend", "shots", 1024, minimum=1),
        shot_seed=_get_int(
            back_sec, "backend", "shot_seed", None, minimum=0, allow_none=True, limit=SEED_LIMIT
        ),
    )

    proto_sec = _section(doc, "protocol", ("washout", "train_fraction"))
    train_fraction = _get_number(proto_sec, "protocol", "train_fraction", 0.7)
    if not 0.0 < train_fraction < 1.0:
        raise SchemaError("protocol.train_fraction", f"must be in (0, 1), got {train_fraction}")
    protocol = ProtocolSpec(
        washout=_get_int(proto_sec, "protocol", "washout", 50, minimum=0),
        train_fraction=train_fraction,
    )

    read_sec = _section(doc, "readout", ("alpha", "alpha_grid"))
    alpha = _get_number(read_sec, "readout", "alpha", DEFAULT_ALPHA)
    if alpha < 0:
        raise SchemaError("readout.alpha", f"must be >= 0, got {alpha}")
    grid = read_sec.get("alpha_grid", None)
    if grid is not None:
        if not isinstance(grid, list) or not grid or not all(
            isinstance(a, (int, float)) and not isinstance(a, bool) and a >= 0 for a in grid
        ):
            raise SchemaError("readout.alpha_grid", "must be a non-empty list of numbers >= 0")
        grid = tuple(float(a) for a in grid)

    out_sec = _section(doc, "output", ("dir", "plots", "features"))
    out_dir = out_sec.get("dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        raise SchemaError("output.dir", "must be a non-empty string")
    output = OutputOptions(
        dir=out_dir,
        plots=_get_bool(out_sec, "output", "plots", True),
        features=_get_bool(out_sec, "output", "features", True),
    )

    config = ExperimentConfig(
        task=task,
        reservoir=reservoir,
        encoder=encoder,
        observables=observables,
        mode=mode,
        backend=backend,
        protocol=protocol,
        alpha=alpha,
        alpha_grid=grid,
        master_seed=master_seed,
    )
    return config, output


def echo_config(config: ExperimentConfig, output: OutputOptions) -> dict:
    """A schema-shaped document reproducing the run; derived seeds stay null
    so the master seed remains the single source of randomness."""
    zz = config.observables.zz
    if isinstance(zz, tuple):
        zz = [list(p) for p in zz]
    return {
        "master_seed": config.master_seed,
        "task": {
            "kind": config.task.kind,
            "T": config.task.T,
            "seed": config.task.seed,
            "delay": config.task.delay,
            "window": config.task.window,
        },
        "reservoir": {
            "n_qubits": config.reservoir.n_qubits,
            "depth": config.reservoir.depth,
            "topology": config.reservoir.topology,
            "seed": config.reservoir.seed,
        },
        "encoder": {
            "scheme": config.encoder.scheme,
            "layers": config.encoder.layers,
            "scale": config.encoder.scale,
        },
        "observables": {"local_z": config.observables.local_z, "zz": zz},
        "mode": {"type": config.mode.kind, "k": config.mode.k},
        "backend": {
            "type": config.backend.kind,
            "shots": config.backend.shots,
            "shot_seed": config.backend.shot_seed,
        },
        "protocol": {
            "washout": config.protocol.washout,
            "train_fraction": config.protocol.train_fraction,
        },
        "readout": {
            "alpha": config.alpha,
            "alpha_grid": list(config.alpha_grid) if config.alpha_grid else None,
        },
        "output": {"dir": output.dir, "plots": output.plots, "features": output.features},
    }


def config_hash(echo: dict) -> str:
    """First 8 hex digits of the canonical-JSON SHA-256 of the echo."""
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def dump_echo(echo: dict) -> str:
    return json.dumps(echo, indent=2, sort_keys=True) + "\n"
