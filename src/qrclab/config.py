"""Strict JSON config schema for the CLI, derived from the spec dataclasses.

Each section of the document is one spec of ``ExperimentConfig`` (``task``
is its ``TaskSpec``, and so on) or ``output`` (``OutputOptions``); the
config's own ``alpha`` and ``alpha_grid`` sit in ``readout`` and
``master_seed`` at the top. A key is its field's name except where
``_KEYS`` says otherwise, and a field ``_KEYS`` maps to None has no key. The
schema only maps keys: each value goes to its field unchanged, and each
spec's ``__post_init__`` checks every field and stores it as a plain Python
value (a list as a tuple, an integer as a float where a float is wanted);
``ExperimentConfig``'s holds the rules that span sections. Unknown keys are
rejected with the offending key named; omitted keys are filled from the field
defaults and echoed back, so a config_echo.json re-parses to the same run.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache

from .errors import SchemaError
from .experiment import ExperimentConfig
from .sim import check_bool
from .tasks import TASK_KINDS, TaskSpec


@dataclass(frozen=True)
class OutputOptions:
    dir: str = "runs"
    plots: bool = True
    features: bool = True

    def __post_init__(self):
        if not isinstance(self.dir, str) or not self.dir:
            raise SchemaError("dir", "must be a non-empty string")
        object.__setattr__(self, "plots", check_bool("plots", self.plots))
        object.__setattr__(self, "features", check_bool("features", self.features))


# The document key of each field path whose key is not the path itself. The
# interleave seed is always derived from the master seed, so it has none.
# The encoder has no width: it is built at reservoir.n_qubits.
_KEYS = {
    "encoder.interleave_seed": None,
    "mode.kind": "mode.type",
    "backend.kind": "backend.type",
    "alpha": "readout.alpha",
    "alpha_grid": "readout.alpha_grid",
}


def _key(path: str) -> str | None:
    return _KEYS.get(path, path)


@cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


@cache
def _layout() -> dict:
    """{section: its keys}, top-level keys under "": the shape of every echo."""
    echo = echo_config(ExperimentConfig(task=TaskSpec(TASK_KINDS[0])), OutputOptions())
    layout = {name: set(value) for name, value in echo.items() if isinstance(value, dict)}
    layout[""] = {name for name, value in echo.items() if not isinstance(value, dict)}
    return layout


def _flatten(doc: dict) -> dict:
    """{document key: value}; unknown keys and non-object sections raise."""
    layout = _layout()
    flat = {}
    for name, value in doc.items():
        if name in layout[""]:
            flat[name] = value
        elif name not in layout:
            raise SchemaError(name, "unknown key")
        elif not isinstance(value, dict):
            raise SchemaError(name, "must be an object")
        else:
            for key, item in value.items():
                if key not in layout[name]:
                    raise SchemaError(f"{name}.{key}", "unknown key")
                flat[f"{name}.{key}"] = item
    return flat


def _build(cls, prefix: str, flat: dict, base=None):
    """``base``, or ``cls`` built from its field defaults, with every field
    the document sets, its value passed unchanged. A section field is built
    from its own section over the field's default instance. A rule a spec
    breaks is re-raised under its document key."""
    kwargs = {}
    for f in fields(cls):
        hint, key = _hints(cls)[f.name], _key(prefix + f.name)
        if is_dataclass(hint):
            default = f.default if is_dataclass(f.default) else None
            kwargs[f.name] = _build(hint, f"{prefix}{f.name}.", flat, default)
        elif key in flat:
            kwargs[f.name] = flat[key]
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except SchemaError as exc:
        raise SchemaError(_key(prefix + exc.key), exc.message) from None


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError (JSON is UTF-8), too deep
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
    flat = _flatten(doc)
    kind = flat.setdefault("task.kind", task_kind)
    if kind is None:
        raise SchemaError("task.kind", "missing (no task kind given by command or config)")
    if task_kind is not None and kind != task_kind:
        raise SchemaError("task.kind", f"config says {kind!r} but the command runs {task_kind!r}")
    return _build(ExperimentConfig, "", flat), _build(OutputOptions, "output.", flat)


def _dump(obj, prefix: str, doc: dict) -> dict:
    """Write each field of ``obj`` into ``doc`` under its document key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _dump(value, f"{prefix}{f.name}.", doc)
            continue
        key = _key(prefix + f.name)
        if key is None:
            continue
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = _to_json(value)
    return doc


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def echo_config(config: ExperimentConfig, output: OutputOptions) -> dict:
    """A schema-shaped document reproducing the run; derived seeds stay null
    so the master seed remains the single source of randomness."""
    return _dump(output, "output.", _dump(config, "", {}))


def config_hash(echo: dict) -> str:
    """First 8 hex digits of the canonical-JSON SHA-256 of the echo."""
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def dump_echo(echo: dict) -> str:
    return json.dumps(echo, indent=2, sort_keys=True) + "\n"
