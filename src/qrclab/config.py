"""Strict JSON config schema for the CLI, derived from the spec dataclasses.

``_paths()`` is its one table: each field path (``task.T``, ``alpha``,
``output.dir``) and its document key, from one walk of a default
``ExperimentConfig`` and of ``OutputOptions``. A key is its field's path
except where ``_KEYS`` says otherwise (``alpha`` sits in ``readout``), and a
field ``_KEYS`` maps to None has no key. Parsing maps each key to its path
and sets the paths in table order with ``experiment._with_fields``, each
value unchanged: each spec's ``__post_init__`` checks and stores its fields,
``ExperimentConfig``'s the rules that span sections, and the first rule
broken is reported under its key. Unknown keys are rejected by name. The
echo writes every field under its key, omitted ones at their defaults, so a
config_echo.json re-parses to the same run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from operator import attrgetter

from .errors import SchemaError
from .experiment import ExperimentConfig, _with_fields
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
        # a path that cannot be made fails here, not at the bundle's mkdir after
        # the run; an undecodable argv byte is a surrogate escape, and encodes
        if "\x00" in self.dir:
            raise SchemaError("dir", f"must not hold a NUL character, got {self.dir!r}")
        try:
            os.fsencode(self.dir)
        except UnicodeEncodeError:
            raise SchemaError("dir", f"must encode as a file system path, got {self.dir!r}") from None
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

_DEFAULT = ExperimentConfig(task=TaskSpec(TASK_KINDS[0]))  # what a parse sets the document's fields on


def _walk(obj, prefix: str = ""):
    """Each field path of ``obj`` in field order, a section's fields in its place."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        yield from _walk(value, f"{prefix}{f.name}.") if is_dataclass(value) else [prefix + f.name]


@cache
def _paths() -> dict:
    """{field path: document key} of every field with a key, in field order;
    the output options come last, under ``output.``."""
    paths = [*_walk(_DEFAULT), *_walk(OutputOptions(), "output.")]
    return {path: key for path in paths if (key := _KEYS.get(path, path)) is not None}


def _flatten(doc: dict) -> dict:
    """{field path: value}; unknown keys and non-object sections raise."""
    keys = {key: path for path, key in _paths().items()}
    sections = {key.partition(".")[0] for key in keys if "." in key}
    flat = {}
    for name, value in doc.items():
        if name in sections:
            if not isinstance(value, dict):
                raise SchemaError(name, "must be an object")
            for key, item in value.items():
                if f"{name}.{key}" not in keys:
                    raise SchemaError(f"{name}.{key}", "unknown key")
                flat[keys[f"{name}.{key}"]] = item
        elif name in keys and "." not in name:  # a top-level key: "task.T" is not one
            flat[keys[name]] = value
        else:
            raise SchemaError(name, "unknown key")
    return flat


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
    paths = _paths()
    flat = {path: flat[path] for path in paths if path in flat}  # table order: the first rule broken is reported
    output = {path.partition(".")[2]: flat.pop(path) for path in list(flat) if path.startswith("output.")}
    try:
        config = _with_fields(_DEFAULT, flat)
    except SchemaError as exc:
        raise SchemaError(paths.get(exc.key, exc.key), exc.message) from None
    try:
        return config, replace(OutputOptions(), **output)
    except SchemaError as exc:
        raise SchemaError(f"output.{exc.key}", exc.message) from None


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def echo_config(config: ExperimentConfig, output: OutputOptions) -> dict:
    """A schema-shaped document reproducing the run; derived seeds stay null
    so the master seed remains the single source of randomness."""
    doc = {}
    for path, key in _paths().items():
        head, _, rest = path.partition(".")
        value = attrgetter(rest)(output) if head == "output" else attrgetter(path)(config)
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = _to_json(value)
    return doc


def config_hash(echo: dict) -> str:
    """First 8 hex digits of the canonical-JSON SHA-256 of the echo."""
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def dump_echo(echo: dict) -> str:
    return json.dumps(echo, indent=2, sort_keys=True) + "\n"
