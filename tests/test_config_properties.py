"""Property tests of the config schema: echo round trips, and every mutated
document either parses or is rejected under a schema key, exit code 1."""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qrclab.cli import CASE_KINDS, main
from qrclab.config import dump_echo, echo_config, parse_config
from qrclab.errors import SchemaError

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=100)

COMMAND = {kind: command for command, kind in CASE_KINDS.items()}
SEEDS = st.integers(0, 2**64 - 1)
ALPHAS = st.floats(0.0, 1e6)


def _schema_paths() -> frozenset:
    cfg, out = parse_config({}, task_kind="stm")
    paths = set()
    for name, value in echo_config(cfg, out).items():
        paths.add(name)
        if isinstance(value, dict):
            paths.update(f"{name}.{key}" for key in value)
    return frozenset(paths)


SCHEMA_PATHS = _schema_paths()

# Keys a document keeps so that it stays valid: the others may be left to
# their defaults without breaking a rule that spans keys.
KEEP = {"task.kind", "task.T", "reservoir.n_qubits", "encoder.scheme", "observables.local_z", "observables.zz"}


@st.composite
def valid_docs(draw):
    n = draw(st.integers(2, 6))
    T = draw(st.integers(1, 1000))
    scheme = draw(st.sampled_from(["angle", "reupload"]))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True))
    zz = draw(st.sampled_from([None, "edges", "all_pairs", [list(p) if draw(st.booleans()) else [p[1], p[0]] for p in pairs]]))
    doc = {
        "master_seed": draw(SEEDS),
        "task": {
            "kind": draw(st.sampled_from(sorted(COMMAND))),
            "T": T,
            "seed": draw(st.none() | SEEDS),
            "delay": draw(st.integers(1, 50)),
            "window": draw(st.integers(2, 50)),
        },
        "reservoir": {
            "n_qubits": n,
            "depth": draw(st.integers(1, 5)),
            "topology": draw(st.sampled_from(["ring", "chain", "all_to_all"])),
            "seed": draw(st.none() | SEEDS),
        },
        "encoder": {
            "scheme": scheme,
            "layers": 1 if scheme == "angle" else draw(st.integers(1, 4)),
            "scale": "pi_linear",
        },
        "observables": {"local_z": draw(st.booleans()) or not zz, "zz": zz},
        "mode": {
            "type": draw(st.sampled_from(["recurrent", "reupload_k"])),
            "k": draw(st.integers(1, T) | st.just("full")),
        },
        "backend": {
            "type": draw(st.sampled_from(["ideal", "shots"])),
            "shots": draw(st.integers(1, 10**6)),
            "shot_seed": draw(st.none() | SEEDS),
        },
        "protocol": {
            "washout": draw(st.integers(0, 1000)),
            "train_fraction": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        },
        "readout": {"alpha": draw(ALPHAS), "alpha_grid": draw(st.none() | st.lists(ALPHAS, min_size=1, max_size=4))},
        "output": {"dir": draw(st.text("ab/._", min_size=1, max_size=6)), "plots": draw(st.booleans()), "features": draw(st.booleans())},
    }
    for name, section in doc.items():
        if isinstance(section, dict):
            doc[name] = {k: v for k, v in section.items() if f"{name}.{k}" in KEEP or draw(st.booleans())}
    return doc


def json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.sampled_from([-1, 0, 1, 2, 2**64 - 1, 2**64, 10**400, "full", "edges", ""])
        | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text("ab.", max_size=3)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab.", max_size=3), inner, max_size=2),
        max_leaves=5,
    )


def _assert_round_trip(cfg, out, kind):
    echo = echo_config(cfg, out)
    assert parse_config(json.loads(dump_echo(echo)), task_kind=kind) == (cfg, out)
    assert echo_config(*parse_config(echo, task_kind=kind)) == echo


@PROPERTIES
@given(valid_docs())
def test_parse_of_echo_is_a_fixed_point(doc):
    kind = doc["task"]["kind"]
    cfg, out = parse_config(doc, task_kind=kind)
    _assert_round_trip(cfg, out, kind)


@PROPERTIES
@given(valid_docs(), st.sampled_from(sorted(SCHEMA_PATHS | {"bogus", "task.bogus", "mode.kind"})), json_values())
def test_mutated_document_parses_or_names_a_schema_key(doc, path, value):
    kind = doc["task"]["kind"]
    section, _, key = path.rpartition(".")
    target = doc.setdefault(section, {}) if section else doc
    target[key] = value
    try:
        cfg, out = parse_config(doc, task_kind=kind)
    except SchemaError as exc:
        named = exc.key  # a schema key, or the mutated key or one inside it
        assert named in SCHEMA_PATHS or named == path or named.startswith(path + ".")
    else:
        _assert_round_trip(cfg, out, kind)
        return

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([COMMAND[kind], "--config", str(config), "--out", str(Path(tmp) / "runs")])
        assert code == 1
        assert named in err.getvalue()
        assert not (Path(tmp) / "runs").exists()
