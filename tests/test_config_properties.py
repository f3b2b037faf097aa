"""Property tests of the config schema: echo round trips, every mutated
document either parses or is rejected under a schema key, exit code 1, and
every document that parses also runs."""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qrclab.cli import CASE_KINDS, main
from qrclab.config import dump_echo, echo_config, parse_config
from qrclab.errors import DataError, FitError, MetricError, SchemaError
from qrclab.experiment import BackendSpec, ModeSpec, ProtocolSpec, run_case
from qrclab.tasks import TaskSpec

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

@st.composite
def valid_docs(draw, max_T=2000, max_n=6, max_shots=10**6):
    """A document that meets every config rule by construction. Each key is
    set to a drawn value or left to its default; a key a rule spans is
    decided before the keys whose range it bounds, so every range is drawn
    from values that keep the document valid. ``max_T``, ``max_n`` and
    ``max_shots`` only bound the runtime of a test that runs the document;
    the washout range is [0, 1000] at the default ``max_T``."""
    doc = {}

    def setting(path, values, default=None, always=False):
        """The value the config holds at ``path``: drawn and set, or left to
        ``default``."""
        if not (always or draw(st.booleans())):
            return default
        section, _, key = path.rpartition(".")
        value = draw(values)
        (doc.setdefault(section, {}) if section else doc)[key] = value
        return value

    setting("master_seed", SEEDS)
    kind = setting("task.kind", st.sampled_from(sorted(COMMAND)), always=True)
    delay = setting("task.delay", st.integers(1, 50), TaskSpec.delay)
    window = setting("task.window", st.integers(2, 50), TaskSpec.window)
    # room for T: washout + the widest horizon (50) + 1 <= max_T
    washout = setting("protocol.washout", st.integers(0, 10) | st.integers(0, min(1000, max_T - 51)), ProtocolSpec.washout)
    first_target = TaskSpec(kind, delay=delay, window=window).valid_from
    shortest = max(washout + max(delay, window, 10) + 1, max(washout, first_target) + 2, 30 if kind == "narma10" else 1)
    T = setting("task.T", st.integers(shortest, shortest + 3) | st.integers(shortest, max_T), always=True)
    setting("task.seed", st.none() | SEEDS)

    n = setting("reservoir.n_qubits", st.integers(2, max_n), always=True)
    setting("reservoir.depth", st.integers(1, 5))
    setting("reservoir.topology", st.sampled_from(["ring", "chain", "all_to_all"]))
    setting("reservoir.seed", st.none() | SEEDS)
    if setting("encoder.scheme", st.sampled_from(["angle", "reupload"]), always=True) == "reupload":
        setting("encoder.layers", st.integers(1, 4))
    setting("encoder.scale", st.just("pi_linear"))

    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True))
    explicit = [list(p) if draw(st.booleans()) else [p[1], p[0]] for p in pairs]
    zz = setting("observables.zz", st.sampled_from([None, "edges", "all_pairs", explicit]), always=True)
    setting("observables.local_z", st.just(True) if not zz else st.booleans(), always=True)

    # shots needs reupload_k; a key holding its default may be left out
    mode, backend = draw(st.sampled_from([("recurrent", "ideal"), ("reupload_k", "ideal"), ("reupload_k", "shots")]))
    setting("mode.type", st.just(mode), always=mode != ModeSpec.kind)
    setting("backend.type", st.just(backend), always=backend != BackendSpec.kind)
    k = setting("mode.k", st.integers(1, T - 1) | st.just("full"), ModeSpec.k)  # T - 1 keeps 2 rows
    setting("backend.shots", st.integers(1, max_shots))
    setting("backend.shot_seed", st.none() | SEEDS)

    rows = T - max(washout, first_target, k - 1 if mode == "reupload_k" and k != "full" else 0)
    # 1 / rows may round down; one float above it, the split keeps a train row
    setting("protocol.train_fraction", st.floats(math.nextafter(1 / rows, 1), 1.0, exclude_max=True))
    setting("readout.alpha", ALPHAS)
    setting("readout.alpha_grid", st.none() | st.lists(ALPHAS, min_size=1, max_size=4))
    setting("output.dir", st.text("ab/._", min_size=1, max_size=6))
    setting("output.plots", st.booleans())
    setting("output.features", st.booleans())
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


# Bounds on a document that is run, for its runtime only, and values for
# the keys that rules span within them; short series are drawn more often.
RUN_BOUNDS = {"max_T": 150, "max_n": 4, "max_shots": 256}
SPANNED = {
    "task.kind": st.sampled_from(sorted(COMMAND)),
    "task.T": st.integers(1, 40) | st.integers(1, RUN_BOUNDS["max_T"]),
    "task.delay": st.integers(1, 60),
    "task.window": st.integers(2, 60),
    "mode.type": st.sampled_from(["recurrent", "reupload_k"]),
    "mode.k": st.integers(1, RUN_BOUNDS["max_T"]) | st.just("full"),
    "backend.type": st.sampled_from(["ideal", "shots"]),
    "protocol.washout": st.integers(0, 20) | st.integers(0, RUN_BOUNDS["max_T"]),
    "observables.zz": st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True), min_size=1, max_size=2),
    "protocol.train_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
}


@PROPERTIES
@given(valid_docs(**RUN_BOUNDS), st.lists(st.sampled_from(sorted(SPANNED)), min_size=1, max_size=3, unique=True), st.data())
def test_document_that_parses_also_runs(doc, paths, data):
    """A valid document, with up to three keys that rules span set or
    dropped, either is rejected by the schema or runs: only the data, the
    fit or a metric may stop it, never a ConfigurationError. RUN_BOUNDS caps
    T, n and shots to bound the runtime and for no other reason."""
    for path in paths:
        section, _, key = path.rpartition(".")
        if data.draw(st.booleans()):
            doc.setdefault(section, {})[key] = data.draw(SPANNED[path])
        else:
            doc.get(section, {}).pop(key, None)
    try:
        cfg, _ = parse_config(doc, task_kind=doc["task"].get("kind"))
    except SchemaError:
        return
    try:
        run_case(cfg)
    except (DataError, FitError, MetricError):
        pass
