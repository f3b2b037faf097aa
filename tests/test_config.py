"""Strict config schema tests."""

import json
import re

import numpy as np
import pytest

from qrclab.config import (
    OutputOptions,
    config_hash,
    dump_echo,
    echo_config,
    parse_config,
)
from qrclab.encoding import EncoderSpec
from qrclab.errors import ConfigurationError, SchemaError
from qrclab.experiment import BackendSpec, ExperimentConfig, ModeSpec, ObservableSpec, ProtocolSpec
from qrclab.reservoir import ReservoirSpec
from qrclab.tasks import TaskSpec


class TestDefaults:
    def test_empty_doc_fills_reference_defaults(self):
        cfg, out = parse_config({}, task_kind="stm")
        assert cfg.task.kind == "stm" and cfg.task.T == 600
        assert cfg.reservoir.n_qubits == 4 and cfg.reservoir.depth == 3
        assert cfg.reservoir.topology == "ring"
        assert cfg.encoder.scheme == "angle" and cfg.encoder.layers == 1
        assert cfg.observables.local_z is True and cfg.observables.zz is None
        assert cfg.mode.kind == "recurrent" and cfg.mode.k == 1
        assert cfg.backend.kind == "ideal" and cfg.backend.shots == 1024
        assert cfg.protocol.washout == 50 and cfg.protocol.train_fraction == 0.7
        assert cfg.alpha == 1e-2
        assert cfg.master_seed == 42
        assert out.dir == "runs" and out.plots and out.features

    def test_kind_required_somewhere(self):
        with pytest.raises(SchemaError, match="task.kind"):
            parse_config({}, task_kind=None)

    def test_command_kind_conflict(self):
        with pytest.raises(SchemaError, match="task.kind"):
            parse_config({"task": {"kind": "stm"}}, task_kind="parity")


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="qbits"):
            parse_config({"qbits": 4}, task_kind="stm")

    @pytest.mark.parametrize("key", ["task.T", "readout.alpha", ""])
    def test_dotted_or_empty_top_level_key_is_unknown(self, key):
        # a document key names a field only inside its section object
        with pytest.raises(SchemaError, match=f"^{re.escape(key)}: unknown key$"):
            parse_config({key: 5}, task_kind="stm")
        with pytest.raises(SchemaError, match=f"^{re.escape(key)}: unknown key$"):
            parse_config({key: {"master_seed": 3}}, task_kind="stm")

    def test_unknown_nested_key(self):
        with pytest.raises(SchemaError, match="reservoir.qubits"):
            parse_config({"reservoir": {"qubits": 4}}, task_kind="stm")

    def test_type_errors_name_key(self):
        with pytest.raises(SchemaError, match="task.T"):
            parse_config({"task": {"T": "long"}}, task_kind="stm")
        with pytest.raises(SchemaError, match="backend.shots"):
            parse_config({"backend": {"shots": 0}}, task_kind="stm")
        with pytest.raises(SchemaError, match="observables.local_z"):
            parse_config({"observables": {"local_z": 1}}, task_kind="stm")

    def test_enum_violations(self):
        with pytest.raises(SchemaError, match="reservoir.topology"):
            parse_config({"reservoir": {"topology": "torus"}}, task_kind="stm")
        with pytest.raises(SchemaError, match="mode.type"):
            parse_config({"mode": {"type": "streamed"}}, task_kind="stm")

    def test_seeds_limited_to_64_bits(self):
        with pytest.raises(SchemaError, match="master_seed"):
            parse_config({"master_seed": 2**64}, task_kind="stm")
        for section, key in (("task", "seed"), ("reservoir", "seed"), ("backend", "shot_seed")):
            with pytest.raises(SchemaError, match=f"{section}.{key}"):
                parse_config({section: {key: 2**64}}, task_kind="stm")
        cfg, _ = parse_config({"master_seed": 2**64 - 1}, task_kind="stm")
        assert cfg.master_seed == 2**64 - 1

    def test_train_fraction_bounds(self):
        with pytest.raises(SchemaError, match="protocol.train_fraction"):
            parse_config({"protocol": {"train_fraction": 1.0}}, task_kind="stm")

    def test_angle_scheme_layer_conflict(self):
        with pytest.raises(SchemaError, match="encoder.layers"):
            parse_config({"encoder": {"scheme": "angle", "layers": 3}}, task_kind="stm")

    def test_alpha_grid_validation(self):
        with pytest.raises(SchemaError, match="readout.alpha_grid"):
            parse_config({"readout": {"alpha_grid": []}}, task_kind="stm")
        with pytest.raises(SchemaError, match="readout.alpha_grid"):
            parse_config({"readout": {"alpha_grid": [-1.0]}}, task_kind="stm")

    def test_zz_forms(self):
        cfg, _ = parse_config({"observables": {"zz": "all_pairs"}}, task_kind="stm")
        assert cfg.observables.zz == "all_pairs"
        cfg, _ = parse_config({"observables": {"zz": [[0, 1], [1, 2]]}}, task_kind="stm")
        assert cfg.observables.zz == ((0, 1), (1, 2))
        with pytest.raises(SchemaError, match="observables.zz"):
            parse_config({"observables": {"zz": "ladder"}}, task_kind="stm")
        with pytest.raises(SchemaError, match="observables.zz"):
            parse_config({"observables": {"zz": [[0, 1, 2]]}}, task_kind="stm")

    def test_zz_pairs_name_key(self):
        for pairs in ([[0, 0]], [[0, 1], [1, 0]], [[0, 9]], [[-1, 0]]):
            with pytest.raises(SchemaError, match="observables.zz"):
                parse_config({"observables": {"zz": pairs}}, task_kind="stm")

    def test_non_finite_numbers_rejected(self):
        for section, key, value in (
            ("readout", "alpha", float("nan")),
            ("readout", "alpha", float("inf")),
            ("readout", "alpha_grid", [0.1, float("inf")]),
            ("protocol", "train_fraction", float("nan")),
        ):
            with pytest.raises(SchemaError, match=f"{section}.{key}"):
                parse_config({section: {key: value}}, task_kind="stm")

    def test_bools_are_not_numbers(self):
        for section, key in (("task", "T"), ("readout", "alpha"), ("mode", "k"), ("task", "seed")):
            with pytest.raises(SchemaError, match=f"{section}.{key}"):
                parse_config({section: {key: True}}, task_kind="stm")

    def test_window_longer_than_series(self):
        doc = {"task": {"T": 100}, "mode": {"type": "reupload_k", "k": 101}}
        with pytest.raises(SchemaError, match="mode.k"):
            parse_config(doc, task_kind="stm")
        doc["mode"]["k"] = 100  # fits the series, but keeps one row: no train/test split
        with pytest.raises(SchemaError, match="task.T"):
            parse_config(doc, task_kind="stm")
        doc["mode"]["k"] = 99
        assert parse_config(doc, task_kind="stm")[0].mode.k == 99

    def test_schema_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="reservoir.depth"):
            parse_config({"reservoir": {"depth": 0}}, task_kind="stm")
        # sections are checked in field order, whatever the document's order
        with pytest.raises(ConfigurationError, match=r"^task\.T: must be in \[1, 9007199254740992\], got 0$"):
            parse_config({"reservoir": {"depth": 0}, "task": {"T": 0}}, task_kind="stm")


class TestEcho:
    def test_round_trip_identity(self):
        doc = {
            "master_seed": 9,
            "task": {"kind": "parity", "T": 300, "window": 3},
            "reservoir": {"n_qubits": 3, "topology": "chain"},
            "encoder": {"scheme": "reupload", "layers": 2},
            "observables": {"zz": "edges"},
            "mode": {"type": "reupload_k", "k": 3},
            "backend": {"type": "shots", "shots": 256, "shot_seed": 4},
            "protocol": {"washout": 20, "train_fraction": 0.6},
            "readout": {"alpha": 0.1, "alpha_grid": [0.01, 0.1]},
            "output": {"dir": "out", "plots": False, "features": False},
        }
        cfg, out = parse_config(doc, task_kind="parity")
        echo = echo_config(cfg, out)
        cfg2, out2 = parse_config(echo, task_kind="parity")
        assert cfg2 == cfg and out2 == out
        assert echo_config(cfg2, out2) == echo

    def test_full_window_round_trips(self):
        doc = {"encoder": {"scheme": "reupload"}, "mode": {"type": "reupload_k", "k": "full"}}
        cfg, out = parse_config(doc, task_kind="stm")
        assert cfg.mode.k == "full"
        echo = echo_config(cfg, out)
        assert echo["mode"]["k"] == "full" and "interleave_seed" not in echo["encoder"]
        assert parse_config(echo, task_kind="stm") == (cfg, out)

    def test_echo_parses_under_strict_schema(self):
        cfg, out = parse_config({}, task_kind="narma10")
        echo = echo_config(cfg, out)
        parse_config(echo, task_kind="narma10")  # must not raise

    def test_hash_stable_and_sensitive(self):
        cfg, out = parse_config({}, task_kind="stm")
        echo = echo_config(cfg, out)
        h1 = config_hash(echo)
        assert h1 == config_hash(echo)
        assert len(h1) == 8
        cfg2, out2 = parse_config({"master_seed": 7}, task_kind="stm")
        assert config_hash(echo_config(cfg2, out2)) != h1

    @pytest.mark.parametrize(
        "kind, doc, digest",
        [
            ("stm", {}, "6997f25e"),
            ("parity", {}, "9d000b84"),
            ("narma10", {}, "97122c5e"),
            ("stm", {"readout": {"alpha": 1, "alpha_grid": [0, 1, 0.5]}, "observables": {"zz": [[1, 0], [2, 3]]},
                     "mode": {"type": "reupload_k", "k": 3}}, "5364b7b0"),
        ],
        ids=["stm", "parity", "narma10", "echo"],
    )
    def test_hash_pinned(self, kind, doc, digest):
        # the echo's keys and values, not just its self-consistency: a
        # changed key layout or default changes every bundle's config hash
        assert config_hash(echo_config(*parse_config(doc, task_kind=kind))) == digest

    def test_dump_is_valid_json(self):
        import json

        cfg, out = parse_config({}, task_kind="stm")
        text = dump_echo(echo_config(cfg, out))
        assert json.loads(text)["master_seed"] == 42


class TestIntegerFields:
    """Every integer field of a spec rejects a float or a bool when the spec
    is built, keyed by the field; a numpy integer is an integer."""

    CASES = [
        ("T", lambda v: TaskSpec("stm", T=v), 200.5),
        ("delay", lambda v: TaskSpec("stm", delay=v), 2.5),
        ("window", lambda v: TaskSpec("parity", window=v), 3.0),
        ("n_qubits", lambda v: ReservoirSpec(n_qubits=v), 4.0),
        ("depth", lambda v: ReservoirSpec(n_qubits=4, depth=v), True),
        ("layers", lambda v: EncoderSpec(layers=v), 1.0),
        ("k", lambda v: ModeSpec(kind="reupload_k", k=v), True),
        ("shots", lambda v: BackendSpec(kind="shots", shots=v), 64.0),
        ("washout", lambda v: ProtocolSpec(washout=v), True),
    ]

    @pytest.mark.parametrize("key, build, value", CASES, ids=[c[0] for c in CASES])
    def test_non_integer_rejected(self, key, build, value):
        with pytest.raises(SchemaError, match=f"^{key}: must be an integer, got {value!r}$"):
            build(value)

    @pytest.mark.parametrize("key, build, value", CASES, ids=[c[0] for c in CASES])
    def test_numpy_integer_accepted(self, key, build, value):
        assert getattr(build(np.int64(value)), key) == int(value)

    def test_k_is_an_integer_or_full(self):
        assert ModeSpec(kind="reupload_k", k="full").k == "full"
        with pytest.raises(SchemaError, match="^k: must be an integer >= 1 or 'full', got 'half'$"):
            ModeSpec(kind="reupload_k", k="half")


STM = TaskSpec("stm")


class TestSpecFields:
    """Every spec field is checked and stored by its spec, however the spec
    is built: a value of the wrong kind raises SchemaError keyed by the
    field, and a numpy number is stored as a Python number."""

    CASES = [
        ("zz", lambda: ObservableSpec(zz=((0.5, 1.7),)), "must be an integer, got 0.5"),
        ("alpha", lambda: ExperimentConfig(STM, alpha=True), "must be a finite number, got True"),
        ("alpha", lambda: ExperimentConfig(STM, alpha=float("nan")), "must be a finite number, got nan"),
        ("alpha", lambda: ExperimentConfig(STM, alpha="x"), "must be a finite number, got 'x'"),
        ("train_fraction", lambda: ProtocolSpec(train_fraction="0.7"), "must be a finite number, got '0.7'"),
        ("alpha_grid", lambda: ExperimentConfig(STM, alpha_grid="ab"), "must be a non-empty list of numbers >= 0"),
        ("local_z", lambda: ObservableSpec(local_z="no"), "must be true or false, got 'no'"),
        ("plots", lambda: OutputOptions(plots="no"), "must be true or false, got 'no'"),
        ("dir", lambda: OutputOptions(dir=5), "must be a non-empty string"),
        ("task", lambda: ExperimentConfig(task="stm"), "must be a TaskSpec, got 'stm'"),
        ("reservoir", lambda: ExperimentConfig(STM, reservoir=5), "must be a ReservoirSpec, got 5"),
        ("mode", lambda: ExperimentConfig(STM, mode="recurrent"), "must be a ModeSpec, got 'recurrent'"),
    ]
    IDS = ["zz-float", "alpha-bool", "alpha-nan", "alpha-str", "train_fraction-str", "alpha_grid-str",
           "local_z-str", "plots-str", "dir-int", "task-str", "reservoir-int", "mode-str"]

    @pytest.mark.parametrize("key, build, message", CASES, ids=IDS)
    def test_wrong_value_names_the_field(self, key, build, message):
        with pytest.raises(SchemaError, match=f"^{key}: {re.escape(message)}$"):
            build()

    HUGE = [
        ("delay", lambda: TaskSpec("stm", delay=-(10**5000)), "must be >= 1, got a negative integer of 16610 bits"),
        ("alpha", lambda: ExperimentConfig(STM, alpha=10**5000), "must be a finite number, got an integer of 16610 bits"),
        ("seed", lambda: TaskSpec("stm", seed=10**5000), "must be in [0, 2**64), got an integer of 16610 bits"),
        ("mode.k", lambda: ExperimentConfig(STM, mode=ModeSpec(kind="reupload_k", k=10**5000)),
         "window an integer of 16610 bits is longer than the series (task.T = 600)"),
        ("observables.zz", lambda: ExperimentConfig(STM, observables=ObservableSpec(zz=((0, 10**5000),))),
         "pair (0, an integer of 16610 bits) out of range for N=4"),
    ]

    @pytest.mark.parametrize("key, build, message", HUGE, ids=[c[0] for c in HUGE])
    def test_huge_integer_shown_by_its_size(self, key, build, message):
        # an integer of more than 4,300 digits cannot be printed: the message
        # gives its size, so the error is still the keyed SchemaError
        with pytest.raises(SchemaError, match=f"^{key}: {re.escape(message)}$"):
            build()

    def test_numpy_integer_echo_re_parses(self):
        cfg = ExperimentConfig(TaskSpec("stm", T=np.int64(200)), reservoir=ReservoirSpec(n_qubits=np.int64(4)))
        echo = json.loads(dump_echo(echo_config(cfg, OutputOptions())))
        assert echo["task"]["T"] == 200
        assert parse_config(echo, task_kind="stm") == (cfg, OutputOptions())

    def test_numpy_numbers_stored_as_python_numbers(self):
        cfg = ExperimentConfig(
            TaskSpec("stm", T=np.int32(200), seed=np.uint64(7)),
            protocol=ProtocolSpec(train_fraction=np.float32(0.5)),
            alpha=np.float64(0.25),
            alpha_grid=[np.int64(1), np.float32(0.5)],
        )
        assert type(cfg.task.T) is int and type(cfg.task.seed) is int
        assert type(cfg.protocol.train_fraction) is float and type(cfg.alpha) is float
        assert cfg.alpha_grid == (1.0, 0.5) and all(type(a) is float for a in cfg.alpha_grid)
