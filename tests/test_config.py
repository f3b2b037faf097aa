"""Strict config schema tests."""

import pytest

from qrclab.config import (
    config_hash,
    dump_echo,
    echo_config,
    parse_config,
)
from qrclab.errors import ConfigurationError, SchemaError


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

    def test_dump_is_valid_json(self):
        import json

        cfg, out = parse_config({}, task_kind="stm")
        text = dump_echo(echo_config(cfg, out))
        assert json.loads(text)["master_seed"] == 42
