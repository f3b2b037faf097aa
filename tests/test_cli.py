"""Command line interface tests (run in-process through main)."""

import json
import multiprocessing
import os
import re
import time
from pathlib import Path

import pytest

from qrclab import cli, experiment
from qrclab.cli import main
from qrclab.config import OutputOptions
from qrclab.errors import DataError
from qrclab.experiment import confidence_term

FAST_CASE = {
    "task": {"T": 120},
    "reservoir": {"n_qubits": 3},
    "protocol": {"washout": 20, "train_fraction": 0.7},
}


def write_config(tmp_path: Path, doc: dict, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_dir_from(capsys) -> Path:
    out = capsys.readouterr().out
    match = re.search(r"run_dir: (.+)", out)
    assert match, f"no run_dir line in output:\n{out}"
    return Path(match.group(1))


class TestCaseCommands:
    def test_parity_bundle_contents(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CASE)
        code = main(["case-parity", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = run_dir_from(capsys)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert "train_accuracy" in metrics and "test_accuracy" in metrics
        assert (run_dir / "predictions.csv").exists()
        assert (run_dir / "features.csv").exists()
        assert (run_dir / "overlay.svg").exists()
        assert (run_dir / "config_echo.json").exists()

    def test_run_dir_name_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-memory", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        run_dir = run_dir_from(capsys)
        assert re.fullmatch(r"run_\d{8}_\d{6}_[0-9a-f]{8}", run_dir.name)

    def test_seed_override_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-parity", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "r")]) == 0
        echo = json.loads((run_dir_from(capsys) / "config_echo.json").read_text())
        assert echo["master_seed"] == 7

    def test_defaults_without_config(self, tmp_path, capsys):
        # full Table-style defaults: slower (T=600, N=4) but must work
        assert main(["case-memory", "--out", str(tmp_path / "r")]) == 0
        echo = json.loads((run_dir_from(capsys) / "config_echo.json").read_text())
        assert echo["reservoir"]["n_qubits"] == 4
        assert echo["task"]["kind"] == "stm"

    def test_features_flag_off(self, tmp_path, capsys):
        doc = dict(FAST_CASE) | {"output": {"features": False, "plots": False}}
        cfg = write_config(tmp_path, doc)
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        run_dir = run_dir_from(capsys)
        assert not (run_dir / "features.csv").exists()
        assert not (run_dir / "overlay.svg").exists()

    def test_metrics_summary_line_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CASE)
        main(["case-narma10", "--config", cfg, "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert "test_r2=" in out


class TestSchemaFailures:
    def test_unknown_key_names_offender(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"qbits": 4})
        assert main(["case-parity", "--config", cfg]) == 1
        assert "qbits" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["case-parity", "--config", str(path)]) == 1

    def test_config_not_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"task": {"T": 120}} \u00e9'.encode("latin-1"))
        assert main(["case-parity", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("error: <config>: not valid JSON")
        assert not (tmp_path / "r").exists()

    def test_config_nested_too_deep_exit_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["case-parity", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: <config>: not valid JSON") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_empty_out_flag_names_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where the default runs/ would land
        for command in ("case-parity", "theory-scan"):
            assert main([command, "--out", ""]) == 1
            assert capsys.readouterr().err == "error: --out: must be a non-empty string\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["runs/a\x00b", "runs/\ud800"], ids=["nul", "lone-surrogate"])
    def test_unmakeable_out_dir_fails_before_the_run(self, tmp_path, capsys, monkeypatch, bad):
        # a NUL byte, or a lone surrogate from a JSON escape, cannot be a
        # path: both fail as a keyed error before anything runs
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "run_case", lambda config: ran.append(config))
        cfg = write_config(tmp_path, {"output": {"dir": bad}})
        for args, key in ((["--config", cfg], "output.dir"), (["--out", bad], "--out")):
            assert main(["case-memory", *args]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.count("\n") == 1 and err.startswith(f"error: {key}: ")
        assert ran == []
        # an undecodable argv byte arrives as a surrogate escape, which is a path
        assert OutputOptions(dir="runs/\udcff").dir == "runs/\udcff"

    def test_kind_conflict(self, tmp_path):
        cfg = write_config(tmp_path, {"task": {"kind": "stm"}})
        assert main(["case-parity", "--config", cfg]) == 1

    def test_delta_zero(self, tmp_path):
        assert main(["theory-scan", "--delta", "0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["theory-scan", "--replicates", "1.5"], "--replicates: must be an integer, got '1.5'"),
            (["theory-scan", "--delta", "x"], "--delta: must be a number, got 'x'"),
            (["case-parity", "--seed", "abc"], "--seed: must be an integer, got 'abc'"),
        ],
        ids=["replicates", "delta", "seed"],
    )
    def test_malformed_numeric_flag_names_flag(self, tmp_path, capsys, argv, message):
        # one line and exit 1, as for any rule; not argparse's usage text and exit 2
        assert main(argv + ["--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_bad_qubits_flag(self, tmp_path):
        assert main(["theory-scan", "--qubits", "4,3", "--out", str(tmp_path)]) == 1
        assert main(["theory-scan", "--qubits", "x", "--out", str(tmp_path)]) == 1

    def test_scanned_width_errors_name_key(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        for qubits in ("1,2", "0,2"):
            assert main(["theory-scan", "--qubits", qubits, "--replicates", "1", "--out", out]) == 1
            err = capsys.readouterr().err
            assert "--qubits" in err and "n_qubits" in err
        # a pair valid at the config's width but outside a scanned one
        cfg = write_config(tmp_path, {"observables": {"zz": [[0, 3]]}})
        assert main(["theory-scan", "--config", cfg, "--qubits", "2,3", "--replicates", "1", "--out", out]) == 1
        assert "observables.zz" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "doc, key",
        [({"task": {"seed": 5}}, "task.seed"), ({"reservoir": {"seed": 7}}, "reservoir.seed"),
         ({"backend": {"shot_seed": 9}}, "backend.shot_seed")],
    )
    def test_scan_config_seed_names_key(self, tmp_path, capsys, doc, key):
        # every replicate derives its seeds from the master seed, so a seed
        # the config sets would be echoed but never used
        cfg = write_config(tmp_path, doc)
        argv = ["theory-scan", "--config", cfg, "--qubits", "2,3", "--replicates", "1", "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "r").exists()

    def test_seed_beyond_64_bits_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"master_seed": 2**64})
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert "master_seed" in capsys.readouterr().err
        for command in ("case-memory", "theory-scan"):
            assert main([command, "--seed", str(2**64), "--out", str(tmp_path / "r")]) == 1
            assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_non_integer_threads_names_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QRCLAB_THREADS", "two")
        assert main(["theory-scan", "--out", str(tmp_path / "r")]) == 1
        assert "QRCLAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_threads_names_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QRCLAB_THREADS", "-1")
        assert main(["theory-scan", "--out", str(tmp_path / "r")]) == 1
        assert "QRCLAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_zz_pairs_name_key(self, tmp_path, capsys):
        for pairs in ([[0, 0]], [[0, 1], [1, 0]], [[0, 9]], [[-1, 0]]):
            cfg = write_config(tmp_path, dict(FAST_CASE) | {"observables": {"zz": pairs}})
            assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
            assert "observables.zz" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_non_finite_readout_names_key(self, tmp_path, capsys):
        # json parses the non-standard NaN and Infinity literals
        for key, text in (("alpha", "NaN"), ("alpha", "Infinity"), ("alpha_grid", "[0.1, Infinity]")):
            path = tmp_path / "config.json"
            path.write_text(f'{{"readout": {{"{key}": {text}}}}}')
            assert main(["case-parity", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
            assert f"readout.{key}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_reservoir_wider_than_simulator_names_key(self, tmp_path, capsys):
        for n in (25, 10**400):
            cfg = write_config(tmp_path, dict(FAST_CASE) | {"reservoir": {"n_qubits": n}})
            assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
            assert "reservoir.n_qubits" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", [2**53 + 1, 10**20, 10**400], ids=["2**53+1", "10**20", "10**400"])
    @pytest.mark.parametrize("key", ["task.T", "backend.shots"])
    def test_count_beyond_float64_names_key(self, tmp_path, capsys, key, value):
        # the train/test split and the shot estimates count in float64, which
        # holds every count up to 2**53 exactly
        doc = {"task": {}, "backend": {"type": "shots"}, "mode": {"type": "reupload_k", "k": 3}}
        section, name = key.split(".")
        doc[section][name] = value
        cfg = write_config(tmp_path, doc)
        assert main(["case-memory", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "r").exists()

    def test_window_longer_than_series_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FAST_CASE) | {"mode": {"type": "reupload_k", "k": 121}})
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert "mode.k" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


    def test_too_short_series_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": {"T": 40}})
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert "task.T" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("case-memory", {"backend": {"type": "shots"}}, "backend.type"),
            ("case-memory", {"protocol": {"train_fraction": 0.001}}, "protocol.train_fraction"),
            ("case-memory", {"task": {"T": 101, "delay": 100}, "protocol": {"washout": 0}}, "task.T"),
            ("case-parity", {"mode": {"type": "reupload_k", "k": 600}}, "task.T"),
            ("case-narma10", {"task": {"T": 25}, "protocol": {"washout": 0}}, "task.T"),
            ("case-memory", {"task": {"T": 90, "delay": 100}, "protocol": {"washout": 0}}, "task.T"),
        ],
    )
    def test_rules_across_sections_name_key(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, task",
        [("case-parity", {"T": 90, "delay": 100}), ("case-memory", {"T": 90, "window": 100})],
    )
    def test_horizon_counts_only_the_task_own_lag(self, tmp_path, capsys, command, task):
        # parity never reads task.delay and stm never reads task.window
        cfg = write_config(tmp_path, {"task": task, "protocol": {"washout": 0}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def fail_with_data_error(*args, **kwargs):
    raise DataError("injected failure after setup")


GROUP_SCORES = experiment._group_scores


def end_worker(pool_task):
    """Ends a pool process mid-task, as the out-of-memory killer does; the
    calling process scores its own share of the tasks as usual."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return GROUP_SCORES(pool_task)


CALLER_TASKS = []


def end_worker_then_wait(pool_task):
    """``end_worker``, but each of the caller's tasks is counted in
    ``CALLER_TASKS`` and returns only once the pool processes have ended."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    CALLER_TASKS.append(pool_task)
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return GROUP_SCORES(pool_task)


class TestRuntimeFailures:
    def test_run_time_error_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_case", fail_with_data_error)
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: injected failure after setup\n"

    def test_no_partial_bundle_on_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_case", fail_with_data_error)
        out = tmp_path / "r"
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-parity", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "exc", [MemoryError(), MemoryError("Unable to allocate 3.00 GiB for an array with shape (24, 16777216)")]
    )
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, exc):
        # a run too wide for the machine: one error line, no traceback, no bundle
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_case", fail)
        out = tmp_path / "r"
        assert main(["case-memory", "--config", write_config(tmp_path, FAST_CASE), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
    def test_dead_worker_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        monkeypatch.setattr(experiment, "_group_scores", end_worker)
        out = tmp_path / "r"
        assert main(["theory-scan", "--qubits", "2,3", "--replicates", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process ended") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
    def test_dead_worker_ends_the_caller_share(self, tmp_path, capsys, monkeypatch):
        # 12 tasks on 2 workers: the caller's share is 6, but it stops at the
        # first of them that starts after the pool broke
        CALLER_TASKS.clear()
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        monkeypatch.setattr(experiment, "_group_scores", end_worker_then_wait)
        argv = ["theory-scan", "--qubits", "7", "--replicates", "12", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: a worker process ended")
        assert 1 <= len(CALLER_TASKS) < 6

    @pytest.mark.parametrize("command, entry", [("case-memory", "run_case"), ("theory-scan", "theory_scan")])
    @pytest.mark.parametrize("out", ["afile/x", "r/" + "a" * 300], ids=["under-a-file", "name-too-long"])
    def test_unusable_output_dir_exit_3_before_the_run(self, tmp_path, capsys, monkeypatch, command, entry, out):
        # the output dir is made before the run: one that cannot be made costs no run
        calls = []
        monkeypatch.setattr(cli, entry, lambda *args, **kwargs: calls.append(args))
        (tmp_path / "afile").write_text("")
        argv = [command, "--config", write_config(tmp_path, FAST_CASE), "--out", str(tmp_path / out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output bundle: ") and err.count("\n") == 1
        assert "Traceback" not in err and calls == []

    def test_bundle_name_taken_while_writing(self, tmp_path, capsys, monkeypatch):
        # another run takes the bundle name between this run's write and its
        # rename: this run's bundle goes to the next suffix, and both stay
        rename, taken = Path.rename, []

        def race(self, target):
            if not taken:
                Path(target).mkdir()
                (Path(target) / "metrics.json").write_text("{}")
                taken.append(Path(target))
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", race)
        out = tmp_path / "r"
        assert main(["case-parity", "--config", write_config(tmp_path, FAST_CASE), "--out", str(out)]) == 0
        run_dir = run_dir_from(capsys)
        assert run_dir == out / f"{taken[0].name}-2" and (run_dir / "config_echo.json").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted([taken[0].name, run_dir.name])
        assert [p.name for p in taken[0].iterdir()] == ["metrics.json"]

    def test_failed_write_leaves_no_bundle(self, tmp_path, capsys, monkeypatch):
        # the second file cannot be written: the first, and the temp dir, go
        cfg = write_config(tmp_path, FAST_CASE)
        write_bytes, written = Path.write_bytes, []

        def fail_second(self, data):
            if written:
                raise OSError(28, "No space left on device")
            written.append(self)
            return write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", fail_second)
        out = tmp_path / "r"
        assert main(["case-parity", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write output bundle")
        assert written and list(out.iterdir()) == []

    def test_unwritable_output_exit_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-parity", "--config", cfg, "--out", str(blocker)]) == 3

    @pytest.mark.parametrize("name", ["missing.json", "a-directory", ""])
    def test_unreadable_config_exit_3(self, tmp_path, capsys, name):
        # an empty --config is applied as given, not read as no config
        (tmp_path / "a-directory").mkdir()
        path = str(tmp_path / name) if name else ""
        assert main(["case-parity", "--config", path, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()


class TestTheoryScan:
    def test_scan_rows_match_qubits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": {"T": 100}, "protocol": {"washout": 20}})
        code = main([
            "theory-scan", "--config", cfg, "--qubits", "2,3,4",
            "--replicates", "2", "--delta", "0.1", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        run_dir = run_dir_from(capsys)
        lines = (run_dir / "scan.csv").read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        # 80 feature rows from step 20: 56 train, 24 test
        assert all(float(line.rsplit(",", 1)[1]) == confidence_term(24, 0.1) for line in lines[1:])
        assert (run_dir / "scan.svg").exists()

    def test_rerun_identical_scan_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": {"T": 100}, "protocol": {"washout": 20}})
        argv = ["theory-scan", "--config", cfg, "--qubits", "2,3",
                "--replicates", "2", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        first = (run_dir_from(capsys) / "scan.csv").read_bytes()
        assert main(argv) == 0
        second = (run_dir_from(capsys) / "scan.csv").read_bytes()
        assert first == second

    def test_too_short_series_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r"
        cfg = write_config(tmp_path, {"task": {"T": 40}})
        argv = ["theory-scan", "--config", cfg, "--qubits", "2,3", "--replicates", "1", "--out", str(out)]
        assert main(argv) == 1
        assert "task.T" in capsys.readouterr().err
        assert not out.exists()

    def test_run_time_error_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "theory_scan", fail_with_data_error)
        out = tmp_path / "r"
        argv = ["theory-scan", "--qubits", "2,3", "--replicates", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: injected failure after setup\n"
        assert not out.exists() or not any(out.iterdir())

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, {"task": {"T": 100}, "protocol": {"washout": 20}})
        argv = ["theory-scan", "--config", cfg, "--qubits", "2,3", "--replicates", "1", "--out", str(blocker)]
        assert main(argv) == 3
        assert "cannot write output bundle" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "config.json"]


class TestRoundTrip:
    def test_rerun_from_echo_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CASE)
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        first = run_dir_from(capsys)
        echo_path = first / "config_echo.json"
        assert main(["case-parity", "--config", str(echo_path)]) == 0
        second = run_dir_from(capsys)
        assert second != first
        for name in ("predictions.csv", "features.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
