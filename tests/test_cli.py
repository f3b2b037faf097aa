"""Command line interface tests (run in-process through main)."""

import errno
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qrclab import cli, experiment, tasks
from qrclab.cli import main
from qrclab.config import OutputOptions
from qrclab.errors import DataError
from qrclab.experiment import confidence_term
from qrclab.sim import child_seed

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

    def test_config_not_an_object_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [FAST_CASE])
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: <config>: top level must be an object\n"
        assert not (tmp_path / "r").exists()

    def test_negative_alpha_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"readout": {"alpha": -1}})
        assert main(["case-parity", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: readout.alpha: must be >= 0, got -1.0\n"
        assert not (tmp_path / "r").exists()

    def test_kind_conflict(self, tmp_path):
        cfg = write_config(tmp_path, {"task": {"kind": "stm"}})
        assert main(["case-parity", "--config", cfg]) == 1

    def test_delta_zero(self, tmp_path):
        assert main(["theory-scan", "--delta", "0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["theory-scan", "--replicates", "1.5"], "argument --replicates: invalid int value: '1.5'"),
            (["theory-scan", "--delta", "x"], "argument --delta: invalid float value: 'x'"),
            (["case-parity", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["theory-scan", "--qubits", "2,x"], "argument --qubits: invalid int_list value: '2,x'"),
        ],
        ids=["replicates", "delta", "seed", "qubits"],
    )
    def test_malformed_numeric_flag_names_flag(self, tmp_path, capsys, argv, message):
        # argparse's message on one line and exit 1, as for any rule; not its
        # usage text and exit 2
        assert main(argv + ["--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["case-parity", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
            (["case-parity", "--seed"], "argument --seed: expected one argument"),
        ],
        ids=["unknown-flag", "no-command", "flag-without-value"],
    )
    def test_command_line_argparse_rejects_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        # argparse's message on one line and exit 1, as for any bad flag; not
        # its usage text and SystemExit(2), the code of a failed run
        monkeypatch.chdir(tmp_path)  # where the default runs/ would land
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["theory-scan", "--help"]], ids=["top", "command"])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: qrclab") and captured.err == ""

    def test_bad_qubits_flag(self, tmp_path, capsys):
        assert main(["theory-scan", "--qubits", "4,3", "--out", str(tmp_path)]) == 1
        assert main(["theory-scan", "--qubits", "x", "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(["theory-scan", "--qubits", ",", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --qubits: must name at least one width\n"

    def test_scanned_width_errors_name_key(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        for qubits in ("1,2", "0,2"):
            assert main(["theory-scan", "--qubits", qubits, "--replicates", "1", "--out", out]) == 1
            err = capsys.readouterr().err
            n = qubits[0]  # the first width, the one out of range
            assert err == f"error: --qubits: width {n}: reservoir.n_qubits: must be in [2, 24], got {n}\n"
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


def end_worker(task):
    """Ends a worker process mid-task, as the out-of-memory killer does; the
    calling process scores its own share of the tasks as usual."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return GROUP_SCORES(task)


CALLER_TASKS = []
FAILURE = {}  # "path": the log fail_in_task appends to; "seed": the replicate seed whose task fails


def fail_in_task(task):
    """``_group_scores`` after a 0.2 s sleep, except that the task of the
    replicate seed ``FAILURE["seed"]`` raises DataError at once. The failure
    and each finished call append one line to ``FAILURE["path"]``; forked
    worker processes inherit both."""
    failed = task[0][0].master_seed == FAILURE["seed"]
    if not failed:
        time.sleep(0.2)
        scores = GROUP_SCORES(task)
    with open(FAILURE["path"], "a", encoding="utf-8") as log:
        log.write("failed\n" if failed else "done\n")
    if failed:
        raise DataError("injected failure in one task")
    return scores


def failing_fork_error():
    """The error a fork gives at a process limit (EAGAIN)."""
    return BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def failing_fork():
    raise failing_fork_error()


# Forks one worker process, then fails the second fork, as a process limit
# would; exits with main()'s code.
SECOND_FORK_FAILS = """
import errno, os, sys
from qrclab.cli import main
fork, forks = os.fork, []
def second_fork_fails():
    forks.append(1)
    if len(forks) > 1:
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return fork()
os.fork = second_fork_fails
sys.exit(main(sys.argv[1:]))
"""


# Starts every worker process by spawn and SIGKILLs it as soon as it is
# spawned, before it can read anything; exits with main()'s code.
SPAWNED_WORKER_KILLED = """
import multiprocessing, multiprocessing.util, os, signal, sys
from qrclab.cli import main
spawnv_passfds = multiprocessing.util.spawnv_passfds
def spawn_then_kill(path, args, passfds):
    pid = spawnv_passfds(path, args, passfds)
    if "--multiprocessing-fork" in args:  # a worker, not the resource tracker
        os.kill(pid, signal.SIGKILL)
    return pid
multiprocessing.util.spawnv_passfds = spawn_then_kill
multiprocessing.set_start_method("spawn")
sys.exit(main(sys.argv[1:]))
"""

# Runs main() with tasks.NARMA_DIVERGENCE_BOUND set to the first argument.
NARMA_BOUND = """
import sys
from qrclab import tasks
from qrclab.cli import main
tasks.NARMA_DIVERGENCE_BOUND = float(sys.argv[1])
sys.exit(main(sys.argv[2:]))
"""


def run_in_session(args, threads=1, timeout=60):
    """Run ``python <args>`` with qrclab on its path and QRCLAB_THREADS
    ``threads``, in its own session so that a timeout ends the whole group
    (the test fails then); returns the exit code and stderr."""
    env = os.environ | {"QRCLAB_THREADS": str(threads), "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, *args], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the run did not exit")
    return proc.returncode, err


def stop_scan_once_a_worker_runs(tmp_path, stop):
    """Run a two-worker theory scan through ``python -m qrclab.cli`` (the
    console script's ``entry``) in its own session, and call ``stop(pid)``
    as soon as its worker process exists. Returns the exit code, stderr and
    the live processes of its session once it has exited; those are killed."""
    env = os.environ | {"QRCLAB_THREADS": "2", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["theory-scan", "--qubits", "12,13", "--replicates", "6", "--out", str(tmp_path / "r")]
    proc = subprocess.Popen([sys.executable, "-m", "qrclab.cli", *argv], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while len(session_processes(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no worker process started"
        stop(proc.pid)
        _, err = proc.communicate(timeout=60)
        left = session_processes(proc.pid)
    finally:
        if proc.poll() is None or session_processes(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, err, left


def session_processes(sid: int) -> list:
    """The pids of the live processes of session ``sid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:  # the process ended meanwhile
            continue
        if int(session) == sid and state != "Z":
            found.append(int(stat.parent.name))
    return found


def end_worker_then_wait(task):
    """``end_worker``, but each of the caller's tasks is counted in
    ``CALLER_TASKS`` and returns only once the worker processes have ended."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    CALLER_TASKS.append(task)
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return GROUP_SCORES(task)


def fail_second_write(monkeypatch, exc) -> list:
    """Patch Path.write_bytes to write one file and raise ``exc`` on the
    next; returns the list of the files it wrote."""
    write_bytes, written = Path.write_bytes, []

    def fail_second(self, data):
        if written:
            raise exc
        written.append(self)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", fail_second)
    return written


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
        # first of them that starts after the worker ended
        CALLER_TASKS.clear()
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        monkeypatch.setattr(experiment, "_group_scores", end_worker_then_wait)
        argv = ["theory-scan", "--qubits", "7", "--replicates", "12", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: a worker process ended")
        assert 1 <= len(CALLER_TASKS) < 6

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
    @pytest.mark.parametrize(
        "threads, task", [(2, 1), (2, 0), (3, 2)], ids=["pool-task", "caller-task", "second-worker-task"]
    )
    def test_failed_task_ends_the_run(self, tmp_path, capsys, monkeypatch, threads, task):
        # 12 tasks of 0.2 s or more on w workers: a failure in the first task
        # of worker 1, of the caller or (w = 3) of worker 2, whose pipe is not
        # the first the caller reads, ends the run; at most w + 1 calls finish
        # after it, not every task of the workers' shares, and no worker is
        # left running. At T = 5000 a task's series is about 80 KB pickled,
        # more than a 64 KB pipe buffer, as a share sent to a spawned worker is
        monkeypatch.setenv("QRCLAB_THREADS", str(threads))
        monkeypatch.setitem(FAILURE, "path", tmp_path / "calls.txt")
        monkeypatch.setitem(FAILURE, "seed", child_seed(42, f"replicate-{task}"))
        monkeypatch.setattr(experiment, "_group_scores", fail_in_task)
        cfg = write_config(tmp_path, {"task": {"T": 5000}, "protocol": {"washout": 20}})
        argv = ["theory-scan", "--qubits", "7", "--replicates", "12", "--seed", "42", "--config", cfg]
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: injected failure in one task\n"
        calls = FAILURE["path"].read_text().splitlines()
        assert calls.count("failed") == 1 and len(calls) - calls.index("failed") - 1 <= threads + 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches forked workers only")
    def test_worker_that_ends_before_its_share_is_sent_exit_2(self, tmp_path, capsys, monkeypatch):
        # the worker process ends as it starts. Its share, 6 tasks of about
        # 80 KB pickled at T = 5000, is more than a pipe buffer holds, so the
        # send meets the dead worker: the run ends there, before the caller
        # runs any task of its own share
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        monkeypatch.setattr(experiment, "_run_share", lambda conn: os._exit(1))
        calls = []
        monkeypatch.setattr(experiment, "_group_scores", lambda task: calls.append(task) or GROUP_SCORES(task))
        cfg = write_config(tmp_path, {"task": {"T": 5000}, "protocol": {"washout": 20}})
        out = tmp_path / "r"
        argv = ["theory-scan", "--qubits", "7", "--replicates", "12", "--config", cfg, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: a worker process ended before its task was done\n"
        assert calls == [] and not any(out.iterdir())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="worker processes start by os.fork")
    def test_pool_that_cannot_start_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QRCLAB_THREADS", "2")
        monkeypatch.setattr(os, "fork", failing_fork)
        out = tmp_path / "r"
        assert main(["theory-scan", "--qubits", "2,3", "--replicates", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: a worker process could not start: {failing_fork_error()}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="worker processes start by os.fork")
    def test_pool_that_starts_in_part_exit_2(self, tmp_path):
        # w = 3: the first worker process starts on its share, the second
        # fork fails. The run must end that process too, or it is left
        # running, and the run never exits
        argv = ["theory-scan", "--qubits", "2,3,4", "--replicates", "2", "--out", str(tmp_path / "r")]
        code, err = run_in_session(["-c", SECOND_FORK_FAILS, *argv], threads=3)
        assert code == 2
        assert err == f"error: a worker process could not start: {failing_fork_error()}\n"

    def test_killed_spawn_worker_exit_2(self, tmp_path):
        # a default scan's spawned worker, killed before it reads its share
        # of about 100 KB: the share goes on the worker's pipe once start()
        # has returned, so the send fails and the run exits 2. Written inside
        # start(), to a pipe whose read end the caller still held, it
        # blocked for ever
        argv = ["theory-scan", "--out", str(tmp_path / "r")]
        code, err = run_in_session(["-c", SPAWNED_WORKER_KILLED, *argv], threads=2)
        assert (code, err) == (2, "error: a worker process ended before its task was done\n")
        assert not any((tmp_path / "r").iterdir())

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the session's processes from /proc")
    def test_ctrl_c_exit_130(self, tmp_path):
        # Ctrl-C sends SIGINT to the whole foreground group. Sent as soon as
        # the scan's worker process exists, it gives one error line and exit
        # 130: the worker starts with SIGINT held and then ignores it, and
        # the caller stops it, so no process of the scan's session is left
        result = stop_scan_once_a_worker_runs(tmp_path, lambda pid: os.killpg(pid, signal.SIGINT))
        assert result == (130, "error: interrupted\n", [])

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the session's processes from /proc")
    def test_sigterm_exit_143(self, tmp_path):
        # a supervisor, or `timeout`, sends SIGTERM to the CLI alone. Sent as
        # soon as the scan's worker process exists, it gives one error line
        # and exit 143: the console script's handler raises, the caller stops
        # its worker, and no process of the scan's session is left
        result = stop_scan_once_a_worker_runs(tmp_path, lambda pid: os.kill(pid, signal.SIGTERM))
        assert result == (143, "error: terminated\n", [])
        assert list((tmp_path / "r").iterdir()) == []

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

    def test_failed_rename_exit_3(self, tmp_path, capsys, monkeypatch):
        # the rename fails and no bundle holds the name, so no other run took
        # it: the error is re-raised, and the temp dir goes
        denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        def refuse(self, target):
            raise denied

        monkeypatch.setattr(Path, "rename", refuse)
        out = tmp_path / "r"
        assert main(["case-parity", "--config", write_config(tmp_path, FAST_CASE), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: cannot write output bundle: {denied}\n"
        assert list(out.iterdir()) == []

    def test_closed_stdout_exit_3(self, tmp_path):
        # stdout is a pipe whose read end is closed, as after `| head -1`
        # has exited: the bundle is written, then one error line, no
        # traceback, and exit 3
        read, write = os.pipe()
        os.close(read)
        env = os.environ | {"QRCLAB_THREADS": "1", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = tmp_path / "r"
        argv = ["theory-scan", "--qubits", "2,3", "--replicates", "2", "--out", str(out)]
        try:
            proc = subprocess.run([sys.executable, "-m", "qrclab.cli", *argv], env=env, stdout=write,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 3
        broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        assert proc.stderr == f"error: cannot print the summary: {broken}\n"
        (bundle,) = out.iterdir()
        assert (bundle / "scan.csv").read_text().count("\n") == 3

    def test_stale_temp_dir_is_left_alone(self, tmp_path, capsys, monkeypatch):
        # a temp dir an earlier run of this pid left behind: the bundle is
        # written through its own temp name, and the stale one keeps its file
        monkeypatch.setattr(cli, "_run_dir_name", lambda hash8: "run_fixed")
        out = tmp_path / "r"
        stale = out / f".run_fixed.tmp-{os.getpid()}"
        stale.mkdir(parents=True)
        (stale / "metrics.json").write_text("{}")
        assert main(["case-parity", "--config", write_config(tmp_path, FAST_CASE), "--out", str(out)]) == 0
        assert run_dir_from(capsys) == out / "run_fixed" and (out / "run_fixed" / "metrics.json").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted([stale.name, "run_fixed"])
        assert [p.name for p in stale.iterdir()] == ["metrics.json"]

    def test_narma10_that_always_diverges_exit_2(self, tmp_path, capsys, monkeypatch):
        # every one of the 50 redraws crosses the bound: one error line, no bundle
        monkeypatch.setattr(tasks, "NARMA_DIVERGENCE_BOUND", 0.05)
        out = tmp_path / "r"
        assert main(["case-narma10", "--config", write_config(tmp_path, FAST_CASE), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: narma10 diverged for 50 consecutive seeds from \d+\n", err)
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "bound, line",
        [
            (0.05, r"error: narma10 diverged for 50 consecutive seeds from (\d+)"),
            (0.605, r"narma10 series diverged for seed (\d+); used seed \d+ after 2 redraws"),
        ],
        ids=["always-diverges", "redrawn-twice"],
    )
    def test_narma10_redraws_print_one_line(self, tmp_path, bound, line):
        # in a real process, where no log capture hides a warning: a series
        # that diverges for every seed prints only its error line, and one
        # redrawn twice (at T = 120 the first two seeds cross 0.605) one
        # warning that names the first seed and the seed used
        argv = ["case-narma10", "--config", write_config(tmp_path, FAST_CASE), "--out", str(tmp_path / "r")]
        code, err = run_in_session(["-c", NARMA_BOUND, str(bound), *argv])
        assert code == (2 if bound == 0.05 else 0)
        match = re.fullmatch(line + "\n", err)
        assert match and int(match.group(1)) == child_seed(42, "data")
        if bound != 0.05:
            assert f"used seed {child_seed(42, 'data') + 2} " in err

    def test_failed_write_leaves_no_bundle(self, tmp_path, capsys, monkeypatch):
        # the second file cannot be written: the first, and the temp dir, go
        cfg = write_config(tmp_path, FAST_CASE)
        written = fail_second_write(monkeypatch, OSError(28, "No space left on device"))
        out = tmp_path / "r"
        assert main(["case-parity", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write output bundle")
        assert written and list(out.iterdir()) == []

    def test_interrupted_write_leaves_no_bundle(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C while the second file is written: one error line, and the
        # temp dir goes with the first file in it
        cfg = write_config(tmp_path, FAST_CASE)
        written = fail_second_write(monkeypatch, KeyboardInterrupt())
        out = tmp_path / "r"
        assert main(["case-parity", "--config", cfg, "--out", str(out)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
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
