"""In-memory span tracer that times qrclab's layers from the outside.

The tracer wraps functions by rebinding module attributes: every attribute of
every loaded ``qrclab`` module that is bound to a wrapped function is replaced
(``from .sim import apply_gate`` leaves one binding per importing module), and
``restore`` puts every original back. Nothing under ``src/`` is edited.

A span is (name, start, end, parent index); spans stay in memory until
``write_spans``. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import Counter

# (module, attribute, span name). Several functions may share one span name.
SPANS = (
    ("qrclab.cli", "main", "cli.main"),
    ("qrclab.cli", "_write_bundle", "cli.bundle"),
    ("qrclab.config", "load_config_file", "config.parse"),
    ("qrclab.config", "parse_config", "config.parse"),
    ("qrclab.config", "echo_config", "config.echo"),
    ("qrclab.config", "dump_echo", "config.echo"),
    ("qrclab.config", "config_hash", "config.echo"),
    ("qrclab.tasks", "generate", "tasks.generate"),
    ("qrclab.encoding", "build_encoder", "encoding.build"),
    ("qrclab.encoding", "encode_input", "encoding.encode"),
    ("qrclab.reservoir", "build_reservoir", "reservoir.build"),
    ("qrclab.reservoir", "apply_reservoir", "reservoir.apply"),
    ("qrclab.sim", "expectation", "sim.expectation"),
    ("qrclab.sim", "sample_counts", "sim.sample"),
    ("qrclab.sim", "estimate_expectations", "sim.estimate"),
    ("qrclab.experiment", "run_case", "experiment.case"),
    ("qrclab.experiment", "run_recurrent", "experiment.evolve"),
    ("qrclab.experiment", "run_windowed", "experiment.evolve"),
    ("qrclab.experiment", "features_csv", "experiment.csv"),
    ("qrclab.experiment", "predictions_csv", "experiment.csv"),
    ("qrclab.experiment", "scan_csv", "experiment.csv"),
    ("qrclab.experiment", "theory_scan", "experiment.scan_call"),
    ("qrclab.readout", "fit_ridge", "readout.fit"),
    ("qrclab.readout", "predict", "readout.predict"),
    ("qrclab.readout", "r2_score", "readout.score"),
    ("qrclab.readout", "accuracy", "readout.score"),
    ("qrclab.readout", "mse", "readout.score"),
    ("qrclab.plot", "render_overlay_svg", "plot.render"),
    ("qrclab.plot", "render_scan_svg", "plot.render"),
)

# Hot per-gate and per-step calls are counted, not spanned.
COUNTED = (
    ("qrclab.sim", "apply_gate"),
    ("qrclab.experiment", "step"),
)

# Every span that runs inside experiment.evolve: the circuit builds, then the
# per-step layers. experiment.evolve_self_s is the evolve spans' self time.
EVOLVE_CHILDREN = (
    "encoding.build", "reservoir.build",
    "encoding.encode", "reservoir.apply", "sim.expectation", "sim.sample", "sim.estimate",
)


def gates_per_step(encoder, reservoir) -> int:
    """Logical gates of one step: encoder RY slots and fixed block, then the reservoir."""
    enc = sum(len(layer.angle_qubits) + len(layer.fixed_gates) for layer in encoder.layers)
    return enc + len(reservoir.gates)


class _RedrawCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "diverged" in record.getMessage():
            self.counts["tasks.narma_redraws"] += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler: logging.Handler | None = None

    # ---- recording -------------------------------------------------------

    def _span(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)

        return wrapper

    def _on_bundle(self, args, kwargs, result):
        files = args[2] if len(args) > 2 else kwargs["files"]
        self.counts["cli.bundle_bytes"] += sum(len(text.encode("utf-8")) for text in files.values())

    def _on_svg(self, args, kwargs, result):
        self.counts["plot.svg_bytes"] += len(result.encode("utf-8"))

    def _on_evolve(self, args, kwargs, result):
        self.counts["experiment.rows"] += result.values.shape[0]

    def _on_estimate(self, args, kwargs, result):
        self.counts["sim.count_bins"] += len(args[0])

    def _on_scan(self, args, kwargs, result):
        qubits = args[1] if len(args) > 1 else kwargs["qubit_list"]
        replicates = args[3] if len(args) > 3 else kwargs.get("replicates", 10)
        self.counts["experiment.scan_cells"] += len(list(qubits)) * replicates

    def _on_gate(self, args):
        self.counts["sim.apply_gate_calls"] += 1

    def _on_step(self, args):
        state, _u, encoder, reservoir = args
        gates = gates_per_step(encoder, reservoir)
        self.counts["experiment.steps"] += 1
        self.counts["sim.gate_ops"] += gates
        # computed, not measured: each gate reads and writes the 2^n complex128 state
        self.counts["sim.bytes_computed"] += gates * (2**state.n_qubits) * 16 * 2

    # ---- installing ------------------------------------------------------

    def install(self):
        """Wrap every function in SPANS and COUNTED; call ``restore`` to undo."""
        import importlib

        hooks = {
            "cli.bundle": self._on_bundle,
            "plot.render": self._on_svg,
            "experiment.evolve": self._on_evolve,
            "sim.estimate": self._on_estimate,
            "experiment.scan_call": self._on_scan,
        }
        counters = {"apply_gate": self._on_gate, "step": self._on_step}
        replacements = {}
        for module, attr, name in SPANS:
            fn = getattr(importlib.import_module(module), attr)
            replacements[id(fn)] = (fn, self._span(name, fn, hooks.get(name)))
        for module, attr in COUNTED:
            fn = getattr(importlib.import_module(module), attr)
            replacements[id(fn)] = (fn, self._counter(fn, counters[attr]))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qrclab" or modname.startswith("qrclab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self._handler = _RedrawCounter(self.counts)
        logging.getLogger("qrclab.tasks").addHandler(self._handler)

    def restore(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        if self._handler is not None:
            logging.getLogger("qrclab.tasks").removeHandler(self._handler)
            self._handler = None

    # ---- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += own
        return out

    def write_spans(self, path) -> None:
        """CSV of every span: index, name, start, end, parent, self seconds."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s\n")
            for idx, own in enumerate(self.self_times()):
                fh.write(
                    f"{idx},{self.names[idx]},{self.starts[idx] - t0:.9f},"
                    f"{self.ends[idx] - t0:.9f},{self.parents[idx]},{own:.9f}\n"
                )


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics, per op (mean over ``ops`` traced ops) unless a ratio."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    evolve = total("experiment.evolve")
    gate_ops = counts["sim.gate_ops"]
    rows = counts["experiment.rows"]
    estimates = calls("sim.estimate")
    per_op = {
        "cli.self_s": totals.get("cli.main", {}).get("self_s", 0.0),
        "cli.bundle_s": total("cli.bundle"),
        "cli.bundle_bytes": counts["cli.bundle_bytes"],
        "config.parse_s": total("config.parse"),
        "config.echo_s": total("config.echo"),
        "tasks.generate_s": total("tasks.generate"),
        "tasks.generate_calls": calls("tasks.generate"),
        "tasks.narma_redraws": counts["tasks.narma_redraws"],
        "encoding.build_s": total("encoding.build"),
        "encoding.encode_s": total("encoding.encode"),
        "encoding.encode_calls": calls("encoding.encode"),
        "reservoir.build_s": total("reservoir.build"),
        "reservoir.apply_s": total("reservoir.apply"),
        "reservoir.apply_calls": calls("reservoir.apply"),
        "sim.gate_ops": gate_ops,
        "sim.apply_gate_calls": counts["sim.apply_gate_calls"],
        "sim.bytes_computed": counts["sim.bytes_computed"],
        "sim.expectation_s": total("sim.expectation"),
        "sim.expectation_calls": calls("sim.expectation"),
        "sim.sample_s": total("sim.sample"),
        "sim.estimate_s": total("sim.estimate"),
        "experiment.case_s": total("experiment.case"),
        "experiment.evolve_s": evolve,
        "experiment.evolve_self_s": totals.get("experiment.evolve", {}).get("self_s", 0.0),
        "experiment.steps": counts["experiment.steps"],
        "experiment.rows": rows,
        "experiment.csv_s": total("experiment.csv"),
        "experiment.scan_call_s": total("experiment.scan_call"),
        "experiment.scan_cells": counts["experiment.scan_cells"],
        "readout.fit_s": total("readout.fit"),
        "readout.fit_calls": calls("readout.fit"),
        "readout.predict_s": total("readout.predict"),
        "readout.score_s": total("readout.score"),
        "plot.render_s": total("plot.render"),
        "plot.svg_bytes": counts["plot.svg_bytes"],
    }
    out = {name: value / ops for name, value in per_op.items()}
    step_s = total("encoding.encode") + total("reservoir.apply")
    out["sim.us_per_gate"] = 1e6 * step_s / gate_ops if gate_ops else 0.0
    out["sim.count_bins"] = counts["sim.count_bins"] / estimates if estimates else 0.0
    out["experiment.steps_per_row"] = counts["experiment.steps"] / rows if rows else 0.0
    return out


def evolve_residual(layers: dict[str, float]) -> float:
    """evolve_s minus its children's totals and its self time. It is 0 up to
    rounding only if every EVOLVE_CHILDREN span nests directly under an evolve
    span and no other span does."""
    parts = sum(layers[f"{name}_s"] for name in EVOLVE_CHILDREN)
    return layers["experiment.evolve_s"] - parts - layers["experiment.evolve_self_s"]
