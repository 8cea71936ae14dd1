"""In-memory spans around the public functions of lumpedq.

The tracer replaces module attributes with timing wrappers at the names
through which lumpedq.analysis, lumpedq.config, lumpedq.report and
lumpedq.cli reach each other at call time, and restores them afterwards.
Spans (name, start, end, parent, op id) stay in memory until the run writes
them out; self times and per-op counts are computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

# (module, attribute, span name): the attribute is the name its caller looks up
TARGETS = (
    ("lumpedq.analysis", "parse_maxwell_file", "maxwell_io.parse_maxwell_file"),
    ("lumpedq.analysis", "reduce_maxwell", "netlist.reduce_maxwell"),
    ("lumpedq.analysis", "compose_cells", "netlist.compose_cells"),
    ("lumpedq.analysis", "reduce_network", "netlist.reduce_network"),
    ("lumpedq.analysis", "extract_blocks", "netlist.extract_blocks"),
    ("lumpedq.analysis", "calibrate_length", "loadedline.calibrate_length"),
    ("lumpedq.analysis", "solve_modes", "loadedline.solve_modes"),
    ("lumpedq.analysis", "diagonalize_transmon", "subsystems.diagonalize_transmon"),
    ("lumpedq.analysis", "quantize_line", "subsystems.quantize_line"),
    ("lumpedq.analysis", "build_full_hamiltonian", "composite.build_full_hamiltonian"),
    ("lumpedq.analysis", "diagonalize", "composite.diagonalize"),
    ("lumpedq.analysis", "extract_dispersive", "composite.extract_dispersive"),
    ("lumpedq.analysis", "mode_frequencies", "composite.mode_frequencies"),
    ("lumpedq.analysis", "cross_kerr_matrix", "composite.cross_kerr_matrix"),
    ("lumpedq.analysis", "coupling_rates", "composite.coupling_rates"),
    ("lumpedq.analysis", "build_model", "analysis.build_model"),
    ("lumpedq.analysis", "run_analysis", "analysis.run_analysis"),
    ("lumpedq.analysis", "run_sweep", "analysis.run_sweep"),
    ("lumpedq.analysis", "run_budget", "analysis.run_budget"),
    ("lumpedq.analysis", "calibrate_junction", "analysis.calibrate_junction"),
    ("lumpedq.config", "parse_device_config", "config.parse_device_config"),
    ("lumpedq.config", "load_device_config", "config.load_device_config"),
    ("lumpedq.report", "build_report", "report.build_report"),
    ("lumpedq.report", "to_machine", "report.to_machine"),
    ("lumpedq.cli", "main", "cli.main"),
)

# span name -> per-layer self-time metric; other spans report as "<name>.s"
SELF_TIME_GROUPS = {
    "composite.extract_dispersive": "composite.observables.s",
    "composite.mode_frequencies": "composite.observables.s",
    "composite.cross_kerr_matrix": "composite.observables.s",
    "composite.coupling_rates": "composite.observables.s",
    "analysis.run_analysis": "analysis.runners.s",
    "analysis.run_sweep": "analysis.runners.s",
    "analysis.run_budget": "analysis.runners.s",
    "analysis.calibrate_junction": "analysis.runners.s",
}
CALL_COUNTS = ("maxwell_io.parse_maxwell_file", "config.parse_device_config", "analysis.build_model")
SIZE_COUNTS = ("composite.hilbert_dim", "netlist.nodes", "netlist.eliminated")
ROOT_SPAN = "op"


class CoverageError(RuntimeError):
    """A wrapped name is gone or an expected span never fired."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.values: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.op_id = -1
        self._stack: list[int] = []
        self._labels_read: set = set()
        self._spectra: list = []  # keeps each spectrum alive so its id() stays unique in the op

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.values[self.op_id][name].append(value)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; per-op label reads are tallied on exit."""
        self.op_id = op_id
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self.add("composite.labels_read", len(self._labels_read))
            self._labels_read.clear()
            self._spectra.clear()
            self.op_id = -1

    def _spectrum(self, spectrum) -> None:
        self.add("composite.eigenpairs", len(spectrum.energies))
        self._spectra.append(spectrum)

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[str, str, str]] = TARGETS):
        """Wrap every target (and count dressed-label reads) while active."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise CoverageError(f"{module_name}.{attr} no longer exists; span {name} "
                                        "cannot be recorded")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, OBSERVERS.get(name)))
            spectrum_cls = importlib.import_module("lumpedq.composite").DressedSpectrum
            energy_of = spectrum_cls.energy_of
            saved.append((spectrum_cls, "energy_of", energy_of))

            @functools.wraps(energy_of)
            def counted(spectrum, label):
                energy = energy_of(spectrum, label)
                self._labels_read.add((id(spectrum), label))
                return energy

            spectrum_cls.energy_of = counted
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op_id}) + "\n")


def _observe_hamiltonian(tracer: Tracer, h) -> None:
    tracer.add("composite.hilbert_dim", h.shape[0])
    tracer.add("composite.h_bytes", h.shape[0] * h.shape[1] * h.dtype.itemsize)


OBSERVERS = {
    "composite.build_full_hamiltonian": _observe_hamiltonian,
    "composite.diagonalize": Tracer._spectrum,
    "netlist.compose_cells": lambda t, net: t.add("netlist.nodes", len(net.labels)),
    "netlist.reduce_network": lambda t, rc: t.add("netlist.eliminated", len(rc.record.eliminated)),
    "report.to_machine": lambda t, text: t.add("report.bytes", len(text.encode("utf-8"))),
}


def check_coverage(spans: Sequence[Sequence], expected: Iterable[str]) -> None:
    """Raise CoverageError naming every expected span that never fired."""
    missing = sorted(set(expected) - {span[0] for span in spans})
    if missing:
        raise CoverageError(f"expected spans never fired: {', '.join(missing)}")


def self_times(spans: Sequence[Sequence]) -> dict[int, dict[str, float]]:
    """Per op, each span name's duration minus the time its child spans cover."""
    children = [0.0] * len(spans)
    for name, start, end, parent, op_id in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, parent, op_id), child in zip(spans, children):
        out[op_id][name] += end - start - child
    return out


def op_counts(tracer: Tracer, op_id: int) -> dict[str, float]:
    """Work counts of one op, from its spans and observed return values."""
    values = tracer.values[op_id]
    counts = {name: max(values[name], default=0) for name in SIZE_COUNTS}
    for name in ("composite.h_bytes", "composite.eigenpairs", "composite.labels_read",
                 "report.bytes"):
        counts[name] = sum(values[name])
    in_op = [span[0] for span in tracer.spans if span[4] == op_id]
    for name in CALL_COUNTS:
        counts[f"{name}.calls_per_op"] = in_op.count(name)
    return counts


def layer_metrics(tracer: Tracer, first_cycle: Sequence[int]) -> dict[str, float]:
    """Median per-op self time of every wrapped layer over all traced ops,
    and counts over ``first_cycle``, the ops that take the same inputs in
    every run of a seed, so that the counts repeat exactly: problem sizes
    as their maximum, work as its mean per op."""
    per_op = self_times(tracer.spans)
    ops = sorted(op_id for op_id in per_op if op_id >= 0)
    metrics: dict[str, float] = {}
    layers = {SELF_TIME_GROUPS.get(name, f"{name}.s") for _, _, name in TARGETS}
    for layer in sorted(layers):
        metrics[layer] = statistics.median(
            sum(t for name, t in per_op[op_id].items()
                if SELF_TIME_GROUPS.get(name, f"{name}.s") == layer)
            for op_id in ops)
    counts = [op_counts(tracer, op_id) for op_id in first_cycle]
    for name in counts[0]:
        column = [c[name] for c in counts]
        metrics[name] = max(column) if name in SIZE_COUNTS else sum(column) / len(column)
    labels = metrics.pop("composite.labels_read")
    eigenpairs = metrics["composite.eigenpairs"]
    metrics["composite.labels_used_ratio"] = labels / eigenpairs if eigenpairs else 0.0
    return metrics
