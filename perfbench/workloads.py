"""Benchmark ops through lumpedq's public API, and their outcome bookkeeping."""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path
from typing import Mapping, Sequence

import yaml

import checks
import inputs
from inputs import CALIBRATION_BOUNDS_H, CALIBRATION_JUNCTION, DEFAULT_SEED, SWEEP_PARAM, Op
from lumpedq import analysis, cli, config, report

BUILD_SPANS = (
    "analysis.build_model",
    "maxwell_io.parse_maxwell_file",
    "netlist.reduce_maxwell",
    "netlist.compose_cells",
    "netlist.reduce_network",
    "netlist.extract_blocks",
    "subsystems.diagonalize_transmon",
    "loadedline.calibrate_length",
    "loadedline.solve_modes",
    "subsystems.quantize_line",
    "composite.build_full_hamiltonian",
    "composite.diagonalize",
    "composite.extract_dispersive",
    "composite.mode_frequencies",
    "composite.cross_kerr_matrix",
    "composite.coupling_rates",
    "config.parse_device_config",
    "report.build_report",
    "report.to_machine",
)
CLI_SPANS = ("cli.main", "config.load_device_config", "analysis.run_analysis")

# spans each workload must fire in a traced run
EXPECTED_SPANS = {
    "sweep-540": BUILD_SPANS + ("analysis.run_sweep",),
    "budget-calibrate-540": BUILD_SPANS + CLI_SPANS + ("analysis.run_budget",
                                                       "analysis.calibrate_junction"),
    "wide-chip": BUILD_SPANS + CLI_SPANS,
}
MAX_LOGGED_FAILURES = 3


class OpFailed(RuntimeError):
    pass


def run_op(op: Op, configs: Mapping[Path, config.DeviceConfig]) -> tuple[float, str]:
    """Run one op; returns its duration from call to return and the machine
    report it produced. CLI ops write their report next to the device file."""
    if op.kind in ("budget", "analyze"):
        out = op.config.parent / f"{op.kind}-{op.index}.json"
        argv = [op.kind, str(op.config), "--format", "machine", "-o", str(out)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise OpFailed(f"lumpedq {' '.join(argv)} exited with code {code}")
        return elapsed, out.read_text(encoding="utf-8")
    device = configs[op.config]
    start = time.perf_counter()
    if op.kind == "sweep":
        (result,) = analysis.run_sweep(device, SWEEP_PARAM, [op.value])
    else:
        _, result = analysis.calibrate_junction(device, CALIBRATION_JUNCTION, op.value,
                                                CALIBRATION_BOUNDS_H)
    text = report.to_machine(result)
    return time.perf_counter() - start, text


class BenchRun:
    """Inputs, checks and outcome counts of one benchmark run.

    ``reference_ops`` are the default-seed inputs; their reports are held to
    the recorded reference observables. ``ops`` are the inputs of the run's
    seed (the same list when the seed is the default)."""

    def __init__(self, workload: str, seed: int, work_dir: Path,
                 reference: Sequence[Mapping[str, float]]):
        self.reference_ops = inputs.generate(workload, DEFAULT_SEED, work_dir / "reference")
        self.seeded = seed != DEFAULT_SEED
        self.ops = (inputs.generate(workload, seed, work_dir / "seeded") if self.seeded
                    else self.reference_ops)
        self.reference = reference
        every = self.reference_ops + self.ops
        self.raw = {op.config: yaml.load(op.config.read_text(encoding="utf-8"),
                                         Loader=yaml.CSafeLoader) for op in every}
        # API-level ops take a parsed configuration, as a script would
        self.configs = {op.config: config.load_device_config(op.config)
                        for op in every if op.kind in ("sweep", "calibrate")}
        self.first_reports: dict[tuple[bool, int], str] = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, op: Op, is_reference: bool) -> float | None:
        """Run and check one op; returns its duration, or None if it failed."""
        self.attempted += 1
        try:
            elapsed, text = run_op(op, self.configs)
            problems = self.check(op, text, is_reference)
        except Exception:  # the run goes on: the op counts as failed
            problems = [traceback.format_exc()]
        if not problems:
            return elapsed
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"op {op.kind}#{op.index} ({op.config.parent.name}) failed:\n  "
                  + "\n  ".join(problems), file=sys.stderr)
        return None

    def check(self, op: Op, text: str, is_reference: bool) -> list[str]:
        doc = json.loads(text)
        problems = checks.sanity(doc, op, self.raw[op.config])
        if is_reference:
            problems += checks.compare_reference(checks.observables(doc),
                                                 self.reference[op.index])
        key = (is_reference, op.index)
        if self.first_reports.setdefault(key, text) != text:
            problems.append("machine report differs from an earlier run of the same op")
        return problems
