"""Seeded input generators for the lumpedq benchmark workloads.

Each generator writes device files into a directory and returns the pool of
ops that one cycle of the workload runs. The inputs are a pure function of
the seed: the same seed writes byte-identical files and the same op list.
The program under test receives only these files and op arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from lumpedq.benchmark import MUTUALS_FF, NODES, benchmark_maxwell, benchmark_raw_config
from lumpedq.maxwell_io import write_maxwell_file
from lumpedq.netlist import MaxwellMatrix

DEFAULT_SEED = 0
SWEEP_PARAM = "junctions.j1.lj_nh"
CALIBRATION_JUNCTION = "j1"
CALIBRATION_BOUNDS_H = (10e-9, 14e-9)
LJ_BAND_NH = (11.0, 13.0)  # dispersive band of the shipped device

SWEEP_POINTS = 8
WIDE_DEVICES = 2
WIDE_CELLS = 8
WIDE_PADS_PER_CELL = 99  # 8 x 99 pads + the 6 shipped nodes: 798 nodes off the datum


@dataclass(frozen=True)
class Op:
    """One call into the program. ``index`` is the op's place in the pool;
    ops that share it take identical inputs."""

    kind: str  # sweep | budget | calibrate | analyze
    index: int
    config: Path
    value: float = 0.0  # swept L_j in nH, or calibration target f_q in Hz


def maxwell_from_mutuals(names, mutuals_ff) -> MaxwellMatrix:
    """Maxwell matrix (fF) of a cell given its mutual capacitances."""
    index = {name: i for i, name in enumerate(names)}
    mat = np.zeros((len(names), len(names)))
    for (a, b), value in mutuals_ff.items():
        i, j = index[a], index[b]
        mat[i, j] -= value
        mat[j, i] -= value
        mat[i, i] += value
        mat[j, j] += value
    return MaxwellMatrix(names=tuple(names), matrix=mat * 1e-15, display_units="fF",
                         display_matrix=mat)


def _write_device(directory: Path, raw: dict, cells: dict[str, MaxwellMatrix]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for filename, maxwell in cells.items():
        write_maxwell_file(maxwell, directory / filename)
    path = directory / "device.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return path


def _shipped_cell() -> dict[str, MaxwellMatrix]:
    return {"qubit_cell.csv": benchmark_maxwell()}


def _draw_lj(rng: np.random.Generator, size: int) -> list[float]:
    return [round(float(v), 6) for v in rng.uniform(*LJ_BAND_NH, size=size)]


def sweep_540(seed: int, directory: Path) -> list[Op]:
    """The shipped device; the seed draws the swept L_j points."""
    rng = np.random.default_rng(seed)
    path = _write_device(directory / "device", benchmark_raw_config(), _shipped_cell())
    return [Op("sweep", i, path, lj) for i, lj in enumerate(_draw_lj(rng, SWEEP_POINTS))]


def budget_calibrate_540(seed: int, directory: Path) -> list[Op]:
    """A seed-varied copy of the shipped device (cell capacitances within 2%,
    L_j in its band, readout Z0 within 1%); ops alternate between the CLI
    budget and a junction calibration to a seeded f_q target."""
    rng = np.random.default_rng(seed)
    mutuals = {pair: round(value * float(rng.uniform(0.98, 1.02)), 4)
               for pair, value in MUTUALS_FF.items()}
    raw = benchmark_raw_config()
    raw["junctions"][0]["lj_nh"] = _draw_lj(rng, 1)[0]
    raw["subsystems"][1]["z0_ohm"] = round(53.0 * float(rng.uniform(0.99, 1.01)), 4)
    path = _write_device(directory / "device", raw,
                         {"qubit_cell.csv": maxwell_from_mutuals(NODES, mutuals)})
    target_hz = round(float(rng.uniform(5.22e9, 5.45e9)), 0)
    return [Op("budget", 0, path), Op("calibrate", 1, path, target_hz)]


def _spectator_cell(rng: np.random.Generator, cell: int, port: str) -> tuple[list[str], MaxwellMatrix]:
    """A row of capacitive-only coupler pads: each pad grounded, coupled to
    its two nearest neighbours, and the first pad coupled to a bus port."""
    pads = [f"s{cell}_{i:03d}" for i in range(WIDE_PADS_PER_CELL)]
    mutuals = {}
    for i, pad in enumerate(pads):
        mutuals[("g", pad)] = round(float(rng.uniform(20.0, 60.0)), 3)
        if i + 1 < len(pads):
            mutuals[(pad, pads[i + 1])] = round(float(rng.uniform(0.5, 5.0)), 3)
        if i + 2 < len(pads):
            mutuals[(pad, pads[i + 2])] = round(float(rng.uniform(0.1, 1.0)), 3)
    mutuals[(port, pads[0])] = round(float(rng.uniform(0.05, 0.2)), 3)
    return pads, maxwell_from_mutuals(("g", port, *pads), mutuals)


def wide_chip(seed: int, directory: Path) -> list[Op]:
    """The shipped qubit cell plus seeded spectator cells of coupler pads
    (about 800 nodes), with small truncations (Hilbert dimension 96)."""
    rng = np.random.default_rng(seed)
    ops = []
    for d in range(WIDE_DEVICES):
        raw = benchmark_raw_config()
        cells = _shipped_cell()
        for c in range(WIDE_CELLS):
            pads, maxwell = _spectator_cell(rng, c, "b2" if c % 2 == 0 else "b3")
            filename = f"spectator{c}.csv"
            cells[filename] = maxwell
            raw["cells"].append({"id": f"spectator{c}", "maxwell_file": filename})
            raw["couplers"].extend(pads)
        qubit, readout, bus2, bus3 = raw["subsystems"]
        qubit["levels"] = 4
        readout["levels"] = [3, 2]
        bus2["levels"] = 2
        bus3["levels"] = 2
        raw["junctions"][0]["lj_nh"] = _draw_lj(rng, 1)[0]
        raw["name"] = "wide-chip"
        path = _write_device(directory / f"device{d}", raw, cells)
        ops.append(Op("analyze", d, path))
    return ops


GENERATORS = {
    "sweep-540": sweep_540,
    "budget-calibrate-540": budget_calibrate_540,
    "wide-chip": wide_chip,
}


def generate(workload: str, seed: int, directory: Path) -> list[Op]:
    return GENERATORS[workload](seed, Path(directory))
