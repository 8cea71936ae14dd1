"""Whole-device invariance: transformations that leave the physical device
as it is leave its report as it is.

Each test runs the full and the naive ``analyze`` of each device under one
transformation and compares the report with the device's own: the same
quantities, in the same units, every field in Hz within 1e-3 Hz and every
other field within 1e-9 relative. A pair key names its two modes in sorted
order, and the node names in a key are mapped back through the
transformation's renaming. The eigenvector sign flip, which changes a
factor and not the config, compares the dressed spectrum instead.

The devices are the shipped one and the two seed-0 ``wide-chip`` devices
of the benchmark (798 nodes each), written by ``wide_chip`` of
``perfbench/inputs.py``, which is imported without writing bytecode under
``perfbench/``.
"""

import copy
import dataclasses
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from lumpedq import analysis
from lumpedq.analysis import build_model, run_analysis
from lumpedq.benchmark import benchmark_maxwell, benchmark_raw_config
from lumpedq.config import DeviceConfig, parse_device_config
from lumpedq.maxwell_io import parse_maxwell_file, serialize_maxwell
from lumpedq.netlist import MaxwellMatrix
from lumpedq.report import AnalysisReport

from conftest import add_spectator_transmon

HZ_ATOL = 1e-3  # largest change in Hz a summation reorder may cause
OTHER_RTOL = 1e-9
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WIDE_CHIP_SEED = 0


def maxwell(names, display_ff: np.ndarray) -> MaxwellMatrix:
    return MaxwellMatrix(names=tuple(names), matrix=display_ff * 1e-15, display_units="fF",
                         display_matrix=display_ff)


SHIPPED = benchmark_maxwell()
SPECTATOR = maxwell(("g", "s"), np.array([[50.0, -50.0], [-50.0, 50.0]]))


def write(directory: Path, raw: dict, cells: dict[str, MaxwellMatrix]) -> DeviceConfig:
    """The config of ``raw``, with each Maxwell matrix of ``cells`` written
    to ``directory`` under its file name."""
    for name, matrix in cells.items():
        (directory / name).write_text(serialize_maxwell(matrix), encoding="utf-8")
    return parse_device_config(raw, base_dir=directory)


def analyze(directory: Path, raw: dict, cells: dict[str, MaxwellMatrix]) -> AnalysisReport:
    """The ``analyze --naive`` report of ``raw`` with its ``cells``."""
    return run_analysis(write(directory, raw, cells), naive=True)


@dataclass(frozen=True)
class Device:
    name: str
    raw: dict
    cells: dict[str, MaxwellMatrix]  # keyed by file name
    report: AnalysisReport  # analyze --naive of the device as it is

    def config(self) -> dict:
        """A copy of the raw config, for a test to transform."""
        return copy.deepcopy(self.raw)


def tmp_path_for(tmp_path: Path, device: Device) -> Path:
    """A directory of its own under ``tmp_path`` for ``device``'s files."""
    directory = tmp_path / device.name.replace(" ", "-")
    directory.mkdir()
    return directory


def wide_chips(directory: Path) -> list[tuple[dict, dict[str, MaxwellMatrix]]]:
    """(raw config, Maxwell matrices by file name) of each seed-0 wide-chip
    device, written into ``directory`` by the benchmark's own generator."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from inputs import wide_chip
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    devices = []
    for op in wide_chip(WIDE_CHIP_SEED, directory):
        raw = yaml.safe_load(op.config.read_text(encoding="utf-8"))
        devices.append((raw, {cell["maxwell_file"]: parse_maxwell_file(
            op.config.parent / cell["maxwell_file"]) for cell in raw["cells"]}))
    return devices


@pytest.fixture(scope="module")
def devices(tmp_path_factory) -> list[Device]:
    """The shipped device and the two wide-chip devices, each with its report."""
    named = [("shipped", benchmark_raw_config(), {"qubit_cell.csv": SHIPPED})]
    named += [(f"wide-chip {k}", raw, cells)
              for k, (raw, cells) in enumerate(wide_chips(tmp_path_factory.mktemp("wide-chip")))]
    return [Device(name, raw, cells,
                   analyze(tmp_path_factory.mktemp("device"), copy.deepcopy(raw), cells))
            for name, raw, cells in named]


def quantities(report, rename: dict[str, str],
               ignore: str | None = None) -> dict[tuple[str, str, str], tuple]:
    """(value, unit) of every quantity of the full and the naive
    observables, keyed by (block, group, name): the names in a pair key
    sorted, and each ``:``-separated part of a name mapped by ``rename``.
    A quantity of the subsystem ``ignore`` is left out."""
    out = {}
    for block, observables in (("full", report.observables), ("naive", report.naive)):
        for group, fields in observables.items():
            for key, q in fields.items():
                if ignore in re.split(r"[|:\[]", key):
                    continue
                names = sorted(":".join(rename.get(part, part) for part in name.split(":"))
                               for name in key.split("|"))
                out[block, group, "|".join(names)] = (q["value"], q["unit"])
    return out


def assert_same_report(report, device: Device, rename: dict[str, str] | None = None,
                       ignore: str | None = None):
    got, want = quantities(report, rename or {}, ignore), quantities(device.report, {})
    assert got.keys() == want.keys(), device.name
    for key, (value, unit) in want.items():
        assert got[key][1] == unit, (device.name, key)
        if unit == "Hz":
            assert abs(got[key][0] - value) <= HZ_ATOL, (device.name, key, got[key][0] - value)
        else:
            assert got[key][0] == pytest.approx(value, rel=OTHER_RTOL, abs=0.0), (device.name, key)


@settings(max_examples=20)
@given(data=st.data())
def test_maxwell_rows_and_columns_permuted(devices, tmp_path_factory, data):
    """The rows and columns of every Maxwell file, in one drawn order each."""
    for device in devices:
        cells = {}
        for name, cell in device.cells.items():
            order = data.draw(st.permutations(range(len(cell.names))), label=name)
            cells[name] = maxwell([cell.names[i] for i in order],
                                  cell.display_matrix[np.ix_(order, order)])
        report = analyze(tmp_path_factory.mktemp("permuted"), device.config(), cells)
        assert_same_report(report, device)


def test_every_node_renamed(devices, tmp_path):
    """Each node takes a new name, in reverse of the old names' sorted
    order, in the config and in the Maxwell files."""
    for device in devices:
        nodes = sorted({node for cell in device.cells.values() for node in cell.names},
                       reverse=True)
        rename = {node: f"node{k}" for k, node in enumerate(nodes)}
        raw = device.config()
        raw["datum"] = rename[raw["datum"]]
        raw["couplers"] = [rename[node] for node in raw["couplers"]]
        for entry in (*raw["subsystems"], *raw["junctions"]):
            entry["nodes"] = [rename[node] for node in entry["nodes"]]
        cells = {name: maxwell([rename[node] for node in cell.names], cell.display_matrix)
                 for name, cell in device.cells.items()}
        report = analyze(tmp_path_for(tmp_path, device), raw, cells)
        assert_same_report(report, device, {new: old for old, new in rename.items()})


def test_subsystems_listed_in_reverse(devices, tmp_path):
    for device in devices:
        raw = device.config()
        raw["subsystems"].reverse()
        assert_same_report(analyze(tmp_path_for(tmp_path, device), raw, device.cells), device)


def test_cell_split_into_two_halves(devices, tmp_path):
    """Each cell becomes two cells on the same nodes, each with half its C."""
    for device in devices:
        raw = device.config()
        raw["cells"], cells = [], {}
        for name, cell in device.cells.items():
            for half in ("a", "b"):
                raw["cells"].append({"id": f"{half}_{name}", "maxwell_file": f"{half}_{name}"})
                cells[f"{half}_{name}"] = maxwell(cell.names, 0.5 * cell.display_matrix)
        assert_same_report(analyze(tmp_path_for(tmp_path, device), raw, cells), device)


def split_cell(cell: MaxwellMatrix, pads) -> tuple[MaxwellMatrix, MaxwellMatrix]:
    """``cell`` as two cells: one holds the mutual capacitances among the
    nodes ``pads``, the other the rest of them, on the nodes they touch."""
    mutual = -cell.display_matrix
    np.fill_diagonal(mutual, 0.0)
    inner = np.isin(cell.names, pads)
    among = np.outer(inner, inner)

    def cell_of(part: np.ndarray) -> MaxwellMatrix:
        held = part.any(axis=1)
        part = part[np.ix_(held, held)]
        return maxwell(np.array(cell.names)[held], np.diag(part.sum(axis=1)) - part)

    return cell_of(np.where(among, mutual, 0.0)), cell_of(np.where(among, 0.0, mutual))


def test_qubit_cell_split_into_pads_and_ports(devices, tmp_path):
    """The qubit cell as a cell of its pads (the 6 mutuals among g, p0, p1
    and cl) and a cell of the ports b1, b2, b3 with the other 13 mutuals, on
    g and the pads they touch. The shared nodes carry the cross terms, and
    cl, now in two cells, is no longer a private pad of either."""
    for device in devices:
        raw = device.config()
        [entry] = [cell for cell in raw["cells"] if cell["maxwell_file"] == "qubit_cell.csv"]
        pads, ports = split_cell(device.cells["qubit_cell.csv"], ("g", "p0", "p1", "cl"))
        assert set(ports.names) == {"g", "b1", "b2", "b3", "p0", "p1", "cl"}
        raw["cells"].remove(entry)
        raw["cells"] += [{"id": "pads", "maxwell_file": "pads.csv"},
                         {"id": "ports", "maxwell_file": "ports.csv"}]
        cells = {name: cell for name, cell in device.cells.items() if name != "qubit_cell.csv"}
        report = analyze(tmp_path_for(tmp_path, device), raw,
                         {**cells, "pads.csv": pads, "ports.csv": ports})
        assert_same_report(report, device)


def test_isolated_spectator_pad(devices, tmp_path):
    """A coupler pad in a cell of its own, with C to the datum alone."""
    for device in devices:
        raw = device.config()
        raw["cells"].append({"id": "spectator", "maxwell_file": "spectator.csv"})
        raw["couplers"].append("s")
        report = analyze(tmp_path_for(tmp_path, device), raw,
                         {**device.cells, "spectator.csv": SPECTATOR})
        assert_same_report(report, device)


def test_uncoupled_spectator_transmon(devices, tmp_path):
    """A transmon of 2 levels in a cell of its own, with C to the datum
    alone, leaves every other observable as it is."""
    for device in devices:
        raw = device.config()
        spectator = add_spectator_transmon(raw)
        report = analyze(tmp_path_for(tmp_path, device), raw,
                         {**device.cells, "spectator.csv": spectator})
        assert "spectator" in report.observables["dressed_modes"]
        assert_same_report(report, device, ignore="spectator")


def test_transmon_eigenvector_sign_flip(devices, tmp_path):
    """Flipping the sign of one eigenvector of the qubit's transmon (the row
    and the column of its charge operator), one at a time, leaves the
    dressed spectrum and its labels as they are."""
    for device in devices:
        config = write(tmp_path_for(tmp_path, device), device.config(), device.cells)
        model = build_model(config)
        k = next(k for k, sub in enumerate(model.subsystems)
                 if sub.name == config.analysis.qubit)
        [factor] = model.subsystems[k].factors
        for column in range(len(factor.levels)):
            sign = np.ones(len(factor.levels))
            sign[column] = -1.0
            flipped = dataclasses.replace(model.subsystems[k], factors=(
                dataclasses.replace(factor, charge=sign[:, None] * factor.charge * sign),))
            subsystems = (*model.subsystems[:k], flipped, *model.subsystems[k + 1:])
            again = analysis._composite_model(config, model.circuit, (
                subsystems, model.transmon_specs, model.lines, model.graph)).spectrum
            assert again.labels == model.spectrum.labels, (device.name, column)
            moved = np.abs(again.energies - model.spectrum.energies) / constants.h
            assert moved.max() <= HZ_ATOL, (device.name, column, moved.max())


def test_buses_swap_ports(devices, tmp_path):
    """bus2 on b3 and bus3 on b2 of the shipped device: its cell is
    symmetric in the two ports."""
    shipped = devices[0]
    raw = shipped.config()
    buses = {entry["name"]: entry for entry in raw["subsystems"]}
    buses["bus2"]["nodes"], buses["bus3"]["nodes"] = ["b3"], ["b2"]
    assert_same_report(analyze(tmp_path, raw, shipped.cells), shipped, {"b2": "b3", "b3": "b2"})

