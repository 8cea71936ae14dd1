"""Whole-device invariance: transformations that leave the physical device
as it is leave its report as it is.

Each test runs the full and the naive ``analyze`` of the shipped device
under one transformation and compares the report with the shipped one:
the same quantities, in the same units, every field in Hz within 1e-3 Hz
and every other field within 1e-9 relative. A pair key names its two modes
in sorted order, and the node names in a key are mapped back through the
transformation's renaming.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumpedq.analysis import run_analysis
from lumpedq.benchmark import NODES, benchmark_maxwell, benchmark_raw_config
from lumpedq.config import parse_device_config
from lumpedq.maxwell_io import serialize_maxwell
from lumpedq.netlist import MaxwellMatrix

HZ_ATOL = 1e-3  # largest change in Hz a summation reorder may cause
OTHER_RTOL = 1e-9


def maxwell(names, display_ff: np.ndarray) -> MaxwellMatrix:
    return MaxwellMatrix(names=tuple(names), matrix=display_ff * 1e-15, display_units="fF",
                         display_matrix=display_ff)


SHIPPED = benchmark_maxwell()
SPECTATOR = maxwell(("g", "s"), np.array([[50.0, -50.0], [-50.0, 50.0]]))


def analyze(directory: Path, raw: dict, cells: dict[str, MaxwellMatrix]):
    """The ``analyze --naive`` report of ``raw``, with each Maxwell matrix
    of ``cells`` written to ``directory`` under its file name."""
    for name, matrix in cells.items():
        (directory / name).write_text(serialize_maxwell(matrix), encoding="utf-8")
    return run_analysis(parse_device_config(raw, base_dir=directory), naive=True)


def quantities(report, rename: dict[str, str]) -> dict[tuple[str, str, str], tuple]:
    """(value, unit) of every quantity of the full and the naive
    observables, keyed by (block, group, name): the names in a pair key
    sorted, and each ``:``-separated part of a name mapped by ``rename``."""
    out = {}
    for block, observables in (("full", report.observables), ("naive", report.naive)):
        for group, fields in observables.items():
            for key, q in fields.items():
                names = sorted(":".join(rename.get(part, part) for part in name.split(":"))
                               for name in key.split("|"))
                out[block, group, "|".join(names)] = (q["value"], q["unit"])
    return out


def assert_same_report(report, shipped, rename: dict[str, str] | None = None):
    got, want = quantities(report, rename or {}), quantities(shipped, {})
    assert got.keys() == want.keys()
    for key, (value, unit) in want.items():
        assert got[key][1] == unit, key
        if unit == "Hz":
            assert abs(got[key][0] - value) <= HZ_ATOL, (key, got[key][0] - value)
        else:
            assert got[key][0] == pytest.approx(value, rel=OTHER_RTOL, abs=0.0), key


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    return analyze(tmp_path_factory.mktemp("shipped"), benchmark_raw_config(),
                   {"qubit_cell.csv": SHIPPED})


@settings(max_examples=20)
@given(order=st.permutations(range(len(NODES))))
def test_maxwell_rows_and_columns_permuted(shipped, tmp_path_factory, order):
    permuted = maxwell([NODES[i] for i in order],
                       SHIPPED.display_matrix[np.ix_(order, order)])
    report = analyze(tmp_path_factory.mktemp("permuted"), benchmark_raw_config(),
                     {"qubit_cell.csv": permuted})
    assert_same_report(report, shipped)


def test_every_node_renamed(shipped, tmp_path):
    """Each node takes a new name, in reverse of the old names' sorted
    order, in the config and in the Maxwell file."""
    rename = {node: f"node{k}" for k, node in enumerate(sorted(NODES, reverse=True))}
    raw = benchmark_raw_config()
    raw["datum"] = rename[raw["datum"]]
    raw["couplers"] = [rename[node] for node in raw["couplers"]]
    for entry in (*raw["subsystems"], *raw["junctions"]):
        entry["nodes"] = [rename[node] for node in entry["nodes"]]
    cell = maxwell([rename[node] for node in NODES], SHIPPED.display_matrix)
    report = analyze(tmp_path, raw, {"qubit_cell.csv": cell})
    assert_same_report(report, shipped, {new: old for old, new in rename.items()})


def test_subsystems_listed_in_reverse(shipped, tmp_path):
    raw = benchmark_raw_config()
    raw["subsystems"].reverse()
    assert_same_report(analyze(tmp_path, raw, {"qubit_cell.csv": SHIPPED}), shipped)


def test_cell_split_into_two_halves(shipped, tmp_path):
    """Two cells on the same nodes, each with half the shipped C, add up to
    the shipped cell."""
    raw = benchmark_raw_config()
    raw["cells"] = [{"id": "half_a", "maxwell_file": "half_a.csv"},
                    {"id": "half_b", "maxwell_file": "half_b.csv"}]
    half = maxwell(NODES, 0.5 * SHIPPED.display_matrix)
    report = analyze(tmp_path, raw, {"half_a.csv": half, "half_b.csv": half})
    assert_same_report(report, shipped)


def test_isolated_spectator_pad(shipped, tmp_path):
    """A coupler pad in a cell of its own, with C to the datum alone."""
    raw = benchmark_raw_config()
    raw["cells"].append({"id": "spectator", "maxwell_file": "spectator.csv"})
    raw["couplers"].append("s")
    report = analyze(tmp_path, raw, {"qubit_cell.csv": SHIPPED, "spectator.csv": SPECTATOR})
    assert_same_report(report, shipped)


def test_buses_swap_ports(shipped, tmp_path):
    """bus2 on b3 and bus3 on b2: the cell is symmetric in the two ports."""
    raw = benchmark_raw_config()
    buses = {entry["name"]: entry for entry in raw["subsystems"]}
    buses["bus2"]["nodes"], buses["bus3"]["nodes"] = ["b3"], ["b2"]
    report = analyze(tmp_path, raw, {"qubit_cell.csv": SHIPPED})
    assert_same_report(report, shipped, {"b2": "b3", "b3": "b2"})
