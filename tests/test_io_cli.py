"""File formats, configuration schema, report rendering, CLI surface."""

import copy
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import lumpedq
from lumpedq import analysis, composite, loadedline, netlist
from lumpedq.analysis import run_analysis, run_budget
from lumpedq.benchmark import (
    benchmark_config,
    benchmark_maxwell,
    benchmark_raw_config,
    write_benchmark,
)
from lumpedq.cli import main
from lumpedq.config import load_device_config, parse_device_config
from lumpedq.errors import (
    AsymmetryError,
    ConfigError,
    MalformedPartition,
    ParseError,
    SignError,
)
from lumpedq.maxwell_io import parse_maxwell_file, parse_maxwell_text, serialize_maxwell
from lumpedq.report import AnalysisReport, budget_to_dicts, build_report, to_machine, to_table

CANONICAL = """# units: fF
node,g,a,b
g,5.0,-2.0,-3.0
a,-2.0,6.0,-4.0
b,-3.0,-4.0,8.0
"""


class TestMaxwellFormat:
    def test_parse_canonical(self):
        m = parse_maxwell_text(CANONICAL)
        assert m.names == ("g", "a", "b")
        assert m.display_units == "fF"
        np.testing.assert_allclose(
            m.matrix, np.array([[5, -2, -3], [-2, 6, -4], [-3, -4, 8]]) * 1e-15)

    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(CANONICAL, encoding="utf-8")
        assert serialize_maxwell(parse_maxwell_file(path)) == CANONICAL

    def test_benchmark_fixture_round_trips(self, tmp_path):
        text = serialize_maxwell(benchmark_maxwell())
        assert serialize_maxwell(parse_maxwell_text(text)) == text

    def test_positive_offdiagonal_sign_error(self):
        bad = CANONICAL.replace("a,-2.0,6.0,-4.0", "a,2.0,6.0,-4.0") \
                       .replace("g,5.0,-2.0,-3.0", "g,5.0,2.0,-3.0")
        with pytest.raises(SignError):
            parse_maxwell_text(bad)

    def test_small_asymmetry_symmetrized_with_warning(self):
        nudged = CANONICAL.replace("a,-2.0,6.0,-4.0", "a,-2.000000004,6.0,-4.0")
        with pytest.warns(UserWarning, match="symmetrized"):
            m = parse_maxwell_text(nudged)
        assert m.matrix[0, 1] == m.matrix[1, 0]

    def test_large_asymmetry_rejected(self):
        bad = CANONICAL.replace("a,-2.0,6.0,-4.0", "a,-2.5,6.0,-4.0")
        with pytest.raises(AsymmetryError):
            parse_maxwell_text(bad)

    def test_missing_units_header(self):
        with pytest.raises(ParseError, match="units"):
            parse_maxwell_text(CANONICAL.replace("# units: fF\n", ""))

    def test_bad_number_reports_location(self):
        bad = CANONICAL.replace("6.0", "six")
        with pytest.raises(ParseError) as err:
            parse_maxwell_text(bad)
        assert err.value.line == 4
        assert err.value.column == 3

    def test_ragged_row_reports_line(self):
        with pytest.raises(ParseError, match="2 values for 3 nodes") as err:
            parse_maxwell_text(CANONICAL.replace("b,-3.0,-4.0,8.0", "b,-3.0,-4.0"))
        assert err.value.line == 5

    def test_first_bad_row_in_read_order_is_reported(self):
        bad = CANONICAL.replace("6.0", "six").replace("b,-3.0,-4.0,8.0", "b,-3.0,-4.0")
        with pytest.raises(ParseError, match="six") as err:
            parse_maxwell_text(bad)
        assert (err.value.line, err.value.column) == (4, 3)
        # within a row too, a bad value is reported before a wrong length
        with pytest.raises(ParseError, match="six") as err:
            parse_maxwell_text(CANONICAL.replace("a,-2.0,6.0,-4.0", "a,-2.0,six"))
        assert (err.value.line, err.value.column) == (4, 3)

    def test_error_locations_in_last_row_of_large_file(self):
        names = ("g", *(f"p{i:03d}" for i in range(100)))
        chain = np.arange(100)
        display = np.zeros((101, 101))
        display[chain, chain + 1] = display[chain + 1, chain] = -(1.0 + chain)
        np.fill_diagonal(display, 2.0 - display.sum(axis=1))
        text = serialize_maxwell(netlist.MaxwellMatrix(names, display * 1e-15, "fF", display))
        lines = text.splitlines()
        last = lines[-1].split(",")
        assert len(lines) == 103 and last[0] == "p099"
        bad = [*last[:51], "1.0e", *last[52:]]  # the 51st value, in column 52
        with pytest.raises(ParseError, match="'1.0e'") as err:
            parse_maxwell_text("\n".join([*lines[:-1], ",".join(bad)]) + "\n")
        assert (err.value.line, err.value.column) == (103, 52)
        with pytest.raises(ParseError, match="100 values for 101 nodes") as err:
            parse_maxwell_text("\n".join([*lines[:-1], ",".join(last[:-1])]) + "\n")
        assert err.value.line == 103

    def test_values_parse_as_python_floats(self):
        fields = [[" 5.25e0", "-2", "-3.25 "], ["-2.0", "+6.5", "-4.5E-0"],
                  ["-3.25", "-4.5", "8.000000000000001"]]
        text = "# units: fF\nnode,g,a,b\n" + "".join(
            f"{name},{','.join(row)}\n" for name, row in zip("gab", fields))
        m = parse_maxwell_text(text)
        assert np.array_equal(m.display_matrix, [[float(v) for v in row] for row in fields])

    @pytest.mark.parametrize("row, bad_row, line, column", [
        ("a,-2.0,6.0,-4.0", "a,-2.0,nan,-4.0", 4, 3),
        ("b,-3.0,-4.0,8.0", "b,-3.0,-inf,8.0", 5, 3),
        ("g,5.0,-2.0,-3.0", "g,5.0,-2.0,NaN", 3, 4),
        ("g,5.0,-2.0,-3.0", "g,inf,-2.0,-3.0", 3, 2),
    ])
    def test_non_finite_value_reports_location(self, row, bad_row, line, column):
        with pytest.raises(ParseError, match="not finite") as err:
            parse_maxwell_text(CANONICAL.replace(row, bad_row))
        assert (err.value.line, err.value.column) == (line, column)

    def test_header_row_order_mismatch(self):
        shuffled = CANONICAL.replace("node,g,a,b", "node,g,b,a")
        with pytest.raises(ParseError, match="order"):
            parse_maxwell_text(shuffled)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_maxwell_file(tmp_path / "nope.csv")


class TestConfig:
    def test_benchmark_parses(self, tmp_path):
        cfg = benchmark_config(tmp_path)
        assert cfg.analysis.qubit == "qubit"
        assert cfg.analysis.readout == "readout"
        assert cfg.subsystem_names() == ("qubit", "readout", "bus2", "bus3")

    def test_load_from_file(self, tmp_path):
        path = write_benchmark(tmp_path)
        cfg = load_device_config(path)
        assert cfg.name == "synth-floating-transmon"

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="datum"):
            parse_device_config({"cells": []})

    def test_line_needs_exactly_one_length_source(self, tmp_path):
        raw = benchmark_config(tmp_path).raw
        raw = __import__("copy").deepcopy(dict(raw))
        raw["subsystems"][1]["length_mm"] = 6.8
        with pytest.raises(ConfigError, match="exactly one"):
            parse_device_config(raw, base_dir=tmp_path)

    def test_junction_needs_exactly_one_energy_source(self, tmp_path):
        raw = __import__("copy").deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["junctions"][0]["ej_ghz"] = 13.0
        with pytest.raises(ConfigError, match="exactly one"):
            parse_device_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("section, index, key, value", [
        ("subsystems", 1, "z0_ohm", "fifty"),
        ("subsystems", 1, "z0_ohm", float("nan")),
        ("subsystems", 2, "levels", [3, "three"]),
        ("subsystems", 0, "levels", "five"),
        ("subsystems", 0, "q_offset_2e", float("inf")),
        ("junctions", 0, "lj_nh", float("-inf")),
        ("junctions", 0, "cj_ff", "two"),
    ])
    def test_malformed_number_names_its_field(self, tmp_path, section, index, key, value):
        raw = __import__("copy").deepcopy(dict(benchmark_config(tmp_path).raw))
        raw[section][index][key] = value
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            parse_device_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("section, index, key, value", [
        ("subsystems", 0, "levels", 5.7),
        ("subsystems", 0, "n_max", 30.5),
        ("subsystems", 1, "modes", 2.5),
        ("subsystems", 1, "levels", [4, 3.5]),
        ("subsystems", 1, "target_mode", 1.5),
        ("analysis", None, "dimension_cap", 2e4 + 0.5),
    ])
    def test_integer_field_rejects_a_fraction(self, tmp_path, section, index, key, value):
        """An integer field is not truncated: 5.7 levels is an error, not 5."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        (raw[section] if index is None else raw[section][index])[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be a whole number, got"):
            parse_device_config(raw, base_dir=tmp_path)

    def test_integer_field_accepts_a_whole_float(self, tmp_path):
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["subsystems"][0]["levels"] = 4.0
        levels = parse_device_config(raw, base_dir=tmp_path).transmons[0].levels
        assert levels == 4 and type(levels) is int

    @pytest.mark.parametrize("section, index, key, value", [
        ("subsystems", 1, "z0_ohm", True),
        ("subsystems", 0, "levels", True),
        ("junctions", 0, "cj_ff", False),
        ("analysis", None, "min_overlap", True),
    ])
    def test_numeric_field_rejects_a_boolean(self, tmp_path, section, index, key, value):
        """``z0_ohm: true`` is not 1 ohm."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        (raw[section] if index is None else raw[section][index])[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be a finite number, got {value}"):
            parse_device_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("section, index, key, where", [
        (None, None, "levles", "config"),
        ("cells", 0, "groundnets", "cell 'cell0'"),
        ("subsystems", 0, "levles", "subsystem 'qubit'"),
        ("subsystems", 0, "role", "subsystem 'qubit'"),
        ("subsystems", 1, "levles", "line 'readout'"),
        ("junctions", 0, "lj_nH", "junction 'j1'"),
        ("analysis", None, "qubti", "analysis"),
    ])
    def test_unknown_field_rejected(self, tmp_path, section, index, key, where):
        """A key no parser reads is an error naming it and its entry, not
        silently ignored."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        entry = raw if section is None else raw[section] if index is None else raw[section][index]
        entry[key] = 9
        with pytest.raises(ConfigError, match=re.escape(f"{where}: unknown field(s) '{key}'")):
            parse_device_config(raw, base_dir=tmp_path)

    def test_unknown_inductor_field_rejected(self, tmp_path):
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["inductors"] = [{"nodes": ["g", "b2"], "l_nh": 10.0, "l_uh": 0.01}]
        message = "inductor ['g', 'b2']: unknown field(s) 'l_uh'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_device_config(raw, base_dir=tmp_path)

    def test_two_phase_velocities_rejected(self, tmp_path):
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["subsystems"][1]["vp_m_per_s"] = 1.2e8
        with pytest.raises(ConfigError, match="line 'readout': give one of vp_m_per_s or"):
            parse_device_config(raw, base_dir=tmp_path)

    def test_override_unknown_path(self, tmp_path):
        cfg = benchmark_config(tmp_path)
        with pytest.raises(ConfigError, match="override path"):
            cfg.with_override("junctions.zz.lj_nh", 1.0)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cfg = benchmark_config(tmp_path_factory.mktemp("rep"))
    return run_analysis(cfg, naive=True)


class TestReports:
    def test_machine_output_deterministic(self, tmp_path):
        cfg = benchmark_config(tmp_path)
        a = to_machine(run_analysis(cfg))
        b = to_machine(run_analysis(cfg))
        assert a == b

    def test_machine_output_self_describing(self, report):
        doc = json.loads(to_machine(report))
        assert doc["format"] == "lumpedq-report/1"
        assert "conventions" in doc
        chi = doc["observables"]["dispersive"]["chi_qr"]
        assert set(chi) == {"value", "unit"} and chi["unit"] == "Hz"
        assert "naive" in doc

    def test_provenance_hashes_inputs(self, report):
        prov = report.provenance
        assert prov["tool_version"]
        assert "qubit_cell.csv" in prov["input_sha256"]
        assert len(prov["config_sha256"]) == 64

    def test_provenance_keys_inputs_by_config_entry(self, tmp_path):
        """Two cells with one basename in different directories keep one
        entry each, keyed by the maxwell_file string of the config, and
        each hashes the bytes that were parsed, even when the file changes
        before the report is built."""
        shipped = serialize_maxwell(benchmark_maxwell())
        spectator = "# units: fF\nnode,g,b2,pad\ng,30.1,-0.1,-30.0\n" \
                    "b2,-0.1,0.1,0.0\npad,-30.0,0.0,30.0\n"
        for sub, text in (("a", shipped), ("b", spectator)):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "cell.csv").write_text(text, encoding="utf-8")
        raw = benchmark_raw_config("a/cell.csv")
        raw["cells"].append({"id": "cell1", "maxwell_file": "b/cell.csv"})
        raw["couplers"].append("pad")
        cfg = parse_device_config(raw, base_dir=tmp_path)
        parsed = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("a/cell.csv", "b/cell.csv")}
        model = analysis.build_model(cfg)
        (tmp_path / "b" / "cell.csv").write_text(spectator + "\n", encoding="utf-8")
        assert build_report(model).provenance["input_sha256"] == parsed

    def test_provenance_quotes_the_checked_constants(self, report):
        prov = report.provenance
        assert prov["tool_version"] == lumpedq.__version__
        assert prov["tolerances"] == {
            "kernel_rtol": netlist.KERNEL_RTOL,
            "symmetry_rtol": netlist.SYMMETRY_RTOL,
            "mode_residual_rtol": loadedline.MODE_RESIDUAL_RTOL,
        }

    def test_table_rendering(self, report):
        text = to_table(report)
        assert "dispersive observables" in text
        assert "naive comparison" in text


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def device_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    write_benchmark(d)
    return d


@pytest.fixture(scope="module")
def line_spec(tmp_path_factory):
    d = tmp_path_factory.mktemp("line")
    path = d / "line.yaml"
    path.write_text(yaml.safe_dump({
        "length_mm": 6.8645659,
        "z0_ohm": 53.0,
        "vp_fraction_c": 0.403,
        "c_load_ff": 320.0,
        "termination": "open",
    }), encoding="utf-8")
    return path


class TestCli:
    def test_analyze_machine(self, device_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("analyze", str(device_dir / "device.yaml"),
                       "--format", "machine", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["device"] == "synth-floating-transmon"

    def test_analyze_table_stdout(self, device_dir, capsys):
        assert run_cli("analyze", str(device_dir / "device.yaml")) == 0
        assert "dispersive observables" in capsys.readouterr().out

    def test_analyze_deterministic_bytes(self, device_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("analyze", str(device_dir / "device.yaml"), "--format", "machine",
                "-o", str(out1))
        run_cli("analyze", str(device_dir / "device.yaml"), "--format", "machine",
                "-o", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_modes_subcommand(self, line_spec, capsys):
        assert run_cli("modes", str(line_spec), "--count", "3") == 0
        out = capsys.readouterr().out
        assert "d.c." in out
        assert "7.00" in out  # loaded fundamental near 7 GHz

    def test_modes_machine_field_series(self, line_spec, tmp_path):
        out = tmp_path / "modes.json"
        assert run_cli("modes", str(line_spec), "--count", "2", "--samples", "11",
                       "--format", "machine", "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        assert len(doc["modes"]) == 2
        assert len(doc["modes"][0]["field"]["z_m"]) == 11

    def test_modes_rejects_misspelled_termination(self, line_spec, tmp_path, capsys):
        raw = yaml.safe_load(line_spec.read_text(encoding="utf-8"))
        path = tmp_path / "shrot.yaml"
        path.write_text(yaml.safe_dump({**raw, "termination": "shrot"}), encoding="utf-8")
        assert run_cli("modes", str(path)) == 2
        assert "termination must be open or short" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("z0_ohm", "fifty", "z0_ohm must be a finite number, got 'fifty'"),
        ("c_load_ff", float("nan"), "c_load_ff must be a finite number, got nan"),
        ("vp_fraction_c", None, "need vp_m_per_s or vp_fraction_c"),
        ("length_mm", None, "missing required field 'length_mm'"),
    ])
    def test_modes_rejects_malformed_number(self, line_spec, tmp_path, capsys, field, value,
                                            message):
        raw = yaml.safe_load(line_spec.read_text(encoding="utf-8"))
        if value is None:
            del raw[field]
        else:
            raw[field] = value
        path = tmp_path / "malformed.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("modes", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_sweep_subcommand(self, device_dir, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", str(device_dir / "device.yaml"),
                       "--param", "junctions.j1.lj_nh", "--values", "11.5,12.0,12.5",
                       "--format", "machine", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        f_q = [p["observables"]["dispersive"]["f_qubit"]["value"] for p in doc["points"]]
        assert f_q[0] > f_q[1] > f_q[2]

    def test_budget_subcommand(self, device_dir, tmp_path):
        out = tmp_path / "budget.json"
        assert run_cli("budget", str(device_dir / "device.yaml"),
                       "--format", "machine", "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        features = [row["feature"] for row in doc["budget"]]
        assert "coupling_hamiltonians" in features
        assert "readout_first_harmonic" in features

    def test_modes_rejects_unknown_field(self, line_spec, tmp_path, capsys):
        raw = yaml.safe_load(line_spec.read_text(encoding="utf-8"))
        path = tmp_path / "extra.yaml"
        path.write_text(yaml.safe_dump({**raw, "c_load_pf": 0.32}), encoding="utf-8")
        assert run_cli("modes", str(path)) == 2
        assert "unknown field(s) 'c_load_pf'" in capsys.readouterr().err

    def test_sweep_of_a_misspelled_field_exit_code_2(self, device_dir, capsys):
        """Sweeping ``lj_nH`` (for ``lj_nh``) used to report the same f_q at
        every point; the override adds a field no parser reads."""
        assert run_cli("sweep", str(device_dir / "device.yaml"), "--param",
                       "junctions.j1.lj_nH", "--values", "10,14") == 2
        assert "junction 'j1': unknown field(s) 'lj_nH'" in capsys.readouterr().err

    def test_inductance_on_a_line_port_exit_code_2(self, device_dir, tmp_path, capsys):
        """The quantization has no inductive line load, so an inductor from
        ground to a bus port is refused, naive comparison or not."""
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text(encoding="utf-8"))
        cfg["inductors"] = [{"nodes": ["g", "b2"], "l_nh": 10.0}]
        (tmp_path / "device.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((device_dir / "qubit_cell.csv").read_bytes())
        assert run_cli("analyze", str(tmp_path / "device.yaml"), "--naive") == 2
        assert "retained coordinates ['b2'] carry a linear inductance" in capsys.readouterr().err

    def test_validation_error_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("datum: g\n", encoding="utf-8")
        assert run_cli("analyze", str(bad)) == 2

    @pytest.mark.parametrize("path, value", [
        ("couplers", ["p0", "cl", "zz"]),
        ("subsystems.bus2.nodes", ["b2", "zz"]),
    ])
    def test_misspelled_node_exit_code_2(self, device_dir, tmp_path, capsys, path, value):
        """A declared node that lies in no Maxwell cell and on no inductor is
        a partition error naming it, not a singular matrix later on."""
        cfg = load_device_config(device_dir / "device.yaml").with_override(path, value)
        with pytest.raises(MalformedPartition, match="'zz'"):
            analysis.build_circuit(cfg)
        misspelled = tmp_path / "misspelled.yaml"
        misspelled.write_text(yaml.safe_dump(cfg.raw), encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((device_dir / "qubit_cell.csv").read_bytes())
        assert run_cli("analyze", str(misspelled)) == 2
        assert "'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(inductors=[{"nodes": ["g", "cl"], "l_nh": 0}]),
         "inductor ['g', 'cl']: l_nh must be positive, got 0"),
        (lambda cfg: cfg.update(inductors=[{"nodes": ["g", "cl"], "l_nh": -5}]),
         "inductor ['g', 'cl']: l_nh must be positive, got -5"),
        (lambda cfg: cfg["junctions"][0].update(lj_nh=0),
         "junction 'j1': lj_nh must be positive, got 0"),
        (lambda cfg: cfg["junctions"][0].update(lj_nh=None, ej_ghz=0),
         "junction 'j1': ej_ghz must be positive, got 0"),
        (lambda cfg: cfg["junctions"][0].update(subsystem="nosuch"),
         "junction 'j1' names no subsystem: 'nosuch'"),
        (lambda cfg: cfg["couplers"].remove("cl"),
         "cell 'cell0' nodes not in the registry: ['cl']"),
    ], ids=["l_nh-zero", "l_nh-negative", "lj_nh-zero", "ej_ghz-zero", "junction-subsystem",
            "undeclared-cell-node"])
    def test_refused_config_exit_code_2(self, device_dir, tmp_path, capsys, edit, message):
        """Non-positive inductances and energies, a junction of no subsystem
        and a cell node the partition leaves out are validation errors that
        name the entry, not a traceback or a numerical failure later on."""
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text(encoding="utf-8"))
        edit(cfg)
        (tmp_path / "device.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((device_dir / "qubit_cell.csv").read_bytes())
        assert run_cli("analyze", str(tmp_path / "device.yaml")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("z0_ohm: 53.0", "z0_ohm: fifty", "z0_ohm must be a finite number, got 'fifty'"),
        ("z0_ohm: 53.0", "z0_ohm: .nan", "z0_ohm must be a finite number, got nan"),
        ("levels: 5", "levels: five", "levels must be a finite number, got 'five'"),
    ])
    def test_malformed_config_number_exit_code_2(self, device_dir, tmp_path, capsys, old, new,
                                                  message):
        text = (device_dir / "device.yaml").read_text(encoding="utf-8")
        (tmp_path / "device.yaml").write_text(text.replace(old, new, 1), encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((device_dir / "qubit_cell.csv").read_bytes())
        assert run_cli("analyze", str(tmp_path / "device.yaml")) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_maxwell_value_exit_code_2(self, device_dir, tmp_path, capsys):
        text = (device_dir / "qubit_cell.csv").read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("b1,"))
        fields = lines[row].split(",")
        fields[3] = "nan"  # the b1-b2 mutual
        lines[row] = ",".join(fields)
        (tmp_path / "qubit_cell.csv").write_text("".join(lines), encoding="utf-8")
        (tmp_path / "device.yaml").write_bytes((device_dir / "device.yaml").read_bytes())
        assert run_cli("analyze", str(tmp_path / "device.yaml")) == 2
        assert f"line {row + 1}, column 4" in capsys.readouterr().err

    def test_numerical_error_exit_code_3(self, device_dir, tmp_path):
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text())
        cfg["analysis"]["dimension_cap"] = 10
        small = tmp_path / "capped.yaml"
        small.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        import shutil

        shutil.copy(device_dir / "qubit_cell.csv", tmp_path / "qubit_cell.csv")
        assert run_cli("analyze", str(small)) == 3

    def test_budget_reuses_the_base_build(self, device_dir, tmp_path, monkeypatch):
        """The budget quantizes its base model once, builds a circuit only for
        the base and the rows that change it (substrate, junction capacitance,
        cell padding), and its machine report is byte-identical to one
        assembled from separate budget and analysis runs."""
        config = load_device_config(device_dir / "device.yaml")
        rows = run_budget(config)
        base = run_analysis(config)
        separate = to_machine(AnalysisReport(
            device=base.device, provenance=base.provenance,
            observables=base.observables, budget=budget_to_dicts(rows)))

        calls, circuits = [], []
        build, build_circuit = analysis.build_model, analysis.build_circuit

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return build(*args, **kwargs)

        def counting_circuit(*args, **kwargs):
            circuits.append(args)
            return build_circuit(*args, **kwargs)

        monkeypatch.setattr(analysis, "build_model", counting)
        monkeypatch.setattr(analysis, "build_circuit", counting_circuit)
        out = tmp_path / "budget.json"
        assert run_cli("budget", str(device_dir / "device.yaml"),
                       "--format", "machine", "-o", str(out)) == 0
        assert out.read_text(encoding="utf-8") == separate
        assert len(calls) == len(rows) + 1 == 8
        assert len(circuits) == 4

    def test_memory_guard_exit_code_3(self, device_dir, monkeypatch, capsys):
        monkeypatch.setattr(composite, "available_memory_bytes", lambda: 1 << 20)
        assert run_cli("analyze", str(device_dir / "device.yaml")) == 3
        assert "available" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.0, 0.49, 1.01])
    def test_min_overlap_outside_range_rejected(self, device_dir, value):
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text())
        cfg["analysis"]["min_overlap"] = value
        with pytest.raises(ConfigError, match="min_overlap"):
            parse_device_config(cfg, base_dir=device_dir)

    @pytest.mark.parametrize("value", [0.5, 1.0])
    def test_min_overlap_range_ends_accepted(self, device_dir, value):
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text())
        cfg["analysis"]["min_overlap"] = value
        assert parse_device_config(cfg, base_dir=device_dir).analysis.min_overlap == value

    def test_console_entry_point(self, device_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "lumpedq.cli", "analyze",
             str(device_dir / "device.yaml")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dispersive" in proc.stdout
