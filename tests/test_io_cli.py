"""File formats, configuration schema, report rendering, CLI surface."""

import copy
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import yaml

import lumpedq
from lumpedq import analysis, composite, loadedline, netlist, subsystems
from lumpedq.analysis import calibrate_junction, run_analysis, run_budget, run_sweep
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

    def test_positive_offdiagonal_sign_error(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(CANONICAL.replace("a,-2.0,6.0,-4.0", "a,2.0,6.0,-4.0")
                                 .replace("g,5.0,-2.0,-3.0", "g,5.0,2.0,-3.0"), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: positive off-diagonal"):
            parse_maxwell_file(path)

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
    def test_load_from_file(self, tmp_path):
        path = write_benchmark(tmp_path)
        cfg = load_device_config(path)
        assert cfg.name == "synth-floating-transmon"
        assert cfg.analysis.qubit == "qubit"
        assert cfg.analysis.readout == "readout"

    def test_integer_node_names_read_as_strings(self):
        """YAML reads a node name such as 0 as an integer; every list of node
        names takes it as its decimal string."""
        raw = benchmark_raw_config()
        raw["couplers"] = [0, "cl"]
        raw["cells"][0]["ground_nets"] = [2]
        raw["subsystems"][0]["nodes"] = [1]
        raw["junctions"][0]["nodes"] = [0, 1]
        raw["inductors"] = [{"nodes": ["g", 3], "l_nh": 1.0}]
        cfg = parse_device_config(raw)
        assert cfg.couplers == ("0", "cl")
        assert cfg.cells[0].ground_nets == ("2",)
        assert cfg.transmons[0].nodes == ("1",)
        assert (cfg.junctions[0].node_neg, cfg.junctions[0].node_pos) == ("0", "1")
        assert cfg.inductors[0].node_b == "3"

    @pytest.mark.parametrize("path", [
        ("name",), ("analysis",), ("analysis", "qubit"), ("analysis", "readout"),
        ("subsystems", 1, "role"), ("subsystems", 1, "termination"),
        ("subsystems", 1, "target_loading"),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_null_optional_field_reads_as_absent(self, path):
        """An optional field given as null parses as if it were absent: it
        takes its default, not the string 'None' or an error."""
        null, absent = benchmark_raw_config(), benchmark_raw_config()
        for doc in (null, absent):
            node = doc
            for key in path[:-1]:
                node = node[key]
            if doc is null:
                node[path[-1]] = None
            else:
                del node[path[-1]]
        assert parse_device_config(null) == parse_device_config(absent)

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

    @pytest.mark.parametrize("section, index, key, misspells, where", [
        ("junctions", 0, "lj_nH", "lj_nh", "junction 'j1'"),
        ("subsystems", 1, "length_m", "target_ghz", "line 'readout'"),
    ])
    def test_misspelled_sole_source_is_an_unknown_field(self, tmp_path, section, index, key,
                                                         misspells, where):
        """A misspelled key that was an entry's only energy or length source
        is reported as the unknown field it is, not as the missing source."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        entry = raw[section][index]
        entry[key] = entry.pop(misspells)
        with pytest.raises(ConfigError, match=re.escape(f"{where}: unknown field(s) '{key}'")):
            parse_device_config(raw, base_dir=tmp_path)

    def test_every_mapping_refuses_an_unread_key(self, tmp_path):
        """Each mapping of a config (the document, every cell, subsystem,
        junction and inductor, and the analysis block), given one key no
        read names, is refused for that key and nothing else."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["inductors"] = [{"nodes": ["g", "b2"], "l_nh": 10.0}]
        parse_device_config(raw, base_dir=tmp_path)
        mappings = [(), ("analysis",)] + [(section, k) for section in (
            "cells", "subsystems", "junctions", "inductors") for k in range(len(raw[section]))]
        assert len(mappings) == 9
        for path in mappings:
            doc = copy.deepcopy(raw)
            entry = doc
            for key in path:
                entry = entry[key]
            entry["unread"] = 1
            with pytest.raises(ConfigError, match=r"^[^\n]*: unknown field\(s\) 'unread'$"):
                parse_device_config(doc, base_dir=tmp_path)

    def test_two_phase_velocities_rejected(self, tmp_path):
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["subsystems"][1]["vp_m_per_s"] = 1.2e8
        with pytest.raises(ConfigError, match="line 'readout': give one of vp_m_per_s or"):
            parse_device_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("path", [
        "junctions.zz.lj_nh",
        "couplers.p0.x",  # a list of names, not of mappings
        "name.x",
        "analysis.qubit.x",
        "junctions.j1.lj_nh.x",
        "name.s.x",  # 's' is in the device name as a substring, not as a field
        "junctions.j1",  # ends on a list
    ])
    def test_override_unknown_path(self, tmp_path, path):
        """An override steps only into mappings, and in a list only into the
        mapping whose id or name matches; any other path is refused."""
        cfg = benchmark_config(tmp_path)
        with pytest.raises(ConfigError, match=re.escape(f"override path {path!r}")):
            cfg.with_override(path, 12.0)

    def test_override_reaches_an_integer_id(self, tmp_path):
        """YAML reads ``id: 1`` as an integer, and the parser names the
        junction "1"; an override path names it the same way, so the
        budget's junction-capacitance row can vary it."""
        raw = copy.deepcopy(dict(benchmark_config(tmp_path).raw))
        raw["junctions"][0]["id"] = 1
        cfg = parse_device_config(raw, base_dir=tmp_path)
        assert cfg.junctions[0].ident == "1"
        assert cfg.with_override("junctions.1.lj_nh", 11.0).junctions[0].lj_h == 11.0 * 1e-9
        assert run_budget(cfg)


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "-1", "modes: --samples must not be negative, got -1"),
        ("--count", "0", "mode count must be at least 1"),
    ])
    def test_modes_refused_count_exit_code_2(self, line_spec, capsys, flag, value, message):
        assert run_cli("modes", str(line_spec), flag, value) == 2
        assert message in capsys.readouterr().err

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

    def test_budget_table(self, device_dir, capsys):
        """The budget table lists its 7 rows, each ending in its change of
        chi_qr in percent."""
        assert run_cli("budget", str(device_dir / "device.yaml")) == 0
        out = capsys.readouterr().out
        section = out.split("sensitivity budget (delta chi_qr vs full model)\n")[1]
        rows = section.split("\n\n")[0].splitlines()
        assert [row.split()[0] for row in rows] == [
            "coupling_hamiltonians", "readout_first_harmonic", "line_impedance",
            "line_impedance", "substrate_permittivity", "junction_capacitance", "cell_padding"]
        assert all(re.search(r"  [+-]\d+\.\d{3} %$", row) for row in rows)

    def test_sweep_table(self, device_dir, capsys):
        """A sweep's table is each point's table in turn."""
        config = load_device_config(device_dir / "device.yaml")
        assert run_cli("sweep", str(device_dir / "device.yaml"),
                       "--param", "junctions.j1.lj_nh", "--values", "11.5,12.5") == 0
        assert capsys.readouterr().out == "".join(
            to_table(r) + "\n" for r in run_sweep(config, "junctions.j1.lj_nh", [11.5, 12.5]))

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
        (lambda cfg: cfg["junctions"].append(
            {"id": "j2", "nodes": ["g", "b1"], "subsystem": "readout", "lj_nh": 10.0}),
         "line 'readout' must retain exactly its nodes ['b1'], but retains ['j2']"),
        (lambda cfg: cfg["junctions"].append(
            {"id": "j2", "nodes": ["b2", "b3"], "subsystem": "bus2", "lj_nh": 10.0}),
         "line 'bus2' must retain exactly its nodes ['b2'], but retains ['j2', 'b2']"),
        (lambda cfg: cfg.update(junctions=[]),
         "transmon 'qubit' must retain exactly one junction flux and nothing else; "
         "it retains non-junction coordinates ['p1'] and junction fluxes []"),
        (lambda cfg: cfg["junctions"].append(
            {"id": "j2", "nodes": ["g", "p1"], "subsystem": "qubit", "lj_nh": 10.0}),
         "transmon 'qubit' must retain exactly one junction flux and nothing else; "
         "it retains non-junction coordinates [] and junction fluxes ['j1', 'j2']"),
        (lambda cfg: (cfg.update(couplers=["cl"]),
                      cfg["subsystems"][0].update(nodes=["p0", "p1"])),
         "transmon 'qubit' must retain exactly one junction flux and nothing else; "
         "it retains non-junction coordinates ['p0'] and junction fluxes ['j1']"),
        (lambda cfg: cfg["junctions"].append(
            {"id": "j2", "nodes": ["b2", "b3"], "subsystem": "bus2", "lj_nh": 10.0}),
         "line 'bus3' must retain exactly its nodes ['b3'], but retains []"),
        (lambda cfg: cfg["analysis"].update(qubit="qbit"),
         "analysis: qubit 'qbit' names no subsystem"),
        (lambda cfg: cfg["subsystems"][1].update(name="ro"),
         "analysis: readout 'readout' names no subsystem"),
        (lambda cfg: cfg["analysis"].update(qubit="readout"),
         "analysis: qubit and readout both name 'readout'"),
        (lambda cfg: cfg["analysis"].update(qubit="bus2"),
         "analysis: qubit 'bus2' names a loaded line; it must name a transmon"),
        (lambda cfg: cfg["analysis"].update(qubit="bus2", readout="qubit"),
         "analysis: qubit 'bus2' names a loaded line; it must name a transmon\n"
         "analysis: readout 'qubit' names a transmon; it must name a loaded line"),
        (lambda cfg: cfg.update(couplers="cl"),
         "config: couplers must be a list of node names, got 'cl'"),
        (lambda cfg: cfg["cells"][0].update(ground_nets="cl"),
         "cell 'cell0': ground_nets must be a list of node names, got 'cl'"),
        (lambda cfg: cfg["subsystems"][0].update(nodes={"a": 1}),
         "subsystem 'qubit': nodes must be a list of node names, got {'a': 1}"),
        (lambda cfg: cfg["junctions"][0].update(nodes=["p0", None]),
         "junction 'j1': nodes must be a list of node names, got item None"),
        (lambda cfg: cfg.update(subsystems=7),
         "config: subsystems must be a list of mappings, got 7"),
        (lambda cfg: cfg["junctions"].append("j2"),
         "config: junctions must be a list of mappings, got item 'j2'"),
        (lambda cfg: cfg["analysis"].update(dimension_cap=0),
         "analysis: dimension_cap must be positive, got 0"),
        (lambda cfg: cfg["analysis"].update(dimension_cap=-5),
         "analysis: dimension_cap must be positive, got -5"),
    ], ids=["l_nh-zero", "l_nh-negative", "lj_nh-zero", "ej_ghz-zero", "junction-subsystem",
            "undeclared-cell-node", "junction-on-a-line", "junction-consumes-a-line-port",
            "transmon-without-junction", "transmon-with-two-junctions", "pad-left-on-a-transmon",
            "junction-consumes-another-lines-port", "analysis-qubit-unknown",
            "analysis-readout-renamed", "analysis-qubit-is-readout", "analysis-qubit-is-a-line",
            "analysis-pair-swapped", "couplers-bare-string",
            "ground_nets-bare-string", "nodes-mapping", "junction-node-null", "subsystems-scalar",
            "junction-entry-string", "dimension_cap-zero", "dimension_cap-negative"])
    def test_refused_config_exit_code_2(self, device_dir, tmp_path, capsys, edit, message):
        """Non-positive inductances and energies, a junction of no subsystem,
        a cell node the partition leaves out, retained coordinates that are
        not the subsystem's ports (a junction on a line or consuming its
        port, a transmon without exactly one junction flux; every failing
        subsystem is named), an analysis block that names no subsystem, one
        subsystem twice, or a subsystem of the wrong kind for its field
        (every failing field is named), a list field that is not a list of the
        right kind, and a dimension cap that is not positive are validation
        errors that name the entry, not a traceback or a numerical failure
        later on."""
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

    @pytest.mark.parametrize("param, values, message", [
        ("junctions.j1.lj_nh", "11,abc", "sweep: --values must be a finite number, got 'abc'"),
        ("analysis.qubit", "1", "analysis: qubit '1.0' names no subsystem"),
        ("couplers.p0.x", "12", "override path 'couplers.p0.x': no field or named entry 'p0'"),
        ("name.s.x", "12", "override path 'name.s.x': no field or named entry 's'"),
    ])
    def test_refused_sweep_exit_code_2(self, device_dir, capsys, param, values, message):
        assert run_cli("sweep", str(device_dir / "device.yaml"), "--param", param,
                       "--values", values) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "modes"])
    @pytest.mark.parametrize("make, message", [
        (lambda path: None, "file not found"),
        (lambda path: path.mkdir(), "cannot read"),
        (lambda path: path.write_bytes(b"name: \xff\n"), "cannot read"),
        (lambda path: path.write_text("name: [1,\n", encoding="utf-8"), "invalid YAML"),
    ], ids=["missing", "directory", "not-utf8", "invalid"])
    def test_unreadable_yaml_exit_code_2(self, tmp_path, capsys, command, make, message):
        path = tmp_path / "input.yaml"
        make(path)
        assert run_cli(command, str(path)) == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"# units: fF\nnode,g\ng,\xff\n"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_maxwell_file_exit_code_2(self, device_dir, tmp_path, capsys, make):
        (tmp_path / "device.yaml").write_bytes((device_dir / "device.yaml").read_bytes())
        make(tmp_path / "qubit_cell.csv")
        assert run_cli("analyze", str(tmp_path / "device.yaml")) == 2
        err = capsys.readouterr().err
        assert "cannot read Maxwell matrix file" in err and str(tmp_path / "qubit_cell.csv") in err

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

    def test_floating_private_pads_exit_code_3(self, device_dir, tmp_path, capsys):
        """Two private pads coupled only to each other are condensed in their
        cell; their block is singular, and the error names the cell and both
        pads."""
        mat = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, -3.0], [0.0, -3.0, 3.0]])
        pads = netlist.MaxwellMatrix(names=("g", "fa", "fb"), matrix=mat * 1e-15,
                                     display_units="fF", display_matrix=mat)
        (tmp_path / "pads.csv").write_text(serialize_maxwell(pads), encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((device_dir / "qubit_cell.csv").read_bytes())
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text(encoding="utf-8"))
        cfg["cells"].append({"id": "pads", "maxwell_file": "pads.csv"})
        cfg["couplers"] += ["fa", "fb"]
        (tmp_path / "device.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run_cli("analyze", str(tmp_path / "device.yaml")) == 3
        assert ("coupler capacitance block of cell 'pads' is numerically singular; "
                "the eliminated nodes ['fa', 'fb']") in capsys.readouterr().err

    def test_numerical_error_exit_code_3(self, device_dir, tmp_path):
        cfg = yaml.safe_load((device_dir / "device.yaml").read_text())
        cfg["analysis"]["dimension_cap"] = 10
        small = tmp_path / "capped.yaml"
        small.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        import shutil

        shutil.copy(device_dir / "qubit_cell.csv", tmp_path / "qubit_cell.csv")
        assert run_cli("analyze", str(small)) == 3

    def test_budget_reuses_the_base_build(self, device_dir, tmp_path, monkeypatch):
        """The budget quantizes its base model once, reruns stages 2-7 only
        for the base and the rows that change the circuit (substrate,
        junction capacitance, cell padding), re-solves only the readout line
        for the readout rows, reruns stage 7 alone for the coupling row, and
        its machine report is byte-identical to one assembled from separate
        budget and analysis runs."""
        config = load_device_config(device_dir / "device.yaml")
        rows = run_budget(config)
        base = run_analysis(config)
        separate = to_machine(AnalysisReport(
            device=base.device, provenance=base.provenance,
            observables=base.observables, budget=budget_to_dicts(rows)))

        calls, circuits, solved = [], [], []
        build, from_cells = analysis.build_model, analysis._circuit_from_cells
        solve = analysis.solve_modes

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return build(*args, **kwargs)

        def counting_circuit(*args):
            circuits.append(args)
            return from_cells(*args)

        def counting_solve(spec, count):
            solved.append(spec)
            return solve(spec, count)

        monkeypatch.setattr(analysis, "build_model", counting)
        monkeypatch.setattr(analysis, "_circuit_from_cells", counting_circuit)
        monkeypatch.setattr(analysis, "solve_modes", counting_solve)
        out = tmp_path / "budget.json"
        assert run_cli("budget", str(device_dir / "device.yaml"),
                       "--format", "machine", "-o", str(out)) == 0
        assert out.read_text(encoding="utf-8") == separate
        assert len(rows) == 7
        assert len(calls) == len(circuits) == 4
        # 3 lines for each of the 4 builds, and the readout alone for each readout row
        assert len(solved) == 3 * 4 + 3
        readout_z0 = config.lines[0].z0_ohm
        assert [spec.z0 for spec in solved[3:6]] == pytest.approx(
            [readout_z0 * (1 + 0.03 * sign) for sign in (0, +1, -1)], rel=1e-12)

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


def config_fields(node, path=()):
    """The path of every mapping key and list item of a raw config, at any depth."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from config_fields(value, (*path, key))


class TestMalformedConfig:
    WRONG_VALUES = ("x", 7, [], {"a": 1}, None)

    def test_every_field_wrong_typed_exits_cleanly(self, tmp_path, capsys):
        """Each field of the shipped config, plus an empty ``ground_nets``
        and ``inductors`` and a ``dimension_cap`` at the shipped dimension
        (a valid but larger level count stops at the cap, exit 3, and
        builds no larger model), replaced in turn by each wrong-typed
        value: ``analyze`` exits 0, 2 or 3, and raises nothing."""
        write_benchmark(tmp_path)
        raw = benchmark_raw_config()
        raw["cells"][0]["ground_nets"] = []
        raw["inductors"] = []
        raw["analysis"]["dimension_cap"] = 540
        path = tmp_path / "malformed.yaml"
        crashed = []
        for field in config_fields(raw):
            for value in self.WRONG_VALUES:
                doc = copy.deepcopy(raw)
                node = doc
                for key in field[:-1]:
                    node = node[key]
                node[field[-1]] = value
                path.write_text(yaml.safe_dump(doc), encoding="utf-8")
                try:
                    code = run_cli("analyze", str(path))
                except Exception as exc:  # any exception that escapes is the failure
                    code = exc
                if code not in (0, 2, 3):
                    crashed.append((field, value, code))
        capsys.readouterr()
        assert crashed == []


class TestCallInventory:
    """The LAPACK calls of a CLI budget, a junction calibration and a CLI
    analyze of the shipped device, counted by name: scipy.linalg's, then
    the transmon's tridiagonal eigensolve. A change that adds, removes or
    reshapes such a call moves a count here, and says so."""

    @pytest.mark.parametrize("run, counts", [
        ("budget", (7, 16, 4, 4, 4, 0, 8)),
        ("calibrate", (2, 12, 1, 1, 1, 0, 12)),
        ("analyze", (2, 2, 1, 1, 1, 0, 2)),
    ])
    def test_lapack_call_counts(self, device_dir, tmp_path, monkeypatch, run, counts):
        calls = {}

        def count(module, name):
            real, calls[name] = getattr(module, name), 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("cholesky", "eigh", "eigvalsh", "inv", "solve", "svdvals"):
            count(scipy.linalg, name)
        count(subsystems, "eigh_tridiagonal")
        config = device_dir / "device.yaml"
        if run == "calibrate":
            calibrate_junction(load_device_config(config), "j1", 5.3e9, (10e-9, 14e-9))
        else:
            assert run_cli(run, str(config), "--format", "machine",
                           "-o", str(tmp_path / "report.json")) == 0
        assert calls == dict(zip(calls, counts))
