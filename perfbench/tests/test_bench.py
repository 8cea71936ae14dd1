"""Tests of the benchmark itself: input generation, correctness checks and
span coverage. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans
import workloads
from lumpedq import analysis, config


def _snapshot(directory: Path, ops) -> tuple:
    files = {str(p.relative_to(directory)): p.read_bytes()
             for p in sorted(directory.rglob("*")) if p.is_file()}
    return files, [(op.kind, op.index, str(op.config.relative_to(directory)), op.value)
                   for op in ops]


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _snapshot(tmp_path / "a", inputs.generate(workload, 3, tmp_path / "a"))
    second = _snapshot(tmp_path / "b", inputs.generate(workload, 3, tmp_path / "b"))
    other = _snapshot(tmp_path / "c", inputs.generate(workload, 4, tmp_path / "c"))
    assert first == second
    assert first != other


def test_wide_chip_declares_every_spectator_pad_a_coupler(tmp_path):
    (op, _) = inputs.generate("wide-chip", 0, tmp_path)
    raw = config.load_device_config(op.config).raw
    pads = {line.split(",")[0] for path in op.config.parent.glob("spectator*.csv")
            for line in path.read_text().splitlines()[2:]} - {"g", "b2", "b3"}
    assert len(pads) == inputs.WIDE_CELLS * inputs.WIDE_PADS_PER_CELL
    assert pads <= set(raw["couplers"])


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    ops = inputs.generate("sweep-540", inputs.DEFAULT_SEED, tmp_path_factory.mktemp("sweep"))
    configs = {ops[0].config: config.load_device_config(ops[0].config)}
    return ops[0], json.loads(workloads.run_op(ops[0], configs)[1])


def doc_raw(op):
    return config.load_device_config(op.config).raw


def test_reference_check_passes_on_the_recorded_reference(sweep_report):
    op, doc = sweep_report
    reference = run.load_reference("sweep-540")[op.index]
    assert checks.compare_reference(checks.observables(doc), reference) == []
    assert checks.sanity(doc, op, doc_raw(op)) == []


@pytest.mark.parametrize("shift_hz, flagged", [(0.5, False), (1.5, True), (-2.0, True)])
def test_reference_check_fires_beyond_its_tolerance(sweep_report, shift_hz, flagged):
    op, doc = sweep_report
    reference = run.load_reference("sweep-540")[op.index]
    found = checks.observables(doc)
    found["dispersive.chi_qr"] += shift_hz
    problems = checks.compare_reference(found, reference)
    assert [p.split(":")[0] for p in problems] == (["dispersive.chi_qr"] if flagged else [])


def test_reference_check_fires_on_a_missing_observable(sweep_report):
    op, doc = sweep_report
    found = checks.observables(doc)
    del found["chi_matrix.qubit|bus2"]
    problems = checks.compare_reference(found, run.load_reference("sweep-540")[op.index])
    assert problems == ["chi_matrix.qubit|bus2: missing from the report"]


def test_sanity_check_fires_on_a_positive_anharmonicity(sweep_report):
    op, doc = sweep_report
    broken = json.loads(json.dumps(doc))
    broken["observables"]["dispersive"]["alpha_qubit"]["value"] *= -1.0
    assert checks.sanity(broken, op, doc_raw(op)) == [
        f"dispersive.alpha_qubit = {broken['observables']['dispersive']['alpha_qubit']['value']!r}"
        " Hz is not negative"]


def test_coverage_check_fires_when_a_wrapped_function_is_never_called(sweep_report):
    op, _ = sweep_report
    configs = {op.config: config.load_device_config(op.config)}
    tracer = spans.Tracer()
    original = analysis.build_model
    with tracer.installed():
        assert analysis.build_model is not original
        with tracer.op(0):
            workloads.run_op(op, configs)
    assert analysis.build_model is original
    spans.check_coverage(tracer.spans, workloads.EXPECTED_SPANS["sweep-540"])
    with pytest.raises(spans.CoverageError, match="cli.main, config.load_device_config"):
        spans.check_coverage(tracer.spans, workloads.EXPECTED_SPANS["wide-chip"])


def test_tracing_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    original = analysis.parse_maxwell_file
    monkeypatch.delattr(analysis, "diagonalize")
    with pytest.raises(spans.CoverageError, match="lumpedq.analysis.diagonalize"):
        with spans.Tracer().installed():
            pass
    assert analysis.parse_maxwell_file is original


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-540",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "lumpedq sources not found" in proc.stderr


def test_self_time_subtracts_child_spans():
    spans_ = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
              ["b", 7.0, 9.0, 0, 0]]
    assert spans.self_times(spans_) == {0: {"op": 3.0, "a": 4.0, "b": 3.0}}


@pytest.mark.parametrize("n, expected", [(5, (4.0, "maximum, n=5")),
                                         (40, (29.0, "p75, 10 samples beyond, n=40"))])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert run.tail([float(v) for v in range(n)]) == expected
