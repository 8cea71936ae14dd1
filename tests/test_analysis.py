"""Full device pipeline: dressing, naive comparison, budget, calibration."""

import copy
import dataclasses
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import constants

from lumpedq import analysis
from lumpedq.analysis import (
    PORT_LOADING_RTOL,
    build_circuit,
    build_model,
    calibrate_junction,
    run_analysis,
    run_budget,
    run_sweep,
)
from lumpedq.benchmark import benchmark_config, benchmark_raw_config, write_benchmark
from lumpedq.composite import (
    DressedSpectrum,
    build_full_hamiltonian,
    diagonalize,
    observable_labels,
)
from lumpedq.config import parse_device_config
from lumpedq.errors import (
    ConfigError,
    NonNullDirection,
    NumericalError,
    TargetOutOfRange,
    UnlabeledState,
    ValidationError,
)
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.maxwell_io import serialize_maxwell
from lumpedq.netlist import KERNEL_RTOL, weak_coupling_blocks
from lumpedq.report import build_report, to_machine
from lumpedq.subsystems import quantize_line

from conftest import (
    add_spectator_transmon,
    assert_matches_full_eigh,
    dense_hamiltonian,
    stride_hamiltonian,
)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return benchmark_config(tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def full_model(bench):
    return build_model(bench)


@pytest.fixture(scope="module")
def naive_model(bench):
    return build_model(bench, naive=True)


class TestFullModel:
    def test_device_scale_observables(self, full_model):
        obs = full_model.dispersive
        assert 5.0e9 < obs.f_qubit < 5.6e9
        assert 7.0e9 < obs.f_readout < 7.5e9
        assert 300e6 < -obs.alpha_qubit < 350e6
        assert 3e6 <= -obs.chi_qr <= 7e6

    def test_dressed_loading_exceeds_direct_ground_capacitance(self, full_model):
        # the b1 loading is dressed well above its direct 220 fF to ground
        line = full_model.lines["readout"]
        assert line.spec.c_load > 240e-15
        assert line.port_loadings["b1"] == line.spec.c_load

    def test_readout_renormalized_down(self, full_model):
        bare = full_model.lines["readout"].modes[0].frequency
        unloaded = LoadedLineSpec(
            full_model.lines["readout"].spec.length,
            full_model.lines["readout"].spec.c_per_len,
            full_model.lines["readout"].spec.l_per_len, 0.0)
        f_unloaded = solve_modes(unloaded, 1)[0].frequency
        assert f_unloaded == pytest.approx(8.8e9, rel=1e-9)  # calibrated target
        assert bare < 0.85 * f_unloaded  # strong loading renormalization

    def test_transmon_reduces_to_junction_coordinate(self, full_model):
        reduced = full_model.circuit.reduced
        assert [reduced.labels[i] for i in reduced.block_index["qubit"]] == ["j1"]

    def test_every_retained_coordinate_has_port(self, full_model):
        block_index = full_model.circuit.blocks.block_index
        assert {name: len(coords) for name, coords in block_index.items()} == {
            sub.name: len(sub.ports) for sub in full_model.subsystems}
        assert sorted(i for coords in block_index.values() for i in coords) == list(
            range(len(full_model.circuit.reduced.labels)))


    def test_rates_sum_over_port_pairs(self, bench):
        """A bus on two ports couples to the qubit through two edges; its g
        is their sum, as in the Hamiltonian, not the last edge's rate. Its
        two ports load it equally (to rounding), and the build raises no
        warning."""
        raw = copy.deepcopy(dict(bench.raw))
        raw["subsystems"] = [s for s in raw["subsystems"] if s["name"] != "bus3"]
        next(s for s in raw["subsystems"] if s["name"] == "bus2")["nodes"] = ["b2", "b3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            model = build_model(parse_device_config(raw, base_dir=bench.base_dir))
        bus, qubit = (next(s for s in model.subsystems if s.name == name)
                      for name in ("bus2", "qubit"))
        edges = [e for e in model.graph.edges if {e.sub_a, e.sub_b} == {"bus2", "qubit"}]
        assert len(edges) == 2
        per_edge = [bus.factors[0].charge_scale * qubit.factors[0].charge_scale
                    * 0.5 * e.inv_c_eff / constants.hbar for e in edges]
        g = model.coupling_rates()[("bus2", 0, "qubit", 0)]
        assert g == pytest.approx(sum(per_edge), rel=1e-12)
        assert abs(g) > 1.5 * max(abs(r) for r in per_edge)

    def test_unequal_port_loadings_warn_and_load_by_the_larger(self, bench, tmp_path):
        """A bus on two ports, one of them with 50 fF more to ground, is
        loaded by the larger dressed loading, with a warning that names the
        line and the spread."""
        (tmp_path / "qubit_cell.csv").write_bytes((bench.base_dir / "qubit_cell.csv").read_bytes())
        (tmp_path / "b3_pad.csv").write_text(
            "# units: fF\nnode,g,b3\ng,50.0,-50.0\nb3,-50.0,50.0\n", encoding="utf-8")
        raw = copy.deepcopy(dict(bench.raw))
        raw["cells"].append({"id": "pad", "maxwell_file": "b3_pad.csv"})
        raw["subsystems"] = [s for s in raw["subsystems"] if s["name"] != "bus3"]
        next(s for s in raw["subsystems"] if s["name"] == "bus2")["nodes"] = ["b2", "b3"]
        with pytest.warns(UserWarning) as record:
            model = build_model(parse_device_config(raw, base_dir=tmp_path))
        loadings = model.lines["bus2"].port_loadings
        spread = loadings["b3"] - loadings["b2"]
        assert spread > PORT_LOADING_RTOL * loadings["b3"]
        assert model.lines["bus2"].spec.c_load == loadings["b3"]
        assert f"line 'bus2': port loadings differ by {spread:.3e} F; modeled as singly " \
               "loaded with the larger value" in [str(w.message) for w in record]

    def test_unresolved_pair_is_left_out_of_the_chi_matrix(self, full_model):
        """A spectrum without the label of one two-excitation pair gives NaN
        for that pair alone, and the report's chi_matrix leaves it out."""
        names = full_model.flat_mode_names
        a, b = names.index("bus2"), names.index("bus3")
        pair = tuple(int(m in (a, b)) for m in range(len(names)))
        spectrum = full_model.spectrum
        model = dataclasses.replace(full_model, spectrum=dataclasses.replace(
            spectrum, labels={k: v for k, v in spectrum.labels.items() if k != pair},
            overlaps={k: v for k, v in spectrum.overlaps.items() if k != pair}))
        kerr, full = model.cross_kerr(), full_model.cross_kerr()
        unresolved = np.zeros_like(full, dtype=bool)
        unresolved[a, b] = unresolved[b, a] = True
        assert np.all(np.isnan(kerr[unresolved]))
        assert np.array_equal(kerr[~unresolved], full[~unresolved], equal_nan=True)
        chi = build_report(full_model).observables["chi_matrix"]
        assert "bus2|bus3" in chi
        del chi["bus2|bus3"]
        assert build_report(model).observables["chi_matrix"] == chi


class TestLowestSubset:
    def test_subset_matches_full_eigh_on_benchmark_device(self, full_model):
        """The partial solve's labels and energies equal those of a full
        np.linalg.eigh labeled by the greedy maximum-overlap oracle, and it
        holds every label the observables read."""
        subs = full_model.subsystems
        h = build_full_hamiltonian(subs, full_model.graph)
        required = observable_labels(subs, full_model.flat_mode_names.index("qubit"))
        spec = diagonalize(h, required)
        assert len(spec.energies) < h.shape[0]
        assert spec.labels == full_model.spectrum.labels
        assert_matches_full_eigh(spec, dense_hamiltonian(h), required)
        assert set(required) <= set(spec.labels)

    @pytest.mark.parametrize("q_offset_2e, sectors", [(0.0, 2), (0.25, 1), (0.5, 2)])
    def test_offset_charge_decides_the_sectors(self, bench, monkeypatch, q_offset_2e, sectors):
        """At offset charge 0 or 1/2 the product basis splits into its two
        parity sectors of N/2. At 1/4 the transmon's charge operator breaks
        the selection rule, so the whole basis is one sector and the solve
        keeps the full solve's lowest levels."""
        import scipy.linalg

        model = build_model(bench.with_override("subsystems.qubit.q_offset_2e", q_offset_2e))
        subs = model.subsystems
        h = build_full_hamiltonian(subs, model.graph)
        shapes = []
        real = scipy.linalg.eigh

        def spy(a, **kwargs):
            shapes.append(a.shape)
            return real(a, **kwargs)

        required = observable_labels(subs, model.flat_mode_names.index("qubit"))
        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        spec = diagonalize(h, required)
        assert len(shapes) >= sectors
        assert set(shapes) == {(h.shape[0] // sectors,) * 2}
        k = len(spec.energies)
        assert k < h.shape[0]
        assert spec.labels == model.spectrum.labels
        vals, full = assert_matches_full_eigh(spec, dense_hamiltonian(h), required)
        assert set(required) <= set(spec.labels)
        if sectors == 1:
            assert spec.labels == {lab: s for lab, s in full.items() if s < k}
            np.testing.assert_allclose(spec.energies, vals[:k], rtol=1e-12)

    @pytest.mark.parametrize("q_offset_2e, sectors", [(0.0, 2), (0.25, 1), (0.5, 2)])
    def test_blocks_equal_the_stride_oracle(self, bench, q_offset_2e, sectors):
        """On the shipped device each sector block equals the whole-H stride
        oracle on its sector, bit for bit; at offset charge 1/4 the one
        block is the oracle itself."""
        model = build_model(bench.with_override("subsystems.qubit.q_offset_2e", q_offset_2e))
        h = build_full_hamiltonian(model.subsystems, model.graph)
        oracle = stride_hamiltonian(model.subsystems, model.graph)
        assert h.shape == oracle.shape and len(h.blocks) == sectors
        for k, block in enumerate(h.blocks):
            sector = h.basis.states(k)
            assert np.array_equal(block, oracle[np.ix_(sector, sector)])

    def test_assembly_and_solve_peak_below_one_dense_h(self, bench):
        """At dimension 1920 (levels 6, [5, 4], 4, 4) assembling and
        solving the sectors allocates at most the 8 N^2 bytes of one dense
        N x N float64 H, as traced by tracemalloc."""
        import tracemalloc

        model = build_model(bench.with_overrides({
            "subsystems.qubit.levels": 6, "subsystems.readout.levels": [5, 4],
            "subsystems.bus2.levels": 4, "subsystems.bus3.levels": 4}))
        subs, required = model.subsystems, observable_labels(model.subsystems, 0)
        n = int(np.prod([d for sub in subs for d in sub.mode_dims]))
        assert n == 1920
        tracemalloc.start()
        try:
            diagonalize(build_full_hamiltonian(subs, model.graph), required)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n**2


class TestRequiredLabels:
    def test_observables_read_only_required_labels(self, bench, monkeypatch):
        """Every label that analyze (full and naive), budget, a 3-point sweep
        and a junction calibration of the shipped device read is one that
        build_model asked diagonalize to solve for, and every read finds
        its state."""
        required = {}  # id(spectrum) -> (spectrum, its required labels)
        reads, missed = [], []
        solve, energy_of = analysis.diagonalize, DressedSpectrum.energy_of

        def spy_diagonalize(h, labels, **kwargs):
            spectrum = solve(h, labels, **kwargs)
            required[id(spectrum)] = (spectrum, set(labels))
            return spectrum

        def spy_energy_of(spectrum, label):
            reads.append((id(spectrum), label))
            try:
                return energy_of(spectrum, label)
            except UnlabeledState:
                missed.append(label)
                raise

        monkeypatch.setattr(analysis, "diagonalize", spy_diagonalize)
        monkeypatch.setattr(DressedSpectrum, "energy_of", spy_energy_of)
        run_analysis(bench, naive=True)
        run_budget(bench)
        run_sweep(bench, "junctions.j1.lj_nh", [11.0, 12.0, 13.0])
        calibrate_junction(bench, "j1", 5.3e9, (10e-9, 14e-9))
        assert not missed
        assert {s for s, _ in reads} == set(required)
        assert len(required) > 2 + 8 + 3  # analyze, budget and sweep builds, then the calibration's
        assert all(label in required[s][1] for s, label in reads)


class TestNaiveComparison:
    def test_naive_line_is_undressed(self, naive_model):
        line = naive_model.lines["readout"]
        assert line.spec.c_load == 0.0
        assert line.modes[0].frequency == pytest.approx(8.8e9, rel=1e-9)

    def test_naive_readout_stays_high(self, full_model, naive_model):
        """The naive model misses the loading renormalization: its dressed
        readout sits near the unloaded 8.8 GHz, far above the full 7.2."""
        assert naive_model.dispersive.f_readout > 8.4e9
        assert full_model.dispersive.f_readout < 7.5e9

    def test_naive_chi_overshoots(self, full_model, naive_model):
        chi_f = full_model.dispersive.chi_qr
        chi_n = naive_model.dispersive.chi_qr
        assert abs(chi_n) > abs(chi_f)
        assert np.sign(chi_n) == np.sign(chi_f)
        assert abs(chi_n) < 10 * abs(chi_f)  # same order of magnitude

    def test_uncoupled_unloaded_device_naive_equals_full(self):
        """With no loading there is no port charge and no coupling: the
        naive and full spectra coincide."""
        spec = LoadedLineSpec.from_wave_params(6.8e-3, 53.0, 1.2e8, c_load=0.0)
        modes = solve_modes(spec, 2)
        full = quantize_line(modes, levels=3, name="r", ports=("b",))
        naive = quantize_line(modes, levels=3, name="r", ports=("b",),
                              charge_zpf=[m.q0_zpf for m in modes],
                              flux_zpf=[float(m.phi_zpf(0.0)) for m in modes])
        np.testing.assert_allclose(full.energies, naive.energies)
        assert all(np.max(np.abs(f.charge)) == 0.0 for f in full.factors)

    def test_report_carries_naive_block(self, bench):
        report = run_analysis(bench, naive=True)
        assert report.naive is not None
        assert "dispersive" in report.naive

    def test_naive_port_loadings_read_the_naive_blocks(self, bench):
        """A naive line reports the loadings of the weak-coupling blocks the
        naive model uses, and the full model keeps the eliminated ones, also
        when both quantize one circuit."""
        circuit = build_circuit(bench)
        full = build_model(bench, circuit=circuit)
        naive = build_model(bench, circuit=circuit, naive=True)
        weak = weak_coupling_blocks(circuit.reduced)
        labels = circuit.reduced.labels
        for lc in bench.lines:
            at = [labels.index(node) for node in lc.nodes]
            assert naive.lines[lc.name].port_loadings == {
                labels[i]: 1.0 / weak.c_inv[i, i] for i in at}
            assert full.lines[lc.name].port_loadings == {
                labels[i]: 1.0 / circuit.blocks.c_inv[i, i] for i in at}
        assert naive.lines["readout"].port_loadings["b1"] == pytest.approx(265.20e-15, abs=5e-18)
        assert full.lines["readout"].port_loadings["b1"] == pytest.approx(261.17e-15, abs=5e-18)


@pytest.fixture(scope="module")
def rows(bench):
    return run_budget(bench)


class TestBudget:
    def test_disabling_nonqubit_couplings_band(self, rows, full_model):
        row = next(r for r in rows if r.feature == "coupling_hamiltonians")
        assert 1.0 <= abs(row.delta_percent) <= 10.0
        # the full model's |chi| is the decreased one
        assert abs(row.chi_hz) > abs(full_model.dispersive.chi_qr)

    def test_readout_harmonic_band(self, rows):
        row = next(r for r in rows if r.feature == "readout_first_harmonic")
        assert 0.0 < abs(row.delta_percent) < 1.0

    def test_cell_padding_is_noop(self, rows):
        row = next(r for r in rows if r.feature == "cell_padding")
        assert abs(row.delta_percent) < 1e-6

    def test_impedance_rows_present(self, rows):
        assert sum(r.feature == "line_impedance" for r in rows) == 2

    def test_reads_no_maxwell_file_of_its_own(self, bench, full_model, rows, monkeypatch):
        """The rows that vary the circuit rerun stages 2-5 on the stage-1
        cells of the base model's circuit: the budget parses no Maxwell
        file, and its rows are those of a budget that builds its base."""
        parsed = []
        monkeypatch.setattr(analysis, "parse_maxwell_file", parsed.append)
        assert run_budget(bench, base=full_model) == rows
        assert parsed == []

    def test_base_of_another_circuit_rejected(self, bench, full_model):
        """A base model built from a config that differs in a field stages
        1-5 read has none of the cells the budget varies."""
        cfg = bench.with_override("junctions.j1.cj_ff", 2.5)
        with pytest.raises(ConfigError, match="stages 1-5"):
            run_budget(cfg, base=full_model)


class TestSweepAndCalibration:
    def test_sweep_monotone_qubit_frequency(self, bench):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        reports = run_sweep(bench, "junctions.j1.lj_nh", values)
        f_q = [r.observables["dispersive"]["f_qubit"]["value"] for r in reports]
        assert all(b < a for a, b in zip(f_q, f_q[1:]))

    def test_calibrate_junction_round_trip(self, bench, full_model):
        """Perturb L_j by +10 percent, calibrate back to the original f_q,
        recover the original inductance within 0.1 percent."""
        target = full_model.dispersive.f_qubit
        perturbed = bench.with_override("junctions.j1.lj_nh", 12.0 * 1.1)
        lj, report = calibrate_junction(perturbed, "j1", target, (9e-9, 16e-9))
        assert lj == pytest.approx(12.0e-9, rel=1e-3)
        assert report.calibrated["j1"] == lj

    def test_unknown_junction_rejected(self, bench):
        """A junction id the config does not have is a configuration error
        naming it, not a calibration that never moves f_q."""
        with pytest.raises(ConfigError, match="'jX'"):
            calibrate_junction(bench, "jX", 5.3e9, (10e-9, 14e-9))

    @pytest.mark.parametrize("lj", [0.0, -12e-9, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_override_rejected(self, bench, lj):
        """Each L_j a calibration tries overrides the junction's, so either
        bound must be a positive, finite inductance, not a division by zero
        or a negative E_J in the transmon."""
        for bounds in ((lj, 14e-9), (10e-9, lj)):
            with pytest.raises(ConfigError, match="calibrate_junction: bounds must be positive"):
                calibrate_junction(bench, "j1", 5.3e9, bounds)

    def test_calibrate_target_out_of_range(self, bench):
        """Endpoint values of f_q that do not bracket the target are quoted,
        the lower first."""
        with pytest.raises(TargetOutOfRange, match=r"^target 20\.0000 GHz outside the endpoint "
                                                   r"range \[5\.\d{4} GHz, 5\.\d{4} GHz\]$"):
            calibrate_junction(bench, "j1", 20e9, (11e-9, 13e-9))

    def test_calibration_builds_each_inductance_once(self, bench, full_model, monkeypatch):
        """A calibration builds one circuit, of its config at the first
        bound, and solves each line once. It diagonalizes the transmon once
        per distinct L_j it tries, and no more: in stage 6 at the first
        bound, the first L_j tried, and then at each other L_j; the root is
        among them."""
        calls = {name: [] for name in ("build_circuit", "solve_modes", "_transmon_subsystem",
                                       "diagonalize_transmon")}
        for name, record in calls.items():
            monkeypatch.setattr(analysis, name, lambda *args, fn=getattr(analysis, name),
                                record=record: record.append(args) or fn(*args))
        tried, solve = [], analysis.brent_root

        def spy(f, a, b, *args, **kwargs):
            tried.extend((a, b))  # the bounds, whose f values the solve is handed
            return solve(lambda x: tried.append(x) or f(x), a, b, *args, **kwargs)

        monkeypatch.setattr(analysis, "brent_root", spy)
        lj, report = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                        (10e-9, 14e-9))
        at_lo = dataclasses.replace(bench.junctions[0], lj_h=10e-9)
        assert [args[0] for args in calls["build_circuit"]] == [
            dataclasses.replace(bench, junctions=(at_lo,))]
        assert sorted(spec.length for spec, _ in calls["solve_modes"]) == sorted(
            line.spec.length for line in full_model.lines.values())
        assert tried[0] == 10e-9
        assert [args[1].lj_h for args in calls["_transmon_subsystem"]] == list(
            dict.fromkeys(tried))
        assert len(calls["diagonalize_transmon"]) == len(set(tried))
        assert lj in tried
        assert report.calibrated["j1"] == lj

    @pytest.mark.parametrize("target_hz", [5.385516e9, 5.3e9])
    def test_junction_off_the_analysis_qubit_rejected(self, tmp_path, monkeypatch, target_hz):
        """A spectator transmon's junction does not move the analysis qubit's
        f_q, so its calibration is refused before any model is built, not
        solved against a flat response or reported as out of range."""
        raw = benchmark_raw_config()
        (tmp_path / "spectator.csv").write_text(serialize_maxwell(add_spectator_transmon(raw)),
                                                encoding="utf-8")
        write_benchmark(tmp_path)
        config = parse_device_config(raw, base_dir=tmp_path)
        monkeypatch.setattr(analysis, "build_model", None)
        with pytest.raises(ConfigError, match="junction 'jt' is on 'spectator', the analysis "
                                              "qubit is 'qubit'"):
            calibrate_junction(config, "jt", target_hz, (5e-9, 20e-9))

    @pytest.mark.parametrize("field, message", [
        ("qubit", "junction 'j1' is on 'qubit', the analysis qubit is '' and its readout "
                  "'readout'"),
        ("readout", "junction 'j1' is on 'qubit', the analysis qubit is 'qubit' and its "
                    "readout ''"),
    ], ids=["qubit", "readout"])
    def test_calibration_without_a_qubit_readout_pair_rejected(self, bench, monkeypatch, field,
                                                               message):
        """A config with no qubit/readout pair has no dressed f_q to fit, as
        a budget has no chi_qr: it is refused before any model is built."""
        config = bench.with_override(f"analysis.{field}", "")
        monkeypatch.setattr(analysis, "build_model", None)
        with pytest.raises(ConfigError, match=re.escape(message)):
            calibrate_junction(config, "j1", 5.3e9, (10e-9, 14e-9))

    @pytest.mark.parametrize("nan_at", [10e-9, 14e-9])
    def test_nan_f_q_at_a_bound_is_named(self, bench, monkeypatch, nan_at):
        """A NaN f_q at either bound is a numerical error naming that L_j, not
        a target out of range, whatever the target."""
        def nan_at_bound(build):
            def built(*args, **kwargs):
                model = build(*args, **kwargs)
                if model.config.junctions[0].lj_h != nan_at:
                    return model
                return dataclasses.replace(model, dispersive=dataclasses.replace(
                    model.dispersive, f_qubit=float("nan")))
            return built

        monkeypatch.setattr(analysis, "build_model", nan_at_bound(analysis.build_model))
        monkeypatch.setattr(analysis, "_swap", nan_at_bound(analysis._swap))
        for target_hz in (5.3e9, 20e9):
            with pytest.raises(NumericalError, match=rf"f_q is NaN at the bound L_j={nan_at!r} H"):
                calibrate_junction(bench, "j1", target_hz, (10e-9, 14e-9))

    def test_fixed_point_calibration(self, bench, full_model):
        lj, _ = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                   (11.8e-9, 12.2e-9))
        assert lj == pytest.approx(12.0e-9, rel=1e-6)

    def test_sweep_of_a_circuit_field_rebuilds_each_point(self, bench, monkeypatch):
        """A sweep of a field stages 1-5 read (a junction's C_J) builds a
        new circuit at each point, and each point reports byte for byte as a
        fresh build of its config."""
        path, values = "junctions.j1.cj_ff", [2.0, 2.5, 3.0]
        built, fresh_circuit = [], analysis.build_circuit
        monkeypatch.setattr(analysis, "build_circuit",
                            lambda config: built.append(config) or fresh_circuit(config))
        reports = run_sweep(bench, path, values)
        monkeypatch.undo()
        assert [config.junctions[0].cj_f for config in built] == [v * 1e-15 for v in values]
        for value, report in zip(values, reports):
            fresh = build_model(bench.with_override(path, value))
            assert to_machine(report) == to_machine(build_report(fresh, swept={path: value}))


class TestLineInputs:
    def test_line_given_by_length(self, bench, full_model, monkeypatch):
        """A line given by length_mm takes that length, times 1e-3, exactly,
        and no length is calibrated. At the calibrated lengths of the shipped
        device it gives the same readout."""
        raw = copy.deepcopy(dict(bench.raw))
        lengths_mm = {}
        for entry in raw["subsystems"]:
            if entry["kind"] == "loaded_line":
                del entry["target_ghz"], entry["target_loading"]
                entry["length_mm"] = lengths_mm[entry["name"]] = (
                    full_model.lines[entry["name"]].spec.length * 1e3)
        calibrated, fresh_calibrate = [], analysis.calibrate_length
        monkeypatch.setattr(analysis, "calibrate_length", lambda *args, **kwargs:
                            calibrated.append(args) or fresh_calibrate(*args, **kwargs))
        model = build_model(parse_device_config(raw, base_dir=bench.base_dir))
        assert calibrated == []
        assert {name: line.spec.length for name, line in model.lines.items()} == {
            name: length * 1e-3 for name, length in lengths_mm.items()}
        assert model.dispersive.f_readout == pytest.approx(full_model.dispersive.f_readout,
                                                           rel=1e-9)

    def test_line_given_by_phase_velocity(self, bench, full_model):
        """A line given by vp_m_per_s analyzes, and at the shipped
        vp_fraction_c times c it gives the same observables bit for bit."""
        raw = copy.deepcopy(dict(bench.raw))
        for entry in raw["subsystems"]:
            if entry["kind"] == "loaded_line":
                entry["vp_m_per_s"] = entry.pop("vp_fraction_c") * constants.c
        model = build_model(parse_device_config(raw, base_dir=bench.base_dir))
        assert build_report(model).observables == build_report(full_model).observables


class TestCircuitReuse:
    def test_reused_circuits_report_as_fresh_builds(self, bench, monkeypatch):
        """Every model a driver builds by reusing a circuit or stage-6
        products gives the machine report byte for byte of a model built
        afresh: build_model on the model's own config, through a new
        circuit, reusing nothing. Covers the calibration (both bracket ends
        and the calibrated point), every budget row, a 3-point lj_nh sweep
        and analyze --naive, and counts their circuit builds, build_model
        calls, stage-7 runs and line solves. The calibration's first model
        is build_model at its lower bound, and each other one a swap of the
        qubit into it. A circuit the budget builds on cells it varied is
        rebuilt from those cells, and its coupling row, which reruns stage 7
        alone, from a fresh model's subsystems."""
        fresh_circuit, fresh_model = analysis.build_circuit, analysis.build_model
        fresh_from_cells, fresh_solve = analysis._circuit_from_cells, analysis.solve_modes
        fresh_stage7, fresh_swap = analysis._composite_model, analysis._swap
        # id(circuit) -> its build arguments: (config,) through build_circuit,
        # (config, cells, input_sha256) on cells the budget varied
        circuits, quantized = {}, []  # (config, kwargs, model)
        stage7, swapped, solves = [], [], []  # swapped: (config, name, model) of each swap

        def spy_circuit(config):
            circuit = fresh_circuit(config)
            circuits[id(circuit)] = (config,)
            return circuit

        def spy_from_cells(*args):
            circuit = fresh_from_cells(*args)
            circuits[id(circuit)] = args
            return circuit

        def spy_model(config, **kwargs):
            model = fresh_model(config, **kwargs)
            quantized.append((config, kwargs, model))
            return model

        def spy_stage7(*args):
            stage7.append(args)
            return fresh_stage7(*args)

        def spy_swap(model, config, name):
            swap = fresh_swap(model, config, name)
            swapped.append((config, name, swap))
            return swap

        def spy_solve(*args):
            solves.append(args)
            return fresh_solve(*args)

        monkeypatch.setattr(analysis, "build_circuit", spy_circuit)
        monkeypatch.setattr(analysis, "_circuit_from_cells", spy_from_cells)
        monkeypatch.setattr(analysis, "build_model", spy_model)
        monkeypatch.setattr(analysis, "_composite_model", spy_stage7)
        monkeypatch.setattr(analysis, "_swap", spy_swap)
        monkeypatch.setattr(analysis, "solve_modes", spy_solve)
        counts = []

        def count():
            counts.append((len(circuits), len(quantized), len(stage7), len(solves)))

        lj, calibrated = calibrate_junction(bench, "j1", 5.3e9, (10e-9, 14e-9))
        count()
        budget = run_budget(bench)
        count()
        swept = run_sweep(bench, "junctions.j1.lj_nh", [11.0, 12.0, 13.0])
        count()
        naive = run_analysis(bench, naive=True)
        count()
        monkeypatch.undo()
        steps = [tuple(b - a for a, b in zip(before, after))
                 for before, after in zip([(0, 0, 0, 0)] + counts, counts)]
        assert steps == [(1, 1, 6, 3), (4, 4, 8, 15), (1, 3, 3, 9), (1, 2, 2, 6)]

        for config, kwargs, model in quantized:
            options = {k: v for k, v in kwargs.items() if k != "circuit"}
            args = circuits[id(model.circuit)]
            rebuild = fresh_circuit if len(args) == 1 else fresh_from_cells
            fresh = (fresh_model(config, **options) if args == (config,) else
                     fresh_model(config, circuit=rebuild(*args), **options))
            assert to_machine(build_report(model)) == to_machine(build_report(fresh))
        assert [name for _, name, _ in swapped] == ["qubit"] * 5 + ["readout"] * 3
        calibration = [quantized[0][2]] + [model for _, _, model in swapped[:5]]
        assert quantized[0][0].junctions[0].lj_h == 10e-9
        tried = [model.config.junctions[0].lj_h for model in calibration]
        assert {10e-9, 14e-9, lj} <= set(tried)
        for config, _, model in swapped:
            assert model.config is config
            assert to_machine(build_report(model)) == to_machine(build_report(fresh_model(config)))

        base = fresh_model(bench)
        restricted = analysis._composite_model(bench, base.circuit, (
            base.subsystems, base.transmon_specs, base.lines,
            base.graph.restricted_to(bench.analysis.qubit)))
        assert budget[0].feature == "coupling_hamiltonians"
        assert budget[0].chi_hz == restricted.dispersive.chi_qr

        root = next(model for model in calibration if model.config.junctions[0].lj_h == lj)
        assert to_machine(calibrated) == to_machine(build_report(
            build_model(root.config), calibrated={"j1": lj}))
        for value, report in zip([11.0, 12.0, 13.0], swept):
            path = "junctions.j1.lj_nh"
            fresh = build_model(bench.with_override(path, value))
            assert to_machine(report) == to_machine(build_report(fresh, swept={path: value}))
        assert to_machine(naive) == to_machine(build_report(
            build_model(bench), naive_model=build_model(bench, naive=True)))

    def test_threads_sharing_a_circuit_keep_one_line_each(self, bench):
        """Threads that quantize one circuit at once, each at its own L_j,
        each report as a fresh build: a circuit holds nothing a
        quantization writes."""
        circuit = build_circuit(bench)
        configs = [bench.with_override("junctions.j1.lj_nh", 10.0 + 0.5 * k) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_model, cfg, circuit=circuit) for cfg in configs]
                models = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for cfg, model in zip(configs, models):
            assert to_machine(build_report(model)) == to_machine(build_report(build_model(cfg)))

    @pytest.mark.parametrize("path, value", [
        ("datum", "b1"),
        ("cells.cell0.maxwell_file", "other_cell.csv"),
        ("couplers", ["p0"]),
        ("subsystems.qubit.nodes", ["p1", "cl"]),
        ("junctions.j1.nodes", ["p1", "p0"]),
        ("junctions.j1.subsystem", "readout"),
        ("junctions.j1.cj_ff", 2.5),
        ("inductors", [{"nodes": ["g", "b2"], "l_nh": 10.0}]),
    ])
    def test_circuit_field_change_rejected(self, bench, path, value):
        """The quantum half refuses a circuit built from a configuration that
        differs in a field stages 1-5 read."""
        circuit, cfg = build_circuit(bench), bench.with_override(path, value)
        assert not circuit.fits(cfg)
        with pytest.raises(ValidationError, match="stages 1-5"):
            build_model(cfg, circuit=circuit)

    @pytest.mark.parametrize("path, value", [
        ("junctions.j1.lj_nh", 11.0),
        ("subsystems.readout.z0_ohm", 50.0),
        ("subsystems.qubit.levels", 4),
    ])
    def test_quantum_field_change_accepted(self, bench, path, value):
        cfg, circuit = bench.with_override(path, value), build_circuit(bench)
        assert circuit.fits(cfg)
        reused = build_model(cfg, circuit=circuit)
        assert to_machine(build_report(reused)) == to_machine(build_report(build_model(cfg)))

    @pytest.mark.filterwarnings("ignore:coupler node 'm'")
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_kernel_scale_ignores_the_junction(self, bench, tmp_path, factor):
        """Coupler m is grounded through an inductor whose column sits at
        ``factor`` times KERNEL_RTOL of the kernel scale, which a 100 nH
        inductor on coupler m2 sets. The junction's 1/L_j, 7 to 10 times
        larger, is not in the linear network, so m is eliminated at 0.5x and
        left in neither kernel at 2x, at L_j = 10 and 14 nH alike, whether
        the circuit is reused or built afresh."""
        (tmp_path / "m_cell.csv").write_text(
            "# units: fF\nnode,g,m\ng,30.0,-30.0\nm,-30.0,30.0\n", encoding="utf-8")
        (tmp_path / "qubit_cell.csv").write_bytes((bench.base_dir / "qubit_cell.csv").read_bytes())
        raw = benchmark_raw_config()
        raw["cells"].append({"id": "cell1", "maxwell_file": "m_cell.csv"})
        raw["couplers"] += ["m", "m2"]
        raw["inductors"] = [{"nodes": ["g", "m2"], "l_nh": 100.0},
                            {"nodes": ["g", "m"], "l_nh": 100.0 / (factor * KERNEL_RTOL)}]
        cfg = parse_device_config(raw, base_dir=tmp_path)
        at_lj = [cfg.with_override("junctions.j1.lj_nh", lj_nh) for lj_nh in (10.0, 14.0)]
        if factor > 1.0:
            for cfg_lj in at_lj:
                with pytest.raises(NonNullDirection, match="'m'"):
                    build_model(cfg_lj)
            return
        circuit = build_circuit(cfg)
        assert circuit.reduced.record.eliminated == ("cl", "m", "p0", "m2")
        for cfg_lj in at_lj:
            fresh = build_model(cfg_lj)
            reused = build_model(cfg_lj, circuit=circuit)
            assert fresh.circuit.reduced.record.eliminated == circuit.reduced.record.eliminated
            assert to_machine(build_report(reused)) == to_machine(build_report(fresh))


class TestValidation:
    def test_transmon_with_two_junctions_rejected(self, bench):
        raw = copy.deepcopy(dict(bench.raw))
        raw["junctions"].append({
            "id": "j2", "nodes": ["g", "p1"], "subsystem": "qubit", "lj_nh": 10.0})
        cfg = parse_device_config(raw, base_dir=bench.base_dir)
        with pytest.raises(ConfigError, match="exactly one junction"):
            build_model(cfg)

    def test_orphan_subsystem_coordinate_rejected(self, bench):
        # declare the charge line stub as a subsystem node without any port
        raw = copy.deepcopy(dict(bench.raw))
        raw["couplers"] = ["p0"]
        raw["subsystems"][0]["nodes"] = ["p1", "cl"]
        cfg = parse_device_config(raw, base_dir=bench.base_dir)
        with pytest.raises(ConfigError, match="retains non-junction coordinates"):
            build_model(cfg)


    @pytest.mark.parametrize("nodes, l_nh, named", [
        (["g", "b2"], 10.0, ["b2"]),
        (["p0", "p1"], 20.0, ["j1"]),
        (["b2", "b3"], 200.0, ["b2", "b3"]),
    ])
    @pytest.mark.parametrize("naive", [False, True])
    def test_linear_inductance_on_a_retained_coordinate_rejected(self, bench, nodes, l_nh,
                                                                  named, naive):
        """No subsystem models a linear inductance on its own coordinate, so
        one that reaches the diagonal of the reduced L^-1 (to ground at a
        line port, across the junction, or between two line ports) is
        refused, naming each coordinate, rather than dropped."""
        cfg = bench.with_override("inductors", [{"nodes": nodes, "l_nh": l_nh}])
        circuit = build_circuit(cfg)
        diagonal = dict(zip(circuit.blocks.labels, np.diag(circuit.blocks.l_inv)))
        assert sorted(label for label, y in diagonal.items() if y) == named
        with pytest.raises(ConfigError, match=re.escape(f"retained coordinates {named} carry")):
            build_model(cfg, circuit=circuit, naive=naive)


class TestDeterminism:
    def test_identical_runs_identical_models(self, bench):
        m1 = build_model(bench)
        m2 = build_model(bench)
        assert np.array_equal(m1.spectrum.energies, m2.spectrum.energies)
        assert m1.spectrum.labels == m2.spectrum.labels


def test_truncation_convergence_on_full_device(bench, full_model):
    """One extra level on every subsystem mode moves chi_qr by < 0.5%."""
    import copy

    raw = copy.deepcopy(dict(bench.raw))
    for sub in raw["subsystems"]:
        if sub["kind"] == "transmon":
            sub["levels"] = sub.get("levels", 5) + 1
        else:
            levels = sub.get("levels", 5)
            if isinstance(levels, int):
                sub["levels"] = levels + 1
            else:
                sub["levels"] = [l + 1 for l in levels]
    bumped = parse_device_config(raw, base_dir=bench.base_dir)
    chi0 = full_model.dispersive.chi_qr
    chi1 = build_model(bumped).dispersive.chi_qr
    assert abs(chi1 - chi0) / abs(chi1) < 5e-3
