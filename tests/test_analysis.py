"""Full device pipeline: dressing, naive comparison, budget, calibration."""

import copy
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import constants

from lumpedq import analysis
from lumpedq.analysis import (
    build_circuit,
    build_model,
    calibrate_junction,
    run_analysis,
    run_budget,
    run_sweep,
)
from lumpedq.benchmark import benchmark_config, benchmark_raw_config
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
    TargetOutOfRange,
    UnlabeledState,
    ValidationError,
)
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.netlist import KERNEL_RTOL, weak_coupling_blocks
from lumpedq.report import build_report, to_machine
from lumpedq.subsystems import quantize_line

from conftest import assert_matches_full_eigh, dense_hamiltonian, stride_hamiltonian


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
        assert line.dressed_loading > 240e-15
        assert line.port_loadings["b1"] == line.dressed_loading

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
        assert full_model.circuit.reduced.block_index["qubit"] == (
            full_model.circuit.reduced.index_of("j1"),)

    def test_every_retained_coordinate_has_port(self, full_model):
        assert set(full_model.port_coord) == set(full_model.circuit.reduced.labels)


    @pytest.mark.filterwarnings("ignore:line 'bus2'")
    def test_rates_sum_over_port_pairs(self, bench):
        """A bus on two ports couples to the qubit through two edges; its g
        is their sum, as in the Hamiltonian, not the last edge's rate."""
        raw = copy.deepcopy(dict(bench.raw))
        raw["subsystems"] = [s for s in raw["subsystems"] if s["name"] != "bus3"]
        next(s for s in raw["subsystems"] if s["name"] == "bus2")["nodes"] = ["b2", "b3"]
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

class TestLowestSubset:
    def test_subset_matches_full_eigh_on_benchmark_device(self, full_model):
        """The partial solve's labels and energies equal those of a full
        np.linalg.eigh labeled by the greedy maximum-overlap oracle, and it
        holds every label the observables read."""
        subs = full_model.subsystems
        h = build_full_hamiltonian(subs, full_model.graph)
        required = observable_labels(subs, full_model.flat_mode_names.index("qubit"))
        spec = diagonalize(subs, h, required)
        assert len(spec.energies) < h.shape[0]
        assert spec.labels == full_model.spectrum.labels
        assert_matches_full_eigh(spec, dense_hamiltonian(h), required)
        assert set(required) <= set(spec.labels)

    @pytest.mark.parametrize("q_offset_2e, sectors", [(0.0, 2), (0.25, 1)])
    def test_offset_charge_decides_the_sectors(self, bench, monkeypatch, q_offset_2e, sectors):
        """At zero offset charge the product basis splits into its two
        parity sectors of N/2. At a nonzero one the transmon's charge
        operator breaks the selection rule, so the whole basis is one
        sector and the solve keeps the full solve's lowest levels."""
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
        spec = diagonalize(subs, h, required)
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

    @pytest.mark.parametrize("q_offset_2e, sectors", [(0.0, 2), (0.25, 1)])
    def test_blocks_equal_the_stride_oracle(self, bench, q_offset_2e, sectors):
        """On the shipped device each sector block equals the whole-H stride
        oracle on its sector, bit for bit; at a nonzero offset charge the one
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
            diagonalize(subs, build_full_hamiltonian(subs, model.graph), required)
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

        def spy_diagonalize(subsystems, h, labels, **kwargs):
            spectrum = solve(subsystems, h, labels, **kwargs)
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
        full = quantize_line(spec, modes, levels=3, name="r", ports=("b",))
        naive = quantize_line(spec, modes, levels=3, name="r", ports=("b",),
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
        for lc in bench.lines:
            assert naive.lines[lc.name].port_loadings == {
                node: weak.c_eff(node) for node in lc.nodes}
            assert full.lines[lc.name].port_loadings == {
                node: circuit.blocks.c_eff(node) for node in lc.nodes}
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
        """An L_j override must be a positive, finite inductance, not a
        division by zero or a negative E_J in the transmon."""
        with pytest.raises(ConfigError, match=r"lj_overrides: 'j1' must be a positive, finite"):
            build_model(bench, lj_overrides={"j1": lj})

    def test_calibrate_target_out_of_range(self, bench):
        with pytest.raises(TargetOutOfRange, match=r"target 20\.0000 GHz"):
            calibrate_junction(bench, "j1", 20e9, (11e-9, 13e-9))

    def test_calibration_builds_each_inductance_once(self, bench, full_model, monkeypatch):
        """A calibration builds one circuit and quantizes it once per L_j."""
        circuits, built = [], []
        build_circuit = analysis.build_circuit

        def counting_circuit(config, *args):
            circuits.append(config)
            return build_circuit(config, *args)

        def counting(config, **kwargs):
            built.append(kwargs["lj_overrides"]["j1"])
            return build_model(config, **kwargs)

        monkeypatch.setattr(analysis, "build_circuit", counting_circuit)
        monkeypatch.setattr(analysis, "build_model", counting)
        lj, report = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                        (10e-9, 14e-9))
        assert circuits == [bench]
        assert len(built) == len(set(built))
        assert lj in built
        assert report.calibrated["j1"] == lj

    def test_fixed_point_calibration(self, bench, full_model):
        lj, _ = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                   (11.8e-9, 12.2e-9))
        assert lj == pytest.approx(12.0e-9, rel=1e-6)


class TestCircuitReuse:
    def test_reused_circuits_report_as_fresh_builds(self, bench, monkeypatch):
        """Every model a driver quantizes on a shared circuit, with the lines
        that circuit keeps, gives the machine report byte for byte of a model built
        afresh from the same arguments: build_model on the overridden config,
        through a new circuit, reusing nothing. Covers the calibration (both
        bracket ends and the calibrated point), every budget row, a 3-point
        lj_nh sweep and analyze --naive, and counts their circuit builds,
        quantizations and line solves."""
        fresh_circuit, fresh_model = analysis.build_circuit, analysis.build_model
        fresh_solve = analysis.solve_modes
        circuits, quantized = {}, []  # id(circuit) -> its build arguments; (config, kwargs, model)
        solves = []

        def spy_circuit(*args):
            circuit = fresh_circuit(*args)
            circuits[id(circuit)] = args
            return circuit

        def spy_model(config, **kwargs):
            model = fresh_model(config, **kwargs)
            quantized.append((config, kwargs, model))
            return model

        def spy_solve(*args):
            solves.append(args)
            return fresh_solve(*args)

        monkeypatch.setattr(analysis, "build_circuit", spy_circuit)
        monkeypatch.setattr(analysis, "build_model", spy_model)
        monkeypatch.setattr(analysis, "solve_modes", spy_solve)
        counts = []

        def count():
            counts.append((len(circuits), len(quantized), len(solves)))

        lj, calibrated = calibrate_junction(bench, "j1", 5.3e9, (10e-9, 14e-9))
        count()
        run_budget(bench)
        count()
        swept = run_sweep(bench, "junctions.j1.lj_nh", [11.0, 12.0, 13.0])
        count()
        naive = run_analysis(bench, naive=True)
        count()
        monkeypatch.undo()
        steps = [tuple(b - a for a, b in zip(before, after))
                 for before, after in zip([(0, 0, 0)] + counts, counts)]
        assert steps == [(1, 6, 3), (4, 8, 15), (1, 3, 3), (1, 2, 6)]
        assert {10e-9, 14e-9, lj} <= {kw["lj_overrides"]["j1"] for _, kw, _ in quantized[:6]}

        for config, kwargs, model in quantized:
            options = {k: v for k, v in kwargs.items() if k != "circuit"}
            args = circuits[id(model.circuit)]
            fresh = (fresh_model(config, **options) if args == (config,) else
                     fresh_model(config, circuit=fresh_circuit(*args), **options))
            assert to_machine(build_report(model)) == to_machine(build_report(fresh))

        assert to_machine(calibrated) == to_machine(build_report(
            build_model(bench, lj_overrides={"j1": lj}), calibrated={"j1": lj}))
        for value, report in zip([11.0, 12.0, 13.0], swept):
            path = "junctions.j1.lj_nh"
            fresh = build_model(bench.with_override(path, value))
            assert to_machine(report) == to_machine(build_report(fresh, swept={path: value}))
        assert to_machine(naive) == to_machine(build_report(
            build_model(bench), naive_model=build_model(bench, naive=True)))

    def test_threads_sharing_a_circuit_keep_one_line_each(self, bench):
        """Threads that quantize one circuit at once may each solve a line
        and store it; each model still reports as a fresh build, and the
        circuit keeps one entry per line."""
        circuit = build_circuit(bench)
        ljs = [10e-9 + 0.5e-9 * k for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_model, bench, circuit=circuit,
                                       lj_overrides={"j1": lj}) for lj in ljs]
                models = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert set(circuit.lines) == {(lc, False) for lc in bench.lines}
        for lj, model in zip(ljs, models):
            fresh = build_model(bench, lj_overrides={"j1": lj})
            assert to_machine(build_report(model)) == to_machine(build_report(fresh))

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
        if factor > 1.0:
            for lj in (10e-9, 14e-9):
                with pytest.raises(NonNullDirection, match="'m'"):
                    build_model(cfg, lj_overrides={"j1": lj})
            return
        circuit = build_circuit(cfg)
        assert circuit.reduced.record.eliminated == ("cl", "m", "p0", "m2")
        for lj in (10e-9, 14e-9):
            fresh = build_model(cfg, lj_overrides={"j1": lj})
            reused = build_model(cfg, circuit=circuit, lj_overrides={"j1": lj})
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
