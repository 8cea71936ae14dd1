"""Full device pipeline: dressing, naive comparison, budget, calibration."""

import numpy as np
import pytest

from lumpedq import analysis
from lumpedq.analysis import build_model, calibrate_junction, run_analysis, run_budget, run_sweep
from lumpedq.benchmark import benchmark_config
from lumpedq.composite import (
    DressedSpectrum,
    build_full_hamiltonian,
    diagonalize,
    observable_labels,
)
from lumpedq.config import parse_device_config
from lumpedq.errors import ConfigError, TargetOutOfRange, UnlabeledState
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.subsystems import quantize_line

from conftest import assert_matches_full_eigh


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
        assert full_model.reduced.block_index["qubit"] == (
            full_model.reduced.index_of("j1"),)

    def test_every_retained_coordinate_has_port(self, full_model):
        assert set(full_model.port_coord) == set(full_model.reduced.labels)


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
        assert_matches_full_eigh(spec, h, required)
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
        vals, full = assert_matches_full_eigh(spec, h, required)
        assert set(required) <= set(spec.labels)
        if sectors == 1:
            assert spec.labels == {lab: s for lab, s in full.items() if s < k}
            np.testing.assert_allclose(spec.energies, vals[:k], rtol=1e-12)


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
        assert len(required) > 2 + 8 + 3  # analyze, budget and sweep builds, then brentq's
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

    def test_calibrate_target_out_of_range(self, bench):
        with pytest.raises(TargetOutOfRange, match=r"target 20\.0000 GHz"):
            calibrate_junction(bench, "j1", 20e9, (11e-9, 13e-9))

    def test_calibration_builds_each_inductance_once(self, bench, full_model, monkeypatch):
        built = []

        def counting(config, **kwargs):
            built.append(kwargs["lj_overrides"]["j1"])
            return build_model(config, **kwargs)

        monkeypatch.setattr(analysis, "build_model", counting)
        lj, report = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                        (10e-9, 14e-9))
        assert len(built) == len(set(built))
        assert lj in built
        assert report.calibrated["j1"] == lj

    def test_fixed_point_calibration(self, bench, full_model):
        lj, _ = calibrate_junction(bench, "j1", full_model.dispersive.f_qubit,
                                   (11.8e-9, 12.2e-9))
        assert lj == pytest.approx(12.0e-9, rel=1e-6)


class TestValidation:
    def test_transmon_with_two_junctions_rejected(self, bench):
        raw = dict(bench.raw)
        raw = __import__("copy").deepcopy(raw)
        raw["junctions"].append({
            "id": "j2", "nodes": ["g", "p1"], "subsystem": "qubit", "lj_nh": 10.0})
        cfg = parse_device_config(raw, base_dir=bench.base_dir)
        with pytest.raises(ConfigError, match="exactly one junction"):
            build_model(cfg)

    def test_orphan_subsystem_coordinate_rejected(self, bench):
        # declare the charge line stub as a subsystem node without any port
        raw = __import__("copy").deepcopy(dict(bench.raw))
        raw["couplers"] = ["p0"]
        raw["subsystems"][0]["nodes"] = ["p1", "cl"]
        cfg = parse_device_config(raw, base_dir=bench.base_dir)
        with pytest.raises(ConfigError, match="retains non-junction coordinates"):
            build_model(cfg)


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
