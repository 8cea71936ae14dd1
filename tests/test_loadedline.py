"""Transcendental eigenmodes, EPR, and ZPFs of the end-loaded line."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants
from scipy.integrate import quad

from lumpedq import loadedline
from lumpedq.discretize import ladder_netlist, normal_mode_frequencies
from lumpedq.errors import InvalidTarget, NumericalError, ValidationError
from lumpedq.loadedline import (
    LoadedLineSpec,
    calibrate_length,
    characteristic_lhs,
    solve_modes,
)

C_LIGHT = constants.c


def measured_scale_spec(c_load=320e-15):
    """Z0 = 53 ohm, v_p = 0.403c, length set for an unloaded 8.8 GHz
    fundamental."""
    v_p = 0.403 * C_LIGHT
    length = calibrate_length(2 * np.pi * 8.8e9, 1, z0=53.0, v_p=v_p, c_load=0.0)
    return LoadedLineSpec.from_wave_params(length, 53.0, v_p, c_load=c_load)


line_specs = st.builds(
    LoadedLineSpec.from_wave_params,
    length=st.floats(min_value=1e-3, max_value=2e-2),
    z0=st.floats(min_value=20.0, max_value=200.0),
    v_p=st.floats(min_value=0.2 * C_LIGHT, max_value=0.8 * C_LIGHT),
    c_load=st.floats(min_value=0.0, max_value=2e-12),
    shorted_end=st.booleans(),
)


class TestSpec:
    def test_derived_quantities(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 53.0, 0.403 * C_LIGHT, 320e-15)
        assert spec.v_p == pytest.approx(0.403 * C_LIGHT, rel=1e-12)
        assert spec.z0 == pytest.approx(53.0, rel=1e-12)
        assert spec.omega_knee == pytest.approx(1.0 / (320e-15 * 53.0), rel=1e-12)

    def test_unloaded_knee_is_infinite(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 53.0, 0.403 * C_LIGHT, 0.0)
        assert math.isinf(spec.omega_knee)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            LoadedLineSpec(length=-1.0, c_per_len=1e-10, l_per_len=1e-7)
        with pytest.raises(ValidationError):
            LoadedLineSpec(length=1e-3, c_per_len=1e-10, l_per_len=1e-7, c_load=-1e-15)

    @pytest.mark.parametrize("field", ["length", "c_per_len", "l_per_len", "c_load"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        """A NaN passes no bound: it does not reach the mode solver, which
        would return a NaN mode for an unloaded line."""
        params = {"length": 6e-3, "c_per_len": 1e-10, "l_per_len": 4e-7, "c_load": 0.0}
        with pytest.raises(ValidationError, match="finite"):
            LoadedLineSpec(**{**params, field: value})

    @pytest.mark.parametrize("z0, v_p", [(math.nan, 1.2e8), (50.0, math.nan)])
    def test_non_finite_wave_parameter_rejected(self, z0, v_p):
        with pytest.raises(ValidationError, match="positive"):
            LoadedLineSpec.from_wave_params(6e-3, z0, v_p)

    def test_dc_mode_metadata(self):
        open_line = LoadedLineSpec.from_wave_params(6e-3, 53.0, 1.2e8)
        short_line = LoadedLineSpec.from_wave_params(6e-3, 53.0, 1.2e8, shorted_end=True)
        assert open_line.has_dc_mode and open_line.first_mode_number == 1
        assert not short_line.has_dc_mode and short_line.first_mode_number == 0


class TestSolveModes:
    def test_unloaded_open_line_exact(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, c_load=0.0)
        modes = solve_modes(spec, 5)
        for m, mode in zip(range(1, 6), modes):
            assert mode.omega == pytest.approx(m * np.pi * spec.v_p / spec.length, rel=1e-12)

    def test_huge_load_acts_as_short(self):
        spec0 = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, c_load=0.0)
        w1 = solve_modes(spec0, 1)[0].omega
        spec = LoadedLineSpec.from_wave_params(
            6e-3, 50.0, 1.2e8, c_load=1e6 / (w1 * 50.0))
        modes = solve_modes(spec, 5)
        for m, mode in zip(range(1, 6), modes):
            shorted = (m - 0.5) * np.pi * spec.v_p / spec.length
            assert mode.omega == pytest.approx(shorted, rel=1e-5)

    def test_strong_loading_renormalization(self):
        """8.8 GHz unloaded fundamental dressed down to about 7.0 GHz by a
        320 fF load at Z0 = 53 ohm."""
        spec = measured_scale_spec()
        f1 = solve_modes(spec, 1)[0].frequency
        assert f1 == pytest.approx(7.0e9, abs=0.1e9)

    def test_residuals_below_tolerance(self):
        spec = measured_scale_spec()
        for mode in solve_modes(spec, 6):
            assert mode.residual() < 1e-12

    def test_perturbed_root_raises(self, monkeypatch):
        """A root 1e-9 off its branch misses the advertised residual bound."""
        solve = loadedline.brent_root
        monkeypatch.setattr(loadedline, "brent_root",
                            lambda *args, **kwargs: solve(*args, **kwargs) * (1.0 + 1e-9))
        with pytest.raises(NumericalError, match="characteristic equation"):
            solve_modes(measured_scale_spec(), 3)

    def test_unloaded_modes_are_the_closed_form(self):
        """With no load, every mode is (m pi + b pi/2) v_p / L to the last bit."""
        rng = np.random.default_rng(20)
        for i in range(48):
            spec = LoadedLineSpec.from_wave_params(
                float(rng.uniform(1e-3, 2e-2)), float(rng.uniform(20.0, 200.0)),
                float(rng.uniform(0.2, 0.8)) * C_LIGHT, shorted_end=bool(i % 2))
            for mode in solve_modes(spec, 10):
                closed = (mode.index * math.pi + spec.b * math.pi / 2.0) * spec.v_p / spec.length
                assert mode.omega.hex() == closed.hex(), (i, mode.index)

    def test_shipped_device_lines_take_few_evaluations(self, tmp_path, monkeypatch):
        """Solving each line of the shipped device, residual check included,
        evaluates the characteristic equation at most 12 times per mode."""
        from lumpedq import analysis
        from lumpedq.benchmark import benchmark_config

        lines = []
        solve = analysis.solve_modes
        monkeypatch.setattr(analysis, "solve_modes",
                            lambda spec, count: lines.append((spec, count)) or solve(spec, count))
        analysis.build_model(benchmark_config(tmp_path))
        assert lines and all(spec.c_load > 0.0 for spec, _ in lines)

        calls = []
        lhs = loadedline.characteristic_lhs
        monkeypatch.setattr(loadedline, "characteristic_lhs",
                            lambda omega, spec: calls.append(omega) or lhs(omega, spec))
        for spec, count in lines:
            calls.clear()
            solve_modes(spec, count)
            assert len(calls) <= 12 * count, (spec, len(calls))

    def test_frequencies_strictly_increasing(self):
        spec = measured_scale_spec()
        freqs = [m.omega for m in solve_modes(spec, 6)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_monotone_decreasing_in_loading(self):
        base = measured_scale_spec(c_load=0.0)
        loads = np.linspace(0.0, 2e-12, 20)
        freqs = []
        for c_load in loads:
            spec = LoadedLineSpec(base.length, base.c_per_len, base.l_per_len, c_load)
            freqs.append(solve_modes(spec, 1)[0].omega)
        assert all(b < a for a, b in zip(freqs, freqs[1:]))

    def test_shorted_end_branch(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, shorted_end=True)
        modes = solve_modes(spec, 3)
        assert modes[0].index == 0
        for m, mode in zip(range(0, 3), modes):
            quarter = (m + 0.5) * np.pi * spec.v_p / spec.length
            assert mode.omega == pytest.approx(quarter, rel=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            solve_modes(measured_scale_spec(), 0)

    @given(spec=line_specs)
    def test_lhs_increasing_and_root_bracketed(self, spec):
        modes = solve_modes(spec, 3)
        for mode in modes:
            target = mode.index * np.pi + spec.b * np.pi / 2
            assert characteristic_lhs(mode.omega, spec) == pytest.approx(target, rel=1e-12)
            lo = (target - np.pi / 2) * spec.v_p / spec.length
            hi = target * spec.v_p / spec.length
            assert lo < mode.omega <= hi * (1 + 1e-15)

    def test_symmetry_breaking_field_pulled_to_load(self):
        spec = measured_scale_spec()
        mode = solve_modes(spec, 1)[0]
        assert abs(mode.u(0.0)) < abs(mode.u(spec.length))


class TestEpr:
    def test_unloaded_epr_is_zero(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, c_load=0.0)
        mode = solve_modes(spec, 1)[0]
        assert mode.p_load == 0.0

    def test_closure_with_quadrature_oracle(self):
        spec = measured_scale_spec()
        for mode in solve_modes(spec, 3):
            integral, _ = quad(lambda z: mode.epr_density(z), 0.0, spec.length,
                               epsabs=1e-13, epsrel=1e-12, limit=200)
            assert mode.p_load + integral == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_integral_against_quadrature(self):
        spec = measured_scale_spec()
        for mode in solve_modes(spec, 4):
            numeric, _ = quad(lambda z: mode.u(z) ** 2, 0.0, spec.length,
                              epsabs=1e-14, epsrel=1e-12, limit=200)
            assert mode.line_integral == pytest.approx(numeric, rel=1e-10)

    def test_strongly_loaded_fundamental_epr_regression(self):
        # frozen from the adaptive-quadrature oracle on the 53 ohm / 320 fF /
        # 8.8 GHz line
        spec = measured_scale_spec()
        mode = solve_modes(spec, 1)[0]
        assert mode.p_load == pytest.approx(0.321731804, rel=1e-8)

    @given(spec=line_specs)
    def test_epr_closure_property(self, spec):
        mode = solve_modes(spec, 1)[0]
        direct = spec.c_per_len * mode.line_integral / mode.cap_energy_scale
        assert 0.0 <= mode.p_load <= 1.0
        assert mode.p_load + direct == pytest.approx(1.0, abs=1e-12)


class TestZpf:
    def test_unloaded_port_charge_vanishes(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, c_load=0.0)
        mode = solve_modes(spec, 1)[0]
        assert mode.q0_zpf == 0.0

    def test_energy_closure(self):
        """Q0^2/C_L + int q^2/c dz = hbar*omega/2."""
        spec = measured_scale_spec()
        for mode in solve_modes(spec, 3):
            integral, _ = quad(lambda z: mode.q_zpf(z) ** 2 / spec.c_per_len,
                               0.0, spec.length, epsabs=1e-40, epsrel=1e-12, limit=200)
            total = mode.q0_zpf**2 / spec.c_load + integral
            assert total == pytest.approx(0.5 * constants.hbar * mode.omega, rel=1e-9)

    def test_flux_charge_relation(self):
        spec = measured_scale_spec()
        mode = solve_modes(spec, 1)[0]
        z = np.linspace(0, spec.length, 7)
        np.testing.assert_allclose(
            mode.phi_zpf(z), mode.q_zpf(z) / (spec.c_per_len * mode.omega), rtol=1e-12)

    def test_lumped_limit_matches_lc_oracle(self):
        """Short shorted-end line with a large load reproduces the LC
        oscillator: the line is an inductor l*L with stub correction c*L/3."""
        length = 1e-4
        z0, v_p = 50.0, 1.2e8
        c_per = 1.0 / (z0 * v_p)
        l_per = z0 / v_p
        c_load = 1000.0 * c_per * length
        spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load, shorted_end=True)
        mode = solve_modes(spec, 1)[0]
        l_tot = l_per * length
        c_tot = c_load + c_per * length / 3.0
        omega_lc = 1.0 / math.sqrt(l_tot * c_tot)
        q_lc = math.sqrt(0.5 * constants.hbar * omega_lc * c_tot)
        assert mode.omega == pytest.approx(omega_lc, rel=0.01)
        assert mode.q0_zpf == pytest.approx(q_lc, rel=0.01)


class TestCalibrate:
    def test_closed_form_unloaded_length(self):
        v_p = 0.403 * C_LIGHT
        length = calibrate_length(2 * np.pi * 8.8e9, 1, z0=53.0, v_p=v_p)
        assert length == pytest.approx(6.8645659e-3, rel=1e-7)

    def test_round_trip_100_random_specs(self, rng):
        for _ in range(100):
            z0 = rng.uniform(20.0, 200.0)
            v_p = rng.uniform(0.2, 0.8) * C_LIGHT
            c_load = rng.uniform(0.0, 1e-12)
            shorted = bool(rng.integers(0, 2))
            m = int(rng.integers(0 if shorted else 1, 4))
            target = rng.uniform(2e9, 12e9) * 2 * np.pi
            length = calibrate_length(target, m, z0=z0, v_p=v_p, c_load=c_load,
                                      shorted_end=shorted)
            spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load, shorted)
            k = m - spec.first_mode_number
            assert solve_modes(spec, k + 1)[k].omega == pytest.approx(target, rel=1e-12)

    def test_loaded_target_implies_higher_unloaded_fundamental(self):
        """Length placing the loaded fundamental at 7.0 GHz has an unloaded
        fundamental near 8.8 GHz."""
        v_p = 0.403 * C_LIGHT
        length = calibrate_length(2 * np.pi * 7.0e9, 1, z0=53.0, v_p=v_p, c_load=320e-15)
        unloaded = LoadedLineSpec.from_wave_params(length, 53.0, v_p, 0.0)
        f1 = solve_modes(unloaded, 1)[0].frequency
        assert f1 == pytest.approx(8.8e9, abs=0.15e9)

    def test_invalid_targets(self):
        with pytest.raises(InvalidTarget):
            calibrate_length(-1.0, 1, z0=50.0, v_p=1.2e8)
        with pytest.raises(InvalidTarget):
            calibrate_length(2 * np.pi * 5e9, 0, z0=50.0, v_p=1.2e8)  # d.c. branch


class TestLimitConsistency:
    def test_weak_loading_limit(self):
        spec0 = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, 0.0)
        open_freqs = [m.omega for m in solve_modes(spec0, 3)]
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, 1e-17)
        for mode, w_open in zip(solve_modes(spec, 3), open_freqs):
            bound = mode.omega / spec.omega_knee
            assert abs(mode.omega - w_open) / w_open <= bound

    def test_strong_loading_limit(self):
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, 1e-9)
        for m, mode in zip(range(1, 4), solve_modes(spec, 3)):
            shorted = (m - 0.5) * np.pi * spec.v_p / spec.length
            assert abs(mode.omega - shorted) / shorted <= spec.omega_knee / mode.omega


class TestDiscreteToContinuum:
    def test_ladder_converges_quadratically(self):
        spec = measured_scale_spec()
        w_exact = solve_modes(spec, 1)[0].omega
        errors = {}
        for n in (50, 100, 200):
            net = ladder_netlist(spec, n)
            w = normal_mode_frequencies(net.c_mat, net.l_inv)[0]
            errors[n] = abs(w - w_exact) / w_exact
        assert errors[100] < errors[50] / 3.5
        assert errors[200] < errors[100] / 3.5
