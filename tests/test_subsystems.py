"""Transmon and line-mode quantization."""

import math

import numpy as np
import pytest
from scipy import constants

from lumpedq.errors import TruncationNotConverged, ValidationError
from lumpedq.netlist import PHI_0
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.composite import CouplingEdge, CouplingGraph, build_full_hamiltonian
from lumpedq.subsystems import (
    OPERATOR_RTOL,
    ModeFactor,
    TransmonSpec,
    _charge_basis_levels,
    diagonalize_transmon,
    quantize_line,
)

from conftest import mathieu_transmon_levels

E = constants.e
H = constants.h


def transmon_from_ratio(ratio, ec_hz=298e6, **kwargs):
    ec = ec_hz * H
    return TransmonSpec(c_eff=E**2 / (2 * ec), ej=ratio * ec, **kwargs)


class TestTransmon:
    def test_ec_from_capacitance(self):
        spec = transmon_from_ratio(50.0)
        assert spec.e_c / H == pytest.approx(298e6, rel=1e-12)
        assert spec.c_eff == pytest.approx(6.5e-14, rel=1e-2)

    def test_asymptotic_frequency_and_anharmonicity(self):
        """At E_J/E_C = 50: f01 within 2% of sqrt(8 EJ EC) - EC; alpha equal
        to the exact Mathieu value (-1.1492230 EC) to 1e-8, inside the
        measured 300-350 MHz band for EC/h = 298 MHz."""
        spec = transmon_from_ratio(50.0)
        sub = diagonalize_transmon(spec)
        e = sub.energies
        f01 = (e[1] - e[0]) / H
        f12 = (e[2] - e[1]) / H
        ec = spec.e_c / H
        ej = spec.ej / H
        assert f01 == pytest.approx(math.sqrt(8 * ej * ec) - ec, rel=0.02)
        alpha = f12 - f01
        m = mathieu_transmon_levels(50.0)
        assert alpha == pytest.approx((m[2] - 2.0 * m[1] + m[0]) * ec, rel=1e-8)
        assert 300e6 <= -alpha <= 350e6

    def test_free_rotor_limit(self):
        """E_J -> 0: spectrum approaches 4 E_C (n - n_g)^2."""
        ec = 298e6 * H
        spec = TransmonSpec(c_eff=E**2 / (2 * ec), ej=1e-8 * ec, q_offset=0.2 * 2 * E)
        sub = diagonalize_transmon(spec)
        ng = spec.n_g
        exact = sorted(4 * ec * (n - ng) ** 2 for n in range(-3, 4))[: spec.levels]
        np.testing.assert_allclose(sub.energies, exact, rtol=1e-6)

    def test_offset_charge_periodicity(self):
        """Spectrum invariant under n_g -> n_g + 1 to 1e-10 relative."""
        base = transmon_from_ratio(50.0, levels=4)
        shifted = TransmonSpec(c_eff=base.c_eff, ej=base.ej,
                               q_offset=base.q_offset + 2 * E,
                               n_max=base.n_max, levels=base.levels)
        e0 = diagonalize_transmon(base).energies
        e1 = diagonalize_transmon(shifted).energies
        gaps0 = e0 - e0[0]
        gaps1 = e1 - e1[0]
        np.testing.assert_allclose(gaps0[1:], gaps1[1:], rtol=1e-10)

    def test_charge_dispersion_shrinks_with_ratio(self):
        """At E_J/E_C = 100 the 0-1 splitting varies below 1e-6 over a full
        offset-charge period."""
        ec = 298e6 * H
        splittings = []
        for ng in np.linspace(0.0, 1.0, 11):
            spec = TransmonSpec(c_eff=E**2 / (2 * ec), ej=100 * ec, q_offset=ng * 2 * E)
            e = diagonalize_transmon(spec).energies
            splittings.append(e[1] - e[0])
        spread = (max(splittings) - min(splittings)) / np.mean(splittings)
        assert spread < 1e-6

    def test_monotone_approach_to_asymptote(self):
        """f01 stays below the harmonic sqrt(8 EJ EC) value and the gap
        closes monotonically in E_J/E_C."""
        deficits = []
        for ratio in (20.0, 40.0, 80.0, 160.0):
            spec = transmon_from_ratio(ratio)
            e = diagonalize_transmon(spec).energies
            f01 = (e[1] - e[0]) / H
            harmonic = math.sqrt(8 * ratio) * spec.e_c / H
            deficits.append((harmonic - f01) / harmonic)
        assert all(d > 0 for d in deficits)
        assert all(b < a for a, b in zip(deficits, deficits[1:]))

    def test_truncation_convergence_guard(self):
        ec = 1e6 * H
        # enormous E_J/E_C pushes the wavefunction past a small charge cutoff
        spec = TransmonSpec(c_eff=E**2 / (2 * ec), ej=2e5 * ec, n_max=10, levels=3)
        with pytest.raises(TruncationNotConverged):
            diagonalize_transmon(spec)

    def test_charge_operator_hermitian_and_scaled(self):
        sub = diagonalize_transmon(transmon_from_ratio(50.0))
        q = sub.factors[0].charge
        np.testing.assert_allclose(q, q.T, atol=1e-25)
        # off-diagonal 0-1 element of n is near (EJ/(8 EC))**0.25 / sqrt(2)
        spec = transmon_from_ratio(50.0)
        n01 = abs(q[0, 1]) / (2 * E)
        assert n01 == pytest.approx((50.0 / 8.0) ** 0.25 / math.sqrt(2), rel=0.05)

    def test_charge_operator_signs_fixed_across_inductance(self):
        """The level signs do not follow rounding: at zero offset charge an
        odd level's two largest components tie, psi(-n) = -psi(n), and the
        n > 0 one is made positive, so the sign pattern of <k|n|k+1> is
        one pattern over a fine L_j sweep of 8 levels."""
        patterns = set()
        for step in range(40):
            lj = (12.0 + 0.005 * step) * 1e-9
            spec = TransmonSpec(c_eff=80e-15, ej=PHI_0**2 / lj, levels=8)
            q = diagonalize_transmon(spec).factors[0].charge
            patterns.add(tuple(np.sign(np.diag(q, k=1))))
        assert len(patterns) == 1

    def test_charge_operator_parity_zeros(self):
        """At n_g = 0 and 1/2 the levels alternate in parity under
        n - n_g -> -(n - n_g), so the charge 2e*(n - n_g) vanishes between
        levels of equal index parity: stored as exact zeros where the
        charge-basis product leaves rounding noise. At n_g = 0.25 those
        entries are not small and are kept."""
        levels = 5
        same = np.add.outer(np.arange(levels), np.arange(levels)) % 2 == 0
        for n_g in (0.0, 0.5, 0.25):
            spec = transmon_from_ratio(50.0, q_offset=n_g * 2 * E, levels=levels)
            n, _, vecs = _charge_basis_levels(spec, spec.n_max, levels)
            raw = 2 * E * (vecs.T @ ((n - n_g)[:, None] * vecs))
            q = diagonalize_transmon(spec).factors[0].charge
            np.testing.assert_allclose(q[~same], raw[~same], rtol=1e-12)
            if n_g != 0.25:
                assert np.all(q[same] == 0.0)
                assert np.max(np.abs(raw[same])) <= 1e-12 * np.max(np.abs(raw))
            else:
                np.testing.assert_allclose(q[same], raw[same], rtol=1e-12)
                assert np.max(np.abs(q[same])) > 1e-2 * np.max(np.abs(q))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            TransmonSpec(c_eff=-1e-13, ej=1e-24)
        with pytest.raises(ValidationError):
            TransmonSpec(c_eff=1e-13, ej=1e-24, n_max=5)

    @pytest.mark.parametrize("field, value", [
        ("c_eff", float("nan")), ("c_eff", float("inf")), ("ej", float("nan")),
        ("ej", float("inf")), ("q_offset", float("nan")), ("q_offset", float("inf")),
        ("n_max", float("nan")), ("levels", float("nan")),
    ])
    def test_non_finite_spec_rejected(self, field, value):
        """A NaN fails every bound, as a typed ValidationError, before the
        charge-basis solve could fail on it untyped."""
        with pytest.raises(ValidationError):
            TransmonSpec(**{"c_eff": 1e-13, "ej": 1e-24, field: value})


def single_mode_line(levels=3):
    spec = LoadedLineSpec.from_wave_params(6.8645659e-3, 53.0, 0.403 * constants.c,
                                           c_load=320e-15)
    modes = solve_modes(spec, 1)
    return spec, modes, quantize_line(modes, levels=levels, name="readout",
                                      ports=("b1",))


class TestLineQuantization:
    def test_fock_ladder_energies(self):
        spec, modes, sub = single_mode_line()
        w = modes[0].omega
        np.testing.assert_allclose(
            sub.energies, constants.hbar * w * np.array([0.5, 1.5, 2.5]), rtol=1e-12)

    def test_vacuum_charge_variance_is_zpf_squared(self):
        spec, modes, sub = single_mode_line()
        q = sub.factors[0].charge
        vac = np.zeros(sub.dimension)
        vac[0] = 1.0
        variance = vac @ (q @ q) @ vac
        assert variance.real == pytest.approx(modes[0].q0_zpf**2, rel=1e-12)

    def test_charge_operator_ladder_structure(self):
        spec, modes, sub = single_mode_line()
        q0 = modes[0].q0_zpf
        a = np.diag(np.sqrt(np.arange(1, 3, dtype=float)), k=1)
        # i q0 (a^dag - a) in the real gauge
        np.testing.assert_allclose(sub.factors[0].charge, q0 * (a.T + a), atol=1e-30)

    def test_two_mode_block_operators(self):
        spec = LoadedLineSpec.from_wave_params(6.8645659e-3, 53.0, 0.403 * constants.c,
                                               c_load=320e-15)
        modes = solve_modes(spec, 2)
        sub = quantize_line(modes, levels=(3, 2), name="readout", ports=("b1",))
        assert sub.dimension == 6
        assert sub.mode_dims == (3, 2)
        e00 = 0.5 * constants.hbar * (modes[0].omega + modes[1].omega)
        assert sub.energies[0] == pytest.approx(e00, rel=1e-12)
        # np.ndindex order: state 1 is (0, 1), state 2 is (1, 0)
        hw = constants.hbar * np.array([modes[0].omega, modes[1].omega])
        assert sub.energies[1] - sub.energies[0] == pytest.approx(hw[1], rel=1e-12)
        assert sub.energies[2] - sub.energies[0] == pytest.approx(hw[0], rel=1e-12)

    def test_shared_ports_for_double_ended_bus(self):
        spec = LoadedLineSpec.from_wave_params(8e-3, 53.0, 0.403 * constants.c,
                                               c_load=100e-15)
        modes = solve_modes(spec, 1)
        sub = quantize_line(modes, levels=3, name="bus", ports=("b2a", "b2b"))
        assert sub.ports == ("b2a", "b2b")
        assert len(sub.factors) == 1

    def test_level_validation(self):
        spec, modes, _ = single_mode_line()
        with pytest.raises(ValidationError):
            quantize_line(modes, levels=(3, 3), name="x", ports=("p",))
        with pytest.raises(ValidationError):
            quantize_line(modes, levels=1, name="x", ports=("p",))
        with pytest.raises(ValueError):  # one ZPF per mode, none dropped silently
            quantize_line(modes, levels=3, name="x", ports=("p",),
                          charge_zpf=[1e-18, 1e-18])


class TestScaleOperators:
    def test_harmonic_mode_dimensionless_form(self):
        spec, modes, sub = single_mode_line()
        (factor,) = sub.factors
        assert factor.charge_scale == pytest.approx(modes[0].q0_zpf, rel=1e-12)
        a = np.diag(np.sqrt(np.arange(1, 3, dtype=float)), k=1)
        np.testing.assert_allclose(factor.charge / factor.charge_scale, a.T + a, atol=1e-15)

    def test_transmon_scaling_is_cooper_pair_number(self):
        spec = transmon_from_ratio(50.0)
        sub = diagonalize_transmon(spec)
        (factor,) = sub.factors
        assert factor.charge_scale == pytest.approx(2 * E, rel=1e-15)
        _, _, vecs = _charge_basis_levels(spec, spec.n_max, spec.levels)
        n = np.arange(-spec.n_max, spec.n_max + 1, dtype=float)
        np.testing.assert_allclose(factor.charge / factor.charge_scale,
                                   vecs.T @ (n[:, None] * vecs), atol=1e-12)

    def test_reconstruction_identity_multimode(self):
        """Each mode factor carries its own charge scale times the
        dimensionless a^dag + a, with its own flux amplitude, in mode order."""
        spec = LoadedLineSpec.from_wave_params(6.8645659e-3, 53.0, 0.403 * constants.c,
                                               c_load=320e-15)
        modes = solve_modes(spec, 2)
        sub = quantize_line(modes, levels=(3, 4), name="readout", ports=("b1",))
        assert sub.mode_dims == (3, 4)
        for factor, mode, d in zip(sub.factors, modes, (3, 4)):
            a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
            assert factor.charge_scale == mode.q0_zpf
            np.testing.assert_array_equal(factor.charge, mode.q0_zpf * (a.T + a))
            np.testing.assert_array_equal(factor.flux, float(mode.phi_zpf(0.0)) * (a - a.T))

    def test_unknown_port_rejected(self):
        sub = diagonalize_transmon(transmon_from_ratio(50.0))
        _, _, line = single_mode_line()
        graph = CouplingGraph((CouplingEdge("transmon", "nope", "readout", "b1", inv_c_eff=1.0),))
        with pytest.raises(ValidationError, match="no port 'nope'"):
            build_full_hamiltonian([sub, line], graph)


class TestHermiticity:
    def test_all_returned_operators_hermitian(self):
        """Charge operators are real symmetric and flux operators i times a
        real antisymmetric matrix, so both are Hermitian."""
        _, _, sub = single_mode_line()
        transmon = diagonalize_transmon(transmon_from_ratio(50.0))
        for factor in (*sub.factors, *transmon.factors):
            assert factor.charge.dtype == np.float64
            assert np.array_equal(factor.charge, factor.charge.T)
        for factor in sub.factors:
            assert factor.flux.dtype == np.float64
            assert np.array_equal(factor.flux, -factor.flux.T)
        assert transmon.factors[0].flux is None

    def test_non_hermitian_operator_rejected(self):
        with pytest.raises(ValidationError, match="charge operator is not real symmetric"):
            ModeFactor(levels=np.array([0.0, 1.0]),
                       charge=np.array([[0.0, 1.0], [0.0, 0.0]]), charge_scale=1.0)
        with pytest.raises(ValidationError, match="flux operator is not real antisymmetric"):
            ModeFactor(levels=np.array([0.0, 1.0]), charge=np.zeros((2, 2)), charge_scale=1.0,
                       flux=np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("what", ["charge", "flux"])
    def test_operator_shape_must_match_levels(self, what):
        ops = {"charge": np.zeros((2, 2)), "flux": np.zeros((2, 2))}
        ops[what] = np.zeros((3, 3))
        with pytest.raises(ValidationError, match=f"{what} operator shape"):
            ModeFactor(levels=np.array([0.0, 1.0]), charge_scale=1.0, **ops)

    @pytest.mark.parametrize("ratio, zeroed", [(0.1, True), (10.0, False)])
    def test_equal_parity_entries_zeroed_only_within_tolerance(self, ratio, zeroed):
        """Entries between levels of equal index parity become exact zeros
        only when all of them are within OPERATOR_RTOL of the largest entry
        (here sqrt(2))."""
        noise = ratio * OPERATOR_RTOL
        a = np.diag(np.sqrt([1.0, 2.0]), k=1)
        same = np.add.outer(np.arange(3), np.arange(3)) % 2 == 0
        charge = a.T + a + noise * same
        flux = a - a.T + noise * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        factor = ModeFactor(levels=np.array([0.0, 1.0, 2.0]), charge=charge,
                            charge_scale=1.0, flux=flux)
        np.testing.assert_array_equal(factor.charge, a.T + a if zeroed else charge)
        np.testing.assert_array_equal(factor.flux, a - a.T if zeroed else flux)

    def test_nearly_symmetric_operators_stored_exactly_symmetric(self):
        charge = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
        flux = np.array([[0.0, 1.0], [-1.0 - 1e-14, 0.0]])
        factor = ModeFactor(levels=np.array([0.0, 1.0]), charge=charge, charge_scale=1.0,
                            flux=flux)
        assert np.array_equal(factor.charge, factor.charge.T)
        assert np.array_equal(factor.flux, -factor.flux.T)
