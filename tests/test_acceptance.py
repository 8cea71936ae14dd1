"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a [PASS] line (run with ``pytest -s tests/test_acceptance.py`` to
see them). Criterion 6 checks the transmon against its exact spectrum, the
Mathieu characteristic values, and checks the -E_C anharmonicity asymptote
through the rate at which the exact spectrum approaches it.
"""

import math
import time

import numpy as np
import pytest
from scipy import constants
from scipy.integrate import quad

from lumpedq.analysis import build_model, calibrate_junction, run_analysis, run_budget
from lumpedq.benchmark import benchmark_config
from lumpedq.composite import (
    build_full_hamiltonian,
    diagonalize,
    extract_dispersive,
    observable_labels,
)
from lumpedq.discretize import ladder_netlist, normal_mode_frequencies
from lumpedq.loadedline import LoadedLineSpec, calibrate_length, solve_modes
from lumpedq.maxwell_io import parse_maxwell_text, serialize_maxwell
from lumpedq.netlist import reduce_network
from lumpedq.report import to_machine
from lumpedq.subsystems import TransmonSpec, diagonalize_transmon

from conftest import kerr_readout_system, mathieu_transmon_levels, random_circuit

C_LIGHT = constants.c
H = constants.h


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return benchmark_config(tmp_path_factory.mktemp("acceptance"))


def _passed(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


def test_criterion_1_loading_renormalization():
    """Z0 = 53 ohm, v_p = 0.403c, C_L = 320 fF on a line whose unloaded
    fundamental is 8.80 GHz: loaded fundamental 7.00 +/- 0.10 GHz, < 1 s."""
    t0 = time.perf_counter()
    v_p = 0.403 * C_LIGHT
    length = calibrate_length(2 * np.pi * 8.80e9, 1, z0=53.0, v_p=v_p, c_load=0.0)
    spec = LoadedLineSpec.from_wave_params(length, 53.0, v_p, c_load=320e-15)
    f1 = solve_modes(spec, 1)[0].frequency
    elapsed = time.perf_counter() - t0
    assert f1 == pytest.approx(7.00e9, abs=0.10e9)
    assert elapsed < 1.0
    _passed(1, f"loaded fundamental {f1 / 1e9:.4f} GHz from the unloaded 8.80 GHz "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_characteristic_equation_limits():
    """C_L = 0 reproduces the open frequencies exactly; a load 1e6 times
    1/(w1 Z0) reproduces the analytic short-limit frequencies (closed-form
    small-knee expansion of the characteristic equation) to 1e-9, < 1 s."""
    t0 = time.perf_counter()
    length, z0, v_p = 6.8e-3, 53.0, 0.403 * C_LIGHT
    open_spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load=0.0)
    for m, mode in zip(range(1, 6), solve_modes(open_spec, 5)):
        assert mode.omega == pytest.approx(m * np.pi * v_p / length, rel=1e-9)

    w1 = np.pi * v_p / length
    heavy = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load=1e6 / (w1 * z0))
    knee = heavy.omega_knee
    for m, mode in zip(range(1, 6), solve_modes(heavy, 5)):
        # arctan(w/w_knee) = pi/2 - w_knee/w + O((w_knee/w)^3) turns the
        # characteristic equation into a quadratic with this positive root:
        half = (m - 0.5) * np.pi
        w_short = (half + math.sqrt(half**2 + 4.0 * (length / v_p) * knee)) \
            / (2.0 * length / v_p)
        assert mode.omega == pytest.approx(w_short, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(2, f"open and short limits to 1e-9 for m = 1..5 ({elapsed * 1e3:.0f} ms)")


def test_criterion_3_epr_and_zpf_closure():
    """p_load + integral of the EPR density = 1 and the ZPF capacitive
    energy closes to hbar*w/2, both to 1e-9, on 20 random specs, m = 1..5."""
    rng = np.random.default_rng(987)
    for _ in range(20):
        spec = LoadedLineSpec.from_wave_params(
            length=rng.uniform(2e-3, 15e-3),
            z0=rng.uniform(25.0, 120.0),
            v_p=rng.uniform(0.25, 0.7) * C_LIGHT,
            c_load=rng.uniform(5e-15, 1.5e-12),
            shorted_end=bool(rng.integers(0, 2)),
        )
        for mode in solve_modes(spec, 5):
            integral, _ = quad(mode.epr_density, 0.0, spec.length,
                               epsabs=1e-13, epsrel=1e-11, limit=200)
            assert mode.p_load + integral == pytest.approx(1.0, abs=1e-9)
            energy, _ = quad(lambda z: mode.q_zpf(z) ** 2 / spec.c_per_len,
                             0.0, spec.length, epsabs=1e-36, epsrel=1e-11, limit=200)
            energy += mode.q0_zpf**2 / spec.c_load
            target = 0.5 * constants.hbar * mode.omega
            assert energy == pytest.approx(target, rel=1e-9)
    _passed(3, "EPR and ZPF closures to 1e-9 on 20 random specs, m = 1..5")


def test_criterion_4_schur_oracle():
    """100 random circuits (<= 8 nodes, capacitive couplers): reduced normal
    modes match the unreduced constrained pencil to 1e-8, < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    for _ in range(100):
        net = random_circuit(rng)
        rc = reduce_network(net)
        reduced = normal_mode_frequencies(rc.c_mat, rc.l_inv)
        full = normal_mode_frequencies(net.c_mat.toarray(), net.l_inv.toarray())
        np.testing.assert_allclose(reduced, full, rtol=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(4, f"100 random circuits match the brute-force pencil to 1e-8 "
               f"({elapsed:.2f} s)")


def test_criterion_5_series_eliminations():
    """Series capacitors through a capacitive coupler give C1 C2/(C1 + C2);
    series inductors through an inductive coupler give L1 + L2; 1e-12."""
    from lumpedq.netlist import NodeRegistry, coupler_kernel, schur_eliminate

    reg = NodeRegistry(datum="gnd", subsystems={"s0": frozenset({"a"}), "s1": frozenset({"b"})},
                       couplers=frozenset({"m"}))
    c1, c2 = 2e-15, 2e-15
    c = np.array([[c1, 0.0, -c1], [0.0, c2, -c2], [-c1, -c2, c1 + c2]])
    l_inv = np.diag([1e9, 1e9, 0.0])
    labels = ("a", "b", "m")
    c_k, _, _ = schur_eliminate(c, l_inv, coupler_kernel(l_inv, labels, reg), "capacitance")
    series_c = c1 * c2 / (c1 + c2)
    assert c_k[0, 0] == pytest.approx(series_c, rel=1e-12)
    assert c_k[0, 1] == pytest.approx(-series_c, rel=1e-12)

    l1, l2 = 4e-9, 6e-9
    l_inv = np.array([
        [1 / l1, 0.0, -1 / l1],
        [0.0, 1 / l2, -1 / l2],
        [-1 / l1, -1 / l2, 1 / l1 + 1 / l2],
    ])
    c = np.diag([50e-15, 50e-15, 0.0])
    li2, _, keep = schur_eliminate(l_inv, c, coupler_kernel(c, labels, reg),
                                   "inverse inductance")
    assert tuple(labels[i] for i in keep) == ("a", "b")
    assert li2[0, 0] == pytest.approx(1.0 / (l1 + l2), rel=1e-12)
    _passed(5, "series-capacitor and series-inductor eliminations exact to 1e-12")


def test_criterion_6_transmon_physics():
    """E_J/E_C = 50: f01 within 2 percent of sqrt(8 E_J E_C) - E_C, f01 and
    alpha equal to the exact Mathieu spectrum to 1e-8, and n_g -> n_g + 1
    invariance to 1e-10.

    alpha -> -E_C only asymptotically: the exact value at this ratio is
    -1.1492 E_C. So the asymptote is checked as the law the exact spectrum
    obeys, alpha / (-E_C) = 1 + (9/4) xi + O(xi^2) with xi = sqrt(E_C/8E_J),
    over E_J/E_C = 50..1600. A factor of 2 in E_C or in the E_J/2 hopping
    breaks it.
    """
    ec = 298e6 * H
    spec = TransmonSpec(c_eff=constants.e**2 / (2 * ec), ej=50 * ec)
    sub = diagonalize_transmon(spec)
    e = sub.energies
    f01 = (e[1] - e[0]) / H
    alpha = ((e[2] - e[1]) - (e[1] - e[0])) / H
    asym = math.sqrt(8 * 50) * ec / H - ec / H
    assert f01 == pytest.approx(asym, rel=0.02)

    shifted = TransmonSpec(c_eff=spec.c_eff, ej=spec.ej,
                           q_offset=2 * constants.e, n_max=spec.n_max)
    e_shift = diagonalize_transmon(shifted).energies
    np.testing.assert_allclose(e - e[0], e_shift - e_shift[0], rtol=1e-10,
                               atol=1e-10 * abs(e[1] - e[0]))

    m = mathieu_transmon_levels(50.0)
    alpha_exact = m[2] - 2.0 * m[1] + m[0]
    assert f01 == pytest.approx((m[1] - m[0]) * ec / H, rel=1e-8)
    assert alpha == pytest.approx(alpha_exact * ec / H, rel=1e-8)

    # The large-q expansion of the Mathieu characteristic values (DLMF
    # 28.8.1), differenced over levels 0, 1, 2, gives the 9/4.
    excess = {}  # E_J/E_C -> alpha / (-E_C) - 1
    for ratio in (50, 100, 200, 400, 800, 1600):
        levels = diagonalize_transmon(
            TransmonSpec(c_eff=spec.c_eff, ej=ratio * ec)).energies
        excess[ratio] = -(levels[2] - 2.0 * levels[1] + levels[0]) / ec - 1.0
    falling = list(excess.values())
    assert all(0.0 < b < a for a, b in zip(falling, falling[1:]))
    scaled = {r: x * math.sqrt(8 * r) for r, x in excess.items()}
    # xi halves from 400 to 1600: one Richardson step cancels the O(xi) term
    limit = 2.0 * scaled[1600] - scaled[400]
    assert limit == pytest.approx(9 / 4, rel=0.01)
    _passed(6, f"alpha = {alpha / (ec / H):.7f} E_C at E_J/E_C = 50, within "
               f"{abs(alpha / (alpha_exact * ec / H) - 1):.1e} of the Mathieu "
               f"spectrum; (alpha/(-E_C) - 1) sqrt(8 E_J/E_C) = "
               f"{scaled[50]:.3f} -> {scaled[1600]:.3f}, extrapolating to "
               f"{limit:.3f} (9/4); offset-charge periodic to 1e-10")


def test_criterion_7_dispersive_limit(bench):
    """Kerr benchmark at f_q 5.3 / f_r 7.0 GHz, alpha -330 MHz: full chi
    within 10 percent of the second-order dispersive prediction at
    g/Delta = 0.04, deviation decreasing toward 0.01, nominal chi in the
    3-7 MHz band, < 60 s."""
    t0 = time.perf_counter()
    f_q, f_r, alpha = 5.3e9, 7.0e9, -330e6
    delta, total = f_q - f_r, f_q + f_r

    def chi_pair(g_hz):
        subs, graph = kerr_readout_system(g_hz, f_q=f_q, alpha=alpha, f_r=f_r)
        obs = extract_dispersive(diagonalize(subs, build_full_hamiltonian(subs, graph),
                                             observable_labels(subs, 0)))
        pert = 2.0 * g_hz**2 * alpha * (
            1.0 / (delta * (delta + alpha)) + 1.0 / (total * (total + alpha)))
        return obs.chi_qr, pert

    deviations = []
    for ratio in (0.04, 0.02, 0.01):
        chi_full, chi_pert = chi_pair(ratio * abs(delta))
        deviations.append(abs(chi_full - chi_pert) / abs(chi_pert))
    assert deviations[0] < 0.10
    assert deviations[0] > deviations[1] > deviations[2]

    g_nominal = math.sqrt(5e6 * abs(delta * (delta + alpha)) / (2.0 * abs(alpha)))
    chi_full, _ = chi_pair(g_nominal)
    assert 3e6 <= abs(chi_full) <= 7e6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(7, f"dispersive deviations {['%.3e' % d for d in deviations]} shrink "
               f"monotonically; nominal chi {chi_full / 1e6:.2f} MHz ({elapsed:.2f} s)")


def test_criterion_8_discrete_to_continuum():
    """N-node ladder through the matrix pipeline converges to the
    transcendental fundamental as O(1/N^2): err(200) < err(100)/3.5."""
    v_p = 0.403 * C_LIGHT
    length = calibrate_length(2 * np.pi * 8.8e9, 1, z0=53.0, v_p=v_p, c_load=0.0)
    spec = LoadedLineSpec.from_wave_params(length, 53.0, v_p, c_load=320e-15)
    w_exact = solve_modes(spec, 1)[0].omega
    err = {}
    for n in (50, 100, 200):
        net = ladder_netlist(spec, n)
        rc = reduce_network(net)
        w = normal_mode_frequencies(rc.c_mat, rc.l_inv)[0]
        err[n] = abs(w - w_exact) / w_exact
    assert err[100] < err[50] / 3.5
    assert err[200] < err[100] / 3.5
    _passed(8, f"ladder errors {err[50]:.2e} -> {err[100]:.2e} -> {err[200]:.2e} "
               "contract faster than 3.5x per refinement")


def test_criterion_9_budget_structure(bench):
    """On the synthetic device: removing all non-qubit couplings moves
    chi_qr by 1-10 percent and the full model's |chi| is the smaller one;
    removing the readout first harmonic moves chi_qr by < 1 percent."""
    chi_full = build_model(bench).dispersive.chi_qr
    rows = {r.feature: r for r in run_budget(bench)}
    couplings = rows["coupling_hamiltonians"]
    assert 1.0 <= abs(couplings.delta_percent) <= 10.0
    assert abs(chi_full) < abs(couplings.chi_hz)
    harmonic = rows["readout_first_harmonic"]
    assert abs(harmonic.delta_percent) < 1.0
    _passed(9, f"coupling row {couplings.delta_percent:+.2f}% (|chi| decreases when "
               f"included), harmonic row {harmonic.delta_percent:+.2f}%")


def test_criterion_10_determinism_and_round_trips(bench):
    """Byte-identical machine output on identical inputs; junction
    calibration round-trip to 0.1 percent; parse/serialize byte-identity."""
    out1 = to_machine(run_analysis(bench))
    out2 = to_machine(run_analysis(bench))
    assert out1 == out2

    target = build_model(bench).dispersive.f_qubit
    perturbed = bench.with_override("junctions.j1.lj_nh", 12.0 * 1.1)
    lj, _ = calibrate_junction(perturbed, "j1", target, (9e-9, 16e-9))
    assert lj == pytest.approx(12.0e-9, rel=1e-3)

    canonical = serialize_maxwell(parse_maxwell_text(
        (bench.base_dir / "qubit_cell.csv").read_text(encoding="utf-8")))
    assert serialize_maxwell(parse_maxwell_text(canonical)) == canonical
    _passed(10, f"deterministic reports, L_j round-trip to "
                f"{abs(lj - 12e-9) / 12e-9 * 100:.4f}%, byte-identical fixtures")
