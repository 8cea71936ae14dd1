"""Composite Hamiltonian assembly, labeling, and dispersive observables."""

import collections
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants

from lumpedq import composite, roots
from lumpedq.composite import (
    CouplingEdge,
    CouplingGraph,
    build_full_hamiltonian,
    coupling_rates,
    cross_kerr_matrix,
    diagonalize,
    extract_dispersive,
    mode_frequencies,
    observable_labels,
)
from lumpedq.errors import (
    DimensionOverflow,
    NumericalError,
    TargetOutOfRange,
    UnlabeledState,
    ValidationError,
)
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.roots import calibrate_scalar
from lumpedq.subsystems import (
    ModeFactor,
    QuantizedSubsystem,
    TransmonSpec,
    diagonalize_transmon,
    quantize_line,
)

from conftest import (
    assert_matches_full_eigh,
    dense_hamiltonian,
    greedy_labels,
    kerr_oscillator,
    kerr_readout_system,
    qubit_readout_system,
    split_hamiltonian,
    stride_hamiltonian,
)

H_PLANCK = constants.h
HBAR = constants.hbar


def harmonic_subsystem(name, f_hz, levels, q_zpf=1e-18, port="p"):
    a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1)
    factor = ModeFactor(levels=HBAR * 2 * np.pi * f_hz * (np.arange(levels) + 0.5),
                        charge=q_zpf * (a.T + a), charge_scale=q_zpf)
    return QuantizedSubsystem(name=name, ports=(port,), factors=(factor,))


def kron_hamiltonian(subsystems, graph, line_zpfs):
    """Oracle: the ungauged complex Hamiltonian from Kronecker products and
    matrix products of the raw port operators, one factor per mode.

    ``line_zpfs`` maps each line subsystem to its per-mode (Q_zpf, Phi_zpf);
    its raw charge i Q_zpf (a^dag - a) and flux Phi_zpf (a^dag + a) are
    built here from them. Any other subsystem is a transmon, whose charge is
    real as stored."""
    factors = [f for s in subsystems for f in s.factors]
    owners = [s.name for s in subsystems for _ in s.factors]
    zpfs = [zpf for s in subsystems for zpf in line_zpfs.get(s.name, [None] * len(s.factors))]
    dims = [len(f.levels) for f in factors]

    def lift(op, i):
        out = np.eye(1, dtype=complex)
        for j, d in enumerate(dims):
            out = np.kron(out, op if j == i else np.eye(d))
        return out

    charge, flux = [], []
    for f, zpf in zip(factors, zpfs):
        a = np.diag(np.sqrt(np.arange(1.0, len(f.levels))), k=1)
        charge.append(f.charge if zpf is None else 1j * zpf[0] * (a.T - a))
        flux.append(None if zpf is None else zpf[1] * (a.T + a))
    h = sum(lift(np.diag(f.levels), i) for i, f in enumerate(factors))
    for e in graph.edges:
        for ia in (i for i, name in enumerate(owners) if name == e.sub_a):
            for ib in (i for i, name in enumerate(owners) if name == e.sub_b):
                if e.inv_c_eff:
                    h = h + 0.5 * e.inv_c_eff * (lift(charge[ia], ia) @ lift(charge[ib], ib))
                if e.inv_l_eff:
                    h = h + 0.5 * e.inv_l_eff * (lift(flux[ia], ia) @ lift(flux[ib], ib))
    return h


def mode_zpfs(modes):
    """Per-mode (Q_zpf, Phi_zpf) at the loaded end, as kron_hamiltonian takes them."""
    return [(m.q0_zpf, float(m.phi_zpf(0.0))) for m in modes]


def two_mode_line(name, target_hz, levels, port):
    """Loaded line with two Fock-truncated modes and one port."""
    from lumpedq.loadedline import calibrate_length

    z0, v_p, c_load = 50.0, 0.4 * constants.c, 200e-15
    length = calibrate_length(2 * np.pi * target_hz, 1, z0=z0, v_p=v_p, c_load=c_load)
    spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load)
    modes = solve_modes(spec, 2)
    return quantize_line(modes, levels=levels, name=name, ports=(port,)), modes


def gauge_oracle_system():
    """Transmon + two two-mode lines: the qubit couples capacitively to both
    lines, and the lines to each other both capacitively and inductively.
    Returns the subsystems, the named edges and the lines' mode ZPFs."""
    subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=4, readout_levels=2)
    qubit = subs[0]
    line_a, modes_a = two_mode_line("la", 6.3e9, (3, 2), "pa")
    line_b, modes_b = two_mode_line("lb", 7.1e9, (3, 2), "pb")
    hbar_g = constants.hbar * 2 * np.pi * 150e6
    q01 = abs(qubit.factors[0].charge[0, 1])
    qa, qb = modes_a[0].q0_zpf, modes_b[0].q0_zpf
    fa, fb = float(modes_a[0].phi_zpf(0.0)), float(modes_b[0].phi_zpf(0.0))
    edges = {
        "qubit-line capacitive": CouplingEdge("transmon", "junction", "la", "pa",
                                              inv_c_eff=2 * hbar_g / (q01 * qa)),
        "line-line inductive": CouplingEdge("la", "pa", "lb", "pb",
                                            inv_c_eff=2 * hbar_g / (qa * qb),
                                            inv_l_eff=2 * hbar_g / (fa * fb)),
        "qubit-far-line capacitive": CouplingEdge("transmon", "junction", "lb", "pb",
                                                  inv_c_eff=1.5 * hbar_g / (q01 * qb)),
    }
    return [qubit, line_a, line_b], edges, {"la": mode_zpfs(modes_a), "lb": mode_zpfs(modes_b)}


@functools.lru_cache(maxsize=None)
def oracle_parts():
    """A loaded line with three solved modes, a transmon with a one-mode
    readout line (2 levels), and that readout's mode, for the random-line
    oracle test."""
    spec = LoadedLineSpec.from_wave_params(6.8645659e-3, 53.0, 0.403 * constants.c,
                                           c_load=320e-15)
    subs, _, _, _, readout_mode = qubit_readout_system(0.0, qubit_levels=3, readout_levels=2)
    return spec, tuple(solve_modes(spec, 3)), tuple(subs), readout_mode


def draw_transmon_oscillators(data):
    """A transmon at zero or at a drawn offset charge, coupled capacitively
    to 1-2 harmonic oscillators. Returns (subsystems, graph, offset n_g)."""
    ec = data.draw(st.floats(200e6, 350e6)) * H_PLANCK
    n_g = data.draw(st.one_of(st.just(0.0), st.floats(0.05, 0.45)))
    transmon = diagonalize_transmon(TransmonSpec(
        c_eff=constants.e**2 / (2 * ec), ej=data.draw(st.floats(20.0, 80.0)) * ec,
        q_offset=2 * constants.e * n_g, levels=data.draw(st.integers(3, 5))))
    q01 = abs(transmon.factors[0].charge[0, 1])
    f_r = data.draw(st.floats(4e9, 9e9))
    subs, edges = [transmon], []
    for k in range(data.draw(st.integers(1, 2))):
        if k:  # keep the oscillators apart, so no two levels are degenerate
            f_r += data.draw(st.floats(0.3e9, 2e9))
        osc = harmonic_subsystem(f"r{k}", f_r, data.draw(st.integers(3, 4)), q_zpf=2e-18)
        g = HBAR * 2 * np.pi * data.draw(st.floats(10e6, 250e6))
        edges.append(CouplingEdge("transmon", "junction", osc.name, "p",
                                  inv_c_eff=2 * g / (q01 * 2e-18)))
        subs.append(osc)
    return subs, CouplingGraph(tuple(edges)), n_g


def pt2_energies(h0_diag, v):
    """Second-order perturbation theory on a diagonal H0 with coupling v."""
    out = []
    for s in range(len(h0_diag)):
        shift = h0_diag[s] + v[s, s].real
        for sp in range(len(h0_diag)):
            if sp == s:
                continue
            shift += abs(v[s, sp]) ** 2 / (h0_diag[s] - h0_diag[sp])
        out.append(shift)
    return np.array(out)


class TestAssembly:
    def test_zero_couplings_spectrum_is_bare_sums(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=4, readout_levels=3)
        h = dense_hamiltonian(build_full_hamiltonian(subs, CouplingGraph(())))
        vals = np.linalg.eigvalsh(h)
        sums = sorted(
            ea + eb for ea in subs[0].energies for eb in subs[1].energies
        )
        np.testing.assert_allclose(vals, sums, rtol=1e-12)

    def test_disjoint_factors_commute_exactly(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=3)
        ha = np.kron(np.diag(subs[0].energies), np.eye(3))
        hb = np.kron(np.eye(3), np.diag(subs[1].energies))
        assert np.max(np.abs(ha @ hb - hb @ ha)) == 0.0

    def test_hermitian(self):
        subs, graph, _, _, _ = qubit_readout_system(80e6)
        h = dense_hamiltonian(build_full_hamiltonian(subs, graph))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12 * np.max(np.abs(h)))

    def test_nearly_hermitian_operator_gives_exactly_symmetric_h(self):
        """A port operator Hermitian only to the subsystem tolerance still
        yields a Hamiltonian symmetric to the last bit."""
        subs, graph, _, _, _ = qubit_readout_system(80e6, qubit_levels=3, readout_levels=3)
        factor = subs[0].factors[0]
        charge = factor.charge.copy()
        charge[0, 1] *= 1.0 + 1e-13
        skewed = QuantizedSubsystem(name="transmon", ports=("junction",), factors=(
            ModeFactor(levels=factor.levels, charge=charge, charge_scale=factor.charge_scale),))
        h = dense_hamiltonian(build_full_hamiltonian([skewed, subs[1]], graph))
        assert np.array_equal(h, h.T)

    def test_dimension_overflow(self):
        subs, graph, _, _, _ = qubit_readout_system(80e6)
        with pytest.raises(DimensionOverflow):
            build_full_hamiltonian(subs, graph, dimension_cap=10)

    def test_zero_strength_edge_leaves_spectrum_bit_identical(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=4, readout_levels=4)
        bare = CouplingGraph(())
        with_zero = CouplingGraph(
            (CouplingEdge("transmon", "junction", "readout", "b1", inv_c_eff=0.0),))
        h1 = dense_hamiltonian(build_full_hamiltonian(subs, bare))
        h2 = dense_hamiltonian(build_full_hamiltonian(subs, with_zero))
        assert np.array_equal(h1, h2)
        assert np.array_equal(np.linalg.eigvalsh(h1), np.linalg.eigvalsh(h2))

    def test_assembled_pair_term_matches_scaled_identity(self):
        """The assembled coupling equals hbar*g times the dimensionless
        operator product in the real gauge, entrywise: the readout charge is
        its scale times the real a^dag + a, the transmon's 2e times n."""
        subs, graph, g01, _, mode = qubit_readout_system(50e6)
        h_coupled = dense_hamiltonian(build_full_hamiltonian(subs, graph))
        h_bare = dense_hamiltonian(build_full_hamiltonian(subs, CouplingGraph(())))
        coupling_term = h_coupled - h_bare
        rates = coupling_rates(subs, graph)
        ((_, _, _, _), g_rad), = rates.items()
        qubit, readout = subs[0].factors[0], subs[1].factors[0]
        a = np.diag(np.sqrt(np.arange(1.0, subs[1].dimension)), k=1)
        np.testing.assert_array_equal(readout.charge, readout.charge_scale * (a.T + a))
        dimless = np.kron(qubit.charge / qubit.charge_scale, a.T + a)
        expected = HBAR * g_rad * dimless
        np.testing.assert_allclose(coupling_term, expected,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_memory_guard_raises_before_allocating(self, monkeypatch):
        """The guard counts the two N/2 sector blocks, the solver's copy of
        one and a sector of eigenvectors: one byte short of that fails."""
        subs, graph, _, _, _ = qubit_readout_system(80e6)
        dim = subs[0].dimension * subs[1].dimension
        half = dim // 2
        needed = 8 * (2 * half**2 + 2 * half**2)  # blocks; solver copy and eigenvectors
        monkeypatch.setattr(composite, "available_memory_bytes", lambda: needed - 1)
        with pytest.raises(DimensionOverflow, match="available"):
            build_full_hamiltonian(subs, graph)
        monkeypatch.setattr(composite, "available_memory_bytes", lambda: needed)
        assert build_full_hamiltonian(subs, graph).shape == (dim, dim)

    @given(data=st.data())
    def test_blocks_equal_the_stride_oracle(self, data):
        """Each sector block equals the whole-H stride oracle on its sector,
        bit for bit: two parity blocks at zero offset charge, one block of
        the whole basis at a nonzero one."""
        subs, graph, n_g = draw_transmon_oscillators(data)
        h = build_full_hamiltonian(subs, graph)
        oracle = stride_hamiltonian(subs, graph)
        assert len(h.blocks) == (1 if n_g else 2)
        for k, block in enumerate(h.blocks):
            sector = h.basis.states(k)
            assert np.array_equal(block, oracle[np.ix_(sector, sector)])
        assert sum(len(block) for block in h.blocks) == len(oracle)

    def test_available_memory_is_positive_where_readable(self):
        available = composite.available_memory_bytes()
        assert available is None or available > 0

    def test_non_diagonal_subsystem_hamiltonian_rejected(self):
        """A mode carries its levels, not a Hamiltonian matrix: anything but
        a 1-D array of energies is rejected when the factor is built."""
        with pytest.raises(ValidationError, match="1-D"):
            ModeFactor(levels=np.array([[0.0, 1e-25], [1e-25, 1e-24]]),
                       charge=np.zeros((2, 2)), charge_scale=1e-18)

    def test_inductive_coupling_to_transmon_rejected(self):
        subs, _, _, _, _ = qubit_readout_system(0.0)
        graph = CouplingGraph(
            (CouplingEdge("transmon", "junction", "readout", "b1", inv_l_eff=1e3),))
        with pytest.raises(ValidationError):
            build_full_hamiltonian(subs, graph)


class TestRealGauge:
    @pytest.mark.parametrize("case", ["qubit-line capacitive", "line-line inductive", "all"])
    def test_spectrum_matches_ungauged_kron_oracle(self, case):
        subs, edges, zpfs = gauge_oracle_system()
        graph = CouplingGraph(tuple(edges.values()) if case == "all" else (edges[case],))
        sectors = build_full_hamiltonian(subs, graph)
        assert sectors.dtype == np.float64
        h = dense_hamiltonian(sectors)
        assert np.array_equal(h, h.T)
        oracle = kron_hamiltonian(subs, graph, zpfs)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(oracle),
                                   rtol=1e-12)

    def test_oracle_resolves_the_flux_sign(self):
        """With a charge and a flux term on one edge, flipping the flux sign
        changes the spectrum, so the oracle above checks the gauge's -1."""
        subs, edges, zpfs = gauge_oracle_system()
        edge = edges["line-line inductive"]
        flipped = CouplingEdge(edge.sub_a, edge.port_a, edge.sub_b, edge.port_b,
                               inv_c_eff=edge.inv_c_eff, inv_l_eff=-edge.inv_l_eff)
        vals = np.linalg.eigvalsh(kron_hamiltonian(subs, CouplingGraph((edge,)), zpfs))
        vals_flipped = np.linalg.eigvalsh(
            kron_hamiltonian(subs, CouplingGraph((flipped,)), zpfs))
        assert np.max(np.abs(vals - vals_flipped)) > 1e-4 * np.max(np.abs(vals))

    @given(st.data())
    def test_random_line_matches_kron_oracle(self, data):
        """A line of 1-3 modes with 2-4 levels each, 1-2 ports and drawn
        port ZPFs, coupled capacitively to a transmon and both capacitively
        and inductively to a one-mode line, has the spectrum of the ungauged
        oracle to 1e-12 of its largest level."""
        spec, modes, (transmon, aux), aux_mode = oracle_parts()
        n_modes = data.draw(st.integers(1, 3))
        modes = modes[:n_modes]
        levels = data.draw(st.lists(st.integers(2, 4), min_size=n_modes, max_size=n_modes))
        ports = ("p0", "p1")[:data.draw(st.integers(1, 2))]
        charge_zpf = [m.q0_zpf * data.draw(st.floats(0.5, 2.0)) for m in modes]
        flux_zpf = [float(m.phi_zpf(0.0)) * data.draw(st.floats(0.5, 2.0)) for m in modes]
        line = quantize_line(modes, levels=levels, name="line", ports=ports,
                             charge_zpf=charge_zpf, flux_zpf=flux_zpf)

        def hbar_g():
            return HBAR * 2 * np.pi * data.draw(st.floats(-300e6, 300e6))

        q01 = abs(transmon.factors[0].charge[0, 1])
        ((q_aux, phi_aux),) = mode_zpfs([aux_mode])
        graph = CouplingGraph((
            CouplingEdge("transmon", "junction", "line", ports[0],
                         inv_c_eff=2 * hbar_g() / (q01 * charge_zpf[0])),
            CouplingEdge("readout", "b1", "line", ports[-1],
                         inv_c_eff=2 * hbar_g() / (q_aux * charge_zpf[0]),
                         inv_l_eff=2 * hbar_g() / (phi_aux * flux_zpf[0])),
        ))
        subs = [transmon, line, aux]
        h = dense_hamiltonian(build_full_hamiltonian(subs, graph))
        assert np.array_equal(h, h.T)
        zpfs = {"line": list(zip(charge_zpf, flux_zpf)), "readout": mode_zpfs([aux_mode])}
        oracle = np.linalg.eigvalsh(kron_hamiltonian(subs, graph, zpfs))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), oracle, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(oracle)))

    def test_operator_neither_real_nor_imaginary_rejected(self):
        """Operators are stored in the real gauge: a complex charge matrix,
        even a Hermitian one, is rejected when the factor is built."""
        mixed = 1e-18 * np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
        with pytest.raises(ValidationError, match="charge operator is not real symmetric"):
            ModeFactor(levels=np.array([0.0, 1e-24]), charge=mixed, charge_scale=1e-18)
        # symmetric, but complex: written into the real H it would lose its phase
        with pytest.raises(ValidationError, match="charge operator is not real symmetric"):
            ModeFactor(levels=np.array([0.0, 1e-24]), charge=(1.0 + 1.0j) * mixed.real,
                       charge_scale=1e-18)

    def test_real_times_imaginary_pair_rejected(self):
        """An ungauged line charge i(a^dag - a) is imaginary; its real part
        stored as is would be antisymmetric and is rejected, as is a flux
        stored ungauged as the symmetric a^dag + a."""
        a = np.diag(np.sqrt([1.0, 2.0]), k=1)
        levels = np.array([0.0, 1e-24, 2e-24])
        with pytest.raises(ValidationError, match="charge operator is not real symmetric"):
            ModeFactor(levels=levels, charge=1e-18 * (a.T - a), charge_scale=1e-18)
        with pytest.raises(ValidationError, match="flux operator is not real antisymmetric"):
            ModeFactor(levels=levels, charge=1e-18 * (a.T + a), charge_scale=1e-18,
                       flux=1e-15 * (a.T + a))


class TestCouplingRates:
    @pytest.mark.parametrize("inv_c, inv_l, half_splitting_mhz", [
        (2e12, 0.0, 22.2100),
        (0.0, -2e7, 24.7927),
        (2e12, -2e7, 2.5827),
        (2e12, 2e7, 47.0026),
    ])
    def test_rate_is_half_the_normal_mode_splitting(self, inv_c, inv_l, half_splitting_mhz):
        """Two identical 9.527 GHz line modes joined by one edge: g is the
        sum g_c + g_f of the edge's charge and flux rates, and half the
        splitting of the odd sector's lowest two levels is |g|. The
        counter-rotating part of the coupling, g_c - g_f, moves that half
        splitting by the relative (g_c - g_f)^2 / (2 omega^2), 1.2e-5 in
        the mixed case of opposite signs; the exact normal-mode splitting of
        the two coupled oscillators accounts for it to 1e-11."""
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8, c_load=50e-15)
        (mode,) = solve_modes(spec, 1)
        subs = [quantize_line([mode], levels=4, name=name, ports=("p",))
                for name in ("la", "lb")]
        graph = CouplingGraph((CouplingEdge("la", "p", "lb", "p",
                                            inv_c_eff=inv_c, inv_l_eff=inv_l),))
        g_c = mode.q0_zpf**2 * 0.5 * inv_c / HBAR
        g_f = float(mode.phi_zpf(0.0)) ** 2 * 0.5 * inv_l / HBAR
        rates = coupling_rates(subs, graph)
        assert list(rates) == [("la", 0, "lb", 0)]
        g = rates["la", 0, "lb", 0]
        assert g == pytest.approx(g_c + g_f, rel=1e-12)

        odd = np.linalg.eigvalsh(build_full_hamiltonian(subs, graph).blocks[1])
        half = (odd[1] - odd[0]) / (2 * HBAR)
        assert half / (2e6 * np.pi) == pytest.approx(half_splitting_mhz, abs=1e-4)
        w, counter = mode.omega, g_c - g_f
        assert abs(g) == pytest.approx(half, rel=(counter / w) ** 2)
        exact = 0.5 * (math.sqrt((w + g) ** 2 - counter**2) - math.sqrt((w - g) ** 2 - counter**2))
        assert abs(exact) == pytest.approx(half, rel=1e-11)

    def test_mixed_edge_sums_charge_and_flux_rates(self):
        """The line-line edge of the gauge oracle couples the two lines'
        first modes at 150 MHz through each quadrature: g is 300 MHz, and
        every mode pair's g is A_n B_m [C^-1]_nm + Phi_n Phi_m [L^-1]_nm
        from the solved modes' ZPFs."""
        subs, edges, zpfs = gauge_oracle_system()
        edge = edges["line-line inductive"]
        rates = coupling_rates(subs, CouplingGraph((edge,)))
        assert rates["la", 0, "lb", 0] / (2 * np.pi) == pytest.approx(300e6, rel=1e-12)
        assert len(rates) == 4
        for (ma, (qa, fa)), (mb, (qb, fb)) in itertools.product(enumerate(zpfs["la"]),
                                                               enumerate(zpfs["lb"])):
            hbar_g = qa * qb * 0.5 * edge.inv_c_eff + fa * fb * 0.5 * edge.inv_l_eff
            assert rates["la", ma, "lb", mb] == pytest.approx(hbar_g / HBAR, rel=1e-12)

    def test_inductive_rate_to_a_transmon_rejected(self):
        """The rates read the Hamiltonian's terms, so they refuse an edge the
        Hamiltonian refuses."""
        subs, _, _, _, _ = qubit_readout_system(0.0)
        graph = CouplingGraph(
            (CouplingEdge("transmon", "junction", "readout", "b1", inv_l_eff=1e3),))
        with pytest.raises(ValidationError, match="flux operator"):
            coupling_rates(subs, graph)


class TestLabeling:
    def test_ground_label_and_injectivity(self):
        subs, graph, _, _, _ = qubit_readout_system(120e6)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(h, observable_labels(subs, 0))
        assert spec.labels[(0, 0)] == 0
        states = list(spec.labels.values())
        assert len(states) == len(set(states))
        assert all(q >= 0.5 for q in spec.overlaps.values())

    def test_multimode_flat_labels(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=3)
        h = build_full_hamiltonian(subs, CouplingGraph(()))
        spec = diagonalize(h, observable_labels(subs, 0))
        freqs = mode_frequencies(spec)
        assert freqs[0] == pytest.approx(
            (subs[0].energies[1] - subs[0].energies[0]) / H_PLANCK, rel=1e-12)

    def test_subset_matches_full_solve_of_three_subsystems(self):
        subs, edges, _ = gauge_oracle_system()
        h = build_full_hamiltonian(subs, CouplingGraph(tuple(edges.values())))
        required = observable_labels(subs, 0)
        spec = diagonalize(h, required)
        assert len(spec.energies) < h.shape[0]
        assert_matches_full_eigh(spec, dense_hamiltonian(h), required)

    def test_missing_label_widens_the_subset(self, monkeypatch):
        """A Kerr qubit and an oscillator with a crossing inside the even
        sector: coupling lifts the required pair state (1, 1) above the
        unrequired (4, 0), so a solve of the three even bare states up to
        (1, 1) misses it and must double; the odd sector needs its two
        states up to (0, 1) only."""
        a = kerr_oscillator("a", 3.5e9, -300e6, 5, 2e-18)
        b = kerr_oscillator("b", 8.68e9, 0.0, 3, 3e-18)
        coef = 2.0 * HBAR * 2 * np.pi * 300e6 / (2e-18 * 3e-18)
        graph = CouplingGraph((CouplingEdge("a", "p", "b", "p", inv_c_eff=coef),))
        h = build_full_hamiltonian([a, b], graph)
        vals, vecs = np.linalg.eigh(dense_hamiltonian(h))
        full = greedy_labels(vals, vecs, list(np.ndindex(5, 3)))
        assert full[(1, 1)] == 6 and full[(4, 0)] == 5  # the crossing happened

        monkeypatch.setattr(composite, "SUBSET_MARGIN", 0)
        required = observable_labels([a, b], 0)
        assert (1, 1) in required and (4, 0) not in required
        spec = diagonalize(h, required)
        assert len(spec.energies) == 8  # even: 3, doubled once; odd: 2
        # the full solve's 6 lowest even and 2 lowest odd states, in energy order
        odd = np.array([sum(lab) % 2 for lab in np.ndindex(5, 3)], dtype=bool)
        odd_state = (vecs[odd] ** 2).sum(axis=0) > 0.5
        kept = np.sort(np.concatenate((np.flatnonzero(~odd_state)[:6],
                                       np.flatnonzero(odd_state)[:2])))
        merged = {s: i for i, s in enumerate(kept.tolist())}
        assert spec.labels == {lab: merged[s] for lab, s in full.items() if s in merged}
        np.testing.assert_allclose(spec.energies, vals[kept], rtol=1e-12)
        assert spec.energy_of((1, 1)) == pytest.approx(vals[6], rel=1e-12)

    def test_exact_half_tie_goes_to_the_lower_energy(self, monkeypatch):
        """In each parity sector both states put exactly 1/2 on its lowest
        bare state: the lower one gets its label and the other stays
        unlabeled, with the sectors merged in energy order."""
        import scipy.linalg

        a = harmonic_subsystem("a", 5.0e9, 2)
        b = harmonic_subsystem("b", 6.0e9, 2)
        s = np.sqrt(0.5)
        vecs = np.array([[s, s], [s, -s]])
        assert vecs[0, 0] ** 2 >= 0.5

        def sector_eigh(h, subset_by_index):
            assert h.shape == (2, 2) and list(subset_by_index) == [0, 1]
            return np.array([1.0, 2.0]) + h[0, 0], vecs

        monkeypatch.setattr(scipy.linalg, "eigh", sector_eigh)
        # even sector (0, 0), (1, 1) offset by 10, solved first; odd (0, 1), (1, 0) by 0
        spec = diagonalize(split_hamiltonian([a, b], np.diag([10.0, 0.0, 0.0, 10.0])),
                           observable_labels([a, b], 0))
        np.testing.assert_array_equal(spec.energies, [1.0, 2.0, 11.0, 12.0])
        assert spec.labels == {(0, 1): 0, (0, 0): 2}
        assert spec.unlabeled == (1, 3)

    @given(data=st.data())
    def test_random_transmon_oscillators_match_full_eigh(self, data):
        """Random transmon + oscillator systems at zero and at a random
        offset charge: the solve equals the full-eigh oracle label by label.
        At zero offset H has no entry between the parity sectors; at a
        nonzero one it has, and the one-sector solve keeps the full solve's
        lowest levels."""
        subs, graph, n_g = draw_transmon_oscillators(data)
        sectors = build_full_hamiltonian(subs, graph)
        h = dense_hamiltonian(sectors)
        required = observable_labels(subs, 0)
        spec = diagonalize(sectors, required)
        vals, full = assert_matches_full_eigh(
            spec, h, required, atol=1e-12 * np.max(np.abs(np.linalg.eigvalsh(h))))
        dims = [d for sub in subs for d in sub.mode_dims]
        odd = np.array([sum(lab) % 2 for lab in np.ndindex(*dims)], dtype=bool)
        assert np.any(h[np.ix_(~odd, odd)]) == (n_g != 0.0)
        if n_g != 0.0:
            k = len(spec.energies)
            assert spec.labels == {lab: s for lab, s in full.items() if s < k}
            np.testing.assert_allclose(spec.energies, vals[:k], rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(vals)))

    def test_unreachable_label_does_not_widen(self):
        """When no state outside the subset can still reach ``min_overlap``
        for a missing label, the solve is not repeated."""
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(h, observable_labels(subs, 0), min_overlap=1.0)
        assert (0, 0) not in spec.labels
        assert len(spec.energies) < h.shape[0]

    def test_min_overlap_below_half_rejected(self):
        subs, graph, _, _, _ = qubit_readout_system(50e6)
        with pytest.raises(ValidationError):
            diagonalize(build_full_hamiltonian(subs, graph), observable_labels(subs, 0),
                        min_overlap=0.4)

    def test_observable_labels(self):
        """The ground state, the single excitations, the distinct pair and
        the qubit's double excitation, less labels beyond a truncation."""
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=2)
        common = {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert set(observable_labels(subs, 0)) == common | {(2, 0)}
        assert set(observable_labels(subs, 1)) == common  # (0, 2) is beyond 2 levels
        assert set(observable_labels(subs, None)) == common

    def test_required_labels_outside_the_basis_rejected(self):
        subs, graph, _, _, _ = qubit_readout_system(50e6, qubit_levels=3, readout_levels=3)
        h = build_full_hamiltonian(subs, graph)
        for required in ([], [(3, 0)], [(0, -1)], [(0, 0, 0)]):
            with pytest.raises(ValidationError, match="required labels"):
                diagonalize(h, required)

    def test_unlabeled_state_raises(self):
        subs, graph, _, _, _ = qubit_readout_system(30e6,
                                                    qubit_levels=3, readout_levels=3)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(h, observable_labels(subs, 0))
        with pytest.raises(UnlabeledState):
            spec.energy_of((3, 0))  # beyond the retained qubit levels


class TestDispersive:
    def test_uncoupled_chi_is_zero(self):
        subs, _, _, _, _ = qubit_readout_system(0.0)
        h = build_full_hamiltonian(subs, CouplingGraph(()))
        obs = extract_dispersive(diagonalize(h, observable_labels(subs, 0)))
        assert obs.chi_qr == pytest.approx(0.0, abs=1e-6)

    def test_linear_systems_have_no_cross_kerr(self):
        a = harmonic_subsystem("a", 5.0e9, 5, q_zpf=2e-18)
        b = harmonic_subsystem("b", 7.0e9, 5, q_zpf=3e-18)
        coef = 2.0 * HBAR * 2 * np.pi * 100e6 / (2e-18 * 3e-18)
        graph = CouplingGraph((CouplingEdge("a", "p", "b", "p", inv_c_eff=coef),))
        h = build_full_hamiltonian([a, b], graph)
        obs = extract_dispersive(diagonalize(h, observable_labels([a, b], 0)))
        # zero up to the eigensolver floor, ~1e-12 of the GHz energy scale
        assert abs(obs.chi_qr) < 1e-10 * obs.f_readout

    def test_lamb_shift_matches_second_order_pt(self):
        """Dressed qubit shift vs the perturbation-theory oracle at weak
        coupling, within 5%."""
        subs, graph, _, _, _ = qubit_readout_system(68e6)
        h_bare = build_full_hamiltonian(subs, CouplingGraph(()))
        h_full = build_full_hamiltonian(subs, graph)
        v = dense_hamiltonian(h_full) - dense_hamiltonian(h_bare)
        spec = diagonalize(h_full, observable_labels(subs, 0))
        spec0 = diagonalize(h_bare, observable_labels(subs, 0))

        # map bare product labels to bare-order indices for the PT oracle
        h0 = np.real(np.diag(dense_hamiltonian(h_bare)))
        pt = pt2_energies(h0, v)
        dims = [s.dimension for s in subs]
        flat = {}
        for i, idx in enumerate(itertools.product(*(range(d) for d in dims))):
            flat[idx] = i
        shift_full = (
            (spec.energy_of((1, 0)) - spec.energy_of((0, 0)))
            - (spec0.energy_of((1, 0)) - spec0.energy_of((0, 0)))
        )
        shift_pt = (pt[flat[(1, 0)]] - pt[flat[(0, 0)]]) - (h0[flat[(1, 0)]] - h0[flat[(0, 0)]])
        assert shift_full == pytest.approx(shift_pt, rel=0.05)
        assert abs(shift_full) > 0.5e6 * H_PLANCK  # the shift is resolvable

    def test_dispersive_limit_and_band(self):
        """Full-diagonalization chi vs the dispersive formula on the Kerr
        benchmark (f_q 5.3 GHz, f_r 7.0 GHz, alpha -330 MHz): <10% deviation
        at g/Delta = 0.04, deviation shrinking toward 0.01, nominal chi in
        the 3-7 MHz band.

        chi here is the pinned double difference E11 - E10 - E01 + E00,
        which is twice the sigma-z dispersive coefficient, so the matching
        perturbative prediction is 2 g^2 alpha / (Delta (Delta + alpha)) with
        Delta = f_q - f_r, plus the counter-rotating mirror term with
        Delta -> f_q + f_r that the quadrature-quadrature coupling carries.
        """
        f_q, f_r, alpha = 5.3e9, 7.0e9, -330e6
        delta = f_q - f_r
        total = f_q + f_r

        def chi_pair(g_hz):
            subs, graph = kerr_readout_system(g_hz, f_q=f_q, alpha=alpha, f_r=f_r)
            obs = extract_dispersive(
                diagonalize(build_full_hamiltonian(subs, graph),
                            observable_labels(subs, 0)))
            chi_pert = 2.0 * g_hz**2 * alpha * (
                1.0 / (delta * (delta + alpha)) + 1.0 / (total * (total + alpha)))
            return obs.chi_qr, chi_pert

        deviations = []
        for ratio in (0.04, 0.02, 0.01):
            chi_full, chi_pert = chi_pair(ratio * abs(delta))
            deviations.append(abs(chi_full - chi_pert) / abs(chi_pert))
        assert deviations[0] < 0.10
        assert deviations[0] > deviations[1] > deviations[2]

        g_nominal = np.sqrt(5e6 * abs(delta * (delta + alpha)) / (2.0 * abs(alpha)))
        chi_full, chi_pert = chi_pair(g_nominal)
        assert chi_pert == pytest.approx(-5e6, rel=0.03)  # CR term shifts it slightly
        assert 3e6 <= abs(chi_full) <= 7e6
        assert chi_full < 0.0

    def test_truncation_convergence_of_chi(self):
        """One extra level on every subsystem moves chi by < 0.5%."""
        chi = {}
        for extra in (0, 1):
            subs, graph, _, _, _ = qubit_readout_system(
                150e6, qubit_levels=5 + extra, readout_levels=5 + extra)
            obs = extract_dispersive(
                diagonalize(build_full_hamiltonian(subs, graph),
                            observable_labels(subs, 0)))
            chi[extra] = obs.chi_qr
        assert abs(chi[1] - chi[0]) / abs(chi[1]) < 5e-3

    def test_subsystem_order_symmetry(self):
        """Swapping the subsystem order leaves all observables unchanged."""
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        h_ab = build_full_hamiltonian(subs, graph)
        obs_ab = extract_dispersive(diagonalize(h_ab, observable_labels(subs, 0)), qubit_mode=0, readout_mode=1)
        swapped = [subs[1], subs[0]]
        edge = graph.edges[0]
        graph_ba = CouplingGraph((CouplingEdge(edge.sub_b, edge.port_b, edge.sub_a,
                                               edge.port_a, inv_c_eff=edge.inv_c_eff),))
        h_ba = build_full_hamiltonian(swapped, graph_ba)
        obs_ba = extract_dispersive(diagonalize(h_ba, observable_labels(swapped, 1)), qubit_mode=1, readout_mode=0)
        assert obs_ab.f_qubit == pytest.approx(obs_ba.f_qubit, rel=1e-10)
        assert obs_ab.f_readout == pytest.approx(obs_ba.f_readout, rel=1e-10)
        assert obs_ab.chi_qr == pytest.approx(obs_ba.chi_qr, rel=1e-10)

    def test_cross_kerr_matrix_symmetric(self):
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        spec = diagonalize(build_full_hamiltonian(subs, graph),
                           observable_labels(subs, 0))
        kerr = cross_kerr_matrix(spec)
        assert kerr[0, 1] == kerr[1, 0]
        assert not np.isnan(kerr[0, 1])


def monotone_function(seed):
    """A seeded monotone function with a root inside (-1, 1): a line, a
    cubic, a saturating step or a flat-bottomed square root, scaled by up to
    1e8 or down to 1e-300, where the solver's secant slopes underflow to 0."""
    rng = np.random.default_rng(seed)
    root = float(rng.uniform(-0.9, 0.9))
    scale = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 8.0))
    shapes = (
        lambda t: t,
        lambda t: t ** 3 + 1e-3 * t,
        lambda t: math.tanh(20.0 * t),
        lambda t: math.copysign(math.sqrt(max(abs(t) - 1e-3, 0.0)), t),
    )
    shape = shapes[seed % len(shapes)]
    return lambda x: scale * shape(x - root)


class TestCalibrateScalar:
    def test_fixed_point(self):
        assert calibrate_scalar(lambda x: x, 0.7, (0.0, 1.0)) == pytest.approx(0.7)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            calibrate_scalar(lambda x: x, 2.0, (0.0, 1.0))

    @pytest.mark.parametrize("xtol, rtol", [
        (roots.CALIBRATION_XTOL, roots.CALIBRATION_RTOL),
        (5e-324, 4 * np.finfo(float).eps),
        (1e-3, 1e-3),
    ])
    def test_solver_equals_brentq_bit_for_bit(self, xtol, rtol):
        """Every x evaluated and the root equal scipy's brentq, which gets the
        same tolerances and evaluates both endpoints itself first."""
        from scipy.optimize import brentq

        for seed in range(400):
            f = monotone_function(seed)
            a, b = (-1.0, 1.0) if seed % 3 else (1.0, -1.0)
            ours, theirs = [], []
            root = roots.brent_root(lambda x: ours.append(x) or f(x), a, b, f(a), f(b),
                                    xtol=xtol, rtol=rtol, maxiter=roots.CALIBRATION_MAXITER)
            oracle = brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol, rtol=rtol,
                            maxiter=roots.CALIBRATION_MAXITER)
            assert theirs[:2] == [a, b]
            assert [x.hex() for x in ours] == [x.hex() for x in theirs[2:]], seed
            assert root.hex() == oracle.hex(), seed

    def test_calibrate_junction_equals_brentq(self, tmp_path, monkeypatch):
        """The shipped device calibrates to the same L_j and the same report
        as with scipy's brentq in place of the solver."""
        from scipy.optimize import brentq

        from lumpedq.analysis import calibrate_junction
        from lumpedq.benchmark import benchmark_config
        from lumpedq.report import to_machine

        bench = benchmark_config(tmp_path)
        lj, report = calibrate_junction(bench, "j1", 5.3e9, (10e-9, 14e-9))
        monkeypatch.setattr(roots, "brent_root", lambda f, a, b, fa, fb, *, xtol, rtol, maxiter:
                            brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
        lj_oracle, report_oracle = calibrate_junction(bench, "j1", 5.3e9, (10e-9, 14e-9))
        assert lj.hex() == lj_oracle.hex()
        assert to_machine(report) == to_machine(report_oracle)

    def test_response_runs_once_per_x(self):
        calls = collections.Counter()

        def response(x):
            calls[x] += 1
            return math.exp(-x)

        calibrate_scalar(response, 0.5, (0.0, 2.0))
        assert len(calls) > 2
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("nan_from, nan_to, x", [(0.3, 0.7, "0.5"), (0.9, 2.0, "1.0")])
    def test_nan_response_is_a_numerical_error_naming_x(self, nan_from, nan_to, x):
        """The secant step from the endpoints lands on 0.5: a NaN there would
        otherwise send the solve on to a wrong root. A NaN at an endpoint is
        named too, not reported as a target out of range."""
        with pytest.raises(NumericalError, match=rf"x={x} is NaN"):
            calibrate_scalar(lambda t: math.nan if nan_from < t < nan_to else t, 0.5, (0.0, 1.0))

    def test_solver_iteration_cap(self):
        def f(x):
            return x ** 3 - 0.2

        tolerances = dict(xtol=roots.CALIBRATION_XTOL, rtol=roots.CALIBRATION_RTOL)
        with pytest.raises(NumericalError, match="3 iterations"):
            roots.brent_root(f, 0.0, 1.0, f(0.0), f(1.0), maxiter=3, **tolerances)
        root = roots.brent_root(f, 0.0, 1.0, f(0.0), f(1.0), maxiter=roots.CALIBRATION_MAXITER,
                                **tolerances)
        assert root == pytest.approx(0.2 ** (1 / 3), rel=roots.CALIBRATION_RTOL)

    def test_solver_needs_a_sign_change(self):
        with pytest.raises(TargetOutOfRange, match="same sign"):
            roots.brent_root(math.exp, 0.0, 1.0, 1.0, math.e, xtol=roots.CALIBRATION_XTOL,
                             rtol=roots.CALIBRATION_RTOL, maxiter=roots.CALIBRATION_MAXITER)
