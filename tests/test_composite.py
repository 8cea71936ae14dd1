"""Composite Hamiltonian assembly, labeling, and dispersive observables."""

import itertools

import numpy as np
import pytest
from scipy import constants

from lumpedq import composite
from lumpedq.composite import (
    CouplingEdge,
    CouplingGraph,
    build_full_hamiltonian,
    calibrate_scalar,
    coupling_rates,
    cross_kerr_matrix,
    diagonalize,
    extract_dispersive,
    mode_frequencies,
)
from lumpedq.errors import (
    DimensionOverflow,
    NotRealInGauge,
    TargetOutOfRange,
    UnlabeledState,
    ValidationError,
)
from lumpedq.loadedline import LoadedLineSpec, solve_modes
from lumpedq.subsystems import QuantizedSubsystem, quantize_line

from conftest import greedy_labels, kerr_readout_system, qubit_readout_system

H_PLANCK = constants.h
HBAR = constants.hbar


def harmonic_subsystem(name, f_hz, levels, q_zpf=1e-18, port="p"):
    a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1)
    h = HBAR * 2 * np.pi * f_hz * (a.T @ a + 0.5 * np.eye(levels))
    charge = 1j * q_zpf * (a.T - a)
    return QuantizedSubsystem(
        name=name, mode_dims=(levels,), hamiltonian=h,
        charge_ops={port: charge}, flux_ops={},
        mode_frequencies=(2 * np.pi * f_hz,),
        charge_scales={port: (q_zpf,)},
    )


def kron_hamiltonian(subsystems, graph):
    """Oracle: the ungauged complex Hamiltonian from Kronecker products and
    matrix products of the raw port operators."""
    dims = [s.dimension for s in subsystems]
    position = {s.name: i for i, s in enumerate(subsystems)}

    def lift(op, i):
        out = np.eye(1, dtype=complex)
        for j, d in enumerate(dims):
            out = np.kron(out, op if j == i else np.eye(d))
        return out

    h = sum(lift(s.hamiltonian, i) for i, s in enumerate(subsystems))
    for e in graph.edges:
        ia, ib = position[e.sub_a], position[e.sub_b]
        a, b = subsystems[ia], subsystems[ib]
        if e.inv_c_eff:
            h = h + 0.5 * e.inv_c_eff * (lift(a.charge_ops[e.port_a], ia)
                                         @ lift(b.charge_ops[e.port_b], ib))
        if e.inv_l_eff:
            h = h + 0.5 * e.inv_l_eff * (lift(a.flux_ops[e.port_a], ia)
                                         @ lift(b.flux_ops[e.port_b], ib))
    return h


def two_mode_line(name, target_hz, levels, port):
    """Loaded line with two Fock-truncated modes and one port."""
    from lumpedq.loadedline import calibrate_length

    z0, v_p, c_load = 50.0, 0.4 * constants.c, 200e-15
    length = calibrate_length(2 * np.pi * target_hz, 1, z0=z0, v_p=v_p, c_load=c_load)
    spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load)
    modes = solve_modes(spec, 2)
    return quantize_line(spec, modes, levels=levels, name=name, ports=(port,)), modes


def gauge_oracle_system():
    """Transmon + two two-mode lines: the qubit couples capacitively to both
    lines, and the lines to each other both capacitively and inductively."""
    subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=4, readout_levels=2)
    qubit = subs[0]
    line_a, modes_a = two_mode_line("la", 6.3e9, (3, 2), "pa")
    line_b, modes_b = two_mode_line("lb", 7.1e9, (3, 2), "pb")
    hbar_g = constants.hbar * 2 * np.pi * 150e6
    q01 = abs(qubit.charge_ops["junction"][0, 1])
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
    return [qubit, line_a, line_b], edges


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
        h = build_full_hamiltonian(subs, CouplingGraph(()))
        vals = np.linalg.eigvalsh(h)
        sums = sorted(
            ea + eb for ea in subs[0].energies for eb in subs[1].energies
        )
        np.testing.assert_allclose(vals, sums, rtol=1e-12)

    def test_disjoint_factors_commute_exactly(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=3)
        ha = np.kron(subs[0].hamiltonian, np.eye(3))
        hb = np.kron(np.eye(3), subs[1].hamiltonian)
        assert np.max(np.abs(ha @ hb - hb @ ha)) == 0.0

    def test_hermitian(self):
        subs, graph, _, _, _ = qubit_readout_system(80e6)
        h = build_full_hamiltonian(subs, graph)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12 * np.max(np.abs(h)))

    def test_nearly_hermitian_operator_gives_exactly_symmetric_h(self):
        """A port operator Hermitian only to the subsystem tolerance still
        yields a Hamiltonian symmetric to the last bit."""
        subs, graph, _, _, _ = qubit_readout_system(80e6, qubit_levels=3, readout_levels=3)
        charge = subs[0].charge_ops["junction"].copy()
        charge[0, 1] *= 1.0 + 1e-13
        skewed = QuantizedSubsystem(name="transmon", mode_dims=(3,),
                                    hamiltonian=subs[0].hamiltonian,
                                    charge_ops={"junction": charge})
        h = build_full_hamiltonian([skewed, subs[1]], graph)
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
        h1 = build_full_hamiltonian(subs, bare)
        h2 = build_full_hamiltonian(subs, with_zero)
        assert np.array_equal(h1, h2)
        assert np.array_equal(np.linalg.eigvalsh(h1), np.linalg.eigvalsh(h2))

    def test_assembled_pair_term_matches_scaled_identity(self):
        """The assembled coupling equals hbar*g times the dimensionless
        operator product in the real gauge, entrywise: the readout's
        i(a^dag - a) times i^(n' - n) is the real a^dag + a."""
        subs, graph, g01, _, mode = qubit_readout_system(50e6)
        edge = graph.edges[0]
        h_coupled = build_full_hamiltonian(subs, graph)
        h_bare = build_full_hamiltonian(subs, CouplingGraph(()))
        coupling_term = h_coupled - h_bare
        rates = coupling_rates(subs, graph)
        ((_, _, _, _), g_rad), = rates.items()
        from lumpedq.subsystems import scale_operators
        a_q = scale_operators(subs[0], "junction")[0]
        a_r = scale_operators(subs[1], "b1")[0]
        phase = 1j ** np.arange(subs[1].dimension)
        gauged = np.conj(phase)[:, None] * a_r.matrix * phase[None, :]
        assert np.max(np.abs(gauged.imag)) == 0.0
        a = np.diag(np.sqrt(np.arange(1.0, subs[1].dimension)), k=1)
        np.testing.assert_array_equal(gauged.real, a.T + a)
        dimless = np.kron(a_q.matrix, gauged.real)
        expected = HBAR * g_rad * dimless
        np.testing.assert_allclose(coupling_term, expected,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_memory_guard_raises_before_allocating(self, monkeypatch):
        subs, graph, _, _, _ = qubit_readout_system(80e6)
        dim = subs[0].dimension * subs[1].dimension
        needed = composite.EIGENSOLVE_COPIES * 8 * dim**2
        monkeypatch.setattr(composite, "available_memory_bytes", lambda: needed - 1)
        with pytest.raises(DimensionOverflow, match="available"):
            build_full_hamiltonian(subs, graph)
        monkeypatch.setattr(composite, "available_memory_bytes", lambda: needed)
        assert build_full_hamiltonian(subs, graph).shape == (dim, dim)

    def test_available_memory_is_positive_where_readable(self):
        available = composite.available_memory_bytes()
        assert available is None or available > 0

    def test_non_diagonal_subsystem_hamiltonian_rejected(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=2, readout_levels=2)
        mixed = QuantizedSubsystem(name="mixed", mode_dims=(2,),
                                   hamiltonian=np.array([[0.0, 1e-25], [1e-25, 1e-24]]),
                                   charge_ops={"p": np.zeros((2, 2))})
        with pytest.raises(ValidationError, match="not diagonal"):
            build_full_hamiltonian([subs[0], mixed], CouplingGraph(()))

    def test_inductive_coupling_to_transmon_rejected(self):
        subs, _, _, _, _ = qubit_readout_system(0.0)
        graph = CouplingGraph(
            (CouplingEdge("transmon", "junction", "readout", "b1", inv_l_eff=1e3),))
        with pytest.raises(ValidationError):
            build_full_hamiltonian(subs, graph)


class TestRealGauge:
    @pytest.mark.parametrize("case", ["qubit-line capacitive", "line-line inductive", "all"])
    def test_spectrum_matches_ungauged_kron_oracle(self, case):
        subs, edges = gauge_oracle_system()
        graph = CouplingGraph(tuple(edges.values()) if case == "all" else (edges[case],))
        h = build_full_hamiltonian(subs, graph)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        oracle = kron_hamiltonian(subs, graph)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(oracle),
                                   rtol=1e-12)

    def test_oracle_resolves_the_flux_sign(self):
        """With a charge and a flux term on one edge, flipping the flux sign
        changes the spectrum, so the oracle above checks the gauge's -1."""
        subs, edges = gauge_oracle_system()
        edge = edges["line-line inductive"]
        flipped = CouplingEdge(edge.sub_a, edge.port_a, edge.sub_b, edge.port_b,
                               inv_c_eff=edge.inv_c_eff, inv_l_eff=-edge.inv_l_eff)
        vals = np.linalg.eigvalsh(kron_hamiltonian(subs, CouplingGraph((edge,))))
        vals_flipped = np.linalg.eigvalsh(kron_hamiltonian(subs, CouplingGraph((flipped,))))
        assert np.max(np.abs(vals - vals_flipped)) > 1e-4 * np.max(np.abs(vals))

    def test_operator_neither_real_nor_imaginary_rejected(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=2, readout_levels=2)
        mixed = 1e-18 * np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
        odd = QuantizedSubsystem(name="odd", mode_dims=(2,), hamiltonian=np.diag([0.0, 1e-24]),
                                 charge_ops={"p": mixed})
        graph = CouplingGraph((CouplingEdge("transmon", "junction", "odd", "p", inv_c_eff=1e12),))
        with pytest.raises(NotRealInGauge):
            build_full_hamiltonian([subs[0], odd], graph)

    def test_real_times_imaginary_pair_rejected(self):
        """An ungauged i(a^dag - a) (no harmonic mode frequency) against a
        real transmon charge would make the pair term imaginary."""
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=3)
        a = np.diag(np.sqrt([1.0, 2.0]), k=1)
        bare = QuantizedSubsystem(name="bare", mode_dims=(3,), hamiltonian=np.diag([0.0, 1e-24, 2e-24]),
                                  charge_ops={"p": 1j * 1e-18 * (a.T - a)})
        graph = CouplingGraph((CouplingEdge("transmon", "junction", "bare", "p", inv_c_eff=1e12),))
        with pytest.raises(NotRealInGauge):
            build_full_hamiltonian([subs[0], bare], graph)


class TestLabeling:
    def test_ground_label_and_injectivity(self):
        subs, graph, _, _, _ = qubit_readout_system(120e6)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(subs, h)
        assert spec.labels[(0, 0)] == 0
        states = list(spec.labels.values())
        assert len(states) == len(set(states))
        assert all(q >= 0.5 for q in spec.overlaps.values())

    def test_multimode_flat_labels(self):
        subs, _, _, _, _ = qubit_readout_system(0.0, qubit_levels=3, readout_levels=3)
        h = build_full_hamiltonian(subs, CouplingGraph(()))
        spec = diagonalize(subs, h)
        freqs = mode_frequencies(spec)
        assert freqs[0] == pytest.approx(
            (subs[0].energies[1] - subs[0].energies[0]) / H_PLANCK, rel=1e-12)

    def test_subset_matches_full_solve_of_three_subsystems(self):
        subs, edges = gauge_oracle_system()
        h = build_full_hamiltonian(subs, CouplingGraph(tuple(edges.values())))
        spec = diagonalize(subs, h)
        k = len(spec.energies)
        assert k < h.shape[0]
        vals, vecs = np.linalg.eigh(h)
        flat = list(np.ndindex(*[d for s in subs for d in s.mode_dims]))
        full = greedy_labels(vals, vecs, flat)
        assert spec.labels == {lab: s for lab, s in full.items() if s < k}
        np.testing.assert_allclose(spec.energies, vals[:k], rtol=1e-12)

    def test_missing_label_widens_the_subset(self, monkeypatch):
        """Two oscillators with a parity-forbidden crossing: coupling lifts
        the bare (0, 2) state above the unrequired (3, 0), so a solve of the
        six bare states up to (0, 2) misses it and must double."""
        a = harmonic_subsystem("a", 4.7e9, 5, q_zpf=2e-18)
        b = harmonic_subsystem("b", 7.0e9, 4, q_zpf=3e-18)
        coef = 2.0 * HBAR * 2 * np.pi * 300e6 / (2e-18 * 3e-18)
        graph = CouplingGraph((CouplingEdge("a", "p", "b", "p", inv_c_eff=coef),))
        h = build_full_hamiltonian([a, b], graph)
        vals, vecs = np.linalg.eigh(h)
        full = greedy_labels(vals, vecs, list(np.ndindex(5, 4)))
        assert full[(0, 2)] == 6 and full[(3, 0)] == 5  # the crossing happened

        monkeypatch.setattr(composite, "SUBSET_MARGIN", 0)
        spec = diagonalize([a, b], h)
        assert len(spec.energies) == 12  # 6, doubled once
        assert spec.labels == {lab: s for lab, s in full.items() if s < 12}
        assert spec.energy_of((0, 2)) == pytest.approx(vals[6], rel=1e-12)

    def test_exact_half_tie_goes_to_the_lower_energy(self, monkeypatch):
        """Both states put exactly 1/2 on bare state 0: the lower one gets
        its label and the other stays unlabeled."""
        import scipy.linalg

        a = harmonic_subsystem("a", 5.0e9, 2)
        s = np.sqrt(0.5)
        vecs = np.array([[s, s], [s, -s]])
        assert vecs[0, 0] ** 2 >= 0.5
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda h, subset_by_index: (np.array([1.0, 2.0]), vecs))
        spec = diagonalize([a], np.zeros((2, 2)))
        assert spec.labels == {(0,): 0}
        assert spec.unlabeled == (1,)

    def test_unreachable_label_does_not_widen(self):
        """When no state outside the subset can still reach ``min_overlap``
        for a missing label, the solve is not repeated."""
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(subs, h, min_overlap=1.0)
        assert (0, 0) not in spec.labels
        assert len(spec.energies) < h.shape[0]

    def test_min_overlap_below_half_rejected(self):
        subs, graph, _, _, _ = qubit_readout_system(50e6)
        with pytest.raises(ValidationError):
            diagonalize(subs, build_full_hamiltonian(subs, graph), min_overlap=0.4)

    def test_unlabeled_state_raises(self):
        subs, graph, _, _, _ = qubit_readout_system(30e6,
                                                    qubit_levels=3, readout_levels=3)
        h = build_full_hamiltonian(subs, graph)
        spec = diagonalize(subs, h)
        with pytest.raises(UnlabeledState):
            spec.energy_of((3, 0))  # beyond the retained qubit levels


class TestDispersive:
    def test_uncoupled_chi_is_zero(self):
        subs, _, _, _, _ = qubit_readout_system(0.0)
        h = build_full_hamiltonian(subs, CouplingGraph(()))
        obs = extract_dispersive(diagonalize(subs, h))
        assert obs.chi_qr == pytest.approx(0.0, abs=1e-6)

    def test_linear_systems_have_no_cross_kerr(self):
        a = harmonic_subsystem("a", 5.0e9, 5, q_zpf=2e-18)
        b = harmonic_subsystem("b", 7.0e9, 5, q_zpf=3e-18)
        coef = 2.0 * HBAR * 2 * np.pi * 100e6 / (2e-18 * 3e-18)
        graph = CouplingGraph((CouplingEdge("a", "p", "b", "p", inv_c_eff=coef),))
        h = build_full_hamiltonian([a, b], graph)
        obs = extract_dispersive(diagonalize([a, b], h))
        # zero up to the eigensolver floor, ~1e-12 of the GHz energy scale
        assert abs(obs.chi_qr) < 1e-10 * obs.f_readout

    def test_lamb_shift_matches_second_order_pt(self):
        """Dressed qubit shift vs the perturbation-theory oracle at weak
        coupling, within 5%."""
        subs, graph, _, _, _ = qubit_readout_system(68e6)
        h_bare = build_full_hamiltonian(subs, CouplingGraph(()))
        h_full = build_full_hamiltonian(subs, graph)
        v = h_full - h_bare
        spec = diagonalize(subs, h_full)
        spec0 = diagonalize(subs, h_bare)

        # map bare product labels to bare-order indices for the PT oracle
        h0 = np.real(np.diag(h_bare))
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
                diagonalize(subs, build_full_hamiltonian(subs, graph)))
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
                diagonalize(subs, build_full_hamiltonian(subs, graph)))
            chi[extra] = obs.chi_qr
        assert abs(chi[1] - chi[0]) / abs(chi[1]) < 5e-3

    def test_subsystem_order_symmetry(self):
        """Swapping the subsystem order leaves all observables unchanged."""
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        h_ab = build_full_hamiltonian(subs, graph)
        obs_ab = extract_dispersive(diagonalize(subs, h_ab), qubit_mode=0, readout_mode=1)
        swapped = [subs[1], subs[0]]
        edge = graph.edges[0]
        graph_ba = CouplingGraph((CouplingEdge(edge.sub_b, edge.port_b, edge.sub_a,
                                               edge.port_a, inv_c_eff=edge.inv_c_eff),))
        h_ba = build_full_hamiltonian(swapped, graph_ba)
        obs_ba = extract_dispersive(diagonalize(swapped, h_ba), qubit_mode=1, readout_mode=0)
        assert obs_ab.f_qubit == pytest.approx(obs_ba.f_qubit, rel=1e-10)
        assert obs_ab.f_readout == pytest.approx(obs_ba.f_readout, rel=1e-10)
        assert obs_ab.chi_qr == pytest.approx(obs_ba.chi_qr, rel=1e-10)

    def test_cross_kerr_matrix_symmetric(self):
        subs, graph, _, _, _ = qubit_readout_system(150e6)
        spec = diagonalize(subs, build_full_hamiltonian(subs, graph))
        kerr = cross_kerr_matrix(spec)
        assert kerr[0, 1] == kerr[1, 0]
        assert not np.isnan(kerr[0, 1])


class TestCalibrateScalar:
    def test_fixed_point(self):
        assert calibrate_scalar(lambda x: x, 0.7, (0.0, 1.0)) == pytest.approx(0.7)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            calibrate_scalar(lambda x: x, 2.0, (0.0, 1.0))
