import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import constants
from scipy.special import mathieu_a, mathieu_b

from lumpedq.composite import (
    CouplingEdge,
    CouplingGraph,
    SectorHamiltonian,
    pair_terms,
    product_basis,
)
from lumpedq.netlist import CompositeNetlist, MaxwellMatrix, NodeRegistry
from lumpedq.subsystems import TransmonSpec, diagonalize_transmon, outer_sum, quantize_line
from lumpedq.loadedline import LoadedLineSpec, solve_modes

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_circuit(
    rng,
    n_nodes=None,
    n_couplers=None,
    with_inductors=True,
    require_dynamics=True,
):
    """Random well-conditioned circuit: capacitors everywhere, inductors only
    inside subsystems, couplers touched by capacitors only.

    Returns a CompositeNetlist, on the nodes in name order, with one or two
    subsystems and the requested coupler count.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 9))
    if n_couplers is None:
        n_couplers = int(rng.integers(1, 3))
    n_couplers = min(n_couplers, n_nodes - 2)

    names = [f"n{i:02d}" for i in range(n_nodes)]
    order = list(rng.permutation(n_nodes))
    couplers = [names[i] for i in order[:n_couplers]]
    system_nodes = [names[i] for i in order[n_couplers:]]
    split = max(1, len(system_nodes) // 2) if len(system_nodes) > 2 else len(system_nodes)
    subsystems = {"s0": sorted(system_nodes[:split])}
    if system_nodes[split:]:
        subsystems["s1"] = sorted(system_nodes[split:])

    c = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        c[i, i] += rng.uniform(20e-15, 100e-15)  # every node grounded capacitively
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.uniform() < 0.6:
                mutual = rng.uniform(1e-15, 20e-15)
                c[i, i] += mutual
                c[j, j] += mutual
                c[i, j] -= mutual
                c[j, i] -= mutual

    l_inv = np.zeros((n_nodes, n_nodes))
    if with_inductors:
        index = {n: i for i, n in enumerate(names)}
        for nodes in subsystems.values():
            n_ind = int(rng.integers(1, 3)) if require_dynamics else int(rng.integers(0, 3))
            for _ in range(n_ind):
                a = index[nodes[int(rng.integers(0, len(nodes)))]]
                y = 1.0 / rng.uniform(1e-9, 2e-8)
                if len(nodes) > 1 and rng.uniform() < 0.5:
                    b = index[nodes[int(rng.integers(0, len(nodes)))]]
                    if a == b:
                        l_inv[a, a] += y  # inductor to ground
                    else:
                        l_inv[a, a] += y
                        l_inv[b, b] += y
                        l_inv[a, b] -= y
                        l_inv[b, a] -= y
                else:
                    l_inv[a, a] += y

    registry = NodeRegistry(
        datum="gnd",
        subsystems={k: frozenset(subsystems[k]) for k in sorted(subsystems)},
        couplers=frozenset(couplers),
    )
    # built directly, not by compose_cells, so that no cell condenses the
    # couplers and the device's own passes eliminate them
    return CompositeNetlist(registry, c, l_inv, ())


@pytest.fixture
def random_circuit_factory():
    return random_circuit


def mathieu_transmon_levels(ej_over_ec, count=3):
    """Lowest ``count`` levels of 4E_C n^2 - E_J cos(phi) at n_g = 0, in
    units of E_C, from Mathieu characteristic values (Koch et al., PRA 76,
    042319 (2007)).

    With phi = 2x the phase-basis equation becomes Mathieu's with
    q = E_J / (2 E_C) and eigenvalue E / E_C. A 2pi-periodic wavefunction
    in phi is pi-periodic in x, so only the even orders a_0, b_2, a_2, b_4,
    ... appear; sorting them gives the spectrum.
    """
    q = ej_over_ec / 2.0
    orders = range(0, 2 * count, 2)
    values = [mathieu_a(m, q) for m in orders] + [mathieu_b(m + 2, q) for m in orders]
    return np.sort(values)[:count]


def greedy_labels(vals, vecs, flat_labels, min_overlap=0.5):
    """Oracle labeling on a full eigensolve: match (basis, state) pairs
    greedily by descending overlap, each basis and each state used once."""
    overlap = np.abs(vecs) ** 2
    n = len(vals)
    basis_taken, state_taken, labels = set(), set(), {}
    for flat in np.argsort(overlap, axis=None, kind="stable")[::-1]:
        b, s = divmod(int(flat), n)
        if overlap[b, s] < min_overlap:
            break
        if b in basis_taken or s in state_taken:
            continue
        basis_taken.add(b)
        state_taken.add(s)
        labels[flat_labels[b]] = s
    return labels


def assert_matches_full_eigh(spec, h, required, atol=0.0):
    """Check a ``DressedSpectrum`` label by label against a full
    np.linalg.eigh of ``h`` labeled by ``greedy_labels``. Its energies are
    the union of each parity sector's lowest levels, so they are compared
    per label: every label it assigns is the oracle's, at the oracle's
    energy to rtol 1e-12 (plus ``atol``); every energy it holds is an oracle
    eigenvalue; and every label of ``required`` the oracle assigns is
    present. Returns the oracle's (energies, labels)."""
    vals, vecs = np.linalg.eigh(h)
    flat = list(np.ndindex(*spec.dims))
    full = greedy_labels(vals, vecs, flat, spec.min_overlap)
    assert set(spec.labels) <= set(full)
    for label in spec.labels:
        assert spec.energy_of(label) == pytest.approx(vals[full[label]], rel=1e-12, abs=atol)
    nearest = np.abs(spec.energies[:, None] - vals[None, :]).min(axis=1)
    assert np.all(nearest <= 1e-12 * np.max(np.abs(vals)))
    assert all(label in spec.labels for label in required if label in full)
    return vals, full


def stride_hamiltonian(subsystems, graph):
    """Oracle: the whole N x N real-gauge Hamiltonian. The bare diagonal is
    written first, then each term of ``pair_terms`` in order, h += coef *
    kron(I, a, I, b, I) at the product indices the tensor strides give."""
    dims = [d for s in subsystems for d in s.mode_dims]
    total = int(np.prod(dims))
    strides = [int(np.prod(dims[k + 1:])) for k in range(len(dims))]
    h = np.zeros((total, total))
    h[np.diag_indices(total)] = outer_sum([s.energies for s in subsystems])
    for ia, a, ib, b, coef, _ in pair_terms(subsystems, graph):
        rest = np.zeros(1, dtype=np.intp)
        for k, d in enumerate(dims):
            if k not in (ia, ib):
                rest = (rest[:, None] + strides[k] * np.arange(d)).ravel()
        ra, ca = np.nonzero(a)
        rb, cb = np.nonzero(b)
        rows = (strides[ia] * ra)[:, None] + (strides[ib] * rb)[None, :]
        cols = (strides[ia] * ca)[:, None] + (strides[ib] * cb)[None, :]
        values = (coef * a[ra, ca])[:, None] * b[rb, cb][None, :]
        h[(rest[:, None] + rows.ravel()).ravel(), (rest[:, None] + cols.ravel()).ravel()] += (
            np.broadcast_to(values.ravel(), (len(rest), values.size)).ravel())
    return h


def dense_hamiltonian(h):
    """The N x N array of a ``SectorHamiltonian``: each block scattered back
    to its sector's product indices, zero between sectors."""
    out = np.zeros(h.shape)
    for k, block in enumerate(h.blocks):
        sector = h.basis.states(k)
        out[np.ix_(sector, sector)] = block
    return out


def split_hamiltonian(subsystems, matrix):
    """A dense N x N ``matrix`` over the product basis of ``subsystems`` as
    a ``SectorHamiltonian``: its two parity-sector blocks when it has no
    entry between them, else the whole matrix as one block."""
    basis = product_basis(subsystems, split=True)
    sectors = [basis.states(0), basis.states(1)]
    if np.any(matrix[np.ix_(*sectors)]):
        basis = product_basis(subsystems, split=False)
        sectors = [basis.states(0)]
    return SectorHamiltonian(basis, tuple(matrix[np.ix_(s, s)] for s in sectors))


def qubit_readout_system(g01_hz, *, f_r=7.0e9, ec_hz=287e6, ej_over_ec=None,
                         qubit_levels=6, readout_levels=6):
    """Transmon + one harmonic readout mode with the 0-1 coupling matrix
    element pinned to hbar*g01.

    Defaults give f_q near 5.3 GHz and alpha near -330 MHz. Returns
    (subsystems, graph, g01_rad, transmon_spec, line_mode).
    """
    e = constants.e
    ec = ec_hz * constants.h
    if ej_over_ec is None:
        ej_over_ec = ((5.3e9 + ec_hz) ** 2) / (8 * ec_hz**2)
    tspec = TransmonSpec(c_eff=e**2 / (2 * ec), ej=ej_over_ec * ec, levels=qubit_levels)
    transmon = diagonalize_transmon(tspec)

    # short line whose fundamental sits at f_r; loading sets the port ZPF
    z0, v_p = 53.0, 0.403 * constants.c
    c_load = 320e-15
    from lumpedq.loadedline import calibrate_length

    length = calibrate_length(2 * np.pi * f_r, 1, z0=z0, v_p=v_p, c_load=c_load)
    spec = LoadedLineSpec.from_wave_params(length, z0, v_p, c_load)
    modes = solve_modes(spec, 1)
    readout = quantize_line(modes, levels=readout_levels, name="readout",
                            ports=("b1",))

    q01 = abs(transmon.factors[0].charge[0, 1])
    q_r = modes[0].q0_zpf
    g01 = 2 * np.pi * g01_hz
    # assembled pair term is half the reported reciprocal
    inv_c_eff = 2.0 * constants.hbar * g01 / (q01 * q_r)
    graph = CouplingGraph((CouplingEdge("transmon", "junction", "readout", "b1",
                                        inv_c_eff=inv_c_eff),))
    return [transmon, readout], graph, g01, tspec, modes[0]


def kerr_oscillator(name, f01_hz, alpha_hz, levels, q_zpf, port="p"):
    """Anharmonic (Kerr) oscillator with harmonic ladder operators: the model
    the dispersive formula chi = g^2 alpha / (Delta (Delta + alpha))
    describes. Level energies are h*(n f01 + alpha n(n-1)/2); the charge
    q_zpf (a^dag + a) is in the real gauge."""
    from lumpedq.subsystems import ModeFactor, QuantizedSubsystem

    n = np.arange(levels, dtype=float)
    energies = constants.h * (n * f01_hz + 0.5 * alpha_hz * n * (n - 1.0))
    a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1)
    factor = ModeFactor(levels=energies, charge=q_zpf * (a.T + a), charge_scale=q_zpf)
    return QuantizedSubsystem(name=name, ports=(port,), factors=(factor,))


def kerr_readout_system(g01_hz, *, f_q=5.3e9, alpha=-330e6, f_r=7.0e9,
                        qubit_levels=6, readout_levels=6):
    """Kerr qubit + harmonic readout with the 0-1 coupling element pinned to
    hbar*g01: the canonical dispersive-theory benchmark."""
    q_zpf_q, q_zpf_r = 2.0e-18, 3.0e-18
    qubit = kerr_oscillator("qubit", f_q, alpha, qubit_levels, q_zpf_q)
    readout = kerr_oscillator("readout", f_r, 0.0, readout_levels, q_zpf_r)
    inv_c_eff = 2.0 * constants.hbar * (2 * np.pi * g01_hz) / (q_zpf_q * q_zpf_r)
    graph = CouplingGraph((CouplingEdge("qubit", "p", "readout", "p",
                                        inv_c_eff=inv_c_eff),))
    return [qubit, readout], graph


def embed_maxwell(cell, datum, datum_mutuals):
    """Oracle inverse of ``reduce_maxwell`` given the stored datum mutual
    capacitances (positive values, one per cell node); the datum itself is
    assumed to carry no self-capacitance to infinity."""
    n = len(cell.nodes)
    full = np.zeros((n + 1, n + 1))
    full[1:, 1:] = cell.c_mat
    full[0, 1:] = -np.asarray(datum_mutuals, dtype=float)
    full[1:, 0] = full[0, 1:]
    full[0, 0] = -full[0, 1:].sum()  # zero self-capacitance to infinity for the ground
    return MaxwellMatrix(names=(datum, *cell.nodes), matrix=full)


def subsystem_c_inv(blocks, name):
    """The diagonal block of ``blocks.c_inv`` that belongs to subsystem ``name``."""
    idx = np.asarray(blocks.block_index[name], dtype=int)
    return blocks.c_inv[np.ix_(idx, idx)]


def merge_maxwell_oracle(m, merge, into):
    """Double-loop reference for merging the grounded nets ``merge`` into
    ``into``: each entry of the merged matrix is the sum of the block of the
    original between the two groups of nodes it stands for.
    ``reduce_maxwell`` with ``ground_nets`` gives its non-datum block."""
    merge = [n for n in merge if n != into]
    keep = [n for n in m.names if n not in merge]
    idx = {n: i for i, n in enumerate(m.names)}
    groups = [[idx[n]] + ([idx[g] for g in merge] if n == into else []) for n in keep]
    out = np.zeros((len(keep), len(keep)))
    for a, ga in enumerate(groups):
        for b, gb in enumerate(groups):
            out[a, b] = m.matrix[np.ix_(ga, gb)].sum()
    return tuple(keep), 0.5 * (out + out.T)


def with_junction_stamps(l_inv, junctions, lj, labels, datum="gnd"):
    """A copy of ``l_inv`` with each junction's linear inductance
    ``lj[ident]`` added back, as the network would hold it if L_j were a
    linear inductor: 1/L_j on the junction's own coordinate when ``labels``
    hold it (the junction basis), else the two-terminal stamp across its
    nodes."""
    out = np.array(l_inv)
    index = {label: i for i, label in enumerate(labels)}
    for j in junctions:
        e = np.zeros(len(labels))
        if j.ident in index:
            e[index[j.ident]] = 1.0
        else:
            for node, sign in ((j.node_pos, 1.0), (j.node_neg, -1.0)):
                if node != datum:
                    e[index[node]] += sign
        out += np.outer(e, e) / lj[j.ident]
    return out
