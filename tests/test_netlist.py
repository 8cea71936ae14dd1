"""Circuit data model and the matrix reduction pipeline."""

import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lumpedq.discretize import ladder_netlist, normal_mode_frequencies
from lumpedq.errors import (
    DependentJunctionLoop,
    DimensionMismatch,
    IllConditionedMatrix,
    MalformedMatrix,
    MalformedPartition,
    NonNullDirection,
    NumericalError,
    SingularCouplerBlock,
    UnknownDatum,
    UnknownNode,
)
from lumpedq import netlist
from lumpedq.benchmark import benchmark_maxwell
from lumpedq.loadedline import LoadedLineSpec
from lumpedq.netlist import (
    KERNEL_RTOL,
    SINGULAR_RATIO,
    CellMatrices,
    CompositeNetlist,
    JunctionElement,
    MaxwellMatrix,
    NodeRegistry,
    ReducedCircuit,
    ReductionRecord,
    check_psd,
    compose_cells,
    coupler_kernel,
    extract_blocks,
    reduce_maxwell,
    reduce_network,
    rotate_to_junction_basis,
    schur_eliminate,
    weak_coupling_blocks,
)

from conftest import (
    embed_maxwell,
    merge_maxwell_oracle,
    random_circuit,
    subsystem_c_inv,
    with_junction_stamps,
)

fF = 1e-15
nH = 1e-9


def simple_registry(subsystems, couplers=(), datum="gnd"):
    return NodeRegistry(
        datum=datum,
        subsystems={k: frozenset(subsystems[k]) for k in sorted(subsystems)},
        couplers=frozenset(couplers),
    )


# ---------------------------------------------------------------------------
# Maxwell matrices
# ---------------------------------------------------------------------------

class TestMaxwell:
    def test_reduce_drops_datum_row_and_column(self):
        m = MaxwellMatrix(
            names=("g", "a", "b"),
            matrix=np.array([[5.0, -2.0, -3.0], [-2.0, 6.0, -4.0], [-3.0, -4.0, 8.0]]) * fF,
        )
        cell = reduce_maxwell(m, "g", "cell0")
        assert cell.ident == "cell0"
        assert cell.nodes == ("a", "b")
        np.testing.assert_allclose(cell.c_mat, np.array([[6.0, -4.0], [-4.0, 8.0]]) * fF)

    def test_reduce_single_island(self):
        m = MaxwellMatrix(names=("g", "a"), matrix=np.array([[3.0, -3.0], [-3.0, 3.0]]) * fF)
        cell = reduce_maxwell(m, "g", "cell0")
        np.testing.assert_allclose(cell.c_mat, [[3.0 * fF]])

    def test_unknown_datum(self):
        m = MaxwellMatrix(names=("g", "a"), matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]) * fF)
        with pytest.raises(UnknownDatum):
            reduce_maxwell(m, "zz", "cell0")

    def test_positive_offdiagonal_rejected(self):
        with pytest.raises(MalformedMatrix):
            MaxwellMatrix(names=("g", "a"), matrix=np.array([[1.0, 2.0], [2.0, 1.0]]) * fF)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = np.array([[3.0, -1.0, -2.0], [-1.0, 4.0, -3.0], [-2.0, -3.0, 5.0]]) * fF
        matrix[2, 1] = bad
        with pytest.raises(MalformedMatrix, match=r"non-finite entry at \(b, a\)"):
            MaxwellMatrix(names=("g", "a", "b"), matrix=matrix)

    def test_asymmetric_rejected(self):
        with pytest.raises(MalformedMatrix):
            MaxwellMatrix(names=("g", "a"), matrix=np.array([[1.0, -0.5], [-0.4, 1.0]]) * fF)

    def test_negative_row_sum_rejected(self):
        with pytest.raises(MalformedMatrix):
            MaxwellMatrix(
                names=("g", "a"), matrix=np.array([[0.5, -1.0], [-1.0, 0.9]]) * fF
            )

    def test_self_capacitance_is_row_sum(self):
        m = MaxwellMatrix(
            names=("g", "a", "b"),
            matrix=np.array([[5.0, -2.0, -3.0], [-2.0, 6.5, -4.0], [-3.0, -4.0, 8.0]]) * fF,
        )
        assert m.self_capacitance("a") == pytest.approx(0.5 * fF)

    def test_reduce_then_embed_recovers_original(self, rng):
        m = _random_maxwell(rng, 5)
        cell = reduce_maxwell(m, m.names[0], "cell0")
        datum_mutuals = -m.matrix[0, 1:]
        rebuilt = embed_maxwell(cell, m.names[0], datum_mutuals)
        # row sums of the re-embedded matrix recover the self-capacitances
        for i, name in enumerate(m.names):
            if name == m.names[0]:
                continue
            assert rebuilt.self_capacitance(name) == pytest.approx(
                m.self_capacitance(name), rel=1e-12, abs=1e-30
            )
        np.testing.assert_allclose(rebuilt.matrix[1:, 1:], m.matrix[1:, 1:], rtol=1e-12)

    def test_merge_ground_nets(self):
        """A grounded net drops like the datum: the cell is the non-datum
        block of the merged matrix, exactly."""
        m = MaxwellMatrix(
            names=("g", "g2", "a"),
            matrix=np.array(
                [[6.0, -1.0, -2.0], [-1.0, 4.0, -3.0], [-2.0, -3.0, 5.0]]
            ) * fF,
        )
        cell = reduce_maxwell(m, "g", "c", ground_nets=["g2"])
        ref_names, ref = merge_maxwell_oracle(m, ["g2"], "g")
        # mutuals to the merged island add; the internal g-g2 mutual vanishes
        np.testing.assert_allclose(ref, np.array([[8.0, -5.0], [-5.0, 5.0]]) * fF)
        assert cell.nodes == ref_names[1:] == ("a",)
        assert np.array_equal(cell.c_mat, ref[1:, 1:])

    def test_merge_matches_double_loop_oracle(self, rng):
        names = [f"n{i:02d}" for i in range(60)]
        m = _random_maxwell(rng, 60, names=names)
        merge = [names[i] for i in rng.choice(np.arange(1, 60), size=3, replace=False)]
        cell = reduce_maxwell(m, names[0], "c", ground_nets=merge)
        ref_names, ref = merge_maxwell_oracle(m, merge, names[0])
        assert cell.nodes == ref_names[1:]
        assert len(cell.nodes) == 56
        assert np.array_equal(cell.c_mat, ref[1:, 1:])

    def test_unknown_ground_net_rejected(self):
        m = _random_maxwell(np.random.default_rng(0), 3, names=("g", "a", "b"))
        with pytest.raises(UnknownNode, match="cannot merge unknown node 'x'"):
            reduce_maxwell(m, "g", "c", ground_nets=["x"])

    def test_star_mesh_oracle_for_qubit_cell(self, rng):
        """Effective port-to-datum capacitance of a fully connected 6-node
        cell: matrix inverse vs. independent star-mesh graph elimination."""
        m = _random_maxwell(rng, 6, names=("g", "p0", "p1", "b1", "b2", "cline"))
        cell = reduce_maxwell(m, "g", "cell0")
        c_inv = np.linalg.inv(cell.c_mat)
        port = cell.nodes.index("p1")
        c_eff_matrix = 1.0 / c_inv[port, port]
        c_eff_graph = _star_mesh_effective(m, port="p1", datum="g")
        assert c_eff_matrix == pytest.approx(c_eff_graph, rel=1e-10)


def _random_maxwell(rng, n, names=None):
    if names is None:
        names = tuple(f"n{i}" for i in range(n))
    mutual = rng.uniform(1.0, 10.0, size=(n, n))
    mutual = 0.5 * (mutual + mutual.T)
    np.fill_diagonal(mutual, 0.0)
    self_cap = rng.uniform(0.0, 2.0, size=n)
    mat = -mutual
    np.fill_diagonal(mat, mutual.sum(axis=1) + self_cap)
    return MaxwellMatrix(names=tuple(names), matrix=mat * fF)


def _star_mesh_effective(m: MaxwellMatrix, port: str, datum: str) -> float:
    """Series/parallel network oracle: eliminate every internal node of the
    capacitance graph by the star-mesh transform, then read off the
    port-datum edge. Self-capacitances to infinity hang on the datum rail."""
    graph: dict[frozenset, float] = {}
    names = list(m.names)
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            c = -m.matrix[i, j]
            if c != 0.0:
                graph[frozenset((a, names[j]))] = graph.get(frozenset((a, names[j])), 0.0) + c
        self_cap = m.matrix[i].sum()
        if self_cap != 0.0 and a != datum:
            key = frozenset((a, datum))
            graph[key] = graph.get(key, 0.0) + self_cap
    internal = [n for n in names if n not in (port, datum)]
    for node in internal:
        touching = {k: v for k, v in graph.items() if node in k}
        total = sum(touching.values())
        neighbors = [next(iter(k - {node})) for k in touching]
        for a_i, a in enumerate(neighbors):
            for b in neighbors[a_i + 1:]:
                key = frozenset((a, b))
                ca = touching[frozenset((a, node))]
                cb = touching[frozenset((b, node))]
                graph[key] = graph.get(key, 0.0) + ca * cb / total
        for k in touching:
            del graph[k]
    return graph[frozenset((port, datum))]


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

class TestCompose:
    def test_shared_node_adds(self):
        reg = simple_registry({"s0": ["x"]})
        cells = [
            CellMatrices("c1", ("x",), np.array([[1.0 * fF]]), np.zeros((1, 1))),
            CellMatrices("c2", ("x",), np.array([[1.0 * fF]]), np.zeros((1, 1))),
        ]
        net = compose_cells(cells, reg)
        np.testing.assert_allclose(net.c_mat, [[2.0 * fF]])

    @pytest.mark.parametrize("cj", [-1 * fF, float("nan"), float("inf")])
    def test_junction_capacitance_must_be_finite_and_non_negative(self, cj):
        with pytest.raises(MalformedMatrix, match="'j1' capacitance must be non-negative"):
            JunctionElement("j1", "gnd", "a", "s0", cj=cj)

    def test_junction_to_datum_stamp(self):
        j = JunctionElement("j1", "gnd", "a", "s0", cj=2 * fF)
        cell = CellMatrices("c1", ("a",), np.zeros((1, 1)), np.zeros((1, 1)), junctions=(j,))
        net = compose_cells([cell], simple_registry({"s0": ["a"]}))
        np.testing.assert_allclose(net.c_mat, [[2.0 * fF]])
        assert not net.l_inv.any()  # L_j stays out of the linear network
        np.testing.assert_allclose(with_junction_stamps(net.l_inv, net.junctions,
                                                        {"j1": 10 * nH}, net.labels),
                                   [[0.1 / nH]])

    def test_junction_pair_stamp_matches_nodal_analysis(self):
        """Two-terminal inductor stamp: +1/L on both diagonals, -1/L off."""
        j = JunctionElement("j1", "p0", "p1", "s0")
        cell = CellMatrices("c1", ("p0", "p1"), np.eye(2) * 50 * fF, np.zeros((2, 2)),
                            junctions=(j,))
        net = compose_cells([cell], simple_registry({"s0": ["p0", "p1"]}))
        y = 0.1 / nH
        np.testing.assert_allclose(with_junction_stamps(net.l_inv, net.junctions,
                                                        {"j1": 10 * nH}, net.labels),
                                   [[y, -y], [-y, y]])

    def test_one_sided_entry_is_symmetrized(self):
        """The composite is the symmetric part of the scatter-added cells,
        also where a cell stores an entry on one side of the diagonal only."""
        c = np.diag([30.0, 40.0, 50.0]) * fF
        c[0, 2] = -1e-14 * fF  # within the cell's symmetry tolerance
        cell = CellMatrices("c1", ("a", "b", "c"), c, np.zeros((3, 3)))
        net = compose_cells([cell], simple_registry({"s0": ["a", "b", "c"]}))
        np.testing.assert_array_equal(net.c_mat, 0.5 * (c + c.T))

    def test_rank_bounded_by_element_count(self, rng):
        net = random_circuit(rng)
        l_inv = net.l_inv
        assert np.linalg.matrix_rank(l_inv, tol=1e-9 * np.linalg.norm(l_inv, 2) or None) \
            <= np.count_nonzero(np.triu(l_inv))


# ---------------------------------------------------------------------------
# junction-basis rotation
# ---------------------------------------------------------------------------

class TestRotation:
    def test_junction_to_datum_is_identity(self):
        j = JunctionElement("j1", "gnd", "p1", "s0")
        cell = CellMatrices("c1", ("p1",), np.array([[60 * fF]]), np.zeros((1, 1)),
                            junctions=(j,))
        net = compose_cells([cell], simple_registry({"s0": ["p1"]}))
        c, l_inv, labels, s_n = rotate_to_junction_basis(net)
        assert labels == ("j1",)
        np.testing.assert_allclose(s_n, [[1.0]])
        np.testing.assert_allclose(c, net.c_mat)

    def test_pair_junction_new_basis(self):
        j = JunctionElement("j1", "p0", "p1", "s0")
        cell = CellMatrices("c1", ("p0", "p1"), np.diag([30.0, 60.0]) * fF,
                            np.zeros((2, 2)), junctions=(j,))
        net = compose_cells([cell], simple_registry({"s0": ["p1"]}, couplers=["p0"]))
        c, l_inv, labels, s_n = rotate_to_junction_basis(net)
        assert labels == ("j1", "p0")
        # no inductor: L_inv is empty, and still float
        assert not l_inv.any() and l_inv.dtype == np.float64
        # junction inductance lands purely on the junction coordinate
        np.testing.assert_allclose(with_junction_stamps(l_inv, net.junctions,
                                                        {"j1": 10 * nH}, labels),
                                   np.diag([0.1 / nH, 0.0]), atol=1e-20)

    def test_quadratic_form_invariance(self, rng):
        j = JunctionElement("j1", "p0", "p1", "s0")
        c_n = np.array([[40.0, -5.0], [-5.0, 70.0]]) * fF
        cell = CellMatrices("c1", ("p0", "p1"), c_n, np.zeros((2, 2)), junctions=(j,))
        net = compose_cells([cell], simple_registry({"s0": ["p1"]}, couplers=["p0"]))
        c, l_inv, labels, s_n = rotate_to_junction_basis(net)
        for _ in range(10):
            v = rng.normal(size=2)  # velocity vector in the rotated basis
            energy_rotated = v @ c @ v
            energy_node = (s_n @ v) @ net.c_mat @ (s_n @ v)
            assert energy_rotated == pytest.approx(energy_node, rel=1e-12)

    def test_loop_of_two_junctions_rejected(self):
        j1 = JunctionElement("j1", "p0", "p1", "s0")
        j2 = JunctionElement("j2", "p0", "p1", "s0")
        cell = CellMatrices("c1", ("p0", "p1"), np.diag([30.0, 60.0]) * fF,
                            np.zeros((2, 2)), junctions=(j1, j2))
        net = compose_cells([cell], simple_registry({"s0": ["p0", "p1"]}))
        with pytest.raises(DependentJunctionLoop):
            rotate_to_junction_basis(net)

    def test_three_junction_cycle_rejected(self):
        js = (
            JunctionElement("j1", "a", "b", "s0"),
            JunctionElement("j2", "b", "c", "s0"),
            JunctionElement("j3", "c", "a", "s0"),
        )
        cell = CellMatrices("c1", ("a", "b", "c"), np.eye(3) * 50 * fF,
                            np.zeros((3, 3)), junctions=js)
        net = compose_cells([cell], simple_registry({"s0": ["a", "b", "c"]}))
        with pytest.raises(DependentJunctionLoop):
            rotate_to_junction_basis(net)

    def test_junction_chain_keeps_all_fluxes(self):
        js = (
            JunctionElement("j1", "gnd", "a", "s0"),
            JunctionElement("j2", "a", "b", "s0"),
        )
        cell = CellMatrices("c1", ("a", "b"), np.eye(2) * 50 * fF,
                            np.zeros((2, 2)), junctions=js)
        net = compose_cells([cell], simple_registry({"s0": ["a", "b"]}))
        c, l_inv, labels, s_n = rotate_to_junction_basis(net)
        assert labels == ("j1", "j2")
        np.testing.assert_allclose(with_junction_stamps(l_inv, net.junctions,
                                                        {"j1": 10 * nH, "j2": 12 * nH}, labels),
                                   np.diag([0.1 / nH, 1.0 / (12 * nH)]), atol=1e-16)

    def test_tree_roots_prefer_datum_then_couplers(self):
        # a tree that reaches the datum is rooted there: j2 consumes b and
        # j1 then consumes a. The other tree's only coupler z sorts after
        # its plain node c but is still its root, so j3 consumes c and z
        # keeps its coordinate.
        js = (
            JunctionElement("j1", "a", "b", "s0"),
            JunctionElement("j2", "b", "gnd", "s0"),
            JunctionElement("j3", "c", "z", "s1"),
        )
        nodes = ("a", "b", "c", "d", "z")
        cell = CellMatrices("c1", nodes, np.eye(5) * 50 * fF, np.zeros((5, 5)), junctions=js)
        net = compose_cells([cell], simple_registry({"s0": ["a", "b"], "s1": ["c", "d"]},
                                                    couplers=["z"]))
        _, _, labels, s_n = rotate_to_junction_basis(net)
        assert labels == ("j1", "j2", "j3", "d", "z")
        # node fluxes: b = -j2, a = b - j1, c = z - j3
        np.testing.assert_array_equal(s_n, [
            [-1, -1, 0, 0, 0],
            [0, -1, 0, 0, 0],
            [0, 0, -1, 0, 1],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ])

    def test_duplicate_junction_ident_rejected(self):
        # two junctions named j1 close no loop; only the check that the
        # rotation inverts the node-to-junction map catches them
        js = (
            JunctionElement("j1", "gnd", "a", "s0"),
            JunctionElement("j1", "gnd", "b", "s0"),
        )
        net = CompositeNetlist(simple_registry({"s0": ["a", "b"]}), np.eye(2) * 50 * fF,
                               np.diag([1.0 / (10 * nH), 1.0 / (12 * nH)]), js)
        with pytest.raises(DependentJunctionLoop,
                           match="junction basis transformation is not invertible"):
            rotate_to_junction_basis(net)


class TestJunctionElement:
    def test_negative_cj_rejected(self):
        with pytest.raises(MalformedMatrix):
            JunctionElement("j1", "a", "b", "s0", cj=-1e-15)


# ---------------------------------------------------------------------------
# constraint elimination
# ---------------------------------------------------------------------------

class TestElimination:
    def test_capacitive_coupler_direction_selected(self):
        reg = simple_registry({"s0": ["a"], "s1": ["b"]}, couplers=["p"])
        labels = ("a", "b", "p")
        c = np.array([[3.0, 0.0, -1.0], [0.0, 3.0, -1.0], [-1.0, -1.0, 2.0]]) * fF
        l_inv = np.zeros((3, 3))
        l_inv[0, 0] = l_inv[1, 1] = 1.0 / (10 * nH)
        eliminate = coupler_kernel(l_inv, labels, reg)
        assert eliminate == [2]
        _, _, keep = schur_eliminate(c, l_inv, eliminate, "capacitance")
        assert keep == [0, 1]

    def test_no_couplers_identity(self):
        reg = simple_registry({"s0": ["a", "b"]})
        c = np.eye(2) * fF
        eliminate = coupler_kernel(np.zeros((2, 2)), ("a", "b"), reg)
        assert eliminate == []
        c_k, _, keep = schur_eliminate(c, np.zeros((2, 2)), eliminate, "capacitance")
        assert keep == [0, 1]
        np.testing.assert_allclose(c_k, c)

    def test_subsystem_kernel_direction_not_selected(self):
        # open-ended ladder: the uniform flux vector spans ker(L^-1) but is
        # subsystem-owned, so nothing is eliminated
        spec = LoadedLineSpec.from_wave_params(6e-3, 50.0, 1.2e8)
        net = ladder_netlist(spec, 20)
        c, l_inv, labels, _ = rotate_to_junction_basis(net)
        uniform = np.ones(len(labels))
        l_inv_n = net.l_inv
        assert np.linalg.norm(l_inv_n @ uniform) < 1e-9 * np.linalg.norm(l_inv_n, 2)
        assert coupler_kernel(l_inv, labels, net.registry) == []

    def test_series_capacitors_through_coupler(self):
        """C1 = C2 = 2 fF in series through an eliminated node: 1 fF."""
        c1 = c2 = 2.0 * fF
        reg = simple_registry({"s0": ["a"], "s1": ["b"]}, couplers=["p"])
        labels = ("a", "b", "p")
        c = np.array([
            [c1, 0.0, -c1],
            [0.0, c2, -c2],
            [-c1, -c2, c1 + c2],
        ])
        l_inv = np.zeros((3, 3))
        l_inv[0, 0] = l_inv[1, 1] = 1e9
        c_k, l_k, _ = schur_eliminate(c, l_inv, coupler_kernel(l_inv, labels, reg), "capacitance")
        expected = c1 * c2 / (c1 + c2)
        np.testing.assert_allclose(
            c_k, [[expected, -expected], [-expected, expected]], rtol=1e-12
        )

    def test_empty_sr_is_permutation(self, rng):
        net = random_circuit(rng, n_couplers=1)
        c, l_inv, labels, _ = rotate_to_junction_basis(net)
        c_k, l_k, keep = schur_eliminate(c, l_inv, [], "capacitance")
        assert keep == list(range(len(labels)))
        np.testing.assert_allclose(c_k, c)
        np.testing.assert_allclose(l_k, l_inv)

    def test_coupler_island_without_capacitive_path(self):
        reg = simple_registry({"s0": ["a"]}, couplers=["p"])
        labels = ("a", "p")
        c = np.diag([50 * fF, 0.0])
        l_inv = np.zeros((2, 2))
        l_inv[0, 0] = 1.0 / (10 * nH)
        with pytest.raises(SingularCouplerBlock, match="capacitance"):
            schur_eliminate(c, l_inv, [1], "capacitance")

    def test_second_pass_series_inductors(self):
        """Coupler joining L1 and L2 in series: effective L1 + L2."""
        l1, l2 = 4 * nH, 6 * nH
        reg = simple_registry({"s0": ["a"], "s1": ["b"]}, couplers=["m"])
        labels = ("a", "b", "m")
        l_inv = np.array([
            [1 / l1, 0.0, -1 / l1],
            [0.0, 1 / l2, -1 / l2],
            [-1 / l1, -1 / l2, 1 / l1 + 1 / l2],
        ])
        c = np.diag([50 * fF, 50 * fF, 0.0])
        li2, c2, keep = schur_eliminate(l_inv, c, coupler_kernel(c, labels, reg),
                                        "inverse inductance")
        labels2 = tuple(labels[i] for i in keep)
        assert labels2 == ("a", "b")
        y = 1.0 / (l1 + l2)
        np.testing.assert_allclose(li2, [[y, -y], [-y, y]], rtol=1e-12)
        np.testing.assert_allclose(c2, np.diag([50 * fF, 50 * fF]))

    def test_second_pass_identity_when_purely_capacitive(self, rng):
        net = random_circuit(rng)
        c, l_inv, labels, _ = rotate_to_junction_basis(net)
        first = coupler_kernel(l_inv, labels, net.registry)
        c1, l1, keep1 = schur_eliminate(c, l_inv, first, "capacitance")
        labels1 = tuple(labels[i] for i in keep1)
        l2, c2, keep2 = schur_eliminate(l1, c1, coupler_kernel(c1, labels1, net.registry),
                                        "inverse inductance")
        labels2 = tuple(labels1[i] for i in keep2)
        assert labels2 == labels1
        np.testing.assert_allclose(c2, c1)
        np.testing.assert_allclose(l2, l1)

    def test_compose_unknown_node(self):
        cell = CellMatrices("c1", ("zz",), np.array([[1.0 * fF]]), np.zeros((1, 1)))
        with pytest.raises(UnknownNode):
            compose_cells([cell], simple_registry({"s0": ["a"]}))

    def test_cell_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CellMatrices("c1", ("a", "b"), np.array([[1.0 * fF]]), np.zeros((1, 1)))

    def test_cell_duplicate_node_names_rejected(self):
        # composing would keep one of the node's entries, not their sum
        c = np.array([[3.0, -1.0], [-1.0, 3.0]]) * fF
        with pytest.raises(MalformedMatrix, match="cell 'c9': duplicate node names"):
            CellMatrices("c9", ("a", "a"), c, np.zeros((2, 2)))

    def test_mixed_class_coupler_warns_and_raises(self):
        j = JunctionElement("j1", "gnd", "a", "s0")
        cell = CellMatrices(
            "c1", ("a", "p"),
            np.array([[60.0, -5.0], [-5.0, 20.0]]) * fF,
            np.array([[0.0, 0.0], [0.0, 1.0 / (5 * nH)]]),  # inductor grounds p
            junctions=(j,),
        )
        net = compose_cells([cell], simple_registry({"s0": ["a"]}, couplers=["p"]))
        message = ("coupler node 'p' is touched by both capacitive and inductive elements; "
                   "only verified kernel directions will be eliminated")
        with pytest.warns(UserWarning, match=re.escape(message)):
            with pytest.raises(NonNullDirection):
                reduce_network(net)


# ---------------------------------------------------------------------------
# full reduction: invariants and oracles
# ---------------------------------------------------------------------------

class TestReduceNetwork:
    def test_symmetry_and_psd_preserved(self, rng):
        for _ in range(10):
            net = random_circuit(rng)
            rc = reduce_network(net)
            np.testing.assert_allclose(rc.c_mat, rc.c_mat.T, rtol=1e-12)
            w = np.linalg.eigvalsh(rc.c_mat)
            assert w[0] >= -1e-12 * w[-1]

    def test_junction_fluxes_retained_and_first(self):
        j = JunctionElement("j1", "p0", "p1", "q", cj=2 * fF)
        cell = CellMatrices(
            "c1", ("b1", "p0", "p1"),
            np.array([
                [120.0, -30.0, -2.0],
                [-30.0, 90.0, -45.0],
                [-2.0, -45.0, 80.0],
            ]) * fF,
            np.zeros((3, 3)),
            junctions=(j,),
        )
        net = compose_cells([cell], simple_registry({"q": ["p1"], "r": ["b1"]}, couplers=["p0"]))
        rc = reduce_network(net)
        assert rc.labels[0] == "j1"
        assert set(rc.labels) == {"j1", "b1"}
        assert rc.record.eliminated == ("p0",)
        assert rc.block_index["q"] == (rc.labels.index("j1"),)
        assert rc.block_index["r"] == (rc.labels.index("b1"),)

    def test_frequencies_match_unreduced_pencil(self, rng):
        """Reduced normal modes vs. the full constrained pencil, 1e-8."""
        for _ in range(20):
            net = random_circuit(rng)
            rc = reduce_network(net)
            reduced = normal_mode_frequencies(rc.c_mat, rc.l_inv)
            full = normal_mode_frequencies(net.c_mat, net.l_inv)
            np.testing.assert_allclose(reduced, full, rtol=1e-8)

    def test_time_domain_oracle(self, rng):
        """Trajectories of the reduced model match the constrained full
        dynamics integrated from matched initial conditions."""
        net = random_circuit(rng, n_nodes=6, n_couplers=2)
        rc = reduce_network(net)
        c, l_inv, labels, s_n = rotate_to_junction_basis(net)
        eliminate = coupler_kernel(l_inv, labels, net.registry)
        c, l_inv = c, l_inv
        identity = np.eye(len(labels))
        s_r = identity[:, eliminate]
        s_k = np.delete(identity, eliminate, axis=1)

        freqs = normal_mode_frequencies(rc.c_mat, rc.l_inv)
        t_end = 10 * 2 * np.pi / freqs[0]
        n_red = rc.c_mat.shape[0]
        phi0 = rng.normal(size=n_red) * 1e-18
        dphi0 = rng.normal(size=n_red) * 1e-8

        a_red = -np.linalg.solve(rc.c_mat, rc.l_inv)
        block = s_r.T @ c @ s_r
        ddx0 = -np.linalg.solve(block, s_r.T @ c @ s_k @ dphi0) if s_r.shape[1] else np.zeros(0)
        phi_full0 = s_k @ phi0
        dphi_full0 = s_k @ dphi0 + (s_r @ ddx0 if s_r.shape[1] else 0.0)
        a_full = -np.linalg.solve(c, l_inv)

        def rhs_red(_, y):
            x, v = y[:n_red], y[n_red:]
            return np.concatenate([v, a_red @ x])

        def rhs_full(_, y):
            n = c.shape[0]
            x, v = y[:n], y[n:]
            return np.concatenate([v, a_full @ x])

        t_eval = np.linspace(0.0, t_end, 50)
        sol_red = solve_ivp(rhs_red, (0, t_end), np.concatenate([phi0, dphi0]),
                            t_eval=t_eval, rtol=1e-12, atol=1e-30, method="DOP853")
        sol_full = solve_ivp(rhs_full, (0, t_end), np.concatenate([phi_full0, dphi_full0]),
                             t_eval=t_eval, rtol=1e-12, atol=1e-30, method="DOP853")
        projected = s_k.T @ sol_full.y[: c.shape[0]]
        scale = np.max(np.abs(sol_red.y[:n_red]))
        np.testing.assert_allclose(sol_red.y[:n_red], projected, atol=1e-8 * scale)

    def test_junction_subtraction_in_l_prime(self):
        """The reduced L_inv holds no junction inductance, so nothing is left
        to subtract before the junction energy enters in full; adding the
        stamp back gives the junction's 1/L_j."""
        j = JunctionElement("j1", "gnd", "p1", "q")
        cell = CellMatrices("c1", ("p1",), np.array([[60 * fF]]), np.zeros((1, 1)),
                            junctions=(j,))
        net = compose_cells([cell], simple_registry({"q": ["p1"]}))
        rc = reduce_network(net)
        np.testing.assert_allclose(with_junction_stamps(rc.l_inv, rc.junctions,
                                                        {"j1": 12 * nH}, rc.labels),
                                   [[1.0 / (12 * nH)]])
        np.testing.assert_allclose(rc.l_inv, [[0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

class TestBlocks:
    def test_diagonal_reduced_matrix_gives_zero_couplings(self):
        j = JunctionElement("j1", "gnd", "a", "q")
        cell = CellMatrices("c1", ("a", "b"), np.diag([50.0, 80.0]) * fF,
                            np.zeros((2, 2)), junctions=(j,))
        net = compose_cells([cell], simple_registry({"q": ["a"], "r": ["b"]}))
        rc = reduce_network(net)
        blocks = extract_blocks(rc)
        assert rc.labels == ("j1", "b")
        assert 2.0 * blocks.c_inv[0, 1] == 0.0

    def test_two_by_two_pair_coupling_formula(self):
        """The exact pair reciprocal, and the naive blocks' first-order one,
        which loses the b^2; a naive junction keeps its diagonal capacitance
        and nothing couples inductively."""
        a, b, d = 50 * fF, -4 * fF, 90 * fF
        j = JunctionElement("j1", "gnd", "x", "q")
        cell = CellMatrices("c1", ("x", "y"), np.array([[a, b], [b, d]]),
                            np.zeros((2, 2)), junctions=(j,))
        net = compose_cells([cell], simple_registry({"q": ["x"], "r": ["y"]}))
        rc = reduce_network(net)
        blocks = extract_blocks(rc)
        assert rc.labels == ("j1", "y")
        expected = 2.0 * (-b) / (a * d - b * b)
        assert 2.0 * blocks.c_inv[0, 1] == pytest.approx(expected, rel=1e-12)
        naive = weak_coupling_blocks(rc)
        assert 2.0 * naive.c_inv[0, 1] == pytest.approx(2.0 * (-b) / (a * d), rel=1e-12)
        assert 1.0 / naive.c_inv[0, 0] == pytest.approx(a, rel=1e-15)
        assert 2.0 * naive.l_inv[0, 1] == 0.0

    def test_far_coupler_perturbation_moves_dressed_capacitance(self):
        """The dressed junction capacitance depends on coupler and loading
        entries well away from the junction itself."""
        def build(b1_ground):
            j = JunctionElement("j1", "p0", "p1", "q", cj=2 * fF)
            c = np.array([
                [b1_ground, -30.0, -2.0],
                [-30.0, 90.0, -45.0],
                [-2.0, -45.0, 80.0],
            ]) * fF
            cell = CellMatrices("c1", ("b1", "p0", "p1"), c, np.zeros((3, 3)), junctions=(j,))
            net = compose_cells(
                [cell], simple_registry({"q": ["p1"], "r": ["b1"]}, couplers=["p0"]))
            rc = reduce_network(net)
            i = rc.labels.index("j1")
            return 1.0 / extract_blocks(rc).c_inv[i, i]

        assert abs(build(120.0) - build(200.0)) > 0.0

    def test_subsystem_blocks_partition(self, rng):
        net = random_circuit(rng)
        rc = reduce_network(net)
        blocks = extract_blocks(rc)
        sizes = [len(idx) for idx in rc.block_index.values()]
        assert sum(sizes) == len(rc.labels)
        for name in rc.block_index:
            sub = subsystem_c_inv(blocks, name)
            assert sub.shape == (len(rc.block_index[name]),) * 2


# ---------------------------------------------------------------------------
# registry validation
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_datum_in_partition_rejected(self):
        with pytest.raises(MalformedPartition):
            NodeRegistry("g", {"s0": frozenset({"g"})}, frozenset())

    def test_overlapping_sets_rejected(self):
        with pytest.raises(MalformedPartition):
            NodeRegistry("g", {"s0": frozenset({"a"}), "s1": frozenset({"a"})}, frozenset())

    def test_node_without_cell_rejected(self):
        cell = CellMatrices("c", ("a",), [[1.0 * fF]], [[0.0]])
        with pytest.raises(MalformedPartition, match=r"nodes without a cell: \['b'\]"):
            compose_cells([cell], simple_registry({"s0": ["a", "b"]}))

    def test_cell_node_outside_registry_names_the_cell(self):
        cell = CellMatrices("c7", ("a", "x"), np.eye(2) * fF, np.zeros((2, 2)))
        with pytest.raises(UnknownNode, match=r"cell 'c7' nodes not in the registry: \['x'\]"):
            compose_cells([cell], simple_registry({"s0": ["a"]}))

    def test_junction_of_no_subsystem_rejected(self):
        j = JunctionElement("j1", "a", "b", "nosuch")
        with pytest.raises(MalformedPartition, match="junction 'j1' names no subsystem: 'nosuch'"):
            CompositeNetlist(simple_registry({"s0": ["a", "b"]}), np.eye(2) * fF,
                             np.zeros((2, 2)), (j,))

    def test_subsystem_of(self):
        reg = simple_registry({"s0": ["a"], "s1": ["b"]}, couplers=["m"])
        assert [reg.subsystem_of(n) for n in ("a", "b", "m")] == ["s0", "s1", None]

    def test_lexicographic_node_order(self):
        reg = simple_registry({"s0": ["zz", "aa"], "s1": ["mm"]}, couplers=["bb"])
        assert reg.nodes == ("aa", "bb", "mm", "zz")
        assert reg.nodes is reg.nodes  # computed once, not on each access


@given(
    c_ground=st.floats(min_value=1.0, max_value=100.0),
    mutual=st.floats(min_value=0.1, max_value=40.0),
)
def test_energy_invariance_under_rotation(c_ground, mutual):
    """Cell energy 0.5 * v^T C v agrees in node and junction bases."""
    j = JunctionElement("j1", "p0", "p1", "s0")
    c_n = np.array([
        [c_ground + mutual, -mutual],
        [-mutual, 2.0 * c_ground + mutual],
    ]) * fF
    cell = CellMatrices("c1", ("p0", "p1"), c_n, np.zeros((2, 2)), junctions=(j,))
    net = compose_cells([cell], simple_registry({"s0": ["p1"]}, couplers=["p0"]))
    c, _, labels, s_n = rotate_to_junction_basis(net)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.normal(size=2)
        assert v @ c @ v == pytest.approx((s_n @ v) @ net.c_mat @ (s_n @ v), rel=1e-12)


# ---------------------------------------------------------------------------
# structure-exploiting reduction against dense references
# ---------------------------------------------------------------------------

def dense_junction_inverse(net, labels):
    """Reference s_n: the node-to-rotated transform t built row by row as a
    dense matrix (e_pos - e_neg for a junction, e_node for a kept node),
    inverted and rounded to integers."""
    index = {node: i for i, node in enumerate(net.labels)}
    n = len(index)
    t = np.zeros((n, n))
    for k, j in enumerate(net.junctions):
        if j.node_pos in index:
            t[k, index[j.node_pos]] += 1.0
        if j.node_neg in index:
            t[k, index[j.node_neg]] -= 1.0
    for k, node in enumerate(labels[len(net.junctions):], start=len(net.junctions)):
        t[k, index[node]] = 1.0
    return np.round(np.linalg.inv(t))


@st.composite
def junction_forests(draw):
    """A random circuit whose junctions form a forest: every node hangs off
    the datum, off an earlier node, or off nothing (a new tree). Chains,
    datum-rooted and coupler-rooted trees and several trees all occur; node
    names are shuffled against the build order."""
    n = draw(st.integers(2, 9))
    parents = [draw(st.integers(-2, k - 1)) for k in range(n)]  # -2: none, -1: datum
    couplers = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"n{order[k]}" for k in range(n)]

    c = np.diag(rng.uniform(20.0, 100.0, n))
    l_inv = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.uniform() < 0.5:
                mutual = rng.uniform(0.5, 20.0)
                c[[a, b], [a, b]] += mutual
                c[[a, b], [b, a]] -= mutual
            if rng.uniform() < 0.2:
                y = 1.0 / rng.uniform(1.0, 20.0)
                l_inv[[a, b], [a, b]] += y
                l_inv[[a, b], [b, a]] -= y
    junctions = []
    for k, parent in enumerate(parents):
        if parent == -2:
            continue
        ends = ["gnd" if parent == -1 else names[parent], names[k]]
        if flips[k]:
            ends.reverse()
        junctions.append(JunctionElement(
            f"j{k}", *ends, "s0", cj=rng.uniform(0.0, 3.0) * fF))
    cell = CellMatrices("c1", tuple(names), c * fF, l_inv / nH, junctions=tuple(junctions))
    coupler_names = [name for name, flag in zip(names, couplers) if flag]
    system = [name for name, flag in zip(names, couplers) if not flag]
    return compose_cells([cell], simple_registry({"s0": system}, couplers=coupler_names))


@given(junction_forests())
def test_sparse_rotation_matches_dense_inverse(net):
    c, l_inv, labels, s_n = rotate_to_junction_basis(net)
    assert labels[:len(net.junctions)] == tuple(j.ident for j in net.junctions)
    s_ref = dense_junction_inverse(net, labels)
    assert np.array_equal(s_n, s_ref)
    for got, node_matrix in ((c, net.c_mat), (l_inv, net.l_inv)):
        ref = s_ref.T @ node_matrix @ s_ref
        ref = 0.5 * (ref + ref.T)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Every matrix handed to ``scipy.linalg.eigvalsh`` during the test."""
    calls = []
    real = scipy.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", spy)
    return calls


def coupler_islands(rng, sizes, n_keep=3, scales=None):
    """Random symmetric matrix whose eliminated coordinates form dense
    islands of the given sizes with no entries between islands, each island
    coupled to every kept coordinate; indices are shuffled. Returns the
    matrix and the islands' indices."""
    scales = scales or [1.0] * len(sizes)
    n = n_keep + sum(sizes)
    position = rng.permutation(n)  # shuffled index of each built coordinate
    m = np.zeros((n, n))
    a = rng.normal(size=(n_keep, n_keep))
    kept = position[:n_keep]
    m[np.ix_(kept, kept)] = a @ a.T + n_keep * np.eye(n_keep)
    islands = []
    start = n_keep
    for size, scale in zip(sizes, scales):
        island = position[start:start + size]
        b = rng.normal(size=(size, size))
        m[np.ix_(island, island)] = scale * (b @ b.T + size * np.eye(size))
        coupling = 0.3 * scale * rng.normal(size=(n_keep, size))
        m[np.ix_(kept, island)] = coupling
        m[np.ix_(island, kept)] = coupling.T
        islands.append(sorted(int(i) for i in island))
        start += size
    return m * fF, islands


def eliminated(islands):
    return sorted(i for island in islands for i in island)


class TestIslandSchur:
    def test_islands_match_single_block(self, rng):
        for sizes in ([1], [3, 1, 4], [2, 2, 2, 5, 1]):
            m, islands = coupler_islands(rng, sizes)
            r = eliminated(islands)
            other = rng.normal(size=m.shape)
            got, other_kept, keep = schur_eliminate(m, other, r, "capacitance")
            assert keep == [i for i in range(len(m)) if i not in r]
            kk, kr, rr = np.ix_(keep, keep), np.ix_(keep, r), np.ix_(r, r)
            ref = m[kk] - m[kr] @ np.linalg.solve(m[rr], m[kr].T)
            ref = 0.5 * (ref + ref.T)
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
            np.testing.assert_array_equal(other_kept, other[kk])

    def test_one_singular_island_raises(self, rng):
        m, islands = coupler_islands(rng, [3, 2, 4])
        pair = islands[1]  # becomes a floating pair: its block loses a rank
        m[np.ix_(pair, pair)] = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 5 * fF
        with pytest.raises(SingularCouplerBlock, match="inverse inductance block"):
            schur_eliminate(m, np.zeros_like(m), eliminated(islands), "inverse inductance")

    def test_singularity_is_judged_across_islands(self, rng):
        # each island is well conditioned on its own, but one sits 1e-20
        # below the others, as a single eliminated block would see it
        m, islands = coupler_islands(rng, [3, 2, 4], scales=[1.0, 1e-20, 1.0])
        with pytest.raises(SingularCouplerBlock, match="capacitance block"):
            schur_eliminate(m, np.zeros_like(m), eliminated(islands), "capacitance")


def pad_islands(rng, kinds, sizes=None, n_keep=2):
    """Capacitance matrix (F) of ``n_keep`` grounded kept pads plus one
    island of coupler pads per entry of ``kinds``, with indices shuffled.
    Each island is a random connected web of mutuals among its pads (3-12,
    or ``sizes``). A "grounded" island has every pad grounded and its first
    pad coupled to a kept pad; "scaled" is a grounded island scaled by
    1e-20; a "floating" island touches nothing outside itself, so its block
    is exactly singular; a "dense" island is positive definite but far from
    diagonally dominant. Returns the matrix and the eliminated indices."""
    sizes = sizes or [int(rng.integers(3, 13)) for _ in kinds]
    n = n_keep + sum(sizes)
    c = np.diag(np.concatenate((rng.uniform(20.0, 60.0, n_keep), np.zeros(n - n_keep))))

    def add_mutual(a, b, mutual):
        c[[a, b], [a, b]] += mutual
        c[[a, b], [b, a]] -= mutual

    start = n_keep
    for kind, size in zip(kinds, sizes):
        pads = np.arange(start, start + size)
        start += size
        if kind == "dense":
            b = rng.normal(size=(size, size))
            c[np.ix_(pads, pads)] = b @ b.T + 0.5 * np.eye(size)
            c[pads[0], pads[0]] += 1.0
            add_mutual(int(rng.integers(n_keep)), pads[0], 1.0)
            continue
        scale = 1e-20 if kind == "scaled" else 1.0
        for i in range(size):
            for k in range(i + 1, size):
                if k == i + 1 or rng.uniform() < 0.3:
                    add_mutual(pads[i], pads[k], scale * rng.uniform(0.5, 5.0))
        if kind != "floating":
            c[pads, pads] += scale * rng.uniform(20.0, 60.0, size)
            add_mutual(int(rng.integers(n_keep)), pads[0], scale * rng.uniform(0.1, 1.0))
    perm = rng.permutation(n)
    return c[np.ix_(perm, perm)] * fF, np.nonzero(perm >= n_keep)[0].tolist()


def all_spectra_rule(m, eliminated):
    """The exact singularity rule on the whole eliminated block: raise when
    its smallest eigenvalue is at most SINGULAR_RATIO times its largest."""
    w = np.linalg.eigvalsh(m[np.ix_(eliminated, eliminated)])
    return w[0] <= SINGULAR_RATIO * max(w[-1], 0.0) or w[-1] <= 0.0


class TestSingularityDecision:
    """``schur_eliminate`` accepts a block from its Gershgorin bounds when
    they prove it regular, and otherwise decides from its spectrum."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["grounded", "floating", "scaled", "dense"]),
                    min_size=1, max_size=4))
    def test_matches_all_spectra_rule(self, seed, kinds):
        m, r = pad_islands(np.random.default_rng(seed), kinds)
        other = np.eye(len(m))
        if all_spectra_rule(m, r):
            with pytest.raises(SingularCouplerBlock):
                schur_eliminate(m, other, r, "capacitance")
            return
        got = schur_eliminate(m, other, r, "capacitance")
        # the result is the one the island spectra alone would accept
        with mock.patch.object(netlist, "_gershgorin_bounds", return_value=(0.0, 0.0)):
            spectra = schur_eliminate(m, other, r, "capacitance")
        for a, b in zip(got, spectra):
            np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 39))
    def test_floating_island_always_raises(self, seed, size):
        m, r = pad_islands(np.random.default_rng(seed), ["floating"], sizes=[size])
        with pytest.raises(SingularCouplerBlock, match="capacitance block"):
            schur_eliminate(m, np.eye(len(m)), r, "capacitance")

    def test_grounded_pad_chip_runs_no_island_eigensolve(self, eigvalsh_calls):
        cells, registry = spectator_chip(3)
        rc = reduce_network(compose_cells(cells, registry))
        assert len(rc.record.eliminated) == 297
        # the one spectrum left is ReducedCircuit's check of its capacitance
        assert [call.shape for call in eigvalsh_calls] == [(2, 2)]

    def test_floating_island_takes_the_fallback(self, rng, eigvalsh_calls):
        m, r = pad_islands(rng, ["grounded", "floating"], sizes=[4, 5])
        with pytest.raises(SingularCouplerBlock, match="capacitance block"):
            schur_eliminate(m, np.eye(len(m)), r, "capacitance")
        assert [call.shape for call in eigvalsh_calls] == [(9, 9)]

    def test_regular_island_the_bounds_cannot_prove_is_accepted(self, rng, eigvalsh_calls):
        m, r = pad_islands(rng, ["dense"], sizes=[6])
        block = np.abs(m[np.ix_(r, r)])
        assert np.any(2 * block.diagonal() < block.sum(axis=1))  # not diagonally dominant
        schur_eliminate(m, np.eye(len(m)), r, "capacitance")
        assert [call.shape for call in eigvalsh_calls] == [(6, 6)]

    def test_singular_device_block_names_its_coordinates(self):
        c = np.array([[50.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]]) * fF
        with pytest.raises(SingularCouplerBlock, match=re.escape(
                "coupler capacitance block is numerically singular; "
                "the eliminated coordinates ['p', 'q'] hold an island")):
            schur_eliminate(c, np.zeros((3, 3)), [1, 2], "capacitance", ("a", "p", "q"))

    def test_singular_cell_block_names_the_cell_and_its_nodes(self):
        # a floating pair of private pads, condensed in its cell
        c = np.array([[50.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]]) * fF
        cell = CellMatrices("pads", ("a", "fa", "fb"), c, np.zeros((3, 3)))
        with pytest.raises(SingularCouplerBlock, match=re.escape(
                "coupler capacitance block of cell 'pads' is numerically singular; "
                "the eliminated nodes ['fa', 'fb'] hold an island")):
            compose_cells([cell], simple_registry({"s0": ["a"]}, couplers=["fa", "fb"]))


class TestPsdCheck:
    def test_indefinite_message(self):
        with pytest.raises(MalformedMatrix) as err:
            check_psd(np.array([[1.0, 1.5], [1.5, 0.5]]) * fF, "test capacitance")
        w = np.linalg.eigvalsh(np.array([[1.0, 1.5], [1.5, 0.5]]) * fF)
        assert str(err.value) == (
            f"test capacitance is not positive semi-definite "
            f"(min/max eigenvalue {w[0]:.3e}/{w[1]:.3e})"
        )

    def test_singular_inverse_inductance_accepted(self):
        y = 1.0 / (10 * nH)
        floating = y * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(floating)  # only the eigenvalue fallback can accept it
        check_psd(floating, "inverse inductance")
        check_psd(floating - 1e-14 * y * np.eye(3), "inverse inductance")  # within PSD_RTOL
        with pytest.raises(MalformedMatrix, match="inverse inductance"):
            check_psd(floating - 1e-10 * y * np.eye(3), "inverse inductance")


class TestCompositeChecks:
    """A composite C is checked for symmetry, then for positive
    semi-definiteness by a Cholesky factorization that accepts only a
    positive definite matrix, with an eigenvalue fallback that decides the
    rest and words the error."""

    @staticmethod
    def composite(c):
        n = c.shape[0]
        registry = simple_registry({"s0": [f"n{i}" for i in range(n)]})
        return CompositeNetlist(registry, c, np.zeros((n, n)), ())

    def test_positive_definite_accepted_by_factorization(self, eigvalsh_calls):
        c = np.array([[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 3.0]]) * fF
        net = self.composite(c)
        assert isinstance(net.c_mat, np.ndarray)
        assert eigvalsh_calls == []

    def test_singular_psd_accepted_through_fallback(self, eigvalsh_calls):
        floating = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]) * fF
        self.composite(floating)
        assert [call.shape for call in eigvalsh_calls] == [(3, 3)]

    @pytest.mark.parametrize("c", [
        np.array([[1.0, 1.5, 0.0], [1.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
        # a zero diagonal, which Cholesky refuses at its first pivot
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    def test_indefinite_rejected(self, c):
        w = np.linalg.eigvalsh(c * fF)
        with pytest.raises(MalformedMatrix) as err:
            self.composite(c * fF)
        assert str(err.value) == (
            f"composite capacitance is not positive semi-definite "
            f"(min/max eigenvalue {w[0]:.3e}/{w[-1]:.3e})"
        )

    def test_asymmetric_rejected(self):
        c = np.diag([3.0, 3.0, 3.0]) * fF
        c[0, 1] = -1e-3 * fF  # stored on one side only
        with pytest.raises(MalformedMatrix, match="composite capacitance is not symmetric"):
            self.composite(c)

    def test_all_zero_matrix_is_checked(self, eigvalsh_calls):
        self.composite(np.zeros((3, 3)))
        assert [call.shape for call in eigvalsh_calls] == [(3, 3)]


class TestReducedChecks:
    """A reduced C is checked for symmetry, then by its spectrum alone: a
    smallest eigenvalue at most SINGULAR_RATIO times the largest, which
    every singular or indefinite matrix has, is a numerical failure (exit
    code 3), not malformed input."""

    @pytest.mark.parametrize("c", [
        # two equal rows
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        np.array([[1.0, 1.5, 0.0], [1.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),  # indefinite
    ])
    def test_singular_or_indefinite_rejected(self, c):
        c = c * fF
        w = scipy.linalg.eigvalsh(c, driver="evd")
        with pytest.raises(IllConditionedMatrix) as err:
            ReducedCircuit(labels=("n0", "n1", "n2"), c_mat=c, l_inv=np.zeros((3, 3)),
                           block_index={"s0": (0, 1, 2)}, junctions=(),
                           record=ReductionRecord(c_rotated=c, eliminated=()))
        assert isinstance(err.value, NumericalError)
        assert str(err.value) == (f"reduced capacitance matrix is numerically singular or "
                                  f"indefinite (eigenvalue ratio {w[0] / w[-1]:.3e})")


# ---------------------------------------------------------------------------
# in-cell condensation against an uncondensed dense oracle, and its memory
# at scale
# ---------------------------------------------------------------------------

@st.composite
def modular_devices(draw):
    """Cell matrices of a random device of 2-4 cells that share a bus node.
    Each cell has a qubit pad pair with a junction to ground, across the
    pair, or from its first coupler pad to a qubit pad; 1-4 capacitive
    coupler pads (grounded, randomly coupled, so they form one or more
    islands, which C may join to a coupler on the junction); and,
    optionally, an inductive coupler that joins a qubit pad to the bus
    through two inductors and carries no capacitance. Every cell enters as
    a Maxwell matrix. Returns (cells, registry, L_j by junction id)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells, subsystems, couplers, lj = [], {"bus": ["bus"]}, [], {}
    for k in range(draw(st.integers(2, 4))):
        pads = [f"q{k}a", f"q{k}b"]
        caps = [f"c{k}_{i}" for i in range(draw(st.integers(1, 4)))]
        inductive = [f"m{k}"] if draw(st.booleans()) else []
        nodes = ["bus", *pads, *caps, *inductive]
        subsystems[f"q{k}"] = pads
        couplers += caps + inductive
        n = len(nodes)
        ground = np.array([0.0 if node in inductive else rng.uniform(20.0, 100.0)
                           for node in nodes])
        c = np.diag(ground)
        for a in range(n - len(inductive)):
            for b in range(a + 1, n - len(inductive)):
                if rng.uniform() < 0.5:
                    mutual = rng.uniform(0.5, 20.0)
                    c[[a, b], [a, b]] += mutual
                    c[[a, b], [b, a]] -= mutual
        l_inv = np.zeros((n, n))
        for m in inductive:
            for pad in ("bus", pads[1]):
                i, j = nodes.index(m), nodes.index(pad)
                y = 1.0 / rng.uniform(1.0, 20.0)
                l_inv[[i, j], [i, j]] += y
                l_inv[[i, j], [j, i]] -= y
        ends = draw(st.sampled_from([("gnd", pads[0]), tuple(pads), (caps[0], pads[0])]))
        lj[f"j{k}"] = rng.uniform(5.0, 20.0) * nH
        junction = JunctionElement(f"j{k}", *ends, f"q{k}", cj=rng.uniform(0.0, 3.0) * fF)
        maxwell = embed_maxwell(CellMatrices(f"cell{k}", tuple(nodes), c * fF, l_inv / nH),
                                "gnd", ground * fF)
        node_cell = reduce_maxwell(maxwell, "gnd", f"cell{k}")
        cells.append(CellMatrices(f"cell{k}", node_cell.nodes, node_cell.c_mat, l_inv / nH,
                                  junctions=(junction,)))
    return cells, simple_registry(subsystems, couplers=couplers), lj


def dense_composite(cells, registry, lj=None):
    """The device composed on dense arrays with no in-cell condensation: by
    0/1 selection matrices and junction C_J stamps, and, given ``lj``, each
    junction's L_j stamped as a linear inductor."""
    nodes = registry.nodes
    n = len(nodes)
    c, l_inv = np.zeros((n, n)), np.zeros((n, n))
    junctions = [j for cell in cells for j in cell.junctions]
    for cell in cells:
        select = np.zeros((len(cell.nodes), n))
        select[np.arange(len(cell.nodes)), [nodes.index(node) for node in cell.nodes]] = 1.0
        c += select.T @ cell.c_mat @ select
        l_inv += select.T @ cell.l_inv @ select
    for j in junctions:
        e = np.array([(node == j.node_pos) - (node == j.node_neg) for node in nodes], dtype=float)
        c += j.cj * np.outer(e, e)
        if lj is not None:
            l_inv += np.outer(e, e) / lj[j.ident]
    return CompositeNetlist(registry, c, l_inv, tuple(junctions))


def dense_reduction(cells, registry, lj):
    """Reference reduction on dense arrays: compose with no in-cell
    condensation, rotate by the dense inverse of the node-to-rotated
    transform, and eliminate each pass's kernel couplers by a single-block
    Schur complement. Returns (C, L_inv, labels, the coordinates each pass
    eliminated)."""
    net = dense_composite(cells, registry, lj)
    labels = rotate_to_junction_basis(net)[2]
    s_n = dense_junction_inverse(net, labels)
    schur, other = s_n.T @ net.c_mat @ s_n, s_n.T @ net.l_inv @ s_n
    labels, passes = list(labels), []
    for _ in range(2):  # C by ker(L_inv), then L_inv by ker(C)
        other, schur = 0.5 * (other + other.T), 0.5 * (schur + schur.T)
        scale = np.linalg.norm(other, 2)
        r = [i for i, lab in enumerate(labels) if registry.is_coupler(lab)
             and np.linalg.norm(other[:, i]) <= KERNEL_RTOL * scale]
        k = [i for i in range(len(labels)) if i not in r]
        reduced = schur[np.ix_(k, k)]
        if r:
            kr = schur[np.ix_(k, r)]
            reduced = reduced - kr @ np.linalg.solve(schur[np.ix_(r, r)], kr.T)
        passes.append(tuple(labels[i] for i in r))
        labels = [labels[i] for i in k]
        schur, other = other[np.ix_(k, k)], reduced
    return schur, other, tuple(labels), passes


@given(modular_devices())
def test_condensed_reduction_matches_dense_oracle(device):
    """Condensing each cell's private pads, then reducing the device, gives
    the reduction of the uncondensed device; the record lists the condensed
    nodes, then the rest of the first pass, then the second pass."""
    cells, registry, lj = device
    net = compose_cells(cells, registry)
    rc = reduce_network(net)
    c, l_inv, ref_labels, (first, second) = dense_reduction(cells, registry, lj)
    assert set(net.condensed) <= set(first)
    assert rc.labels == ref_labels
    assert rc.record.eliminated == (
        net.condensed + tuple(lab for lab in first if lab not in net.condensed) + second)
    stamped = with_junction_stamps(rc.l_inv, rc.junctions, lj, rc.labels)
    for got, ref in ((rc.c_mat, c), (stamped, l_inv)):
        ref = 0.5 * (ref + ref.T)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def spectator_chip(n_cells, pads_per_cell=99, seed=5):
    """A qubit cell and ``n_cells`` cells of grounded capacitive-only coupler
    pads in a chain, each chain tied to a shared bus; returns (cells,
    registry)."""
    rng = np.random.default_rng(seed)
    junction = JunctionElement("j1", "gnd", "q", "qubit", cj=2 * fF)
    cells = [CellMatrices("qubit", ("bus", "q"), np.array([[75.0, -5.0], [-5.0, 65.0]]) * fF,
                          np.array([[1.0 / (8 * nH), 0.0], [0.0, 0.0]]), junctions=(junction,))]
    pads = []
    for k in range(n_cells):
        names = [f"s{k:03d}_{i:03d}" for i in range(pads_per_cell)]
        pads += names
        n = pads_per_cell + 1  # the bus is node 0
        c = np.diag(np.concatenate(([0.0], rng.uniform(20.0, 60.0, pads_per_cell))))
        for a, b, mutual in [(0, 1, 0.1)] + [
                (i, i + step, rng.uniform(0.1, 5.0))
                for step in (1, 2) for i in range(1, n - step)]:
            c[[a, b], [a, b]] += mutual
            c[[a, b], [b, a]] -= mutual
        cells.append(CellMatrices(f"spectator{k}", ("bus", *names), c * fF, np.zeros((n, n))))
    registry = simple_registry({"qubit": ["q"], "bus": ["bus"]}, couplers=pads)
    return cells, registry


@pytest.fixture
def solve_calls(monkeypatch):
    """(block shape, right-hand side shape) of every ``scipy.linalg.solve``
    during the test."""
    calls = []
    real = scipy.linalg.solve

    def spy(a, b, *args, **kwargs):
        calls.append((np.shape(a), np.shape(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve", spy)
    return calls


def test_spectator_pads_condense_in_their_cells(solve_calls):
    cells, registry = spectator_chip(3)
    net = compose_cells(cells, registry)
    assert net.condensed == tuple(sorted(registry.couplers))
    assert net.labels == ("bus", "q")
    # each cell solves its pads as one block, against its one remaining node
    assert solve_calls == [((99, 99), (99, 1))] * 3
    assert reduce_network(net).record.eliminated == net.condensed


def test_shipped_charge_line_stays_for_the_device_pass(solve_calls):
    """C joins the shipped cell's private pad cl to p0, a junction terminal,
    so cl stays in the device, whose first pass solves (cl, p0) as one
    block against the 4 retained coordinates."""
    cell = reduce_maxwell(benchmark_maxwell(), "g", "cell0")
    j1 = JunctionElement("j1", "p0", "p1", "qubit", cj=2 * fF)
    registry = simple_registry({"qubit": ["p1"], "readout": ["b1"], "bus2": ["b2"],
                                "bus3": ["b3"]}, couplers=["p0", "cl"], datum="g")
    net = compose_cells([dataclasses.replace(cell, junctions=(j1,))], registry)
    assert net.condensed == () and net.c_bare is net.c_mat
    rc = reduce_network(net)
    assert rc.record.eliminated == ("cl", "p0")
    assert solve_calls == [((2, 2), (2, 4))]


def test_record_keeps_the_bare_capacitance():
    """The naive model expands the junction-basis C before any elimination:
    the record holds the uncondensed device's C on the retained
    coordinates, which the pads' condensation would move."""
    cells, registry = spectator_chip(3)
    net = compose_cells(cells, registry)
    rc = reduce_network(net)
    c, _, labels, _ = rotate_to_junction_basis(dense_composite(cells, registry))
    at = [labels.index(lab) for lab in rc.labels]
    bare = c[np.ix_(at, at)]
    np.testing.assert_allclose(rc.record.c_rotated, bare, rtol=1e-13, atol=0)
    condensed = rotate_to_junction_basis(net)[0]
    assert np.abs(condensed - bare).max() > 1e-6 * np.abs(bare).max()


def test_spectator_chip_reduces_without_dense_matrices():
    """About 4000 nodes: one dense n x n float64 array would be 128 MB, and
    composing and reducing the chip peaks far below it."""
    cells, registry = spectator_chip(40)
    assert len(registry.nodes) == 3962
    tracemalloc.start()
    try:
        rc = reduce_network(compose_cells(cells, registry))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert rc.labels == ("j1", "bus")
    assert len(rc.record.eliminated) == 3960
