"""Circuit network model and matrix reduction pipeline.

Everything here operates on node-to-datum generalized fluxes in SI units
(farads, henries), of the linear network only: a junction enters by its
terminals and C_J; its L_j and E_J enter at subsystem quantization. The
pipeline is:

    MaxwellMatrix --reduce_maxwell--> CellMatrices --compose_cells-->
    CompositeNetlist --rotate_to_junction_basis--> junction-flux basis
    --coupler_kernel/schur_eliminate(C, L_inv)--> capacitive couplers removed
    --coupler_kernel/schur_eliminate(L_inv, C)--> inductive couplers removed
    --extract_blocks--> dressed subsystem blocks and pairwise couplings

Each cell first eliminates its private coupler pads: those that lie in it
alone, on no junction, with a zero L_inv row. By the quotient property of
Schur complements this equals eliminating them in the device; where C joins
them to another coupler they stay, and the device pass eliminates them
with it. So the device is a few nodes, and every device matrix is a small
dense array. Each elimination solves its block whole; whether the block is
singular is decided from its Gershgorin bounds where they suffice, and from
its spectrum only where they do not.

All functions are pure; returned dataclasses are frozen and safe to share
across threads or sweep workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy import constants

from .errors import (
    DependentJunctionLoop,
    DimensionMismatch,
    IllConditionedMatrix,
    MalformedMatrix,
    MalformedPartition,
    NonNullDirection,
    SingularCouplerBlock,
    UnknownDatum,
    UnknownNode,
)

PHI_0 = constants.hbar / (2.0 * constants.e)  # reduced flux quantum, Wb

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-12
# largest positive off-diagonal entry of a Maxwell matrix, relative to its
# largest magnitude, taken as rounding of a zero mutual capacitance
POSITIVE_MUTUAL_RTOL = 1e-12
# most negative row sum (capacitance to infinity), relative to the largest
# magnitude, taken as rounding of a node with no capacitance to infinity
ROW_SUM_RTOL = 1e-9
# entries within this of a matrix's largest magnitude are rounding left by
# the junction-basis congruence, not an element touching the coordinate
TOUCH_RTOL = 1e-14
# Input matrices carry ~1e-3 relative extraction noise, so rank decisions
# must sit far above machine epsilon but far below physical couplings.
KERNEL_RTOL = 1e-9
# smallest/largest eigenvalue ratio below which a block is treated as
# singular. eigvalsh finds the smallest eigenvalue of an exactly singular
# n x n block only to about n * eps of the largest (eps = 2.2e-16), so the
# ratio sits well above that rounding floor for blocks of a few hundred rows.
SINGULAR_RATIO = 1e-12


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MalformedMatrix(f"expected a square matrix, got shape {m.shape}")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ``m`` is symmetric to SYMMETRY_RTOL."""
    scale = np.abs(m).max(initial=0.0) or 1.0
    asym = np.abs(m - m.T).max(initial=0.0)
    if asym > SYMMETRY_RTOL * scale:
        raise MalformedMatrix(f"{name} is not symmetric (relative asymmetry {asym / scale:.3e})")


def check_psd(m: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ``m`` is positive semi-definite to PSD_RTOL. A Cholesky
    factorization, which succeeds only on a positive definite matrix,
    accepts it at a fraction of an eigensolve; only a matrix it rejects
    (singular or indefinite) pays for an ``eigvalsh``, which decides the
    case and words the error."""
    if m.shape[0] == 0:
        return
    try:
        scipy.linalg.cholesky(_symmetrize(m), lower=True)
        return
    except np.linalg.LinAlgError:  # not positive definite
        pass
    # every full spectrum here is divide and conquer (dsyevd), as in numpy's eigvalsh
    w = scipy.linalg.eigvalsh(_symmetrize(m), driver="evd")
    largest = max(w[-1], 0.0) or 1.0
    if w[0] < -PSD_RTOL * largest:
        raise MalformedMatrix(
            f"{name} is not positive semi-definite (min/max eigenvalue {w[0]:.3e}/{largest:.3e})"
        )


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeRegistry:
    """Device node bookkeeping: the datum and the partition of the other
    nodes into subsystems (name -> nodes, in subsystem order) and couplers.
    Which cell holds each node is known to ``compose_cells`` alone.

    Non-datum nodes are kept in lexicographic order so every matrix built on
    top of the registry has a deterministic, reproducible layout.
    """

    datum: str
    subsystems: Mapping[str, frozenset[str]]
    couplers: frozenset[str]
    # all non-datum nodes, lexicographically ordered
    nodes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: set[str] = set()
        for s in (*self.subsystems.values(), self.couplers):
            if self.datum in s:
                raise MalformedPartition(f"datum {self.datum!r} assigned to a partition set")
            overlap = seen & s
            if overlap:
                raise MalformedPartition(f"nodes assigned twice: {sorted(overlap)}")
            seen |= s
        object.__setattr__(self, "nodes", tuple(sorted(seen)))

    def subsystem_of(self, node: str) -> str | None:
        return next((name for name, nodes in self.subsystems.items() if node in nodes), None)

    def is_coupler(self, node: str) -> bool:
        return node in self.couplers


@dataclass(frozen=True)
class MaxwellMatrix:
    """Electrostatic capacitance matrix over N+1 named nodes (local ground
    included). Off-diagonal entries store the negated mutual capacitances;
    each row sum is the node self-capacitance to infinity.
    """

    names: tuple[str, ...]
    matrix: np.ndarray  # farads
    display_units: str = "F"
    # Values exactly as read from file, used to make serialize(parse(f))
    # byte-identical; recomputing matrix/scale can flip the last bit.
    display_matrix: np.ndarray | None = field(default=None, compare=False)
    # sha256 of the file bytes it was parsed from, for the report's provenance
    source_sha256: str | None = field(default=None, compare=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(self.names) != m.shape[0]:
            raise DimensionMismatch(
                f"{len(self.names)} node names for a {m.shape[0]}x{m.shape[1]} matrix"
            )
        if len(set(self.names)) != len(self.names):
            raise MalformedMatrix("duplicate node names")
        finite = np.isfinite(m)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise MalformedMatrix(
                f"non-finite entry at ({self.names[i]}, {self.names[j]}): {m[i, j]}"
            )
        check_symmetric(m, "Maxwell matrix")
        scale = np.max(np.abs(m)) or 1.0
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off > POSITIVE_MUTUAL_RTOL * scale):
            i, j = np.unravel_index(np.argmax(off), off.shape)
            raise MalformedMatrix(
                f"positive off-diagonal entry at ({self.names[i]}, {self.names[j]}): {m[i, j]:.6g}"
            )
        sums = m.sum(axis=1)
        if np.any(sums < -ROW_SUM_RTOL * scale):
            bad = [self.names[i] for i in np.nonzero(sums < -ROW_SUM_RTOL * scale)[0]]
            raise MalformedMatrix(f"negative self-capacitance (row sum) at nodes {bad}")

    def self_capacitance(self, node: str) -> float:
        """Capacitance to infinity of ``node`` (its row sum)."""
        return float(self.matrix[self.names.index(node)].sum())


@dataclass(frozen=True)
class JunctionElement:
    """A junction as the linear network sees it: its terminals and C_J. Its
    L_j and E_J enter only at quantization, from the configuration."""

    ident: str
    node_neg: str  # flux convention: phi_j = phi(node_pos) - phi(node_neg)
    node_pos: str
    subsystem: str
    cj: float = 0.0  # F

    def __post_init__(self):
        if self.node_neg == self.node_pos:
            raise MalformedPartition(f"junction {self.ident!r} terminals coincide")
        if not (self.cj >= 0 and math.isfinite(self.cj)):
            raise MalformedMatrix(f"junction {self.ident!r} capacitance must be non-negative "
                                  f"and finite, got {self.cj}")


@dataclass(frozen=True)
class CellMatrices:
    """Per-cell node-to-datum capacitance and inverse inductance matrices."""

    ident: str
    nodes: tuple[str, ...]
    c_mat: np.ndarray  # F
    l_inv: np.ndarray  # 1/H
    junctions: tuple[JunctionElement, ...] = ()

    def __post_init__(self):
        c = _as_matrix(self.c_mat)
        li = _as_matrix(self.l_inv)
        object.__setattr__(self, "c_mat", c)
        object.__setattr__(self, "l_inv", li)
        n = len(self.nodes)
        if c.shape != (n, n) or li.shape != (n, n):
            raise DimensionMismatch(
                f"cell {self.ident!r}: {n} nodes but matrices {c.shape} and {li.shape}"
            )
        if len(set(self.nodes)) != n:
            raise MalformedMatrix(f"cell {self.ident!r}: duplicate node names")
        check_symmetric(c, f"cell {self.ident!r} capacitance")
        check_symmetric(li, f"cell {self.ident!r} inverse inductance")
        check_psd(c, f"cell {self.ident!r} capacitance")


@dataclass(frozen=True)
class CompositeNetlist:
    """Assembled device-level matrices in the node-to-datum flux basis, on
    the registry nodes that no cell condensed (``labels``, in registry
    order).

    ``condensed`` names the nodes eliminated inside their cells, and
    ``c_bare`` is C on ``labels`` before that elimination (``c_mat`` when
    nothing was condensed): the naive model expands the bare C."""

    registry: NodeRegistry
    c_mat: np.ndarray
    l_inv: np.ndarray
    junctions: tuple[JunctionElement, ...]
    condensed: tuple[str, ...] = ()
    c_bare: np.ndarray | None = None
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gone = set(self.condensed)
        object.__setattr__(self, "labels", tuple(n for n in self.registry.nodes if n not in gone))
        if self.c_bare is None:
            object.__setattr__(self, "c_bare", self.c_mat)
        n = len(self.labels)
        for name in ("c_mat", "l_inv", "c_bare"):
            m = _as_matrix(getattr(self, name))
            if m.shape != (n, n):
                raise DimensionMismatch(f"composite {name} is {m.shape} for {n} nodes")
            object.__setattr__(self, name, m)
        check_symmetric(self.c_mat, "composite capacitance")
        check_symmetric(self.l_inv, "composite inverse inductance")
        check_psd(self.c_mat, "composite capacitance")
        for j in self.junctions:
            if j.subsystem not in self.registry.subsystems:
                raise MalformedPartition(
                    f"junction {j.ident!r} names no subsystem: {j.subsystem!r}")


@dataclass(frozen=True)
class ReductionRecord:
    """Transformations applied on the way to the reduced basis."""

    # junction-basis capacitance before any elimination, in-cell or device,
    # restricted to the retained coordinates in ReducedCircuit.labels order
    c_rotated: np.ndarray
    # coupler coordinates removed: those condensed in their cells, then the
    # first pass's, then the second's
    eliminated: tuple[str, ...]


@dataclass(frozen=True)
class ReducedCircuit:
    """Constraint-eliminated circuit: retained coordinates, reduced matrices,
    and the subsystem block index maps.

    ``l_inv`` holds no junction's L_j, so each junction energy enters in its
    full non-linear form at subsystem quantization.
    """

    labels: tuple[str, ...]  # junction fluxes first
    c_mat: np.ndarray
    l_inv: np.ndarray
    block_index: Mapping[str, tuple[int, ...]]
    junctions: tuple[JunctionElement, ...]
    record: ReductionRecord

    def __post_init__(self):
        check_symmetric(self.c_mat, "reduced capacitance")
        w = scipy.linalg.eigvalsh(self.c_mat, driver="evd")
        if w[0] <= SINGULAR_RATIO * w[-1]:
            raise IllConditionedMatrix(
                f"reduced capacitance matrix is numerically singular or indefinite "
                f"(eigenvalue ratio {w[0] / w[-1]:.3e})"
            )
        for j in self.junctions:
            if j.ident not in self.labels:
                raise MalformedPartition(f"junction flux {j.ident!r} was eliminated")
        covered = sorted(i for idx in self.block_index.values() for i in idx)
        if covered != list(range(len(self.labels))):
            raise MalformedPartition("block index maps do not partition the retained coordinates")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def reduce_maxwell(m: MaxwellMatrix, datum: str, ident: str,
                   ground_nets: Sequence[str] = ()) -> CellMatrices:
    """Fold the Maxwell matrix to the node-to-datum basis of cell ``ident`` by
    deleting the rows and columns of the datum and of the ``ground_nets``,
    islands grounded to it, whose flux is zero; remaining node order is
    preserved."""
    for n in ground_nets:
        if n not in m.names:
            raise UnknownNode(f"cannot merge unknown node {n!r}")
    if datum not in m.names:
        raise UnknownDatum(f"datum {datum!r} not among nodes {list(m.names)}")
    grounded = {datum, *ground_nets}
    keep = [i for i, n in enumerate(m.names) if n not in grounded]
    nodes = tuple(m.names[i] for i in keep)
    c = m.matrix[np.ix_(keep, keep)].copy()
    return CellMatrices(ident=ident, nodes=nodes, c_mat=c, l_inv=np.zeros_like(c))


def _two_terminal_stamp(index: Mapping[str, int], datum: str,
                        n1: str, n2: str) -> list[tuple[int, int, float]]:
    """(row, col, sign) entries of the nodal stamp of a two-terminal element
    across (n1, n2): +1 on both diagonals and -1 off them; a datum terminal
    leaves only the other node's diagonal."""
    for n in (n1, n2):
        if n != datum and n not in index:
            raise UnknownNode(f"element terminal {n!r} is not a registry node")
    if n1 != datum and n2 != datum:
        i, j = index[n1], index[n2]
        return [(i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)]
    node = n1 if n1 != datum else n2
    return [(index[node], index[node], 1.0)] if node != datum else []


def compose_cells(cells: Sequence[CellMatrices], registry: NodeRegistry) -> CompositeNetlist:
    """Condense each cell's private coupler pads, then scatter-add the cells
    into the global node order and stamp each junction's intrinsic
    capacitance C_J across its terminal pair; its L_j stays out of L_inv.

    A cell's private pads are its couplers that lie in no other cell and on
    no junction, and whose L_inv row is zero. The cell eliminates them as
    one block, by ``schur_eliminate``, unless C joins them to another
    coupler: then they stay, and the device pass eliminates them with it.

    Every cell node must be a registry node, and every registry node must
    lie in a cell."""
    nodes = registry.nodes
    index = {n: i for i, n in enumerate(nodes)}
    holders = np.zeros(len(nodes), dtype=np.intp)  # how many cells hold each node
    places = []
    for cell in cells:
        unknown = [node for node in cell.nodes if node not in index]
        if unknown:
            raise UnknownNode(f"cell {cell.ident!r} nodes not in the registry: {unknown}")
        places.append(np.array([index[node] for node in cell.nodes], dtype=np.intp))
        holders[places[-1]] += 1
    missing = [nodes[i] for i in (holders == 0).nonzero()[0]]
    if missing:
        raise MalformedPartition(f"nodes without a cell: {missing}")
    junctions = tuple(j for cell in cells for j in cell.junctions)
    coupler = np.array([node in registry.couplers for node in nodes], dtype=bool)
    private = coupler & (holders == 1)
    private[[index[n] for j in junctions for n in (j.node_neg, j.node_pos) if n in index]] = False

    gone = np.zeros(len(nodes), dtype=bool)
    kept, c_parts, bare_parts, l_parts = [], [], [], []  # per cell, on its remaining nodes
    for cell, at in zip(cells, places):
        c, l_inv, keep = cell.c_mat, cell.l_inv, slice(None)
        r = private[at] & ~l_inv.any(axis=1)
        if r.any() and not c[np.ix_(r, coupler[at] & ~r)].any():
            c, l_inv, keep = schur_eliminate(c, l_inv, r.nonzero()[0], "capacitance",
                                             cell.nodes, cell.ident)
            gone[at[r]] = True
        kept.append(at[keep])
        c_parts.append(c)
        bare_parts.append(cell.c_mat[keep][:, keep])
        l_parts.append(l_inv)

    position = (~gone).cumsum() - 1  # a remaining node's row in the device matrices
    n = len(nodes) - int(gone.sum())
    stamps = [(position[i], position[k], sign * j.cj)
              for j in junctions
              for i, k, sign in _two_terminal_stamp(index, registry.datum, j.node_neg, j.node_pos)]

    def assemble(parts: list[np.ndarray], stamps=()) -> np.ndarray:
        m = np.zeros((n, n))
        for at, part in zip(kept, parts):
            rows = position[at]
            m[np.ix_(rows, rows)] += part
        for i, k, value in stamps:
            m[i, k] += value
        return _symmetrize(m)

    return CompositeNetlist(
        registry=registry,
        c_mat=assemble(c_parts, stamps),
        l_inv=assemble(l_parts),
        junctions=junctions,
        condensed=tuple(nodes[i] for i in gone.nonzero()[0]),
        c_bare=assemble(bare_parts, stamps) if gone.any() else None,
    )


def _junction_pivots(net: CompositeNetlist) -> dict[str, tuple[str, str]]:
    """Assign each junction the node coordinate its flux will replace.

    The junction graph must be a forest (no flux loops). It is walked once,
    breadth first from each root not yet reached, taking roots in order of
    preference: the datum, then coupler nodes by name, then the other nodes
    by name. So each tree is rooted at the datum when present, else at its
    first coupler node, else at its first node, and every edge consumes its
    endpoint farther from the root. Rooting away from couplers keeps coupler
    node fluxes available for the later constraint elimination.

    Returns {junction: (parent, pivot)} in breadth-first order, so every
    parent is settled before the pivot node below it.
    """
    datum = net.registry.datum
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for j in net.junctions:
        adjacency.setdefault(j.node_neg, []).append((j.node_pos, j.ident))
        adjacency.setdefault(j.node_pos, []).append((j.node_neg, j.ident))

    pivots: dict[str, tuple[str, str]] = {}
    seen_edges: set[str] = set()
    seen_nodes: set[str] = set()
    for root in sorted(adjacency, key=lambda n: (n != datum, not net.registry.is_coupler(n), n)):
        if root in seen_nodes:
            continue
        seen_nodes.add(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v, ident in sorted(adjacency[u]):
                if ident in seen_edges:
                    continue
                seen_edges.add(ident)
                if v in seen_nodes:
                    raise DependentJunctionLoop(
                        f"junction {ident!r} closes a superconducting loop; "
                        "flux-loop circuits are out of scope"
                    )
                seen_nodes.add(v)
                pivots[ident] = (u, v)
                queue.append(v)
    return pivots


def _congruence(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s.T @ m @ s for a symmetric m, symmetrized."""
    return _symmetrize(s.T @ (m @ s))


def rotate_to_junction_basis(
    net: CompositeNetlist,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """Rotate the node-flux basis so every junction flux phi_j = phi(n2) -
    phi(n1) is an explicit coordinate, listed first.

    Returns (C, L_inv, labels, s_n) with C = s_n.T @ C_n @ s_n and
    L_inv = s_n.T @ L_inv_n @ s_n; s_n is integer-valued and invertible.

    s_n is read off the junction forest: a node that keeps its own
    coordinate has a unit row, and each pivot node's row is its parent's row
    plus or minus its junction's coordinate (the datum's row is zero).
    """
    nodes = net.labels
    datum = net.registry.datum
    index = {node: i for i, node in enumerate(nodes)}
    pivots = _junction_pivots(net)
    kept = np.ones(len(nodes), dtype=bool)
    kept[[index[pivot] for _, pivot in pivots.values()]] = False
    kept_rows = kept.nonzero()[0]
    n_j = len(net.junctions)
    labels = [j.ident for j in net.junctions] + [nodes[i] for i in kept_rows]

    # square unless two junctions share an ident, which the check below refuses
    s_n = np.zeros((len(nodes), len(labels)))
    s_n[kept_rows, n_j + np.arange(kept_rows.size)] = 1.0
    zero = np.zeros(len(labels))

    def s_row(node: str) -> np.ndarray:
        return zero if node == datum else s_n[index[node]]

    junction_by_id = {j.ident: j for j in net.junctions}
    column = {j.ident: k for k, j in enumerate(net.junctions)}
    for ident, (parent, pivot) in pivots.items():
        s_n[index[pivot]] = s_row(parent)
        s_n[index[pivot], column[ident]] = 1.0 if pivot == junction_by_id[ident].node_pos else -1.0

    # t, the inverse of s_n, maps node fluxes to the rotated coordinates:
    # its row k is e_pos - e_neg for a junction and e_node for a kept node.
    # (t s_n) is the identity on a kept node's row by construction, so only
    # the junction rows are checked.
    for k, j in enumerate(net.junctions):
        product = s_row(j.node_pos) - s_row(j.node_neg)
        if product[k] != 1.0 or np.count_nonzero(product) != 1:
            raise DependentJunctionLoop("junction basis transformation is not invertible")

    return _congruence(net.c_mat, s_n), _congruence(net.l_inv, s_n), tuple(labels), s_n


def coupler_class_warnings(c_mat: np.ndarray, l_inv: np.ndarray, labels: Sequence[str],
                           registry: NodeRegistry) -> None:
    """Check the non-dynamical sufficiency condition for every declared
    coupler coordinate (touched by one element class only) and warn on
    failures. Runs in the junction basis: a junction's inductance belongs to
    its own flux coordinate, not to the terminal pads it spans."""
    def touched(m: np.ndarray) -> np.ndarray:
        size = np.abs(m)
        return (size > TOUCH_RTOL * (size.max(initial=0.0) or 1.0)).any(axis=1)

    index = {lab: i for i, lab in enumerate(labels)}
    # couplers consumed by a junction pivot have no coordinate left
    present = [node for node in sorted(registry.couplers) if node in index]
    idx = [index[node] for node in present]
    for node, both in zip(present, (touched(c_mat) & touched(l_inv))[idx]):
        if both:
            warnings.warn(f"coupler node {node!r} is touched by both capacitive and inductive "
                          "elements; only verified kernel directions will be eliminated")


def coupler_kernel(mat: np.ndarray, labels: Sequence[str], registry: NodeRegistry) -> list[int]:
    """Indices of the declared coupler coordinates that lie in ker(mat).

    Subsystem-owned kernel directions (for instance the uniform mode of an
    open-ended line) are never candidates.
    """
    candidates = [i for i, lab in enumerate(labels) if registry.is_coupler(lab)]
    if not candidates or not mat.any():
        return candidates
    scale = scipy.linalg.svdvals(mat)[0]  # ||mat||_2
    norms = np.sqrt((mat * mat).sum(axis=0))
    return [i for i in candidates if norms[i] <= KERNEL_RTOL * scale]


def schur_eliminate(
    schur: np.ndarray,
    other: np.ndarray,
    eliminate: Sequence[int],
    block: str,
    labels: Sequence[str] | None = None,
    cell: str | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Eliminate the ``eliminate`` coordinates: take the Schur complement of
    the ``schur`` quadratic form onto the kept coordinates and restrict
    ``other`` to them. The eliminated block is solved whole, against every
    kept coordinate. ``block`` names the Schur block, and ``labels`` the
    coordinates (indices when not given) of the ``cell`` that eliminates
    them (the device when not given), in the error raised when the block is
    singular.

    The block is singular when its smallest eigenvalue is at most
    ``SINGULAR_RATIO`` times its largest. Its Gershgorin bounds decide most
    blocks: when the lower bound is positive and above ``SINGULAR_RATIO``
    times the upper one, the exact rule accepts the block too, and no
    spectrum is computed. This holds for grounded coupler pads, whose rows
    are diagonally dominant. Otherwise (a floating island, a zero row,
    islands of very different scales, or a block that is not diagonally
    dominant) its spectrum decides the case and words the error.

    Returns (schur_reduced, other_reduced, keep), keep in ascending order.
    """
    dropped = np.zeros(schur.shape[0], dtype=bool)
    dropped[np.asarray(eliminate, dtype=np.intp)] = True
    r, keep = dropped.nonzero()[0], (~dropped).nonzero()[0]
    kk = np.ix_(keep, keep)
    if not r.size:
        return schur[kk], other[kk], keep.tolist()
    rr = schur[np.ix_(r, r)]
    lower, upper = _gershgorin_bounds(rr)
    if not (lower > 0.0 and lower > SINGULAR_RATIO * upper):
        # the bounds cannot decide; the extreme eigenvalues do
        w = scipy.linalg.eigvalsh(_symmetrize(rr), driver="evd")
        if w[0] <= SINGULAR_RATIO * max(w[-1], 0.0) or w[-1] <= 0.0:
            names = r.tolist() if labels is None else [labels[i] for i in r]
            where, what = ("", "coordinates") if cell is None else (f" of cell {cell!r}", "nodes")
            raise SingularCouplerBlock(
                f"coupler {block} block{where} is numerically singular; the eliminated "
                f"{what} {names} hold an island not connected through the {block} matrix"
            )
    kr = schur[np.ix_(keep, r)]
    reduced = schur[kk] - kr @ scipy.linalg.solve(rr, kr.T, assume_a="gen")
    return _symmetrize(reduced), other[kk], keep.tolist()


def _gershgorin_bounds(m: np.ndarray) -> tuple[float, float]:
    """Bounds (lower, upper) on the spectrum of the symmetric part of the
    square ``m``, by Gershgorin's circle theorem (Golub & Van Loan, *Matrix
    Computations*): lower is the least a_ii - r_i and upper the largest
    |a_ii| + r_i. The radius r_i of row i is half the off-diagonal
    magnitudes of its row and its column, which bounds the sum of
    |a_ij + a_ji| / 2 and equals it for a symmetric matrix."""
    diag = m.diagonal()
    size = np.abs(m)
    np.fill_diagonal(size, 0.0)
    radius = 0.5 * (size.sum(axis=1) + size.sum(axis=0))
    return float((diag - radius).min()), float((np.abs(diag) + radius).max())


def reduce_network(net: CompositeNetlist) -> ReducedCircuit:
    """Rotate to the junction basis, then eliminate the coupler coordinates
    in two passes: those in ker(L_inv) by a Schur complement of C, then
    those in ker(C) by a Schur complement of L_inv. The record lists the
    nodes the cells condensed first, and keeps the bare C (``net.c_bare``)
    on the retained coordinates."""
    c, l_inv, labels, s_n = rotate_to_junction_basis(net)
    coupler_class_warnings(c, l_inv, labels, net.registry)

    first = coupler_kernel(l_inv, labels, net.registry)
    c1, l1, keep1 = schur_eliminate(c, l_inv, first, "capacitance", labels)
    labels1 = [labels[i] for i in keep1]
    second = coupler_kernel(c1, labels1, net.registry)
    l2, c2, keep2 = schur_eliminate(l1, c1, second, "inverse inductance", labels1)
    labels2 = tuple(labels1[i] for i in keep2)
    eliminated = (net.condensed + tuple(labels[i] for i in first)
                  + tuple(labels1[i] for i in second))

    leftovers = [lab for lab in labels2 if net.registry.is_coupler(lab)]
    if leftovers:
        raise NonNullDirection(
            f"coupler coordinates {leftovers} lie in neither kernel space; "
            "declare them as subsystem nodes or fix the element classes touching them"
        )

    block_lists: dict[str, list[int]] = {name: [] for name in net.registry.subsystems}
    owner = {j.ident: j.subsystem for j in net.junctions}  # a junction flux's subsystem
    for i, lab in enumerate(labels2):
        block_lists[owner[lab] if lab in owner else net.registry.subsystem_of(lab)].append(i)

    retained = [keep1[i] for i in keep2]
    c_bare = c if net.c_bare is net.c_mat else _congruence(net.c_bare, s_n)
    record = ReductionRecord(c_rotated=c_bare[np.ix_(retained, retained)], eliminated=eliminated)
    return ReducedCircuit(
        labels=labels2, c_mat=c2, l_inv=l2,
        block_index={k: tuple(v) for k, v in block_lists.items()},
        junctions=net.junctions, record=record,
    )


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitBlocks:
    """Dressed subsystem blocks of the inverted reduced matrices.

    ``block_index`` is the one subsystem -> ports map: it gives each
    subsystem its retained coordinates, as indices into ``labels``,
    ``c_inv`` and ``l_inv``. Diagonal entries of ``c_inv`` give 1/C_eff for
    single-coordinate ports (the dressed junction or line-loading
    capacitances). Off-diagonal pair couplings carry a factor of two
    relative to the raw inverse entries, so 1/C_nm_eff = 2 * c_inv[n, m]
    (and 1/L_nm_eff = 2 * l_inv[n, m]); the Hamiltonian assembly must weight
    each unordered pair term by half of that to reproduce the quadratic form.
    """

    labels: tuple[str, ...]
    c_inv: np.ndarray
    l_inv: np.ndarray  # the linear network's; no junction L_j
    block_index: Mapping[str, tuple[int, ...]]


def extract_blocks(rc: ReducedCircuit) -> CircuitBlocks:
    """Partition the inverted capacitance and reduced inverse inductance into
    per-subsystem diagonal blocks and scaled pairwise couplings."""
    return CircuitBlocks(
        labels=rc.labels, c_inv=_symmetrize(scipy.linalg.inv(rc.c_mat)),
        l_inv=rc.l_inv, block_index=rc.block_index,
    )


def weak_coupling_blocks(rc: ReducedCircuit) -> CircuitBlocks:
    """The standard weak-coupling approximation of ``extract_blocks``: the
    first-order expansion D^-1 - D^-1 C' D^-1 of the inverse of the
    junction-basis capacitance ``rc.record.c_rotated`` before elimination,
    with D its diagonal and C' the rest, and no inductive coupling."""
    c = rc.record.c_rotated
    d = np.diag(c)
    c_inv = -c / np.outer(d, d)
    np.fill_diagonal(c_inv, 1.0 / d)
    return CircuitBlocks(labels=rc.labels, c_inv=c_inv, l_inv=np.zeros_like(c),
                         block_index=rc.block_index)
