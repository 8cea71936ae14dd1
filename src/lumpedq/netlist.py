"""Circuit network model and matrix reduction pipeline.

Everything here operates on node-to-datum generalized fluxes in SI units
(farads, henries). The pipeline is:

    MaxwellMatrix --reduce_maxwell--> CellMatrices --compose_cells-->
    CompositeNetlist --rotate_to_junction_basis--> junction-flux basis
    --coupler_kernel/schur_eliminate(C, L_inv)--> capacitive couplers removed
    --coupler_kernel/schur_eliminate(L_inv, C)--> inductive couplers removed
    --extract_blocks--> dressed subsystem blocks and pairwise couplings

``reduce_network`` runs the rotation and both elimination passes. Both use
the sparsity that modular cells give the device matrices: the rotation is
read off the junction forest and applied by index products, and each
elimination solves the islands of its coupler block one at a time.

All functions are pure; returned dataclasses are frozen and safe to share
across threads or sweep workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
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
# Input matrices carry ~1e-3 relative extraction noise, so rank decisions
# must sit far above machine epsilon but far below physical couplings.
KERNEL_RTOL = 1e-9
# smallest/largest eigenvalue ratio below which a block is treated as singular
SINGULAR_RATIO = 1e-18


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MalformedMatrix(f"expected a square matrix, got shape {m.shape}")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix", rtol: float = SYMMETRY_RTOL) -> None:
    scale = np.max(np.abs(m)) or 1.0
    asym = np.max(np.abs(m - m.T))
    if asym > rtol * scale:
        raise MalformedMatrix(f"{name} is not symmetric (relative asymmetry {asym / scale:.3e})")


def check_psd(m: np.ndarray, name: str = "matrix", rtol: float = PSD_RTOL) -> None:
    """Raise unless ``m`` is positive semi-definite to ``rtol``. A Cholesky
    factorization accepts a positive definite matrix at a fraction of an
    eigensolve; only a matrix it rejects (singular or indefinite) pays for
    ``eigvalsh``, which decides the case and words the error."""
    if m.size == 0:
        return
    sym = _symmetrize(m)
    try:
        np.linalg.cholesky(sym)
        return
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(sym)
    largest = max(w[-1], 0.0) or 1.0
    if w[0] < -rtol * largest:
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
    """Device node bookkeeping: datum, subsystem/coupler partition, cells.

    Non-datum nodes are kept in lexicographic order so every matrix built on
    top of the registry has a deterministic, reproducible layout.
    """

    datum: str
    subsystem_names: tuple[str, ...]
    subsystem_nodes: tuple[frozenset[str], ...]
    couplers: frozenset[str]
    cell_of: Mapping[str, str]

    def __post_init__(self):
        if len(self.subsystem_names) != len(self.subsystem_nodes):
            raise MalformedPartition("subsystem name/node lists differ in length")
        if len(set(self.subsystem_names)) != len(self.subsystem_names):
            raise MalformedPartition("duplicate subsystem names")
        all_sets = list(self.subsystem_nodes) + [self.couplers]
        seen: set[str] = set()
        for s in all_sets:
            if self.datum in s:
                raise MalformedPartition(f"datum {self.datum!r} assigned to a partition set")
            overlap = seen & s
            if overlap:
                raise MalformedPartition(f"nodes assigned twice: {sorted(overlap)}")
            seen |= s
        missing = [n for n in seen if n not in self.cell_of]
        if missing:
            raise MalformedPartition(f"nodes without a cell: {sorted(missing)}")
        extra = [n for n in self.cell_of if n != self.datum and n not in seen]
        if extra:
            raise MalformedPartition(f"cell nodes not covered by any partition set: {sorted(extra)}")

    @property
    def nodes(self) -> tuple[str, ...]:
        """All non-datum nodes, lexicographically ordered."""
        named = set().union(*self.subsystem_nodes) if self.subsystem_nodes else set()
        return tuple(sorted(named | self.couplers))

    def subsystem_of(self, node: str) -> str | None:
        for name, nodes in zip(self.subsystem_names, self.subsystem_nodes):
            if node in nodes:
                return name
        return None

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

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(self.names) != m.shape[0]:
            raise DimensionMismatch(
                f"{len(self.names)} node names for a {m.shape[0]}x{m.shape[1]} matrix"
            )
        if len(set(self.names)) != len(self.names):
            raise MalformedMatrix("duplicate node names")
        check_symmetric(m, "Maxwell matrix")
        scale = np.max(np.abs(m)) or 1.0
        off = m - np.diag(np.diag(m))
        if np.any(off > 1e-12 * scale):
            i, j = np.unravel_index(np.argmax(off), off.shape)
            raise MalformedMatrix(
                f"positive off-diagonal entry at ({self.names[i]}, {self.names[j]}): {m[i, j]:.6g}"
            )
        sums = m.sum(axis=1)
        if np.any(sums < -1e-9 * scale):
            bad = [self.names[i] for i in np.nonzero(sums < -1e-9 * scale)[0]]
            raise MalformedMatrix(f"negative self-capacitance (row sum) at nodes {bad}")

    @property
    def size(self) -> int:
        return len(self.names)

    def self_capacitance(self, node: str) -> float:
        """Capacitance to infinity of ``node`` (its row sum)."""
        return float(self.matrix[self.names.index(node)].sum())


@dataclass(frozen=True)
class JunctionElement:
    """Non-linear inductive dipole across two nodes.

    ``kind`` selects the energy function: plain cosine with fixed Josephson
    energy, or a flux-tunable squid cosine whose effective energy follows the
    bias ``phi_ext``. ``lj`` is the linear-response inductance at the bias
    point and must satisfy lj = PHI_0**2 / ej_effective.
    """

    ident: str
    node_neg: str  # flux convention: phi_j = phi(node_pos) - phi(node_neg)
    node_pos: str
    subsystem: str
    kind: str = "cosine"
    ej: float = 0.0  # J; for kind="squid" this is the junction-sum energy
    asymmetry: float = 0.0  # squid junction asymmetry d in [0, 1)
    phi_ext: float = 0.0  # Wb
    cj: float = 0.0  # F
    lj: float | None = None  # H; derived from ej when omitted

    def __post_init__(self):
        if self.kind not in ("cosine", "squid"):
            raise MalformedPartition(f"unsupported junction kind {self.kind!r}")
        if self.node_neg == self.node_pos:
            raise MalformedPartition(f"junction {self.ident!r} terminals coincide")
        if self.cj < 0:
            raise MalformedMatrix(f"junction {self.ident!r} has negative capacitance")
        ej_eff = self.effective_ej()
        if ej_eff <= 0:
            raise MalformedMatrix(f"junction {self.ident!r} has non-positive Josephson energy")
        derived = PHI_0**2 / ej_eff
        if self.lj is None:
            object.__setattr__(self, "lj", derived)
        elif abs(self.lj - derived) > 1e-9 * derived:
            raise MalformedMatrix(
                f"junction {self.ident!r}: lj={self.lj:.12e} inconsistent with "
                f"energy function (expected {derived:.12e})"
            )

    def effective_ej(self) -> float:
        """Josephson energy at the bias point, joules."""
        if self.kind == "cosine":
            return self.ej
        x = np.pi * self.phi_ext / (2 * np.pi * PHI_0)  # phi_ext / flux quantum
        return self.ej * float(np.sqrt(np.cos(x) ** 2 + self.asymmetry**2 * np.sin(x) ** 2))

    def energy(self, phi: float) -> float:
        """Inductive energy at junction flux ``phi`` (Wb)."""
        return -self.effective_ej() * float(np.cos(phi / PHI_0))

    @classmethod
    def from_inductance(cls, ident, node_neg, node_pos, subsystem, lj, cj=0.0):
        return cls(ident, node_neg, node_pos, subsystem, ej=PHI_0**2 / lj, cj=cj)


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
        check_symmetric(c, f"cell {self.ident!r} capacitance")
        check_symmetric(li, f"cell {self.ident!r} inverse inductance")
        check_psd(c, f"cell {self.ident!r} capacitance")


@dataclass(frozen=True)
class CompositeNetlist:
    """Assembled device-level matrices in the node-to-datum flux basis."""

    registry: NodeRegistry
    c_mat: np.ndarray
    l_inv: np.ndarray
    junctions: tuple[JunctionElement, ...]

    def __post_init__(self):
        check_symmetric(self.c_mat, "composite capacitance")
        check_symmetric(self.l_inv, "composite inverse inductance")
        check_psd(self.c_mat, "composite capacitance")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.registry.nodes


@dataclass(frozen=True)
class ReductionRecord:
    """Transformations applied on the way to the reduced basis."""

    # junction-basis capacitance before elimination, restricted to the
    # retained coordinates in ReducedCircuit.labels order
    c_rotated: np.ndarray
    eliminated: tuple[str, ...]  # coupler coordinates removed, first pass first


@dataclass(frozen=True)
class ReducedCircuit:
    """Constraint-eliminated circuit: retained coordinates, reduced matrices,
    and the subsystem block index maps.

    ``l_inv_prime`` has every junction's linear inductance subtracted from its
    diagonal entry, so the junction energy can enter through its full
    non-linear form downstream.
    """

    labels: tuple[str, ...]  # junction fluxes first
    c_mat: np.ndarray
    l_inv: np.ndarray
    l_inv_prime: np.ndarray
    block_index: Mapping[str, tuple[int, ...]]
    junction_index: Mapping[str, int]
    junctions: tuple[JunctionElement, ...]
    record: ReductionRecord

    def __post_init__(self):
        check_symmetric(self.c_mat, "reduced capacitance")
        check_psd(self.c_mat, "reduced capacitance")
        w = np.linalg.eigvalsh(self.c_mat)
        if w[0] <= SINGULAR_RATIO * w[-1]:
            raise IllConditionedMatrix(
                f"reduced capacitance matrix is numerically singular "
                f"(eigenvalue ratio {w[0] / w[-1]:.3e})"
            )
        for j in self.junctions:
            if j.ident not in self.labels:
                raise MalformedPartition(f"junction flux {j.ident!r} was eliminated")
        covered = sorted(i for idx in self.block_index.values() for i in idx)
        if covered != list(range(len(self.labels))):
            raise MalformedPartition("block index maps do not partition the retained coordinates")

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def reduce_maxwell(m: MaxwellMatrix, datum: str) -> CellMatrices:
    """Fold the Maxwell matrix to the node-to-datum basis by deleting the
    datum row and column; remaining node order is preserved."""
    if datum not in m.names:
        raise UnknownDatum(f"datum {datum!r} not among nodes {list(m.names)}")
    keep = [i for i, n in enumerate(m.names) if n != datum]
    nodes = tuple(m.names[i] for i in keep)
    c = m.matrix[np.ix_(keep, keep)].copy()
    return CellMatrices(ident="maxwell", nodes=nodes, c_mat=c, l_inv=np.zeros_like(c))


def merge_maxwell_nodes(m: MaxwellMatrix, merge: Iterable[str], into: str) -> MaxwellMatrix:
    """Merge grounded islands into a single net by summing their rows and
    columns; mutuals internal to the merged group vanish."""
    merge = [n for n in merge if n != into]
    for n in merge:
        if n not in m.names:
            raise UnknownNode(f"cannot merge unknown node {n!r}")
    if into not in m.names:
        raise UnknownNode(f"merge target {into!r} not present")
    keep = [n for n in m.names if n not in merge]
    idx = {n: i for i, n in enumerate(m.names)}
    groups = [[idx[n]] + ([idx[g] for g in merge] if n == into else []) for n in keep]
    out = np.zeros((len(keep), len(keep)))
    for a, ga in enumerate(groups):
        for b, gb in enumerate(groups):
            out[a, b] = m.matrix[np.ix_(ga, gb)].sum()
    np.fill_diagonal(out, np.diag(out))
    return MaxwellMatrix(names=tuple(keep), matrix=_symmetrize(out), display_units=m.display_units)


def _stamp_two_terminal(mat: np.ndarray, index: Mapping[str, int], datum: str,
                        n1: str, n2: str, value: float) -> None:
    """Add a two-terminal element of nodal value ``value`` across (n1, n2);
    a datum terminal contributes only to the other node's diagonal."""
    for n in (n1, n2):
        if n != datum and n not in index:
            raise UnknownNode(f"element terminal {n!r} is not a registry node")
    if n1 != datum and n2 != datum:
        i, j = index[n1], index[n2]
        mat[i, i] += value
        mat[j, j] += value
        mat[i, j] -= value
        mat[j, i] -= value
    elif n1 != datum:
        mat[index[n1], index[n1]] += value
    elif n2 != datum:
        mat[index[n2], index[n2]] += value


def compose_cells(cells: Sequence[CellMatrices], registry: NodeRegistry) -> CompositeNetlist:
    """Scatter-add cell matrices into the global node order and stamp each
    junction's intrinsic capacitance and linear inductance across its
    terminal pair."""
    nodes = registry.nodes
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    c = np.zeros((n, n))
    l_inv = np.zeros((n, n))
    junctions: list[JunctionElement] = []
    for cell in cells:
        rows = []
        for node in cell.nodes:
            if node not in index:
                raise UnknownNode(f"cell {cell.ident!r} node {node!r} not in registry")
            rows.append(index[node])
        ij = np.ix_(rows, rows)
        c[ij] += cell.c_mat
        l_inv[ij] += cell.l_inv
        junctions.extend(cell.junctions)
    for j in junctions:
        _stamp_two_terminal(c, index, registry.datum, j.node_neg, j.node_pos, j.cj)
        _stamp_two_terminal(l_inv, index, registry.datum, j.node_neg, j.node_pos, 1.0 / j.lj)
    return CompositeNetlist(registry=registry, c_mat=_symmetrize(c),
                            l_inv=_symmetrize(l_inv), junctions=tuple(junctions))


def _junction_pivots(net: CompositeNetlist) -> dict[str, tuple[str, str]]:
    """Assign each junction the node coordinate its flux will replace.

    The junction graph must be a forest (no flux loops). Each tree is rooted
    at the datum when present, else at a coupler node, else at the
    lexicographically smallest node, and every edge consumes its endpoint
    farther from the root. Rooting away from couplers keeps coupler node
    fluxes available for the later constraint elimination.

    Returns {junction: (parent, pivot)} in breadth-first order, so every
    parent is settled before the pivot node below it.
    """
    datum = net.registry.datum
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for j in net.junctions:
        adjacency.setdefault(j.node_neg, []).append((j.node_pos, j.ident))
        adjacency.setdefault(j.node_pos, []).append((j.node_neg, j.ident))

    pivots: dict[str, tuple[str, str]] = {}
    visited: set[str] = set()
    components: list[list[str]] = []
    for start in sorted(adjacency):
        if start in visited:
            continue
        comp = [start]
        visited.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v, _ in adjacency[u]:
                if v not in visited:
                    visited.add(v)
                    comp.append(v)
                    queue.append(v)
        components.append(sorted(comp))

    for comp in components:
        if datum in comp:
            root = datum
        else:
            coupler = [n for n in comp if net.registry.is_coupler(n)]
            root = coupler[0] if coupler else comp[0]
        seen_edges: set[str] = set()
        seen_nodes = {root}
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


def _congruence(m: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> np.ndarray:
    """s.T @ m @ s for a symmetric m and the s with entries s[rows, cols] =
    vals, sorted by column with every column occupied.

    A column of s with one nonzero (nearly all of them) makes its row and
    column of the result a signed gather of m; only the few deeper columns
    are summed over their nonzeros.
    """
    counts = np.bincount(cols, minlength=m.shape[0])
    first = np.cumsum(counts) - counts
    sign, pick = vals[first], rows[first]
    out = sign[:, None] * m[np.ix_(pick, pick)] * sign
    deep = np.flatnonzero(counts > 1)
    if deep.size:
        spans = [slice(first[k], first[k] + counts[k]) for k in deep]
        ms = np.stack([(m[:, rows[g]] * vals[g]).sum(axis=1) for g in spans], axis=1)
        block = sign[:, None] * ms[pick]  # s.T @ m @ s[:, deep]
        block[deep] = [(vals[g, None] * ms[rows[g]]).sum(axis=0) for g in spans]
        out[:, deep] = block
        out[deep, :] = block.T
    return _symmetrize(out)


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
    pivots = _junction_pivots(net)
    consumed = {pivot for _, pivot in pivots.values()}
    labels = [j.ident for j in net.junctions] + [n for n in nodes if n not in consumed]
    column = {label: k for k, label in enumerate(labels)}

    # rows of s_n as {column: +-1}
    s_rows: dict[str, dict[int, int]] = {datum: {}}
    s_rows.update((n, {column[n]: 1}) for n in nodes if n not in consumed)
    junction_by_id = {j.ident: j for j in net.junctions}
    for ident, (parent, pivot) in pivots.items():
        sign = 1 if pivot == junction_by_id[ident].node_pos else -1
        s_rows[pivot] = {**s_rows[parent], column[ident]: sign}

    # t, the inverse of s_n, maps node fluxes to the rotated coordinates:
    # its row k is e_pos - e_neg for a junction and e_node for a kept node
    t_rows = [(j.node_pos, j.node_neg) for j in net.junctions]
    t_rows += [(n, datum) for n in labels[len(net.junctions):]]
    for k, (pos, neg) in enumerate(t_rows):
        product = dict(s_rows[pos])
        for col, v in s_rows[neg].items():
            product[col] = product.get(col, 0) - v
        if {col: v for col, v in product.items() if v} != {k: 1}:
            raise DependentJunctionLoop("junction basis transformation is not invertible")

    node_index = {node: i for i, node in enumerate(nodes)}
    entries = sorted((col, node_index[node], v)
                     for node in nodes for col, v in s_rows[node].items())
    cols, rows, vals = np.array(entries, dtype=int).reshape(-1, 3).T
    vals = vals.astype(float)
    n = len(nodes)
    s_n = np.zeros((n, n))
    s_n[rows, cols] = vals
    c = _congruence(net.c_mat, rows, cols, vals)
    l_inv = _congruence(net.l_inv, rows, cols, vals)
    return c, l_inv, tuple(labels), s_n


def coupler_class_warnings(
    c_mat: np.ndarray,
    l_inv: np.ndarray,
    labels: Sequence[str],
    registry: NodeRegistry,
) -> list[str]:
    """Check the non-dynamical sufficiency condition for every declared
    coupler coordinate (touched by one element class only) and warn on
    failures. Runs in the junction basis: a junction's inductance belongs to
    its own flux coordinate, not to the terminal pads it spans."""
    messages = []
    index = {lab: i for i, lab in enumerate(labels)}
    c_scale = np.max(np.abs(c_mat)) or 1.0
    l_scale = np.max(np.abs(l_inv)) or 1.0
    # couplers consumed by a junction pivot have no coordinate left
    present = [node for node in sorted(registry.couplers) if node in index]
    idx = [index[node] for node in present]
    touched_c = np.max(np.abs(c_mat[idx]), axis=1, initial=0.0) > 1e-14 * c_scale
    touched_l = np.max(np.abs(l_inv[idx]), axis=1, initial=0.0) > 1e-14 * l_scale
    for node, both in zip(present, touched_c & touched_l):
        if not both:
            continue
        msg = (
            f"coupler node {node!r} is touched by both capacitive and inductive "
            "elements; only verified kernel directions will be eliminated"
        )
        warnings.warn(msg)
        messages.append(msg)
    return messages


def coupler_kernel(mat: np.ndarray, labels: Sequence[str], registry: NodeRegistry) -> list[int]:
    """Indices of the declared coupler coordinates that lie in ker(mat).

    Subsystem-owned kernel directions (for instance the uniform mode of an
    open-ended line) are never candidates.
    """
    candidates = [i for i, lab in enumerate(labels) if registry.is_coupler(lab)]
    # ||mat||_2 equals the 2-norm of its block on the nonzero rows and columns
    rows = np.flatnonzero(np.any(mat, axis=1))
    cols = np.flatnonzero(np.any(mat, axis=0))
    scale = np.linalg.norm(mat[np.ix_(rows, cols)], 2) if rows.size else 0.0
    if scale == 0.0:
        return candidates
    norms = np.linalg.norm(mat[:, candidates], axis=0)
    return [i for i, norm in zip(candidates, norms) if norm <= KERNEL_RTOL * scale]


def _islands(block: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of a square block, each in
    ascending index order, listed by their smallest index."""
    n = block.shape[0]
    rows, cols = np.nonzero((block != 0) | (block.T != 0))
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    island_of = [-1] * n
    islands = []
    for seed in range(n):
        if island_of[seed] >= 0:
            continue
        island_of[seed] = len(islands)
        members, stack = [seed], [seed]
        while stack:
            u = stack.pop()
            for v in cols[starts[u]:starts[u + 1]]:
                if island_of[v] < 0:
                    island_of[v] = island_of[seed]
                    members.append(v)
                    stack.append(v)
        islands.append(np.sort(members))
    return islands


def schur_eliminate(
    schur: np.ndarray,
    other: np.ndarray,
    eliminate: Sequence[int],
    block: str,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Eliminate the ``eliminate`` coordinates: take the Schur complement of
    the ``schur`` quadratic form onto the kept coordinates and restrict
    ``other`` to them. ``block`` names the Schur block in the error raised
    when it is singular.

    The eliminated block is split into the islands of its nonzero pattern
    (couplers of different cells share no entries); each island is tested
    and solved on its own, and the singularity test compares the smallest
    eigenvalue of all islands with the largest.

    Returns (schur_reduced, other_reduced, keep), keep in ascending order.
    """
    r = np.asarray(eliminate, dtype=int)
    dropped = set(eliminate)
    keep = [i for i in range(schur.shape[0]) if i not in dropped]
    kk = np.ix_(keep, keep)
    if r.size == 0:
        return schur[kk], other[kk], keep
    islands = [r[island] for island in _islands(schur[np.ix_(r, r)])]
    spectra = [np.linalg.eigvalsh(_symmetrize(schur[np.ix_(rc, rc)])) for rc in islands]
    lowest = min(w[0] for w in spectra)
    highest = max(w[-1] for w in spectra)
    if lowest <= SINGULAR_RATIO * max(highest, 0.0) or highest <= 0.0:
        raise SingularCouplerBlock(
            f"coupler {block} block is numerically singular; an eliminated "
            f"coupler island is not connected through the {block} matrix"
        )
    reduced = schur[kk]
    for rc in islands:
        kr = schur[np.ix_(keep, rc)]
        reduced -= kr @ np.linalg.solve(schur[np.ix_(rc, rc)], kr.T)
    return _symmetrize(reduced), other[kk], keep


def reduce_network(net: CompositeNetlist) -> ReducedCircuit:
    """Rotate to the junction basis, then eliminate the coupler coordinates
    in two passes: those in ker(L_inv) by a Schur complement of C, then
    those in ker(C) by a Schur complement of L_inv."""
    c, l_inv, labels, _ = rotate_to_junction_basis(net)
    coupler_class_warnings(c, l_inv, labels, net.registry)

    first = coupler_kernel(l_inv, labels, net.registry)
    c1, l1, keep1 = schur_eliminate(c, l_inv, first, "capacitance")
    labels1 = [labels[i] for i in keep1]
    second = coupler_kernel(c1, labels1, net.registry)
    l2, c2, keep2 = schur_eliminate(l1, c1, second, "inverse inductance")
    labels2 = tuple(labels1[i] for i in keep2)
    eliminated = tuple(labels[i] for i in first) + tuple(labels1[i] for i in second)

    leftovers = [lab for lab in labels2 if net.registry.is_coupler(lab)]
    if leftovers:
        raise NonNullDirection(
            f"coupler coordinates {leftovers} lie in neither kernel space; "
            "declare them as subsystem nodes or fix the element classes touching them"
        )

    junction_index = {}
    block_lists: dict[str, list[int]] = {name: [] for name in net.registry.subsystem_names}
    junction_by_id = {j.ident: j for j in net.junctions}
    for i, lab in enumerate(labels2):
        if lab in junction_by_id:
            junction_index[lab] = i
            block_lists[junction_by_id[lab].subsystem].append(i)
        else:
            block_lists[net.registry.subsystem_of(lab)].append(i)

    l_prime = l2.copy()
    for j in net.junctions:
        k = junction_index[j.ident]
        l_prime[k, k] -= 1.0 / j.lj

    retained = [keep1[i] for i in keep2]
    record = ReductionRecord(c_rotated=c[np.ix_(retained, retained)], eliminated=eliminated)
    return ReducedCircuit(
        labels=labels2, c_mat=c2, l_inv=l2, l_inv_prime=l_prime,
        block_index={k: tuple(v) for k, v in block_lists.items()},
        junction_index=junction_index, junctions=net.junctions, record=record,
    )


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitBlocks:
    """Dressed subsystem blocks of the inverted reduced matrices.

    Diagonal entries of ``c_inv`` give 1/C_eff for single-coordinate ports
    (the dressed junction or line-loading capacitances). Off-diagonal pair
    couplings carry a factor of two relative to the raw inverse entries, so
    1/C_nm_eff = 2 * c_inv[n, m]; the Hamiltonian assembly must weight each
    unordered pair term by half of that to reproduce the quadratic form.
    """

    labels: tuple[str, ...]
    c_inv: np.ndarray
    l_inv_prime: np.ndarray
    block_index: Mapping[str, tuple[int, ...]]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def c_eff(self, label: str) -> float:
        """Dressed effective capacitance of a single retained coordinate."""
        i = self.index_of(label)
        return 1.0 / self.c_inv[i, i]

    def inv_c_coupling(self, label_a: str, label_b: str) -> float:
        """1/C_nm_eff between two retained coordinates (pair-reported with the
        factor-two convention; see the class docstring)."""
        i, j = self.index_of(label_a), self.index_of(label_b)
        if i == j:
            raise DimensionMismatch("pair coupling requires two distinct coordinates")
        return 2.0 * self.c_inv[i, j]

    def inv_l_coupling(self, label_a: str, label_b: str) -> float:
        i, j = self.index_of(label_a), self.index_of(label_b)
        if i == j:
            raise DimensionMismatch("pair coupling requires two distinct coordinates")
        return 2.0 * self.l_inv_prime[i, j]


def extract_blocks(rc: ReducedCircuit, c_inv: np.ndarray | None = None) -> CircuitBlocks:
    """Partition the inverted capacitance and reduced inverse inductance into
    per-subsystem diagonal blocks and scaled pairwise couplings."""
    if c_inv is None:
        c_inv = np.linalg.inv(rc.c_mat)
    c_inv = _symmetrize(np.asarray(c_inv, dtype=float))
    if c_inv.shape != rc.c_mat.shape:
        raise DimensionMismatch("inverted matrix shape does not match the reduced circuit")
    return CircuitBlocks(
        labels=rc.labels, c_inv=c_inv, l_inv_prime=rc.l_inv_prime,
        block_index=rc.block_index,
    )
