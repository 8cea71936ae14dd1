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

Cells are small and stay dense. The device is their union, so its
matrices are almost empty: from ``compose_cells`` through the rotation to
the first elimination pass, C and L_inv are ``scipy.sparse`` CSR arrays.
That pass keeps only the few subsystem coordinates, so it returns them as
small dense arrays, and the second pass and ``ReducedCircuit`` work on
those. Every stage reads a matrix, dense or CSR, as the (rows, cols, vals)
index arrays of its nonzero entries and builds each result matrix once: the
rotation is read off the junction forest and applied as a sparse
congruence, and each elimination solves the islands of its coupler block
one at a time, as small dense blocks. Whether a coupler block is singular
is decided from its Gershgorin bounds where they suffice, and from the
spectra of its islands only where they do not.

All functions are pure; returned dataclasses are frozen and safe to share
across threads or sweep workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy import constants
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

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


def check_symmetric(m, name: str = "matrix", rtol: float = SYMMETRY_RTOL) -> None:
    """Raise unless the dense or sparse ``m`` is symmetric to ``rtol``."""
    if sp.issparse(m):
        rows, cols, vals = _coo(m)
        diff = _add_up(np.concatenate((rows, cols)), np.concatenate((cols, rows)),
                       np.concatenate((vals, -vals)), m.shape[0])[2]
    else:
        vals, diff = m, m - m.T
    scale = np.abs(vals).max(initial=0.0) or 1.0
    asym = np.abs(diff).max(initial=0.0)
    if asym > rtol * scale:
        raise MalformedMatrix(f"{name} is not symmetric (relative asymmetry {asym / scale:.3e})")


def check_psd(m, name: str = "matrix", rtol: float = PSD_RTOL) -> None:
    """Raise unless the dense or sparse ``m`` is positive semi-definite to
    ``rtol``. A factorization that succeeds only on a positive definite
    matrix accepts it at a fraction of an eigensolve; only a matrix it
    rejects (singular or indefinite) pays for a dense ``eigvalsh``, which
    decides the case and words the error."""
    if m.shape[0] == 0 or _positive_definite(m):
        return
    # every full spectrum here is divide and conquer (dsyevd), as in numpy's eigvalsh
    w = scipy.linalg.eigvalsh(_symmetrize(m.toarray() if sp.issparse(m) else m), driver="evd")
    largest = max(w[-1], 0.0) or 1.0
    if w[0] < -rtol * largest:
        raise MalformedMatrix(
            f"{name} is not positive semi-definite (min/max eigenvalue {w[0]:.3e}/{largest:.3e})"
        )


def _positive_definite(m) -> bool:
    """Cholesky for a dense matrix. A sparse one is factored as P A P^T = L U
    with diagonal pivots only; then U's diagonal is the D of an LDL^T
    factorization, and by Sylvester's law of inertia A is positive definite
    exactly when every pivot is positive."""
    try:
        if not sp.issparse(m):
            scipy.linalg.cholesky(_symmetrize(m), lower=True)
            return True
        # the CSC transpose of a symmetric CSR matrix is the matrix itself
        lu = splu(m.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except (np.linalg.LinAlgError, RuntimeError):  # not positive definite / exactly singular
        return False
    return np.array_equal(lu.perm_r, lu.perm_c) and bool(np.all(lu.U.diagonal() > 0.0))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# matrices as index arrays
# ---------------------------------------------------------------------------

def _coo(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the nonzero entries of a dense array or a
    canonical CSR array, in row-major order; stored zeros are skipped."""
    if not sp.issparse(m):
        rows, cols = np.nonzero(m)
        return rows, cols, m[rows, cols]
    rows = np.arange(m.shape[0]).repeat(m.indptr[1:] - m.indptr[:-1])
    nonzero = m.data != 0
    return rows[nonzero], m.indices[nonzero].astype(np.intp), m.data[nonzero]


def _from_coo(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_array:
    """The n x n CSR array of distinct (rows, cols, vals) entries listed in
    row-major order."""
    return sp.csr_array((vals, cols, rows.searchsorted(np.arange(n + 1))), shape=(n, n))


def _add_up(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (rows, cols, sums) in row-major order of the n x n matrix
    whose entries are the sums of the (rows, cols, vals) triplets;
    duplicates add in the order listed, as a dense scatter-add would. The
    sums are float even for no triplets, where ``bincount`` gives int64."""
    keys = rows.astype(np.int64) * n + cols
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    sums = np.bincount(first.cumsum() - 1, weights=vals[order]).astype(float, copy=False)
    keys = keys[first]
    return keys // n, keys % n, sums


def _symmetric_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_array:
    """The symmetric part 0.5 (M + M^T), as CSR, of the n x n matrix M whose
    entries are the sums of the (rows, cols, vals) triplets; entries that
    add to zero are dropped. Halving is exact, so 0.5 M[i, j] + 0.5 M[j, i]
    equals 0.5 (M[i, j] + M[j, i]) bit for bit."""
    rows, cols, vals = _add_up(rows, cols, vals, n)
    half = 0.5 * vals
    rows, cols, sym = _add_up(np.concatenate((rows, cols)), np.concatenate((cols, rows)),
                              np.concatenate((half, half)), n)
    nonzero = sym != 0
    return _from_coo(rows[nonzero], cols[nonzero], sym[nonzero], n)


def _times(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
           s: sp.csr_array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsummed triplets of A @ s for the A with entries (rows, cols, vals):
    entry A[i, j] contributes A[i, j] s[j, b] to (i, b) for each nonzero of
    row j of s, listed in A's order."""
    count = (s.indptr[1:] - s.indptr[:-1])[cols]
    entry = np.arange(rows.size).repeat(count)
    at = s.indptr[cols[entry]] + np.arange(entry.size) - (count.cumsum() - count).repeat(count)
    return rows[entry], s.indices[at].astype(np.intp), vals[entry] * s.data[at]


def _dense_block(m, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """m[np.ix_(rows, cols)] of a dense or CSR ``m`` as a dense array, for
    distinct rows and cols."""
    row_at = np.zeros(m.shape[0], dtype=np.intp) - 1
    col_at = np.zeros(m.shape[1], dtype=np.intp) - 1
    row_at[rows] = np.arange(len(rows))
    col_at[cols] = np.arange(len(cols))
    r, c, vals = _coo(m)
    r, c = row_at[r], col_at[c]
    inside = (r >= 0) & (c >= 0)
    out = np.zeros((len(rows), len(cols)))
    out[r[inside], c[inside]] = vals[inside]
    return out


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
        check_symmetric(c, f"cell {self.ident!r} capacitance")
        check_symmetric(li, f"cell {self.ident!r} inverse inductance")
        check_psd(c, f"cell {self.ident!r} capacitance")


@dataclass(frozen=True)
class CompositeNetlist:
    """Assembled device-level matrices in the node-to-datum flux basis, held
    as sparse CSR arrays (dense input is converted)."""

    registry: NodeRegistry
    c_mat: sp.csr_array
    l_inv: sp.csr_array
    junctions: tuple[JunctionElement, ...]

    def __post_init__(self):
        for name in ("c_mat", "l_inv"):
            m = getattr(self, name)
            if not isinstance(m, sp.csr_array) or m.dtype != np.float64:
                m = sp.csr_array(m, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise MalformedMatrix(f"expected a square matrix, got shape {m.shape}")
            m.sum_duplicates()  # canonical form: sorted column indices, no duplicates
            object.__setattr__(self, name, m)
        check_symmetric(self.c_mat, "composite capacitance")
        check_symmetric(self.l_inv, "composite inverse inductance")
        check_psd(self.c_mat, "composite capacitance")
        for j in self.junctions:
            if j.subsystem not in self.registry.subsystems:
                raise MalformedPartition(
                    f"junction {j.ident!r} names no subsystem: {j.subsystem!r}")

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
        check_psd(self.c_mat, "reduced capacitance")
        w = scipy.linalg.eigvalsh(self.c_mat, driver="evd")
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

def reduce_maxwell(m: MaxwellMatrix, datum: str, ident: str) -> CellMatrices:
    """Fold the Maxwell matrix to the node-to-datum basis of cell ``ident`` by
    deleting the datum row and column; remaining node order is preserved."""
    if datum not in m.names:
        raise UnknownDatum(f"datum {datum!r} not among nodes {list(m.names)}")
    keep = [i for i, n in enumerate(m.names) if n != datum]
    nodes = tuple(m.names[i] for i in keep)
    c = m.matrix[np.ix_(keep, keep)].copy()
    return CellMatrices(ident=ident, nodes=nodes, c_mat=c, l_inv=np.zeros_like(c))


def merge_maxwell_nodes(m: MaxwellMatrix, merge: Iterable[str], into: str) -> MaxwellMatrix:
    """Merge grounded islands into a single net by summing their rows and
    columns; mutuals internal to the merged group vanish. Each entry is
    scatter-added to the entry of its row's and its column's groups."""
    merge = [n for n in merge if n != into]
    for n in merge:
        if n not in m.names:
            raise UnknownNode(f"cannot merge unknown node {n!r}")
    if into not in m.names:
        raise UnknownNode(f"merge target {into!r} not present")
    merged = set(merge)
    keep = [n for n in m.names if n not in merged]
    position = {n: a for a, n in enumerate(keep)}
    group = np.array([position[into if n in merged else n] for n in m.names], dtype=np.intp)
    k = len(keep)
    out = np.bincount((group[:, None] * k + group).ravel(), weights=m.matrix.ravel(),
                      minlength=k * k).reshape(k, k)
    return MaxwellMatrix(names=tuple(keep), matrix=_symmetrize(out), display_units=m.display_units)


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
    """Scatter-add cell matrices into the global node order and stamp each
    junction's intrinsic capacitance C_J across its terminal pair; its L_j
    stays out of L_inv. Each device matrix is built once, as sparse CSR,
    from the entries of all cells and stamps.

    Every cell node must be a registry node, and every registry node must
    lie in a cell."""
    nodes = registry.nodes
    index = {n: i for i, n in enumerate(nodes)}
    in_cell = np.zeros(len(nodes), dtype=bool)
    rows, cols, c_vals, l_vals = [], [], [], []
    junctions: list[JunctionElement] = []
    for cell in cells:
        unknown = [node for node in cell.nodes if node not in index]
        if unknown:
            raise UnknownNode(f"cell {cell.ident!r} nodes not in the registry: {unknown}")
        at = np.array([index[node] for node in cell.nodes], dtype=np.intp)
        in_cell[at] = True
        r, k = np.nonzero((cell.c_mat != 0) | (cell.l_inv != 0))
        rows.append(at[r])
        cols.append(at[k])
        c_vals.append(cell.c_mat[r, k])
        l_vals.append(cell.l_inv[r, k])
        junctions.extend(cell.junctions)
    missing = [nodes[i] for i in (~in_cell).nonzero()[0]]
    if missing:
        raise MalformedPartition(f"nodes without a cell: {missing}")
    stamps = np.array([(i, k, sign * j.cj)
                       for j in junctions
                       for i, k, sign in _two_terminal_stamp(index, registry.datum,
                                                             j.node_neg, j.node_pos)]).reshape(-1, 3)
    rows = np.concatenate([*rows, stamps[:, 0].astype(np.intp)])
    cols = np.concatenate([*cols, stamps[:, 1].astype(np.intp)])
    n = len(nodes)
    return CompositeNetlist(
        registry=registry,
        c_mat=_symmetric_csr(rows, cols, np.concatenate([*c_vals, stamps[:, 2]]), n),
        l_inv=_symmetric_csr(rows, cols, np.concatenate([*l_vals, np.zeros(len(stamps))]), n),
        junctions=tuple(junctions),
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


def _sparse_congruence(m: sp.csr_array, s: sp.csr_array) -> sp.csr_array:
    """s.T @ m @ s for a symmetric m, as two products on index arrays: t =
    m @ s, then (s.T @ t).T = t.T @ s, each entry summed over rising node
    index. A row of s with one nonzero (nearly all of them) makes this a
    signed gather of m."""
    n = s.shape[1]
    rows, cols, vals = _add_up(*_times(*_coo(m), s), n)
    return _symmetric_csr(*_times(cols, rows, vals, s), n)


def rotate_to_junction_basis(
    net: CompositeNetlist,
) -> tuple[sp.csr_array, sp.csr_array, tuple[str, ...], sp.csr_array]:
    """Rotate the node-flux basis so every junction flux phi_j = phi(n2) -
    phi(n1) is an explicit coordinate, listed first.

    Returns (C, L_inv, labels, s_n) with C = s_n.T @ C_n @ s_n and
    L_inv = s_n.T @ L_inv_n @ s_n, all sparse CSR; s_n is integer-valued and
    invertible.

    s_n is read off the junction forest: a node that keeps its own
    coordinate has a unit row, and each pivot node's row is its parent's row
    plus or minus its junction's coordinate (the datum's row is zero). The
    unit rows are index arrays; only the pivot rows are built one by one.
    """
    nodes = net.labels
    datum = net.registry.datum
    index = {node: i for i, node in enumerate(nodes)}
    pivots = _junction_pivots(net)
    kept = np.ones(len(nodes), dtype=bool)
    kept[[index[pivot] for _, pivot in pivots.values()]] = False
    kept_rows = kept.nonzero()[0]
    unit_column = len(net.junctions) + kept.cumsum() - 1  # column of a kept node's unit row
    labels = [j.ident for j in net.junctions] + [nodes[i] for i in kept_rows]

    # the pivot rows of s_n, as {column: +-1}
    pivot_rows: dict[str, dict[int, int]] = {}

    def s_row(node: str) -> dict[int, int]:
        if node == datum:
            return {}
        if node in pivot_rows:
            return pivot_rows[node]
        return {int(unit_column[index[node]]): 1}

    junction_by_id = {j.ident: j for j in net.junctions}
    column = {j.ident: k for k, j in enumerate(net.junctions)}
    for ident, (parent, pivot) in pivots.items():
        sign = 1 if pivot == junction_by_id[ident].node_pos else -1
        pivot_rows[pivot] = {**s_row(parent), column[ident]: sign}

    # t, the inverse of s_n, maps node fluxes to the rotated coordinates:
    # its row k is e_pos - e_neg for a junction and e_node for a kept node.
    # (t s_n) is the identity on a kept node's row by construction, so only
    # the junction rows are checked.
    for k, j in enumerate(net.junctions):
        product = dict(s_row(j.node_pos))
        for col, v in s_row(j.node_neg).items():
            product[col] = product.get(col, 0) - v
        if {col: v for col, v in product.items() if v} != {k: 1}:
            raise DependentJunctionLoop("junction basis transformation is not invertible")

    entries = [(index[node], col, v) for node, row in pivot_rows.items() for col, v in row.items()]
    rows, cols, vals = np.array(entries, dtype=np.intp).reshape(-1, 3).T
    rows = np.concatenate((rows, kept_rows))
    cols = np.concatenate((cols, unit_column[kept_rows]))
    vals = np.concatenate((vals, np.ones(kept_rows.size, dtype=np.intp)))
    order = np.lexsort((cols, rows))  # row-major
    s_n = _from_coo(rows[order], cols[order], vals[order].astype(float), len(nodes))
    c = _sparse_congruence(net.c_mat, s_n)
    l_inv = _sparse_congruence(net.l_inv, s_n)
    return c, l_inv, tuple(labels), s_n


def coupler_class_warnings(c_mat, l_inv, labels: Sequence[str],
                           registry: NodeRegistry) -> list[str]:
    """Check the non-dynamical sufficiency condition for every declared
    coupler coordinate (touched by one element class only) and warn on
    failures. Runs in the junction basis: a junction's inductance belongs to
    its own flux coordinate, not to the terminal pads it spans. The matrices
    may be dense or CSR."""
    def touched(m) -> np.ndarray:
        rows, _, vals = _coo(m)
        vals = np.abs(vals)
        hit = np.zeros(len(labels), dtype=bool)
        hit[rows[vals > 1e-14 * (vals.max(initial=0.0) or 1.0)]] = True
        return hit

    messages = []
    index = {lab: i for i, lab in enumerate(labels)}
    # couplers consumed by a junction pivot have no coordinate left
    present = [node for node in sorted(registry.couplers) if node in index]
    idx = [index[node] for node in present]
    for node, both in zip(present, (touched(c_mat) & touched(l_inv))[idx]):
        if not both:
            continue
        msg = (
            f"coupler node {node!r} is touched by both capacitive and inductive "
            "elements; only verified kernel directions will be eliminated"
        )
        warnings.warn(msg)
        messages.append(msg)
    return messages


def coupler_kernel(mat, labels: Sequence[str], registry: NodeRegistry) -> list[int]:
    """Indices of the declared coupler coordinates that lie in ker(mat), for
    a dense or CSR ``mat``.

    Subsystem-owned kernel directions (for instance the uniform mode of an
    open-ended line) are never candidates.
    """
    candidates = [i for i, lab in enumerate(labels) if registry.is_coupler(lab)]
    rows, cols, vals = _coo(mat)
    if not candidates or not vals.size:
        return candidates
    # ||mat||_2, the largest singular value, equals that of its block on the
    # nonzero rows and columns
    occupied = np.zeros((2, mat.shape[0]), dtype=bool)
    occupied[0, rows] = occupied[1, cols] = True
    block = _dense_block(mat, occupied[0].nonzero()[0], occupied[1].nonzero()[0])
    scale = scipy.linalg.svdvals(block)[0]
    norms = np.sqrt(np.bincount(cols, weights=vals * vals, minlength=mat.shape[1]))
    return [i for i in candidates if norms[i] <= KERNEL_RTOL * scale]


def schur_eliminate(
    schur,
    other,
    eliminate: Sequence[int],
    block: str,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Eliminate the ``eliminate`` coordinates: take the Schur complement of
    the ``schur`` quadratic form onto the kept coordinates and restrict
    ``other`` to them. Both matrices may be dense or CSR; the results are
    dense, since few coordinates are kept. ``block`` names the Schur block
    in the error raised when it is singular.

    The eliminated block is split into the islands of its nonzero pattern
    (couplers of different cells share no entries); each island is solved
    on its own as a dense block, and its update reaches only the kept rows
    that touch it; the updates are subtracted in island order.

    The block is singular when its smallest eigenvalue, over all islands,
    is at most ``SINGULAR_RATIO`` times its largest. Gershgorin bounds,
    taken in one pass over the block's entries, decide most blocks: when
    the lower bound is positive and above ``SINGULAR_RATIO`` times the
    upper one, the exact rule accepts the block too, and no spectrum is
    computed. This holds for grounded coupler pads, whose rows are
    diagonally dominant. Otherwise (a floating island, a zero row, islands
    of very different scales, or a block that is not diagonally dominant)
    the full spectrum of every island decides the case and words the error.

    Returns (schur_reduced, other_reduced, keep), keep in ascending order.
    """
    dropped = np.zeros(schur.shape[0], dtype=bool)
    dropped[np.asarray(eliminate, dtype=np.intp)] = True
    keep = ~dropped
    kept = keep.nonzero()[0]
    if not dropped.any():
        return _dense_block(schur, kept, kept), _dense_block(other, kept, kept), kept.tolist()
    rows, cols, vals = _coo(schur)
    local = dropped.cumsum() - 1  # position among the eliminated coordinates
    new = keep.cumsum() - 1  # position among the kept coordinates
    n_r = int(local[-1]) + 1
    inner = dropped[rows] & dropped[cols]
    edge = keep[rows] & dropped[cols]
    a, b = local[rows[inner]], local[cols[inner]]

    # islands of the symmetric pattern of the eliminated block, which scipy
    # numbers in the order of their smallest member
    links = _add_up(np.concatenate((a, b)), np.concatenate((b, a)), np.ones(2 * a.size), n_r)
    count, island = connected_components(_from_coo(*links, n_r), connection="strong")
    members, first = _grouped(island, count)
    slot = np.empty(n_r, dtype=np.intp)  # position within its island
    slot[members] = np.arange(n_r) - first[island[members]]

    # each island's block, and its couplings to the kept rows that touch it
    v = vals[inner]
    lower, upper = _gershgorin_bounds(a, b, v, n_r)
    order, start = _grouped(island[a], count)
    a, b, v = slot[a[order]], slot[b[order]], v[order]
    blocks = []
    for k in range(count):
        rr = np.zeros((first[k + 1] - first[k],) * 2)
        rr[a[start[k]:start[k + 1]], b[start[k]:start[k + 1]]] = v[start[k]:start[k + 1]]
        blocks.append(rr)
    if not (lower > 0.0 and lower > SINGULAR_RATIO * upper):
        # the bounds cannot decide; the extreme eigenvalues of the islands do
        spectra = [scipy.linalg.eigvalsh(_symmetrize(rr), driver="evd") for rr in blocks]
        lowest = min(w[0] for w in spectra)
        highest = max(w[-1] for w in spectra)
        if lowest <= SINGULAR_RATIO * max(highest, 0.0) or highest <= 0.0:
            raise SingularCouplerBlock(
                f"coupler {block} block is numerically singular; an eliminated "
                f"coupler island is not connected through the {block} matrix"
            )

    kept_rows, c = rows[edge], local[cols[edge]]
    order, start = _grouped(island[c], count)
    kept_rows, c, v = kept_rows[order], slot[c[order]], vals[edge][order]
    reduced = _dense_block(schur, kept, kept)
    for k, rr in enumerate(blocks):
        seg = slice(start[k], start[k + 1])
        touching, at = np.unique(kept_rows[seg], return_inverse=True)
        kr = np.zeros((touching.size, rr.shape[0]))
        kr[at, c[seg]] = v[seg]
        reduced[np.ix_(new[touching], new[touching])] -= (
            kr @ scipy.linalg.solve(rr, kr.T, assume_a="gen"))
    return _symmetrize(reduced), _dense_block(other, kept, kept), kept.tolist()


def _gershgorin_bounds(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                       n: int) -> tuple[float, float]:
    """Bounds (lower, upper) on the spectrum of the symmetric part of the
    n x n matrix with distinct entries (rows, cols, vals), by Gershgorin's
    circle theorem (Golub & Van Loan, *Matrix Computations*): lower is the
    least a_ii - r_i and upper the largest |a_ii| + r_i. The radius r_i of
    row i is half the off-diagonal magnitudes of its row and its column,
    which bounds the sum of |a_ij + a_ji| / 2 and equals it for a symmetric
    matrix."""
    on = rows == cols
    diag = np.bincount(rows[on], weights=vals[on], minlength=n)
    size = np.abs(vals[~on])
    radius = 0.5 * (np.bincount(rows[~on], weights=size, minlength=n)
                    + np.bincount(cols[~on], weights=size, minlength=n))
    return float((diag - radius).min()), float((np.abs(diag) + radius).max())


def _grouped(key: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts an integer key in [0, count), and where
    each key's run starts in it (count + 1 bounds)."""
    bounds = np.zeros(count + 1, dtype=np.intp)
    bounds[1:] = np.bincount(key, minlength=count).cumsum()
    return key.argsort(kind="stable"), bounds


def reduce_network(net: CompositeNetlist) -> ReducedCircuit:
    """Rotate to the junction basis, then eliminate the coupler coordinates
    in two passes: those in ker(L_inv) by a Schur complement of C, then
    those in ker(C) by a Schur complement of L_inv. The matrices are sparse
    until the first pass, which returns the small retained block dense."""
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

    block_lists: dict[str, list[int]] = {name: [] for name in net.registry.subsystems}
    junction_by_id = {j.ident: j for j in net.junctions}
    for i, lab in enumerate(labels2):
        if lab in junction_by_id:
            block_lists[junction_by_id[lab].subsystem].append(i)
        else:
            block_lists[net.registry.subsystem_of(lab)].append(i)

    retained = [keep1[i] for i in keep2]
    record = ReductionRecord(c_rotated=_dense_block(c, retained, retained), eliminated=eliminated)
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

    Diagonal entries of ``c_inv`` give 1/C_eff for single-coordinate ports
    (the dressed junction or line-loading capacitances). Off-diagonal pair
    couplings carry a factor of two relative to the raw inverse entries, so
    1/C_nm_eff = 2 * c_inv[n, m]; the Hamiltonian assembly must weight each
    unordered pair term by half of that to reproduce the quadratic form.
    """

    labels: tuple[str, ...]
    c_inv: np.ndarray
    l_inv: np.ndarray  # the linear network's; no junction L_j
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
        return 2.0 * self.l_inv[i, j]


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
