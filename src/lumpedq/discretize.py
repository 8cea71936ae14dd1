"""Discrete ladder model of a loaded transmission line.

Builds the N-node lumped equivalent (series inductors l*dz, shunt capacitors
c*dz with half-weight end caps, loading capacitor at node 0) as netlist-core
inputs. Used to check that the matrix pipeline converges to the continuum
eigenfrequencies as O(1/N^2).
"""

from __future__ import annotations

import numpy as np

from .loadedline import LoadedLineSpec
from .netlist import CellMatrices, CompositeNetlist, NodeRegistry, compose_cells


def ladder_cell(spec: LoadedLineSpec, n_nodes: int, ident: str = "ladder") -> CellMatrices:
    """Lumped cell for the line with ``n_nodes`` grid points, dz = L/(N-1).

    Node names are zero-padded so lexicographic registry order matches the
    spatial order. For a shorted right end the last node is grounded and
    therefore omitted; its inductor stamps onto the datum diagonal.
    """
    if n_nodes < 3:
        raise ValueError("ladder needs at least 3 nodes")
    dz = spec.length / (n_nodes - 1)
    width = len(str(n_nodes))
    names = [f"{ident}{i:0{width}d}" for i in range(n_nodes)]

    keep = n_nodes - 1 if spec.shorted_end else n_nodes
    c = np.zeros((keep, keep))
    l_inv = np.zeros((keep, keep))
    for i in range(keep):
        weight = 0.5 if i in (0, n_nodes - 1) else 1.0
        c[i, i] += weight * spec.c_per_len * dz
    c[0, 0] += spec.c_load

    y = 1.0 / (spec.l_per_len * dz)
    for i in range(n_nodes - 1):
        j = i + 1
        if j < keep:
            l_inv[i, i] += y
            l_inv[j, j] += y
            l_inv[i, j] -= y
            l_inv[j, i] -= y
        else:  # inductor to the grounded end node
            l_inv[i, i] += y
    return CellMatrices(ident=ident, nodes=tuple(names[:keep]), c_mat=c, l_inv=l_inv)


def ladder_netlist(spec: LoadedLineSpec, n_nodes: int, subsystem: str = "line") -> CompositeNetlist:
    """Single-subsystem composite netlist for the discretized line."""
    cell = ladder_cell(spec, n_nodes)
    registry = NodeRegistry(datum="gnd", subsystems={subsystem: frozenset(cell.nodes)},
                            couplers=frozenset())
    return compose_cells([cell], registry)


def normal_mode_frequencies(c_mat: np.ndarray, l_inv: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Nonzero normal-mode angular frequencies of the pencil (L^-1, C),
    ascending. C must be positive definite."""
    from scipy.linalg import eigh

    vals = eigh(l_inv, c_mat, eigvals_only=True)
    vals = np.clip(vals, 0.0, None)
    top = vals[-1] if len(vals) else 0.0
    return np.sqrt(vals[vals > rel_tol * top])
