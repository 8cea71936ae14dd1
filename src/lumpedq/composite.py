"""Composite Hamiltonian assembly, diagonalization, and observables.

The device Hamiltonian is the sum of the subsystem Hamiltonians lifted to the
tensor-product space plus one bilinear term per coupled port pair. Pair
couplings are specified through the reported effective reciprocals
1/C_nm_eff = 2 * [C_k^-1]_nm (and the inductive mirror); since that reporting
convention doubles the raw inverse-matrix entry, each unordered pair term is
assembled with weight 1/2 so the total reproduces the quadratic form
(1/2) Q^T C_k^-1 Q exactly.

Every subsystem arrives as one real factor per mode, quantized in the real
gauge (see ``subsystems``): charge operators are real symmetric and flux
operators i times a real antisymmetric matrix, so a charge-charge term is
real and a flux-flux term is real with a factor -1.

Each term moves the occupation of each of its two modes by +-1, and the
port operators connect only levels of opposite parity (see ``subsystems``),
so H conserves the parity of the total occupation and splits into an even
and an odd sector. The split is decided from the operators before anything
is allocated: one ``ProductBasis`` table per quantization holds every
product state's occupation, bare energy, sector and position in its
sector, and the Hamiltonian is assembled as one dense real-symmetric block
per sector, each term written at the sector positions of the product
indices the tensor strides give. The N x N matrix is never formed. When an
operator joins levels of equal parity (a transmon at nonzero offset
charge) the whole basis is one sector. ``diagonalize`` solves each block
only for the lowest eigenpairs, the ones that hold the bare labels it is
asked for: ``observable_labels``, the labels the observables read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy import constants

from .errors import (
    DimensionOverflow,
    TargetOutOfRange,
    UnlabeledState,
    ValidationError,
)
from .subsystems import QuantizedSubsystem, outer_sum

DEFAULT_DIMENSION_CAP = 20_000
# squared overlap with a bare state that a dressed state needs to take its label
DEFAULT_MIN_OVERLAP = 0.5
# eigenpairs solved for beyond the bare states up to the highest required one
SUBSET_MARGIN = 4
# dense float64 copies of the largest sector block the eigensolve adds to the
# blocks themselves: the solver's working copy and up to a sector of eigenvectors
EIGENSOLVE_COPIES = 2
# brentq's relative tolerance in calibrate_scalar; see its docstring for the
# bound that holds
CALIBRATION_RTOL = 1e-6


@dataclass(frozen=True)
class CouplingEdge:
    """Bilinear coupling between two subsystem ports. ``inv_c_eff`` and
    ``inv_l_eff`` carry the factor-two pair-reporting convention."""

    sub_a: str
    port_a: str
    sub_b: str
    port_b: str
    inv_c_eff: float = 0.0  # 1/F
    inv_l_eff: float = 0.0  # 1/H

    def key(self):
        a = (self.sub_a, self.port_a)
        b = (self.sub_b, self.port_b)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CouplingGraph:
    edges: tuple[CouplingEdge, ...]

    def __post_init__(self):
        keys = [e.key() for e in self.edges]
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate coupling edges for the same port pair")
        for e in self.edges:
            if e.sub_a == e.sub_b:
                raise ValidationError("coupling edges must join distinct subsystems")
        # deterministic canonical order
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.key())))

    def restricted_to(self, subsystem: str) -> "CouplingGraph":
        """Keep only edges that touch ``subsystem`` (for budget comparisons)."""
        return CouplingGraph(tuple(
            e for e in self.edges if subsystem in (e.sub_a, e.sub_b)
        ))


def available_memory_bytes() -> int | None:
    """The kernel's estimate of the memory available to new allocations
    (MemAvailable), or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


@dataclass(frozen=True)
class ProductBasis:
    """The product basis of one quantization: a row per state, in
    np.ndindex order over the flattened modes, with its bare energy, its
    sector and its position in that sector. With two sectors a state's
    sector is the parity of its total occupation (even first); with one,
    every state is in sector 0 at its own index."""

    dims: tuple[int, ...]  # levels of each flattened mode
    occupation: np.ndarray  # (states, modes)
    energies: np.ndarray  # J, bare product energies
    sector: np.ndarray
    position: np.ndarray

    def states(self, k: int) -> np.ndarray:
        """Product indices of sector ``k``, in sector order."""
        return np.flatnonzero(self.sector == k)


def product_basis(subsystems: Sequence[QuantizedSubsystem], split: bool) -> ProductBasis:
    """The product basis of ``subsystems``, in two parity sectors when
    ``split``, else in one."""
    dims = tuple(d for s in subsystems for d in s.mode_dims)
    occupation = np.indices(dims).reshape(len(dims), -1).T
    sector = occupation.sum(axis=1) % 2 if split else np.zeros(len(occupation), dtype=np.intp)
    position = np.empty_like(sector)
    for k in range(int(sector.max()) + 1):
        members = sector == k
        position[members] = np.arange(np.count_nonzero(members))
    return ProductBasis(dims, occupation, outer_sum([s.energies for s in subsystems]),
                        sector, position)


@dataclass(frozen=True)
class SectorHamiltonian:
    """The real-symmetric composite Hamiltonian as one dense block per
    sector of ``basis``. Entries between sectors are exactly zero and are
    not stored; ``shape`` and ``dtype`` are those of the whole H."""

    basis: ProductBasis
    blocks: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.basis.energies),) * 2

    @property
    def dtype(self) -> np.dtype:
        return self.blocks[0].dtype


def pair_terms(
    subsystems: Sequence[QuantizedSubsystem],
    graph: CouplingGraph,
) -> list[tuple[int, np.ndarray, int, np.ndarray, float]]:
    """The coupling as (factor a, operator a, factor b, operator b,
    coefficient) terms, one per coupled mode pair and quadrature, in
    assembly order; factors are numbered flat across the subsystems."""
    names = [s.name for s in subsystems]
    if len(set(names)) != len(names):
        raise ValidationError("subsystem names must be unique")
    factors = [f for s in subsystems for f in s.factors]
    offsets = np.cumsum([0] + [len(s.factors) for s in subsystems]).tolist()
    slots = {s.name: range(o, o + len(s.factors)) for s, o in zip(subsystems, offsets)}
    ports = {s.name: s.ports for s in subsystems}

    terms = []
    for edge in graph.edges:
        ends = ((edge.sub_a, edge.port_a), (edge.sub_b, edge.port_b))
        for sub_name, port in ends:
            if sub_name not in slots:
                raise ValidationError(f"coupling references unknown subsystem {sub_name!r}")
            if port not in ports[sub_name]:
                raise ValidationError(f"subsystem {sub_name!r} has no port {port!r}")
        # half of the pair-reported reciprocal restores the raw quadratic-form
        # coefficient; a flux operator is i times its stored matrix, i * i = -1
        for kind, coef in (("charge", 0.5 * edge.inv_c_eff), ("flux", -0.5 * edge.inv_l_eff)):
            if coef == 0.0:
                continue
            for sub_name, port in ends:
                if any(getattr(factors[i], kind) is None for i in slots[sub_name]):
                    raise ValidationError(
                        f"inductive coupling needs a flux operator on {sub_name!r}:{port!r}; "
                        "discrete-charge subsystems only couple capacitively"
                    )
            terms.extend((ia, getattr(factors[ia], kind), ib, getattr(factors[ib], kind), coef)
                         for ia in slots[edge.sub_a] for ib in slots[edge.sub_b])
    return terms


def _flips_parity(op: np.ndarray) -> bool:
    """Whether ``op`` connects only levels of opposite index parity."""
    rows, cols = np.nonzero(op)
    return bool(np.all((rows + cols) % 2 == 1))


def _pair_term_entries(dims: Sequence[int], ia: int, a: np.ndarray, ib: int, b: np.ndarray,
                       coef: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of coef * kron(I, a, I, b, I), with ``a`` on
    factor ``ia`` and ``b`` on factor ``ib``: their product-basis rows and
    columns, as the tensor strides give them, and their values."""
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    rest = np.zeros(1, dtype=np.intp)
    for k, d in enumerate(dims):
        if k not in (ia, ib):
            rest = (rest[:, None] + strides[k] * np.arange(d)).ravel()
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    rows = (strides[ia] * ra)[:, None] + (strides[ib] * rb)[None, :]
    cols = (strides[ia] * ca)[:, None] + (strides[ib] * cb)[None, :]
    values = (coef * a[ra, ca])[:, None] * b[rb, cb][None, :]
    return ((rest[:, None] + rows.ravel()).ravel(), (rest[:, None] + cols.ravel()).ravel(),
            np.broadcast_to(values.ravel(), (len(rest), values.size)).ravel())


def build_full_hamiltonian(
    subsystems: Sequence[QuantizedSubsystem],
    graph: CouplingGraph,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> SectorHamiltonian:
    """Assemble the real-symmetric Hamiltonian (float64) in the real gauge
    of the product of the subsystem eigenbases, one dense block per parity
    sector. Fails fast with DimensionOverflow beyond ``dimension_cap`` or
    when the eigensolve would not fit in the available memory; no silent
    solver switch.

    Every term moves the occupation of each of its two modes by +-1. When
    every operator of every term connects only levels of opposite parity
    (the exact zeros ``ModeFactor`` stores), H conserves the parity of the
    total occupation and has two sectors; otherwise (a transmon at nonzero
    offset charge) the whole basis is one sector."""
    terms = pair_terms(subsystems, graph)
    total = int(np.prod([d for s in subsystems for d in s.mode_dims]))
    if total > dimension_cap:
        raise DimensionOverflow(
            f"product dimension {total} exceeds the configured cap {dimension_cap}"
        )
    basis = product_basis(subsystems, all(_flips_parity(a) and _flips_parity(b)
                                          for _, a, _, b, _ in terms))
    sizes = np.bincount(basis.sector)
    areas = sizes**2
    needed = 8 * (int(areas.sum()) + EIGENSOLVE_COPIES * int(areas.max()))
    available = available_memory_bytes()
    if available is not None and needed > available:
        raise DimensionOverflow(
            f"product dimension {total} needs about {needed / 1e9:.2f} GB for the "
            f"eigensolve, more than the {available / 1e9:.2f} GB available"
        )
    # the blocks lie one after another in ``flat``, where entry (i, j) of H
    # with i and j in one sector sits at row_start[i] + position[j]
    starts = np.cumsum(areas) - areas
    flat = np.zeros(int(areas.sum()))
    row_start = starts[basis.sector] + sizes[basis.sector] * basis.position
    flat[row_start + basis.position] = basis.energies
    for term in terms:
        rows, cols, values = _pair_term_entries(basis.dims, *term)
        flat[row_start[rows] + basis.position[cols]] += values
    return SectorHamiltonian(basis, tuple(flat[start:start + n * n].reshape(n, n)
                                          for start, n in zip(starts, sizes)))


def coupling_rates(
    subsystems: Sequence[QuantizedSubsystem],
    graph: CouplingGraph,
) -> dict[tuple[str, int, str, int], float]:
    """Linear coupling rates g (rad/s) per mode pair, from the charge scales
    of the mode factors: hbar g = A_n B_m [C_k^-1]_nm, summed over the edges
    between the pair's subsystems as the Hamiltonian sums them."""
    by_name = {s.name: s for s in subsystems}
    out: dict[tuple[str, int, str, int], float] = {}
    for edge in graph.edges:
        if edge.inv_c_eff == 0.0:
            continue
        for ma, fa in enumerate(by_name[edge.sub_a].factors):
            for mb, fb in enumerate(by_name[edge.sub_b].factors):
                g = fa.charge_scale * fb.charge_scale * (0.5 * edge.inv_c_eff) / constants.hbar
                key = (edge.sub_a, ma, edge.sub_b, mb)
                if key[:2] > key[2:]:
                    key = (edge.sub_b, mb, edge.sub_a, ma)
                out[key] = out.get(key, 0.0) + g
    return out


@dataclass(frozen=True)
class DressedSpectrum:
    """Lowest eigenenergies of each parity sector of the composite
    Hamiltonian (see ``diagonalize``), merged in ascending order, with
    dressed states labeled by their dominant bare product state.

    Labels are occupation tuples flattened across every mode of every
    subsystem, in subsystem order; a label is only reported when the squared
    overlap with the bare state is at least ``min_overlap``.
    """

    # J, ascending: the union of each parity sector's lowest levels, the
    # ones that were solved for; not the lowest len(energies) levels of H
    energies: np.ndarray
    labels: Mapping[tuple[int, ...], int]
    overlaps: Mapping[tuple[int, ...], float]
    subsystem_names: tuple[str, ...]
    mode_dims: tuple[tuple[int, ...], ...]
    unlabeled: tuple[int, ...] = ()
    min_overlap: float = DEFAULT_MIN_OVERLAP

    def energy_of(self, label: tuple[int, ...]) -> float:
        if label not in self.labels:
            raise UnlabeledState(
                f"no dressed state labeled {label}; it was not solved for, or "
                f"its best overlap fell below {self.min_overlap}"
            )
        return float(self.energies[self.labels[label]])

    def single_excitation(self, flat_mode: int) -> tuple[int, ...]:
        return _excitation(sum(len(d) for d in self.mode_dims), flat_mode)


def _solve_sector(block: np.ndarray, bare: np.ndarray, required: np.ndarray,
                  min_overlap: float):
    """Lowest-subset eigensolve of one sector plus maximum-overlap labeling.
    Returns (energies, labeled states, their sector basis indices, their
    overlaps)."""
    n = len(bare)
    k = min(n, int(np.count_nonzero(bare <= bare[required].max())) + SUBSET_MARGIN)
    while True:
        vals, vecs = scipy.linalg.eigh(block, subset_by_index=[0, k - 1])
        overlap = np.abs(vecs) ** 2  # overlap[basis, state]
        basis = np.argmax(overlap, axis=0)
        states = np.flatnonzero(overlap[basis, np.arange(k)] >= min_overlap)
        # a basis state can top two states only at an exact 1/2 tie: keep the lower
        _, first = np.unique(basis[states], return_index=True)
        states = np.sort(states[first])
        labeled = np.zeros(n, dtype=bool)
        labeled[basis[states]] = True
        # overlap still left for states outside the subset, with rounding slack
        reachable = 1.0 - overlap.sum(axis=1) >= min_overlap - 1e-9
        if k == n or not np.any(required & ~labeled & reachable):
            break
        k = min(n, 2 * k)
    return vals, states, basis[states], overlap[basis[states], states]


def diagonalize(
    subsystems: Sequence[QuantizedSubsystem],
    hamiltonian: SectorHamiltonian,
    required: Iterable[tuple[int, ...]],
    min_overlap: float = DEFAULT_MIN_OVERLAP,
) -> DressedSpectrum:
    """Lowest-subset eigensolve of each sector block of ``hamiltonian`` (see
    ``build_full_hamiltonian``) plus maximum-overlap labeling.

    ``required`` holds the bare labels to solve for, flattened occupation
    tuples such as ``observable_labels`` gives. In each sector that holds
    one, the k lowest eigenpairs are solved for, k being the number of the
    sector's bare product energies up to its highest required label's, plus
    SUBSET_MARGIN. While a required label is unassigned and a state outside
    the subset could still carry it, k doubles, up to the sector's
    dimension. With ``min_overlap`` >= 1/2 a bare label dominates at most one
    dressed state, so each solved state takes its largest-overlap label when
    that overlap reaches ``min_overlap``; at an exact 1/2 tie the lower
    energy wins. The sectors' energies are merged in ascending order, and
    the labels index the merged list.
    """
    if not 0.5 <= min_overlap <= 1.0:
        raise ValidationError(f"min_overlap must lie in [0.5, 1], got {min_overlap}")
    basis = hamiltonian.basis
    if basis.dims != tuple(d for s in subsystems for d in s.mode_dims):
        raise ValidationError("Hamiltonian basis does not match the subsystem dimensions")
    wanted = np.zeros(len(basis.energies), dtype=bool)
    try:
        wanted[np.ravel_multi_index(np.array(list(required)).T, basis.dims)] = True
    except (TypeError, ValueError):
        raise ValidationError(
            f"required labels must be a nonempty set of occupation tuples of the "
            f"product basis {basis.dims}"
        ) from None
    energies, found = [], []  # found: (solved state, product basis index, overlap)
    for k, block in enumerate(hamiltonian.blocks):
        sector = basis.states(k)
        if not wanted[sector].any():
            continue
        vals, states, labeled, quality = _solve_sector(block, basis.energies[sector],
                                                       wanted[sector], min_overlap)
        offset = sum(len(e) for e in energies)
        found.extend(zip(offset + states, sector[labeled], quality.tolist()))
        energies.append(vals)
    merged = np.concatenate(energies)
    position = np.argsort(np.argsort(merged, kind="stable"))  # place in ascending order
    picked = sorted((int(position[s]), tuple(basis.occupation[b].tolist()), q)
                    for s, b, q in found)
    return DressedSpectrum(
        energies=np.sort(merged),
        labels={label: s for s, label, _ in picked},
        overlaps={label: q for _, label, q in picked},
        subsystem_names=tuple(s.name for s in subsystems),
        mode_dims=tuple(s.mode_dims for s in subsystems),
        unlabeled=tuple(sorted(set(range(len(merged))) - {s for s, _, _ in picked})),
        min_overlap=min_overlap,
    )


@dataclass(frozen=True)
class DispersiveObservables:
    """Dressed observables in hertz.

    Conventions: transition frequencies are E(state) - E(ground) over h;
    anharmonicity alpha = f02 - 2 f01 of the qubit mode (negative for a
    transmon); cross-Kerr chi = (E11 - E10 - E01 + E00)/h, negative when an
    excited qubit pulls the readout down.
    """

    f_qubit: float
    f_readout: float
    alpha_qubit: float
    chi_qr: float


def _excitation(n_modes: int, *modes: int) -> tuple[int, ...]:
    """The bare label with one quantum in each listed flattened mode; a mode
    listed twice holds two."""
    label = [0] * n_modes
    for m in modes:
        label[m] += 1
    return tuple(label)


def observable_labels(
    subsystems: Sequence[QuantizedSubsystem],
    qubit_mode: int | None,
) -> tuple[tuple[int, ...], ...]:
    """The bare labels that ``extract_dispersive`` (with its qubit at
    flattened mode ``qubit_mode``; None when it is not read),
    ``mode_frequencies`` and ``cross_kerr_matrix`` read: the ground state,
    every single excitation, every pair of distinct modes and the double
    excitation of the qubit, less those beyond a mode's truncation."""
    dims = [d for s in subsystems for d in s.mode_dims]
    n = len(dims)
    labels = [_excitation(n, *modes) for k in (0, 1, 2)
              for modes in itertools.combinations(range(n), k)]
    if qubit_mode is not None:
        labels.append(_excitation(n, qubit_mode, qubit_mode))
    return tuple(lab for lab in labels if all(o < d for o, d in zip(lab, dims)))


def extract_dispersive(
    spectrum: DressedSpectrum,
    qubit_mode: int = 0,
    readout_mode: int = 1,
) -> DispersiveObservables:
    """Qubit/readout observables from the labeled dressed energies."""
    n_modes = sum(len(d) for d in spectrum.mode_dims)
    q, r = qubit_mode, readout_mode
    e00 = spectrum.energy_of(_excitation(n_modes))
    e10 = spectrum.energy_of(_excitation(n_modes, q))
    e01 = spectrum.energy_of(_excitation(n_modes, r))
    e20 = spectrum.energy_of(_excitation(n_modes, q, q))
    e11 = spectrum.energy_of(_excitation(n_modes, q, r))
    h = constants.h
    return DispersiveObservables(
        f_qubit=(e10 - e00) / h,
        f_readout=(e01 - e00) / h,
        alpha_qubit=(e20 - 2.0 * e10 + e00) / h,
        chi_qr=(e11 - e10 - e01 + e00) / h,
    )


def mode_frequencies(spectrum: DressedSpectrum) -> list[float]:
    """Dressed single-excitation frequency (Hz) of every flattened mode."""
    n_modes = sum(len(d) for d in spectrum.mode_dims)
    e0 = spectrum.energy_of(_excitation(n_modes))
    out = []
    for m in range(n_modes):
        out.append((spectrum.energy_of(spectrum.single_excitation(m)) - e0) / constants.h)
    return out


def cross_kerr_matrix(spectrum: DressedSpectrum) -> np.ndarray:
    """Pairwise cross-Kerr chi_ab (Hz) for all flattened mode pairs with the
    required labels present; NaN where a two-excitation label is unresolved."""
    n_modes = sum(len(d) for d in spectrum.mode_dims)
    e0 = spectrum.energy_of(_excitation(n_modes))
    chi = np.full((n_modes, n_modes), np.nan)
    for a, b in itertools.combinations(range(n_modes), 2):
        try:
            val = (spectrum.energy_of(_excitation(n_modes, a, b))
                   - spectrum.energy_of(_excitation(n_modes, a))
                   - spectrum.energy_of(_excitation(n_modes, b)) + e0) / constants.h
        except UnlabeledState:
            continue
        chi[a, b] = chi[b, a] = val
    return chi


def calibrate_scalar(
    response,
    target: float,
    bounds: tuple[float, float],
    fmt="{:.6g}".format,
) -> float:
    """Monotone scalar calibration: find x in ``bounds`` with response(x) =
    target. The endpoint responses must bracket the target, otherwise
    TargetOutOfRange is raised, quoting them as rendered by ``fmt``.

    ``brentq`` stops once the root is bracketed to its default absolute
    xtol = 2e-12 plus CALIBRATION_RTOL * |x|. For x in henries the absolute
    term dominates: the root holds to 2e-12 H, not to 1e-6 relative."""
    from scipy.optimize import brentq

    lo, hi = bounds
    low, high = sorted((response(lo), response(hi)))
    if not low <= target <= high:
        raise TargetOutOfRange(
            f"target {fmt(target)} outside the endpoint range [{fmt(low)}, {fmt(high)}]"
        )
    return float(brentq(lambda x: response(x) - target, lo, hi, rtol=CALIBRATION_RTOL))
