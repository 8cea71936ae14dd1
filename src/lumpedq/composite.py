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
real and a flux-flux term is real with a factor -1. The Hamiltonian is
therefore assembled as a dense real-symmetric matrix over the flattened
factors, one term per coupled mode pair written at the indices the tensor
strides give.

Each term moves the occupation of each of its two modes by +-1, and the
port operators connect only levels of opposite parity (see ``subsystems``),
so H conserves the parity of the total occupation and splits into an even
and an odd sector. ``diagonalize`` checks that split exactly on H, falls
back to the whole basis as one sector when any entry joins the two (a
transmon at nonzero offset charge), and in each sector solves only for the
lowest eigenpairs, the ones that hold the bare labels it is asked for:
``observable_labels``, the labels the observables read.
"""

from __future__ import annotations

import itertools
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
# dense float64 N x N arrays alive during the eigensolve: H, the solver's
# working copy and up to N eigenvectors
EIGENSOLVE_COPIES = 3
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


def _occupations(mode_dims: Sequence[int]) -> np.ndarray:
    """Per-mode occupation of every product basis state, in np.ndindex
    order: shape (prod(mode_dims), len(mode_dims))."""
    return np.indices(mode_dims).reshape(len(mode_dims), -1).T


def _add_pair_term(h: np.ndarray, dims: Sequence[int], ia: int, a: np.ndarray,
                   ib: int, b: np.ndarray, coef: float) -> None:
    """h += coef * kron(I, a, I, b, I), with ``a`` on factor ``ia`` and ``b``
    on factor ``ib``, written at the indices the tensor strides give."""
    strides = [int(np.prod(dims[k + 1:])) for k in range(len(dims))]
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


def build_full_hamiltonian(
    subsystems: Sequence[QuantizedSubsystem],
    graph: CouplingGraph,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> np.ndarray:
    """Assemble the real-symmetric full Hamiltonian (float64) in the real
    gauge of the product of the subsystem eigenbases. Fails fast with
    DimensionOverflow beyond ``dimension_cap`` or when the eigensolve would
    not fit in the available memory; no silent solver switch."""
    names = [s.name for s in subsystems]
    if len(set(names)) != len(names):
        raise ValidationError("subsystem names must be unique")
    factors = [f for s in subsystems for f in s.factors]
    dims = [len(f.levels) for f in factors]
    total = int(np.prod(dims))
    if total > dimension_cap:
        raise DimensionOverflow(
            f"product dimension {total} exceeds the configured cap {dimension_cap}"
        )
    offsets = np.cumsum([0] + [len(s.factors) for s in subsystems]).tolist()
    slots = {s.name: range(o, o + len(s.factors)) for s, o in zip(subsystems, offsets)}
    ports = {s.name: s.ports for s in subsystems}

    terms = []  # (factor a, operator a, factor b, operator b, coefficient)
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

    needed = EIGENSOLVE_COPIES * 8 * total**2
    available = available_memory_bytes()
    if available is not None and needed > available:
        raise DimensionOverflow(
            f"product dimension {total} needs about {needed / 1e9:.2f} GB for the "
            f"eigensolve, more than the {available / 1e9:.2f} GB available"
        )
    h = np.zeros((total, total))
    h[np.diag_indices(total)] = outer_sum([s.energies for s in subsystems])
    for term in terms:
        _add_pair_term(h, dims, *term)
    return h


def coupling_rates(
    subsystems: Sequence[QuantizedSubsystem],
    graph: CouplingGraph,
) -> dict[tuple[str, int, str, int], float]:
    """Linear coupling rates g (rad/s) per mode pair, from the charge scales
    of the mode factors: hbar g = A_n B_m [C_k^-1]_nm."""
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
                out[key] = g
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


def _parity_sectors(occupation: np.ndarray, hamiltonian: np.ndarray) -> list[np.ndarray]:
    """The product basis split by total-occupation parity, when the two
    halves share no nonzero entry of ``hamiltonian``; else the whole basis."""
    odd = occupation.sum(axis=1) % 2 == 1
    sectors = [np.flatnonzero(~odd), np.flatnonzero(odd)]
    if np.any(hamiltonian[np.ix_(*sectors)]):
        return [np.arange(len(occupation))]
    return sectors


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
    hamiltonian: np.ndarray,
    required: Iterable[tuple[int, ...]],
    min_overlap: float = DEFAULT_MIN_OVERLAP,
) -> DressedSpectrum:
    """Lowest-subset eigensolve per parity sector plus maximum-overlap labeling.

    Every coupling term moves the occupation of each of its two modes by +-1,
    so when the port operators obey the parity selection rule (see
    ``subsystems``) H conserves the parity of the total occupation. The
    product basis is then split into its even and odd sectors, checked
    exactly: if H has any nonzero entry between them (a transmon at nonzero
    offset charge), the whole basis is the only sector.

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
    dims = [d for s in subsystems for d in s.mode_dims]
    occupation = _occupations(dims)
    n = len(occupation)
    if hamiltonian.shape != (n, n):
        raise ValidationError("Hamiltonian shape does not match the subsystem dimensions")
    wanted = np.zeros(n, dtype=bool)
    try:
        wanted[np.ravel_multi_index(np.array(list(required)).T, dims)] = True
    except (TypeError, ValueError):
        raise ValidationError(
            f"required labels must be a nonempty set of occupation tuples of the "
            f"product basis {tuple(dims)}"
        ) from None
    bare = outer_sum([s.energies for s in subsystems])
    energies, found = [], []  # found: (solved state, product basis index, overlap)
    for sector in _parity_sectors(occupation, hamiltonian):
        if not wanted[sector].any():
            continue
        # one sector is H itself: solved in place of a copy, as the memory guard assumes
        block = hamiltonian if len(sector) == n else hamiltonian[np.ix_(sector, sector)]
        vals, states, basis, quality = _solve_sector(block, bare[sector], wanted[sector],
                                                     min_overlap)
        offset = sum(len(e) for e in energies)
        found.extend(zip(offset + states, sector[basis], quality.tolist()))
        energies.append(vals)
    merged = np.concatenate(energies)
    position = np.argsort(np.argsort(merged, kind="stable"))  # place in ascending order
    picked = sorted((int(position[s]), tuple(occupation[b].tolist()), q) for s, b, q in found)
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
