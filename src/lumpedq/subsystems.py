"""Quantization of the subsystem building blocks.

Transmons are diagonalized exactly in the Cooper-pair-number basis (which
handles offset charge without approximation); line modes are quantized in
Fock bases with matrix elements fixed by their zero-point fluctuations.
A quantized subsystem is one factor per mode: its levels and the port
charge/flux operators needed for pairwise coupling terms.

Operators are emitted in a real gauge: every Fock state |n> of a line mode
carries the phase i^n, a diagonal unitary that leaves the spectrum and every
squared overlap with a bare product state unchanged. In it the line charge
i Q (a^dag - a) is the real symmetric Q (a^dag + a), and the line flux
Phi (a^dag + a) is i times the real antisymmetric Phi (a - a^dag). Transmon
eigenvectors are real, so their charge operator is real as it stands.

Port operators obey a level-parity selection rule: they connect only levels
of opposite index parity. A line quadrature moves the occupation by +-1. A
transmon couples through its charge 2e*(n - n_g); at an offset charge n_g
that is a multiple of 1/2 its levels alternate in parity under the
reflection n - n_g -> -(n - n_g), which that charge reverses (Koch et al.,
PRA 76, 042319 (2007)). A factor stores the entries between levels of equal
parity as exact zeros when all of them are rounding noise, within
OPERATOR_RTOL of the largest entry; at any other offset charge they are not
small and stay as they are. The composite diagonalization splits the
product basis by total-occupation parity on exactly these zeros (see
``composite``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import constants
from scipy.linalg import eigh_tridiagonal

from .errors import TruncationNotConverged, ValidationError
from .loadedline import LineMode

_E = constants.e
# relative tolerance, against an operator's largest entry, to which a mode
# operator is accepted as (anti)symmetric and its equal-parity entries as zero
OPERATOR_RTOL = 1e-12
# relative change of the transmon's 0-1 splitting, on doubling the charge-basis
# cutoff, below which the truncation is accepted as converged
TRUNCATION_RTOL = 1e-10
# components within this of an eigenvector's largest magnitude tie for its
# sign choice; two components equal by symmetry differ by rounding, ~1e-16
PHASE_TIE_ATOL = 1e-9


@dataclass(frozen=True)
class TransmonSpec:
    """Junction-mode parameters: dressed capacitance, Josephson energy,
    optional charge offset, and truncation controls."""

    c_eff: float  # F, dressed junction-coordinate capacitance
    ej: float  # J
    q_offset: float = 0.0  # C
    n_max: int = 30  # charge basis runs n = -n_max..n_max
    levels: int = 5  # retained eigenlevels

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not all(x > 0 and math.isfinite(x) for x in (self.c_eff, self.ej)):
            raise ValidationError(
                "transmon capacitance and Josephson energy must be positive and finite")
        if not math.isfinite(self.q_offset):
            raise ValidationError("transmon offset charge must be finite")
        if not self.n_max >= 10:
            raise ValidationError("charge-basis cutoff n_max must be at least 10")
        if not 2 <= self.levels <= 2 * self.n_max:
            raise ValidationError("retained level count must be in [2, 2*n_max]")

    @property
    def e_c(self) -> float:
        """Charging energy e^2 / (2 C_eff), joules."""
        return _E**2 / (2.0 * self.c_eff)

    @property
    def n_g(self) -> float:
        """Offset charge in Cooper pairs."""
        return self.q_offset / (2.0 * _E)


def outer_sum(levels: Sequence[np.ndarray]) -> np.ndarray:
    """Energies of every product state, in np.ndindex order, from the
    levels of each factor."""
    total = np.zeros(1)
    for level in levels:
        total = (total[:, None] + level[None, :]).ravel()
    return total


@dataclass(frozen=True)
class ModeFactor:
    """One mode of a subsystem in the real gauge: its levels, its port
    charge operator (real symmetric) and, for a harmonic mode, the real
    antisymmetric matrix that is its port flux operator divided by i.

    Operators symmetric (or antisymmetric) to OPERATOR_RTOL are accepted and
    stored exactly so, which keeps the assembled Hamiltonian exactly
    symmetric. When every entry between two levels of equal index parity is
    within OPERATOR_RTOL of the largest entry, those entries are stored as
    exact zeros, so the operator exactly obeys the parity selection rule.
    """

    levels: np.ndarray  # J, 1-D
    charge: np.ndarray  # C
    charge_scale: float  # C; 2e for discrete charge, Q_zpf for a harmonic quadrature
    flux: np.ndarray | None = None  # Wb; the flux operator is i times this

    def __post_init__(self):
        if np.ndim(self.levels) != 1:
            raise ValidationError("mode levels must be a 1-D array of energies")
        dim = len(self.levels)
        same_parity = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 0
        for what, op, sign, kind in (("charge", self.charge, 1.0, "symmetric"),
                                     ("flux", self.flux, -1.0, "antisymmetric")):
            if op is None:
                continue
            if op.shape != (dim, dim):
                raise ValidationError(f"mode {what} operator shape {op.shape} does not match "
                                      f"{dim} levels")
            bound = OPERATOR_RTOL * (np.max(np.abs(op)) or 1.0)
            if op.dtype.kind != "f" or np.max(np.abs(op - sign * op.T)) > bound:
                raise ValidationError(f"mode {what} operator is not real {kind}")
            op = 0.5 * (op + sign * op.T)
            if np.max(np.abs(op[same_parity])) <= bound:
                op = np.where(same_parity, 0.0, op)
            object.__setattr__(self, what, op)

    @property
    def flux_scale(self) -> float:  # Wb; Phi_zpf of a harmonic quadrature
        return float(self.flux[0, 1])


@dataclass(frozen=True)
class QuantizedSubsystem:
    """Truncated subsystem: one factor per mode, its product basis in
    np.ndindex order. Every port shares the same operators (the two-port bus
    approximation). A transmon is a single anharmonic mode.
    """

    name: str
    ports: tuple[str, ...]
    factors: tuple[ModeFactor, ...]

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return tuple(len(f.levels) for f in self.factors)

    @property
    def dimension(self) -> int:
        return int(np.prod(self.mode_dims))

    @property
    def energies(self) -> np.ndarray:
        return outer_sum([f.levels for f in self.factors])


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each real eigenvector
    positive, so operator matrices are reproducible across platforms and
    parameter values. Components within PHASE_TIE_ATOL of the largest tie
    (at an offset charge n_g that is a multiple of 1/2, psi reflects about
    n_g); the last of them, on the n > n_g side, is chosen, so rounding does
    not pick the sign."""
    out = vecs.copy()
    for col in range(out.shape[1]):
        mag = np.abs(out[:, col])
        i = np.flatnonzero(mag >= mag.max() - PHASE_TIE_ATOL)[-1]
        if out[i, col] < 0:
            out[:, col] = -out[:, col]
    return out


def _charge_basis_levels(spec: TransmonSpec, n_max: int, count: int):
    """Lowest eigenpairs of 4E_C (n - n_g)^2 - (E_J/2)(|n><n+1| + h.c.)."""
    n = np.arange(-n_max, n_max + 1, dtype=float)
    diag = 4.0 * spec.e_c * (n - spec.n_g) ** 2
    off = np.full(2 * n_max, -spec.ej / 2.0)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return n, vals, _fix_phases(vecs)


def diagonalize_transmon(spec: TransmonSpec) -> QuantizedSubsystem:
    """Exact charge-basis diagonalization; returns the lowest ``levels``
    eigenstates with the charge operator 2e*(n - n_g) projected onto them.

    Truncation is verified by doubling n_max: the 0-1 splitting must be
    reproduced to TRUNCATION_RTOL relative or TruncationNotConverged is raised.
    """
    n, vals, vecs = _charge_basis_levels(spec, spec.n_max, spec.levels)
    _, vals2, _ = _charge_basis_levels(spec, 2 * spec.n_max, min(spec.levels, 2))
    e01 = vals[1] - vals[0]
    e01_big = vals2[1] - vals2[0]
    if abs(e01 - e01_big) > TRUNCATION_RTOL * abs(e01_big):
        raise TruncationNotConverged(
            f"charge-basis cutoff n_max={spec.n_max} not converged: "
            f"E01 changes by {abs(e01 - e01_big) / abs(e01_big):.3e} on doubling"
        )
    charge = 2.0 * _E * (vecs.T @ ((n - spec.n_g)[:, None] * vecs))
    return QuantizedSubsystem(name="transmon", ports=("junction",), factors=(
        ModeFactor(levels=vals, charge=charge, charge_scale=2.0 * _E),))


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def quantize_line(
    modes: Sequence[LineMode],
    levels: int | Sequence[int] = 5,
    name: str = "line",
    ports: Sequence[str] = ("z0",),
    charge_zpf: Sequence[float] | None = None,
    flux_zpf: Sequence[float] | None = None,
) -> QuantizedSubsystem:
    """Fock-truncate the listed line modes, one factor per mode, with the
    port operators at the loaded end in the real gauge: levels
    hbar omega_m (n + 1/2), charge Q_m_zpf (a_m^dag + a_m) and flux
    i Phi_m_zpf(0) (a_m - a_m^dag).

    Each mode carries the spec, dressed loading included, it was solved
    with. Every entry of ``ports`` shares the same z = 0 operators (the
    two-port bus approximation). The per-mode ZPF amplitudes can be
    overridden to realize alternative port conventions.
    """
    if isinstance(levels, int):
        level_list = [levels] * len(modes)
    else:
        level_list = list(levels)
    if len(level_list) != len(modes):
        raise ValidationError("need one truncation per line mode")
    if any(l < 2 for l in level_list):
        raise ValidationError("each mode needs at least 2 Fock levels")
    if charge_zpf is None:
        charge_zpf = [m.q0_zpf for m in modes]
    if flux_zpf is None:
        flux_zpf = [float(m.phi_zpf(0.0)) for m in modes]

    factors = []
    for mode, d, q, phi in zip(modes, level_list, charge_zpf, flux_zpf, strict=True):
        a = _destroy(d)
        factors.append(ModeFactor(
            levels=mode.omega * constants.hbar * (np.arange(d) + 0.5),
            charge=q * (a.T + a), charge_scale=q, flux=phi * (a - a.T)))
    return QuantizedSubsystem(name=name, ports=tuple(ports), factors=tuple(factors))
