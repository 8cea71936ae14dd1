"""Capacitively end-loaded transmission line.

Solves the transcendental characteristic equation

    omega * length / v_p + arctan(omega / omega_knee) = m*pi + b*pi/2

for the eigenfrequencies of a line loaded by a capacitor at z = 0 and
terminated in an open (b = 0) or short (b = 1) at z = L, then evaluates the
loading energy-participation ratio and the zero-point fluctuations of the
field operators. Field profiles are exposed as evaluators over z; sampling
density is the caller's concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants

from .errors import InvalidTarget, NumericalError, ValidationError
from .roots import brent_root

#: stopping rule of each branch's root solve: 4 eps relative (brentq's floor)
#: and an iteration cap
BRANCH_RTOL = 4 * 2.0 ** -52
BRANCH_MAXITER = 100
#: largest accepted LineMode.residual() of a solved mode
MODE_RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class LoadedLineSpec:
    """Line geometry and loading.

    Canonical parameters are the per-length capacitance and inductance; the
    wave parameters (phase velocity, impedance, knee frequency) are derived.
    """

    length: float  # m
    c_per_len: float  # F/m
    l_per_len: float  # H/m
    c_load: float = 0.0  # F, at z = 0
    shorted_end: bool = False  # termination at z = length

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not all(x > 0 and math.isfinite(x)
                   for x in (self.length, self.c_per_len, self.l_per_len)):
            raise ValidationError(
                "line length and per-length parameters must be positive and finite")
        if not (self.c_load >= 0 and math.isfinite(self.c_load)):
            raise ValidationError("loading capacitance must be non-negative and finite")

    @classmethod
    def from_wave_params(cls, length, z0, v_p, c_load=0.0, shorted_end=False):
        """Build from impedance and phase velocity: c = 1/(z0 v_p), l = z0/v_p."""
        if not (z0 > 0 and v_p > 0):
            raise ValidationError("impedance and phase velocity must be positive")
        return cls(length=length, c_per_len=1.0 / (z0 * v_p), l_per_len=z0 / v_p,
                   c_load=c_load, shorted_end=shorted_end)

    @property
    def v_p(self) -> float:
        return 1.0 / math.sqrt(self.l_per_len * self.c_per_len)

    @property
    def z0(self) -> float:
        return math.sqrt(self.l_per_len / self.c_per_len)

    @property
    def omega_knee(self) -> float:
        """Loading knee frequency 1/(C_L Z0); infinite for an unloaded line."""
        if self.c_load == 0.0:
            return math.inf
        return 1.0 / (self.c_load * self.z0)

    @property
    def b(self) -> int:
        return 1 if self.shorted_end else 0

    @property
    def has_dc_mode(self) -> bool:
        """An open right end admits the trivial zero-frequency (d.c.) root
        m = 0; it is metadata only and never quantized."""
        return not self.shorted_end

    @property
    def first_mode_number(self) -> int:
        return 1 if self.has_dc_mode else 0


@dataclass(frozen=True)
class LineMode:
    """One eigenmode of the loaded line, with the spatial profile
    u_m(z) = cos(k z + phase) normalized to unit amplitude."""

    index: int  # branch number m of the characteristic equation
    omega: float  # rad/s
    k: float  # rad/m
    phase: float  # rad, field phase shift at z = 0
    p_load: float  # loading energy-participation ratio
    line_integral: float  # closed form of int_0^L u^2 dz, meters
    spec: LoadedLineSpec

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)

    @property
    def cap_energy_scale(self) -> float:
        """C_L u(0)^2 + c * int u^2 dz; total capacitive energy is half this
        times the squared amplitude."""
        u0 = math.cos(self.phase)
        return self.spec.c_load * u0**2 + self.spec.c_per_len * self.line_integral

    def u(self, z):
        """Field profile, unit amplitude."""
        return np.cos(self.k * np.asarray(z, dtype=float) + self.phase)

    def epr_density(self, z):
        """Density of the capacitive-energy fraction stored at z (1/m);
        integrates to 1 - p_load over the line."""
        return self.spec.c_per_len * self.u(z) ** 2 / self.cap_energy_scale

    def q_zpf(self, z):
        """Charge-density zero-point fluctuation at z (C/m)."""
        dens = self.epr_density(z)
        return np.sqrt(0.5 * constants.hbar * self.omega * self.spec.c_per_len * dens)

    def phi_zpf(self, z):
        """Flux-field zero-point fluctuation at z (Wb)."""
        return self.q_zpf(z) / (self.spec.c_per_len * self.omega)

    @property
    def q0_zpf(self) -> float:
        """Zero-point fluctuation of the total charge on the loading
        capacitor at z = 0 (coulombs)."""
        return math.sqrt(0.5 * constants.hbar * self.omega * self.spec.c_load * self.p_load)

    def residual(self) -> float:
        """Characteristic-equation residual, relative to the branch target."""
        target = self.index * math.pi + self.spec.b * math.pi / 2.0
        return abs(characteristic_lhs(self.omega, self.spec) - target) / target


def characteristic_lhs(omega: float, spec: LoadedLineSpec) -> float:
    """Left-hand side of the characteristic equation; strictly increasing in
    omega, so each branch target m*pi + b*pi/2 has exactly one root."""
    return omega * spec.length / spec.v_p + math.atan(omega / spec.omega_knee)


def _solve_branch(spec: LoadedLineSpec, m: int) -> float:
    """Root of the characteristic equation on its analytically guaranteed
    bracket ((target - pi/2) v_p / L, target v_p / L]: the upper end for an
    unloaded line, or where the left-hand side there rounds to the target or
    below, and otherwise ``brent_root``'s root to BRANCH_RTOL relative."""
    target = m * math.pi + spec.b * math.pi / 2.0
    lo = max((target - math.pi / 2.0) * spec.v_p / spec.length, 0.0)
    hi = target * spec.v_p / spec.length
    if spec.c_load == 0.0:
        return hi

    def f(w):
        return characteristic_lhs(w, spec) - target

    f_hi = f(hi)
    if f_hi <= 0.0:
        return hi
    return brent_root(f, lo, hi, f(lo), f_hi, xtol=0.0, rtol=BRANCH_RTOL,
                      maxiter=BRANCH_MAXITER)


def _mode_from_omega(spec: LoadedLineSpec, m: int, omega: float) -> LineMode:
    k = omega / spec.v_p
    phase = math.atan(omega / spec.omega_knee)
    line_integral = _u_squared_integral(spec.length, k, phase)
    u0 = math.cos(phase)
    load_energy = spec.c_load * u0**2
    p_load = load_energy / (load_energy + spec.c_per_len * line_integral)
    return LineMode(index=m, omega=omega, k=k, phase=phase, p_load=p_load,
                    line_integral=line_integral, spec=spec)


def _u_squared_integral(length: float, k: float, phase: float) -> float:
    """Closed form of int_0^L cos^2(k z + phase) dz from the antiderivative
    z/2 + sin(2(k z + phase))/(4 k)."""
    return length / 2.0 + (math.sin(2.0 * (k * length + phase)) - math.sin(2.0 * phase)) / (4.0 * k)


def solve_modes(spec: LoadedLineSpec, count: int) -> list[LineMode]:
    """Lowest ``count`` dynamical modes, strictly increasing in frequency.

    For an open right end the m = 0 branch is the trivial d.c. root and is
    excluded; see ``LoadedLineSpec.has_dc_mode``. A mode whose residual
    exceeds MODE_RESIDUAL_RTOL raises NumericalError.
    """
    if count < 1:
        raise ValidationError("mode count must be at least 1")
    m0 = spec.first_mode_number
    modes = [_mode_from_omega(spec, m, _solve_branch(spec, m)) for m in range(m0, m0 + count)]
    for mode in modes:
        if mode.residual() > MODE_RESIDUAL_RTOL:
            raise NumericalError(
                f"line mode m={mode.index} misses its characteristic equation by "
                f"{mode.residual():.3e} relative (tolerance {MODE_RESIDUAL_RTOL:g})"
            )
    return modes


def calibrate_length(
    target_omega: float,
    mode_index: int,
    *,
    z0: float,
    v_p: float,
    c_load: float = 0.0,
    shorted_end: bool = False,
) -> float:
    """Unique line length that places the ``mode_index``-th eigenfrequency at
    ``target_omega``: L = (m pi + b pi/2 - arctan(w/w_knee)) v_p / w."""
    if target_omega <= 0:
        raise InvalidTarget("target frequency must be positive")
    b = 1 if shorted_end else 0
    knee = math.inf if c_load == 0.0 else 1.0 / (c_load * z0)
    bracket = mode_index * math.pi + b * math.pi / 2.0 - math.atan(target_omega / knee)
    if bracket <= 0.0:
        raise InvalidTarget(
            f"no positive length places branch m={mode_index} at the requested frequency"
        )
    return bracket * v_p / target_omega
