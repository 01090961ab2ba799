"""Thermal state of a suddenly quenched oscillator mode.

A "sudden quench" changes an oscillator's angular frequency discontinuously
from ``omega_i`` (at t = 0) to ``omega_f`` (t > 0).  After continuing to
imaginary time, the paper writes the thermal kernel of one mode at inverse
temperature ``beta`` through the Euclidean scale factor b, the phase
Gamma_E (closed forms in ``ermakov.sudden_scale_euclidean`` and
``sudden_phase_euclidean``) and the prefactor exponent
A = (wf^2 - wi^2) sinh(2 wf beta) / (4 wf b^2).  With this A, omega_i
cancels exactly: for t > 0 the Hamiltonian is H_f, so the Euclidean
propagator over beta is exp(-beta H_f).  With x = omega_f beta the
Gaussian widths of the kernel are

    a+ = omega_f coth(x / 2),   a- = omega_f tanh(x / 2),   xi = exp(-x),

the kernel is the Mehler kernel of omega_f and Z = 1 / (2 sinh(x / 2)).
omega_i enters only the domain: for a downward quench the paper's b^2
vanishes at beta*.  ``domain_errors``, the one rule every caller reads,
refuses non-finite inverse temperatures, those below BETA_FLOOR and those
from ``beta_limit`` = beta* (1 - BETA_STAR_MARGIN) on.  All functions are
pure; units are hbar = k_B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Reject inverse temperatures below this: a+ ~ 2/beta overflows and every
# T -> infinity quantity has an analytic limit instead.
BETA_FLOOR = 1e-8

# Downward quenches are accepted only up to beta_star * (1 - BETA_STAR_MARGIN).
BETA_STAR_MARGIN = 1e-6


@dataclass(frozen=True)
class QuenchSpec:
    """Spring constant k0 and coupling J before (i) and after (f) the quench."""

    k0_i: float
    k0_f: float
    j_i: float
    j_f: float

    def __post_init__(self):
        for name in ("k0_i", "k0_f", "j_i", "j_f"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.k0_i > 0 and self.k0_f > 0):
            raise DomainError(f"spring constants must be positive, got k0_i={self.k0_i}, k0_f={self.k0_f}")
        if self.k0_i + 2 * self.j_i <= 0:
            raise DomainError(f"k0_i + 2*j_i = {self.k0_i + 2 * self.j_i} <= 0: second normal mode not real")
        if self.k0_f + 2 * self.j_f <= 0:
            raise DomainError(f"k0_f + 2*j_f = {self.k0_f + 2 * self.j_f} <= 0: second normal mode not real")


@dataclass(frozen=True)
class ModeQuench:
    """Initial and final angular frequency of one normal mode."""

    omega_i: float
    omega_f: float

    def __post_init__(self):
        if not (self.omega_i > 0 and self.omega_f > 0):
            raise DomainError(f"frequencies must be positive, got ({self.omega_i}, {self.omega_f})")


@dataclass(frozen=True)
class ModeThermo:
    """Per-mode widths at fixed inverse temperature.

    ``a_plus`` and ``a_minus`` are the symmetric/antisymmetric Gaussian widths
    of the thermal kernel and ``xi`` the geometric ratio of its eigenvalue
    ladder; sqrt(a_plus * a_minus) = omega_f is the eigenfunction scale.
    """

    mode: ModeQuench
    beta: float
    a_plus: float
    a_minus: float
    xi: float


def normal_modes(spec: QuenchSpec) -> tuple[ModeQuench, ModeQuench]:
    """Decouple the two coupled oscillators into their normal modes.

    Mode 1 (center of mass) has frequency sqrt(k0); mode 2 (relative) has
    sqrt(k0 + 2 J), real since ``QuenchSpec`` refuses k0 + 2 J <= 0 on either side.
    """
    mode1 = ModeQuench(math.sqrt(spec.k0_i), math.sqrt(spec.k0_f))
    mode2 = ModeQuench(math.sqrt(spec.k0_i + 2 * spec.j_i), math.sqrt(spec.k0_f + 2 * spec.j_f))
    return mode1, mode2


def beta_star(mode: ModeQuench) -> float:
    """Inverse temperature where b^2 first vanishes for a downward quench.

    For omega_f >= omega_i the scale factor never vanishes and infinity is
    returned.  Otherwise cosh(2 wf beta*) = (wi^2 + wf^2) / (wi^2 - wf^2).
    """
    wi, wf = mode.omega_i, mode.omega_f
    if wf >= wi:
        return math.inf
    return math.acosh((wi * wi + wf * wf) / (wi * wi - wf * wf)) / (2 * wf)


def _scalar_or_array(v: np.ndarray):
    """A 0-d result as a Python float, anything else as the array."""
    return float(v) if v.ndim == 0 else v


def beta_limit(mode: ModeQuench) -> float:
    """beta* (1 - BETA_STAR_MARGIN), the first refused inverse temperature; inf for an upward quench."""
    return beta_star(mode) * (1 - BETA_STAR_MARGIN)


def _refusal(modes, beta: float) -> DomainError:
    """The ``DomainError`` of the first check that ``beta`` fails."""
    if not math.isfinite(beta):
        return DomainError(f"beta must be finite, got {beta}")
    if not beta > 0:
        return DomainError(f"beta must be positive, got {beta}")
    if beta < BETA_FLOOR:
        return DomainError(f"beta={beta} below floor {BETA_FLOOR}; use analytic high-T limits instead")
    mode = next(m for m in modes if beta >= beta_limit(m))
    bs = beta_star(mode)
    return DomainError(f"downward quench ({mode.omega_i} -> {mode.omega_f}): b^2 vanishes at beta* = {bs}; "
                       f"requested beta = {beta} is out of domain", beta_star=bs)


def domain_errors(modes, beta) -> dict[int, DomainError]:
    """{index: DomainError} for the refused entries of a beta array (a scalar is index 0).

    Admitted: finite, at least BETA_FLOOR and below every mode's ``beta_limit``.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    ok = np.isfinite(beta) & (beta >= BETA_FLOOR) & (beta < min(map(beta_limit, modes)))
    return {int(i): _refusal(modes, float(beta[i])) for i in np.flatnonzero(~ok)}


class Widths(NamedTuple):
    """Per-mode Gaussian widths and ladder ratio over an array of inverse temperatures."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    xi: np.ndarray


def mode_widths(mode: ModeQuench, beta) -> Widths:
    """a+ = omega_f coth(x/2), a- = omega_f tanh(x/2) and xi = exp(-x), x = omega_f beta.

    Elementwise over a beta array.  Nothing is checked: entries outside the
    domain (see ``domain_errors``) are evaluated like any other.
    """
    wf = mode.omega_f
    x = wf * np.asarray(beta, dtype=float)
    th = np.tanh(x / 2)
    return Widths(a_plus=wf / th, a_minus=wf * th, xi=np.exp(-x))


def mode_thermo(mode: ModeQuench, beta: float) -> ModeThermo:
    """Scalar, checked form of ``mode_widths``: raises ``DomainError`` outside the domain."""
    if errors := domain_errors((mode,), beta):
        raise errors[0]
    w = mode_widths(mode, beta)
    return ModeThermo(mode=mode, beta=beta, a_plus=float(w.a_plus), a_minus=float(w.a_minus),
                      xi=float(w.xi))


def purity_single(mt):
    """Purity tr(rho^2) = sqrt(a-/a+) of the one-mode thermal state.

    Takes a ``ModeThermo`` or, elementwise, ``Widths``.
    """
    return np.sqrt(mt.a_minus / mt.a_plus)

