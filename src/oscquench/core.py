"""Closed-form Euclidean thermodynamics of a suddenly quenched oscillator mode.

A "sudden quench" changes an oscillator's angular frequency discontinuously
from ``omega_i`` (at t = 0) to ``omega_f`` (t > 0).  After continuing to
imaginary time, every thermal quantity of one mode at inverse temperature
``beta`` is an elementary function of the Euclidean scale factor

    b^2(beta) = ((wf^2 - wi^2) cosh(2 wf beta) + (wf^2 + wi^2)) / (2 wf^2)

and the accumulated Euclidean phase

    Gamma_E(beta) = artanh((wi / wf) tanh(wf beta)).

This module evaluates b, Gamma_E, the prefactor-exponent coefficient A, the
Gaussian widths a+ and a-, the spectral ratio xi, and the purity/partition
function built from them.  All functions are pure; units are hbar = k_B = 1.
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
        if not (self.k0_i > 0 and self.k0_f > 0):
            raise DomainError(f"spring constants must be positive, got k0_i={self.k0_i}, k0_f={self.k0_f}")
        if self.k0_i + 2 * self.j_i <= 0:
            raise DomainError(f"k0_i + 2*j_i = {self.k0_i + 2 * self.j_i} <= 0: second normal mode not real")
        if self.k0_f + 2 * self.j_f <= 0:
            raise DomainError(f"k0_f + 2*j_f = {self.k0_f + 2 * self.j_f} <= 0: second normal mode not real")

    @property
    def is_constant(self) -> bool:
        return self.k0_i == self.k0_f and self.j_i == self.j_f


@dataclass(frozen=True)
class ModeQuench:
    """Initial and final angular frequency of one normal mode."""

    omega_i: float
    omega_f: float

    def __post_init__(self):
        if not (self.omega_i > 0 and self.omega_f > 0):
            raise DomainError(f"frequencies must be positive, got ({self.omega_i}, {self.omega_f})")

    @property
    def is_constant(self) -> bool:
        return self.omega_i == self.omega_f


@dataclass(frozen=True)
class Temperature:
    """Temperature in energy units (k_B = 1)."""

    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError(f"temperature must be positive, got {self.t}")

    @property
    def beta(self) -> float:
        return 1.0 / self.t


@dataclass(frozen=True)
class ModeThermo:
    """Per-mode Euclidean quantities at fixed inverse temperature.

    ``a_plus`` and ``a_minus`` are the symmetric/antisymmetric Gaussian widths
    of the thermal kernel, ``xi`` the geometric ratio of its eigenvalue
    ladder, and ``eps = sqrt(a_plus * a_minus)`` the eigenfunction scale.
    """

    mode: ModeQuench
    beta: float
    b: float
    gamma_e: float
    a_cap: float
    a_plus: float
    a_minus: float
    xi: float
    eps: float

    @property
    def inv_b(self) -> float:
        return 1.0 / self.b if math.isfinite(self.b) else 0.0


def normal_modes(spec: QuenchSpec) -> tuple[ModeQuench, ModeQuench]:
    """Decouple the two coupled oscillators into their normal modes.

    Mode 1 (center of mass) has frequency sqrt(k0); mode 2 (relative) has
    sqrt(k0 + 2 J).  Raises ``DomainError`` if a radicand is non-positive.
    """
    w2_i_sq = spec.k0_i + 2 * spec.j_i
    w2_f_sq = spec.k0_f + 2 * spec.j_f
    if w2_i_sq <= 0 or w2_f_sq <= 0:
        raise DomainError("second normal-mode frequency is not real", radicands=(w2_i_sq, w2_f_sq))
    mode1 = ModeQuench(math.sqrt(spec.k0_i), math.sqrt(spec.k0_f))
    mode2 = ModeQuench(math.sqrt(w2_i_sq), math.sqrt(w2_f_sq))
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


def _check_beta(mode: ModeQuench, beta: float) -> None:
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta < BETA_FLOOR:
        raise DomainError(f"beta={beta} below floor {BETA_FLOOR}; use analytic high-T limits instead")
    bs = beta_star(mode)
    if beta >= bs * (1 - BETA_STAR_MARGIN):
        raise DomainError(
            f"downward quench ({mode.omega_i} -> {mode.omega_f}): b^2 vanishes at beta* = {bs}; "
            f"requested beta = {beta} is out of domain",
            beta_star=bs,
        )


def _check_widths(a_plus: float, a_minus: float, beta: float) -> None:
    # a+ > a- > 0 mathematically; the gap ~ exp(-omega_f beta) underflows to
    # equality at very low temperature, which is accepted
    if not a_plus >= a_minus > 0:
        raise DomainError(f"Gaussian widths out of order: a+={a_plus}, a-={a_minus} at beta={beta}")


def in_domain(mode: ModeQuench, beta) -> np.ndarray:
    """Elementwise: the inverse temperatures that ``_check_beta`` accepts."""
    beta = np.asarray(beta, dtype=float)
    return (beta >= BETA_FLOOR) & (beta < beta_star(mode) * (1 - BETA_STAR_MARGIN))


class Widths(NamedTuple):
    """Per-mode Euclidean quantities over an array of inverse temperatures."""

    b: np.ndarray
    gamma_e: np.ndarray
    a_cap: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    xi: np.ndarray


def mode_widths(mode: ModeQuench, beta) -> Widths:
    """Evaluate the Euclidean quantities of one quenched mode over a beta array.

    The formulas are arranged so that nothing overflows for arbitrarily
    large ``omega_f * beta`` (tanh/sech based ratios); the constant-frequency
    case short-circuits to b = 1, Gamma_E = omega * beta, A = 0 exactly.
    Nothing is checked: entries outside the domain (see ``in_domain``) come
    out as nan or as meaningless numbers.
    """
    beta = np.asarray(beta, dtype=float)
    wi, wf = mode.omega_i, mode.omega_f
    with np.errstate(all="ignore"):
        if mode.is_constant:
            th = np.tanh(wi * beta / 2)
            return Widths(b=np.ones_like(beta), gamma_e=wi * beta, a_cap=np.zeros_like(beta),
                          a_plus=wi / th, a_minus=wi * th, xi=np.exp(-wi * beta))
        x = wf * beta
        dw2 = wf * wf - wi * wi
        sw2 = wf * wf + wi * wi
        sech2x = np.where(2 * x < 710, 1.0 / np.cosh(2 * x), 0.0)
        den = dw2 + sw2 * sech2x
        inv_b2 = 2 * wf * wf * sech2x / den
        b = np.where(inv_b2 > 0, np.sqrt(1.0 / inv_b2), np.inf)
        inv_b = np.sqrt(inv_b2)
        # A = dw2 * sinh(2x) / (4 wf b^2), written with bounded factors only
        a_cap = 0.5 * wf * dw2 * np.tanh(2 * x) / den
        # Gamma_E = artanh((wi/wf) tanh x); the log form keeps the argument
        # of atanh away from 1 when wi ~ wf and x is large
        t = np.tanh(x)
        num_m = np.where(x < 350, (wf - wi) + 2 * wi / (np.exp(2 * x) + 1), wf - wi)
        gamma = 0.5 * np.log((wf + wi * t) / num_m)
        sh, ch = np.sinh(gamma), np.cosh(gamma)
        common = a_cap + wi / (2 * sh) * (1 + inv_b2) * ch
        gap = wi * inv_b / sh
        a_plus = common + gap
        a_minus = common - gap
        xi = 2 * gap / (np.sqrt(a_plus) + np.sqrt(a_minus)) ** 2
    return Widths(b=b, gamma_e=gamma, a_cap=a_cap, a_plus=a_plus, a_minus=a_minus, xi=xi)


def mode_thermo(mode: ModeQuench, beta: float) -> ModeThermo:
    """Evaluate all Euclidean quantities of one quenched mode at ``beta``.

    Scalar, checked form of ``mode_widths``: raises ``DomainError`` outside
    the domain or if the widths come out of order.
    """
    _check_beta(mode, beta)
    w = Widths(*(float(v) for v in mode_widths(mode, beta)))
    _check_widths(w.a_plus, w.a_minus, beta)
    eps = mode.omega_i if mode.is_constant else math.sqrt(w.a_plus * w.a_minus)
    return ModeThermo(mode=mode, beta=beta, b=w.b, gamma_e=w.gamma_e, a_cap=w.a_cap,
                      a_plus=w.a_plus, a_minus=w.a_minus, xi=w.xi, eps=eps)


def purity_single(mt):
    """Purity tr(rho^2) = sqrt(a-/a+) of the one-mode thermal state.

    Takes a ``ModeThermo`` or, elementwise, ``Widths``.
    """
    return np.sqrt(mt.a_minus / mt.a_plus)


def partition_single(mt: ModeThermo) -> float:
    """Partition function of the one-mode thermal kernel.

    Z = sqrt(wi / (2 pi b sinh Gamma_E)) * sqrt(pi / a-); reduces to
    1 / (2 sinh(omega beta / 2)) at constant frequency.
    """
    sh = math.sinh(mt.gamma_e)
    if sh == 0:
        raise DomainError("sinh Gamma_E = 0 (beta = 0): partition function undefined")
    return math.sqrt(mt.mode.omega_i * mt.inv_b / (2 * sh * mt.a_minus))
