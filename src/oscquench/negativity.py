"""Partial-transpose spectrum, negativity, separability boundary and T_c.

The partial transpose of the two-mode thermal state factorises, at constant
frequencies and after a sudden quench alike, into geometric ladders with
ratios zeta1 = r(a+_2, a-_1) and zeta2 = r(a+_1, a-_2), where
r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m); a negative ratio signals
entanglement (the covariance-matrix PPT criterion, Simon, PRL 84, 2726
(2000)).  :mod:`oscquench.observables` evaluates these ratios over whole
temperature grids.  ``critical_temperature_sqm`` gives T_c of any spec,
constant or quenched; ``critical_temperature`` takes bare frequency pairs
and also gives the coth approximation.  The trace-moment route kept here (``pt_moments``:
tr sigma^2 and tr sigma^3 of the transposed kernel determine zeta1, zeta2)
shares no formula with it and serves as an independent cross-check; its
error grows like ~1e-14 / |zeta1 zeta2| near the separability boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BETA_STAR_MARGIN, QuenchSpec, _scalar_or_array, beta_star, mode_thermo,
                   mode_widths, normal_modes)
from .errors import DomainError, NumericalFailureError
from .kernels import QuadraticKernel, partial_transpose, thermal_rho_coupled

# u^2 - 4v rounds slightly negative for degenerate ratios (identical modes);
# the moment inversion amplifies machine noise to ~1e-10 there, so the clamp
# is relative to the moment scale.  Anything more negative is a real failure.
DISCRIMINANT_CLAMP = 1e-9


@dataclass(frozen=True)
class ConstFreqPT:
    """Constant-frequency partial-transpose data at one inverse temperature."""

    beta: float
    mu_plus: float
    mu_minus: float
    nu_plus: float
    nu_minus: float
    eps1: float
    eps2: float
    zeta1: float
    zeta2: float

    def eigenvalue(self, m: int, n: int) -> float:
        return (1 - self.zeta1) * (1 - self.zeta2) * self.zeta1**m * self.zeta2**n


@dataclass(frozen=True)
class PTMoments:
    """Trace moments of a partial transpose and the ratios they determine."""

    beta1: float
    beta2: float
    x1: float
    x2: float
    u: float
    v: float
    zeta1: float
    zeta2: float


def pt_spectrum_const(omega1: float, omega2: float, beta: float) -> ConstFreqPT:
    """Exact partial-transpose data for constant frequencies."""
    if omega1 <= 0 or omega2 <= 0 or beta <= 0:
        raise DomainError("omega1, omega2 and beta must be positive")
    t1, c1 = math.tanh(omega1 * beta / 2), 1 / math.tanh(omega1 * beta / 2)
    t2, c2 = math.tanh(omega2 * beta / 2), 1 / math.tanh(omega2 * beta / 2)
    mu_p = (omega1 * c1 + omega2 * t2) / 4
    mu_m = (omega1 * t1 + omega2 * c2) / 4
    nu_p = (omega1 * c1 - omega2 * t2) / 4
    nu_m = -(omega1 * t1 - omega2 * c2) / 4
    eps1 = 2 * math.sqrt(mu_m**2 - nu_m**2)
    eps2 = 2 * math.sqrt(mu_p**2 - nu_p**2)
    s1t, s2c = math.sqrt(omega1 * t1), math.sqrt(omega2 * c2)
    s1c, s2t = math.sqrt(omega1 * c1), math.sqrt(omega2 * t2)
    zeta1 = -(s1t - s2c) / (s1t + s2c)
    zeta2 = (s1c - s2t) / (s1c + s2t)
    return ConstFreqPT(beta=beta, mu_plus=mu_p, mu_minus=mu_m, nu_plus=nu_p,
                       nu_minus=nu_m, eps1=eps1, eps2=eps2, zeta1=zeta1, zeta2=zeta2)


def negativity(zeta1, zeta2):
    """Sum of |eigenvalues| minus one of the geometric PT ladder.

    Zero exactly when both ratios are non-negative (separable); ``inf`` when
    a negative ratio reaches -1 (zero-temperature divergence).  Takes floats
    or, elementwise, arrays.
    """
    n = 1.0
    for zeta in (zeta1, zeta2):
        z = np.asarray(zeta, dtype=float)
        if np.any(np.abs(z) > 1 + 1e-12):
            raise DomainError(f"|zeta| must not exceed 1, got {zeta}")
        az = np.minimum(np.abs(z), 1.0)
        with np.errstate(divide="ignore"):
            n = n * np.where(z < 0, (1 + az) / (1 - az), 1.0)
    return _scalar_or_array(n - 1.0)


def pt_moments(sigma: QuadraticKernel) -> PTMoments:
    """Ratios (zeta1, zeta2) of a partial transpose from its trace moments.

    beta1 = tr sigma^2 and beta2 = tr sigma^3 are rational in the exponent
    coefficients of the un-transposed kernel; inverting the two geometric
    moment equations gives u = zeta1 + zeta2 and v = zeta1 zeta2 (positive
    inner square-root branch, which the constant-frequency limit fixes).
    """
    al = partial_transpose(sigma).alphas()
    x1 = (al.a1 + al.a2 - 2 * al.a5) ** 2 - (al.a3 + al.a4 + 2 * al.a6) ** 2
    x2 = (al.a1 + al.a2 + 2 * al.a5) ** 2 - (al.a3 + al.a4 - 2 * al.a6) ** 2
    if x1 <= 0 or x2 <= 0:
        raise DomainError(f"moment combinations must be positive, got X1={x1}, X2={x2}")
    beta1 = math.sqrt(x1 / x2)
    beta2 = 4 * x1 / (x1 + 3 * x2 - 12 * (al.a5**2 - al.a3 * al.a4))
    if abs(beta1 - 1) < 1e-10 and abs(beta2 - 1) < 1e-10:
        # pure product state (zero-temperature limit): spectrum is {1}; both
        # moments at 1 force both ratios to zero (a pure entangled state
        # would keep tr sigma^3 visibly below 1)
        return PTMoments(beta1=beta1, beta2=beta2, x1=x1, x2=x2,
                         u=0.0, v=0.0, zeta1=0.0, zeta2=0.0)
    den = 2 * (4 * beta1**2 - beta1**2 * beta2 - 3 * beta2)
    if den == 0:
        raise NumericalFailureError("degenerate moment system (denominator vanished)")
    root_arg = 3 * beta2 * (16 * beta1**2 - beta2 * (3 - beta1) ** 2)
    if root_arg < 0:
        raise NumericalFailureError(f"negative square-root argument {root_arg} in moment inversion")
    s = -3 * beta2 * (1 + beta1) + math.sqrt(root_arg)
    u = (1 - beta1) / den * s
    v = -1 + (1 + beta1) / den * s
    disc = u * u - 4 * v
    if disc < 0:
        if disc < -DISCRIMINANT_CLAMP * max(1.0, u * u, 4 * abs(v)):
            raise NumericalFailureError(f"moment discriminant {disc} below clamp tolerance")
        disc = 0.0
    root = math.sqrt(disc)
    return PTMoments(beta1=beta1, beta2=beta2, x1=x1, x2=x2, u=u, v=v,
                     zeta1=(u + root) / 2, zeta2=(u - root) / 2)


def sigma_for_quench(spec: QuenchSpec, beta: float) -> QuadraticKernel:
    """Partial transpose of the thermal state of a quench at inverse temperature beta."""
    m1, m2 = normal_modes(spec)
    rho = thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))
    return partial_transpose(rho)


def negativity_for_quench(spec: QuenchSpec, beta: float) -> float:
    mom = pt_moments(sigma_for_quench(spec, beta))
    return negativity(mom.zeta1, mom.zeta2)


def check_separable(omega1, omega2, beta):
    """Separability of the constant-frequency thermal state (elementwise on arrays).

    Equivalent to zeta1 >= 0 and zeta2 >= 0: with x = omega1 beta / 2 and
    y = omega2 beta / 2, both x tanh x <= y coth y and x coth x >= y tanh y.
    """
    x, y = np.asarray(omega1 * beta / 2), np.asarray(omega2 * beta / 2)
    first = x * np.tanh(x) - y / np.tanh(y) <= 0
    second = x / np.tanh(x) - y * np.tanh(y) >= 0
    sep = first & second
    return bool(sep) if sep.ndim == 0 else sep


# Fractions of a bracket at which each pass of the root search evaluates f,
# and a cap on the passes.  A pass narrows a bracket 32-fold, so a bracket
# reaches the spacing of doubles, where it stops shrinking, well within the cap.
_SCAN = np.linspace(0.0, 1.0, 33)
_MAX_PASSES = 64

# The quench T_c scan spans these multiples of the spec's lowest and highest
# mode frequency.
_TC_WINDOW = (1e-4, 1e4)


def _last_crossing(f, lo, hi):
    """Highest x in [lo, hi] where f falls from > 0 to <= 0, per element of lo, hi.

    f must be elementwise on arrays, and f(hi) <= 0.  Each pass evaluates f
    at evenly spaced points of every bracket and keeps the cell after the
    last positive value; passes stop once no cell shrinks any more, i.e. at
    the spacing of doubles.  Returns the midpoint of the final cell, or nan
    (without further passes) where f <= 0 at every point of the first pass.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    last_cell = len(_SCAN) - 2
    found = None
    for _ in range(_MAX_PASSES):
        width = hi - lo
        pos = f(lo[..., None] + width[..., None] * _SCAN[:-1]) > 0
        any_pos = pos.any(axis=-1)
        if found is None:
            found = any_pos
        # a refined cell's left end can re-evaluate to <= 0 when the root sits
        # within rounding of it; keep the first cell then
        k = np.where(any_pos, last_cell - np.argmax(pos[..., ::-1], axis=-1), 0)
        new_lo = lo + width * _SCAN[k]
        new_hi = np.where(k == last_cell, hi, lo + width * _SCAN[k + 1])
        settled = ((new_lo == lo) & (new_hi == hi)) | ~found
        lo, hi = new_lo, new_hi
        if settled.all():
            break
    return _scalar_or_array(np.where(found, (lo + hi) / 2, np.nan))


def boundary_g(z):
    """Boundary slope function g with y_c = x_c g(x_c) on the upper branch.

    g(z) = Y / z where Y tanh Y = z coth z; elementwise on arrays.  Y is
    refined to the spacing of doubles.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z > 0)):
        raise DomainError(f"boundary argument must be positive and finite, got {z}")
    target = (z / np.tanh(z))[..., None]
    # Y = max(2z, 2) already has Y tanh Y >= z coth z, so it bounds the root
    y = _last_crossing(lambda y: target - y * np.tanh(y), 0.0, np.maximum(2.0 * z, 2.0))
    return _scalar_or_array(np.asarray(y / z))


def g_inverse(ratio):
    """Solve g(x) = ratio for x > 0 (ratio > 1), elementwise; g decreases from inf to 1.

    x is refined to the spacing of doubles.
    """
    r = np.asarray(ratio, dtype=float)
    if not np.all(np.isfinite(r) & (r > 1)):
        raise DomainError(f"g takes finite values > 1 only, got ratio = {ratio}")
    # x = atanh(r^-1/2) has coth x = sqrt r < r tanh(r x), so g(x) < r there
    hi = np.log((np.sqrt(r) + 1) ** 2 / (r - 1)) / 2
    rc = r[..., None]
    return _last_crossing(lambda x: x / np.tanh(x) - rc * x * np.tanh(rc * x), 1e-12, hi)


@dataclass(frozen=True)
class CriticalTemp:
    """Exact and approximate entanglement-vanishing temperatures."""

    tc_exact: float | np.ndarray
    tc_approx: float | np.ndarray


def critical_temperature(omega1, omega2) -> CriticalTemp:
    """Critical temperature of the constant-frequency thermal state, from its two frequencies.

    Exact: T_c = omega_min / (2 g^{-1}(omega_max / omega_min)), with
    g^{-1} refined to the spacing of doubles.  Approximate (g ~ coth):
    T_c = omega_min / ln((omega_max + omega_min) / (omega_max - omega_min)).
    Equal frequencies are never entangled, so T_c = 0.  Frequency arrays
    give arrays of T_c, elementwise.  For a ``QuenchSpec``, constant or
    not, use :func:`critical_temperature_sqm`.

    tc_approx is an upper bound on tc_exact: with r = omega_max / omega_min,
    x_e = omega_min / (2 tc_exact) solves coth x_e = r tanh(r x_e) < r =
    coth x_a, so x_e > x_a.  The relative gap x_e / x_a - 1 rises with r
    towards y0 - 1 = 0.19968, where y0 tanh y0 = 1.
    """
    w1, w2 = np.asarray(omega1, dtype=float), np.asarray(omega2, dtype=float)
    if not (np.all(w1 > 0) and np.all(w2 > 0)):
        raise DomainError("frequencies must be positive")
    w_min, w_max = np.minimum(w1, w2), np.maximum(w1, w2)
    equal = w_min == w_max
    with np.errstate(divide="ignore"):
        tc_approx = np.where(equal, 0.0, w_min / np.log((w_max + w_min) / (w_max - w_min)))
    x = g_inverse(np.where(equal, 2.0, w_max / w_min))
    tc_exact = np.where(equal, 0.0, w_min / (2 * x))
    return CriticalTemp(tc_exact=_scalar_or_array(tc_exact), tc_approx=_scalar_or_array(tc_approx))


def critical_temperature_sqm(spec: QuenchSpec) -> float:
    """Highest temperature at which the quench's negativity vanishes.

    The state is entangled exactly where max(a-_1 / a+_2, a-_2 / a+_1) > 1,
    i.e. where zeta1 or zeta2 is negative; ``mode_widths`` takes constant
    frequencies exactly, so this serves constant specs too.  That ratio
    depends on T only through omega / T, so the scan runs over log T in the
    spec's own frequency units: from T = 1e4 omega_max down to
    1e-4 omega_min, over the initial and final frequencies of both modes,
    or down to the lowest temperature a downward quench admits
    (beta < beta* (1 - BETA_STAR_MARGIN)).  Scaling every spring constant
    and coupling by s^2 thus scales T_c by s, to rounding.
    The highest root is refined to the spacing of doubles in log T; a lower
    crossing, if the state were entangled again further down, is not
    reported.  Returns 0.0 if the state is separable at every scanned
    temperature; raises ``NumericalFailureError`` if it is still entangled
    at the top of the window.
    """
    m1, m2 = normal_modes(spec)
    omegas = (m1.omega_i, m1.omega_f, m2.omega_i, m2.omega_f)

    def margin(log_t):
        beta = np.exp(-log_t)
        w1, w2 = mode_widths(m1, beta), mode_widths(m2, beta)
        return np.maximum(w1.a_minus / w2.a_plus, w2.a_minus / w1.a_plus) - 1.0

    t_ceil = _TC_WINDOW[1] * max(omegas)
    hi = math.log(t_ceil)
    if margin(hi) > 0:
        raise NumericalFailureError(f"state still entangled at T = {t_ceil:.6g}")
    beta_cut = min(beta_star(m1), beta_star(m2)) * (1 - BETA_STAR_MARGIN)
    lo = max(math.log(_TC_WINDOW[0] * min(omegas)), -math.log(beta_cut))
    root = _last_crossing(margin, lo, hi)
    return 0.0 if math.isnan(root) else math.exp(root)
