"""Partial-transpose spectrum, negativity, separability boundary and T_c.

The partial transpose of the two-mode thermal state factorises into
geometric ladders with ratios zeta1 = r(a+_2, a-_1) and zeta2 = r(a+_1, a-_2),
where r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m); a negative ratio
signals entanglement (the covariance-matrix PPT criterion, Simon, PRL 84,
2726 (2000)).  :mod:`oscquench.observables` evaluates these ratios over
whole temperature grids.

A quenched state is the thermal state of the final frequencies (see
:mod:`oscquench.core`), so separability and T_c are decided by one
condition on the final pair: coth x coth(r x) >= r, with x = omega_min beta / 2
and r = omega_max / omega_min.  ``_margin`` writes it in a form that neither
cancels as r -> 1 nor overflows; ``check_separable`` tests its sign, and
``g_inverse`` finds its root in x with ``_root``, a bracketed search that
refines every element of an array to adjacent doubles and raises
``NumericalFailureError`` if a bracket does not hold.  ``critical_temperature``
turns that root into T_c and also gives the coth approximation;
``critical_temperature_sqm`` applies it to a spec's final pair, cut at beta*
for a downward quench.  ``boundary_g`` solves the boundary's own equation
Y tanh Y = z coth z with the same search.  The trace-moment route kept here
(``pt_moments``: tr sigma^2 and tr sigma^3 of the transposed kernel
determine zeta1, zeta2) shares no formula with these and serves as an
independent cross-check, as does ``pt_spectrum_const``; the moment route's
error grows like ~1e-14 / |zeta1 zeta2| near the separability boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QuenchSpec, _scalar_or_array, beta_limit, mode_thermo, normal_modes
from .errors import DomainError, NumericalFailureError
from .kernels import QuadraticKernel, partial_transpose, thermal_rho_coupled

# u^2 - 4v rounds slightly negative for degenerate ratios (identical modes);
# the moment inversion amplifies machine noise to ~1e-10 there, so the clamp
# is relative to the moment scale.  Anything more negative is a real failure.
DISCRIMINANT_CLAMP = 1e-9
# the root of y tanh y = 1: x = g^-1(r) -> y0 / r as r -> inf
_Y0 = 1.1996786402577337


@dataclass(frozen=True)
class ConstFreqPT:
    """Constant-frequency partial-transpose data at one inverse temperature."""

    mu_plus: float
    mu_minus: float
    nu_plus: float
    nu_minus: float
    eps1: float
    eps2: float
    zeta1: float
    zeta2: float


@dataclass(frozen=True)
class PTMoments:
    """Trace moments of a partial transpose and the ratios they determine."""

    beta1: float
    beta2: float
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
    return ConstFreqPT(mu_plus=mu_p, mu_minus=mu_m, nu_plus=nu_p, nu_minus=nu_m,
                       eps1=eps1, eps2=eps2, zeta1=zeta1, zeta2=zeta2)


def negativity(zeta1, zeta2):
    """Sum of |eigenvalues| minus one of the geometric PT ladder.

    Zero exactly when both ratios are non-negative (separable); ``inf`` when
    a negative ratio reaches -1 (zero-temperature divergence).  Takes floats
    or, elementwise, arrays.
    """
    n = 1.0
    for zeta in (zeta1, zeta2):
        z = np.asarray(zeta, dtype=float)
        if not np.all(np.abs(z) <= 1 + 1e-12):
            raise DomainError(f"zeta must be finite with |zeta| <= 1, got {zeta}")
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
        return PTMoments(beta1=beta1, beta2=beta2, u=0.0, v=0.0, zeta1=0.0, zeta2=0.0)
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
    return PTMoments(beta1=beta1, beta2=beta2, u=u, v=v, zeta1=(u + root) / 2, zeta2=(u - root) / 2)


def sigma_for_quench(spec: QuenchSpec, beta: float) -> QuadraticKernel:
    """Partial transpose of the thermal state of a quench at inverse temperature beta."""
    m1, m2 = normal_modes(spec)
    rho = thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))
    return partial_transpose(rho)


def negativity_for_quench(spec: QuenchSpec, beta: float) -> float:
    mom = pt_moments(sigma_for_quench(spec, beta))
    return negativity(mom.zeta1, mom.zeta2)


def _margin(x, d):
    """A number with the sign of coth x coth(r x) - r, r = 1 + d, elementwise.

    That difference is the PPT condition cosh(d x) >= d sinh x sinh(r x)
    (>= 0: separable) divided by sinh x sinh(r x).  Divided instead by
    cosh(d x) e^(2x) / 4 it reads 4 e^(-2x) - d m (m + (2 - m) tanh(d x)),
    m = 1 - e^(-2x): every term is >= 0, so nothing cancels as d -> 0 and
    nothing overflows for finite x and d x.
    """
    t = -2 * x
    m = -np.expm1(t)
    return 4 * np.exp(t) - d * m * (m + (2 - m) * np.tanh(d * x))


def check_separable(omega1, omega2, beta):
    """Separability of the constant-frequency thermal state (elementwise on arrays).

    Equivalent to zeta1 >= 0 and zeta2 >= 0, i.e. coth x coth(r x) >= r with
    x = omega_min beta / 2 and r = omega_max / omega_min.
    """
    w_min, w_max = np.minimum(omega1, omega2), np.maximum(omega1, omega2)
    sep = np.asarray(_margin(w_min * beta / 2, (w_max - w_min) / w_min) >= 0)
    return bool(sep) if sep.ndim == 0 else sep


# Fractions of a bracket at which each pass of the root search evaluates f.
_SCAN = np.linspace(0.0, 1.0, 33)
_LAST_CELL = len(_SCAN) - 2


def _root(f, lo, hi):
    """The x in [lo, hi] where a decreasing f falls from > 0 to <= 0, per element of lo, hi.

    f must be elementwise on arrays.  Each pass evaluates f at the left ends
    of 32 equal cells of every bracket and keeps the cell after the positive
    values.  A bracket never grows, so the passes stop once none shrinks,
    i.e. at the spacing of doubles; returns the midpoint of the final cell.
    Raises ``NumericalFailureError`` unless f(lo) > 0 and f(hi) <= 0.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    scan = _SCAN  # the first pass also evaluates hi, to check the bracket
    while True:
        width = hi - lo
        pos = f(lo[..., None] + width[..., None] * scan) > 0
        if scan is _SCAN:
            if not (pos[..., 0].all() and not pos[..., -1].any()):
                raise NumericalFailureError("root is not bracketed: f(lo) <= 0 or f(hi) > 0")
            scan = _SCAN[:-1]
        # a refined cell's left end can re-evaluate to <= 0 when the root sits
        # within rounding of it; keep the first cell then
        k = np.maximum(pos.sum(axis=-1) - 1, 0)
        new_lo = lo + width * _SCAN[k]
        new_hi = np.where(k == _LAST_CELL, hi, lo + width * _SCAN[k + 1])
        if ((new_lo == lo) & (new_hi == hi)).all():
            return _scalar_or_array((lo + hi) / 2)
        lo, hi = new_lo, new_hi


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
    y = _root(lambda y: target - y * np.tanh(y), 0.0, np.maximum(2.0 * z, 2.0))
    return _scalar_or_array(np.asarray(y / z))


def g_inverse(ratio):
    """Solve g(x) = ratio for x > 0 (ratio > 1), elementwise; g decreases from inf to 1.

    x is the root of ``_margin(x, ratio - 1)``, refined to the spacing of doubles.
    """
    r = np.asarray(ratio, dtype=float)
    if not np.all(np.isfinite(r) & (r > 1)):
        raise DomainError(f"g takes finite values > 1 only, got ratio = {ratio}")
    # below x = 1/r, x coth x > 1 > r x tanh(r x); at x = atanh(r^-1/2),
    # coth x = sqrt r < r tanh(r x).  The factor 2 keeps that end past the
    # root in floating point as r -> 1.
    d = (r - 1)[..., None]
    return _root(lambda x: _margin(x, d), 1 / r, 2 * np.arctanh(r**-0.5))


@dataclass(frozen=True)
class CriticalTemp:
    """Exact and approximate entanglement-vanishing temperatures."""

    tc_exact: float | np.ndarray
    tc_approx: float | np.ndarray


def critical_temperature(omega1, omega2) -> CriticalTemp:
    """Critical temperature of the constant-frequency thermal state, from its two frequencies.

    Exact: T_c = omega_min / (2 g^{-1}(omega_max / omega_min)), with
    g^{-1} refined to the spacing of doubles.  Approximate (g ~ coth):
    T_c = omega_min / ln((omega_max + omega_min) / (omega_max - omega_min)),
    evaluated as ln(1 + 2 omega_min / (omega_max - omega_min)) so that neither
    omega_min / omega_max -> 0 nor -> 1 cancels.
    Equal frequencies are never entangled, so T_c = 0.  Frequency arrays
    give arrays of T_c, elementwise.  For a ``QuenchSpec`` use
    :func:`critical_temperature_sqm`, which applies this to the final pair.

    tc_approx is an upper bound on tc_exact: with r = omega_max / omega_min,
    x_e = omega_min / (2 tc_exact) solves coth x_e = r tanh(r x_e) < r =
    coth x_a, so x_e > x_a.  The relative gap x_e / x_a - 1 rises with r
    towards y0 - 1 = 0.19968, where y0 tanh y0 = 1.  A ratio that overflows
    (beyond 2^1024) takes the limits omega_max / (2 y0) and omega_max / 2,
    which hold there to rounding.
    """
    w1, w2 = np.asarray(omega1, dtype=float), np.asarray(omega2, dtype=float)
    if not (np.all(w1 > 0) and np.all(w2 > 0)):
        raise DomainError("frequencies must be positive")
    w_min, w_max = np.minimum(w1, w2), np.maximum(w1, w2)
    equal = w_min == w_max
    # equal frequencies: log1p(inf) = inf gives T_c = 0.  A ratio beyond 2^1024 overflows;
    # there x = y0 / r and log1p(2 / r) = 2 / r hold to rounding, so 2 T_c = omega_max / y0
    # (exact) and omega_max (approximate)
    with np.errstate(divide="ignore", over="ignore"):
        tc_approx = w_min / np.log1p(2 * w_min / (w_max - w_min))
        ratio = w_max / w_min
    far = np.isinf(ratio)
    x = g_inverse(np.where(equal | far, 2.0, ratio))
    tc_exact = np.where(equal, 0.0, np.where(far, w_max / (2 * _Y0), w_min / (2 * x)))
    tc_approx = np.where(far, w_max / 2, tc_approx)
    return CriticalTemp(tc_exact=_scalar_or_array(tc_exact), tc_approx=_scalar_or_array(tc_approx))


def critical_temperature_sqm(spec: QuenchSpec) -> float:
    """Temperature above which the quench's state is separable; 0 if it is at every admitted one.

    The state at inverse temperature beta is exp(-beta H_f) / Z (see
    :mod:`oscquench.core`), so T_c is that of the final frequency pair,
    ``critical_temperature(omega1_f, omega2_f).tc_exact``.  A downward quench
    admits only beta below ``core.beta_limit``; if 1 / T_c lies at or
    beyond that cut, the state is separable at every admitted temperature
    and 0.0 is returned.
    """
    m1, m2 = normal_modes(spec)
    tc = critical_temperature(m1.omega_f, m2.omega_f).tc_exact
    beta_cut = min(beta_limit(m1), beta_limit(m2))
    return tc if tc > 0 and 1 / tc < beta_cut else 0.0
