"""Closed-form spectra of Gaussian kernels and the entropies built on them.

A one-dimensional Gaussian kernel A exp(-a_in x^2 - a_out x'^2 + 2 c x x')
has the geometric eigenvalue ladder lambda_n = lead * xi^n with

    eps0 = sqrt((a_in + a_out)^2 - 4 c^2),   xi = 2 c / (a_in + a_out + eps0),

and Hermite-Gaussian eigenfunctions of width alpha0 = eps0 - (a_in - a_out).
A two-particle kernel that decouples in normal-mode coordinates factorises
into two such ladders.  Thermal states do, and so do the partial transposes
of sudden-quench thermal states: in normal coordinates the transposed
exponent splits into ladders with ratios zeta1 = r(a+_2, a-_1) and
zeta2 = r(a+_1, a-_2), r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m).
The entropies accept arrays, so :mod:`oscquench.observables` evaluates them
over a whole temperature grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _scalar_or_array
from .errors import DomainError
from .kernels import QuadraticKernel, reduce_substate, rotate_to_normal_modes
from .special import hermite_n

MAX_EIGENFUNCTION_INDEX = 60


@dataclass(frozen=True)
class SpectralData1D:
    """Geometric spectrum lambda_n = lead * xi^n of a 1-d Gaussian kernel."""

    eps0: float
    alpha0: float
    xi: float
    lead: float

    def eigenvalue(self, n: int) -> float:
        return self.lead * self.xi**n

    def eigenvalues(self, count: int) -> np.ndarray:
        return self.lead * self.xi ** np.arange(count)


@dataclass(frozen=True)
class BipartiteSpectralData:
    """Product spectrum p_mn = lead * xi1^m * xi2^n over normal modes."""

    xi1: float
    xi2: float
    eps1: float
    eps2: float
    mu1: float
    mu2: float
    lead: float

    def eigenvalue(self, m: int, n: int) -> float:
        return self.lead * self.xi1**m * self.xi2**n

    def eigenvalues(self, m_count: int, n_count: int) -> np.ndarray:
        return self.lead * np.outer(self.xi1 ** np.arange(m_count), self.xi2 ** np.arange(n_count))


def _solve_gauss_1d(a_in: float, a_out: float, cross: float, norm: float):
    sigma = a_in + a_out
    if sigma <= 2 * abs(cross):
        raise DomainError(
            f"continuous spectrum: a_in + a_out = {sigma} <= 2|cross| = {2 * abs(cross)}")
    eps0 = math.sqrt((sigma - 2 * cross) * (sigma + 2 * cross))
    xi = 2 * cross / (sigma + eps0)
    alpha0 = eps0 - (a_in - a_out)
    lead = norm * math.sqrt(2 * math.pi / (sigma + eps0))
    return eps0, alpha0, xi, lead


def eigendecompose_1d(k: QuadraticKernel) -> SpectralData1D:
    """Closed-form spectrum of a one-dimensional Gaussian kernel."""
    a_in, a_out, cross = k.gauss_coefficients_1d()
    eps0, alpha0, xi, lead = _solve_gauss_1d(a_in, a_out, cross, k.norm)
    return SpectralData1D(eps0=eps0, alpha0=alpha0, xi=xi, lead=lead)


def eigendecompose_bipartite(k: QuadraticKernel) -> BipartiteSpectralData:
    """Factorise a two-particle kernel into per-mode geometric ladders.

    Thermal states and their partial transposes decouple in the normal-mode
    coordinates (x1 +- x2) / sqrt 2.  Raises ``DomainError`` for a
    kernel whose exponent keeps cross couplings between those coordinates,
    such as one built by hand; ``pt_moments`` or the quadrature oracle still
    give its spectrum.
    """
    ky = rotate_to_normal_modes(k)
    q = ky.q
    scale = max(np.abs(q).max(), 1.0)
    coupling = max(abs(q[0, 1]), abs(q[0, 3]), abs(q[2, 1]), abs(q[2, 3]))
    if coupling > 1e-10 * scale:
        raise DomainError(
            f"normal-mode cross couplings remain (|max| = {coupling:.3e}); "
            "kernel does not factorise into single-mode eigenproblems")
    eps1, alpha1, xi1, s1 = _solve_gauss_1d(q[2, 2], q[0, 0], -q[0, 2], 1.0)
    eps2, alpha2, xi2, s2 = _solve_gauss_1d(q[3, 3], q[1, 1], -q[1, 3], 1.0)
    lead = k.norm * s1 * s2
    return BipartiteSpectralData(xi1=xi1, xi2=xi2, eps1=eps1, eps2=eps2,
                                 mu1=alpha1 / 2, mu2=alpha2 / 2, lead=lead)


def normalization_constant(eps: float, alpha0: float, n: int) -> float:
    """L2 norm C_n of H_n(sqrt(eps) x) exp(-alpha0 x^2 / 2).

    The closed-form sum has alternating signs when eps < alpha0, so the terms
    are accumulated by signed log-sum-exp; the index is capped where double
    precision still resolves the cancellation.
    """
    if n < 0 or n > MAX_EIGENFUNCTION_INDEX:
        raise DomainError(f"eigenfunction index {n} outside [0, {MAX_EIGENFUNCTION_INDEX}]")
    if alpha0 <= 0 or eps <= 0:
        raise DomainError(f"widths must be positive, got eps={eps}, alpha0={alpha0}")
    r = eps / alpha0 - 1.0
    if r == 0.0:
        csq = math.exp(n * math.log(2) + math.lgamma(n + 1)) * math.sqrt(math.pi / alpha0)
        return math.sqrt(csq)
    log_mags = np.empty(n + 1)
    signs = np.empty(n + 1)
    log_abs_r = math.log(abs(r))
    for k in range(n + 1):
        log_mags[k] = ((2 * n - k) * math.log(2) + (n - k) * log_abs_r
                       + 2 * math.lgamma(n + 1) + math.lgamma(n - k + 0.5)
                       - math.lgamma(k + 1) - 2 * math.lgamma(n - k + 1))
        signs[k] = 1.0 if (r > 0 or (n - k) % 2 == 0) else -1.0
    m = log_mags.max()
    total = float(np.sum(signs * np.exp(log_mags - m)))
    if total <= 0:
        raise DomainError(f"normalization sum lost all precision at n={n} (eps/alpha0={eps / alpha0})")
    csq = math.exp(m + math.log(total)) / math.sqrt(alpha0)
    return math.sqrt(csq)


def eigenfunction_eval(sd, *index_and_coords):
    """Evaluate a normalised eigenfunction.

    ``eigenfunction_eval(sd1d, n, x)`` for a one-dimensional spectrum, or
    ``eigenfunction_eval(sdbi, m, n, x1, x2)`` for a bipartite one (evaluated
    through the normal-coordinate rotation).
    """
    if isinstance(sd, SpectralData1D):
        n, x = index_and_coords
        c = normalization_constant(sd.eps0, sd.alpha0, n)
        x = np.asarray(x, dtype=float)
        return hermite_n(n, math.sqrt(sd.eps0) * x) * np.exp(-sd.alpha0 * x * x / 2) / c
    if isinstance(sd, BipartiteSpectralData):
        m, n, x1, x2 = index_and_coords
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        y1 = (x1 + x2) / math.sqrt(2)
        y2 = (x1 - x2) / math.sqrt(2)
        c1 = normalization_constant(sd.eps1, 2 * sd.mu1, m)
        c2 = normalization_constant(sd.eps2, 2 * sd.mu2, n)
        f1 = hermite_n(m, math.sqrt(sd.eps1) * y1) * np.exp(-sd.mu1 * y1 * y1) / c1
        f2 = hermite_n(n, math.sqrt(sd.eps2) * y2) * np.exp(-sd.mu2 * y2 * y2) / c2
        return f1 * f2
    raise TypeError(f"unsupported spectral data {type(sd)!r}")


def _check_ladder_ratio(xi) -> np.ndarray:
    x = np.asarray(xi, dtype=float)
    if not np.all((0 <= x) & (x < 1)):
        raise DomainError(f"xi must lie in [0, 1), got {xi}")
    return x


def von_neumann_entropy(xi):
    """Entropy of the geometric ladder (1 - xi) xi^n; 0 for a pure state.

    Takes a float or, elementwise, an array.
    """
    x = _check_ladder_ratio(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(x == 0, 0.0, -np.log1p(-x) - x / (1 - x) * np.log(x))
    return _scalar_or_array(s)


def renyi_entropy(xi, alpha: float):
    """Order-alpha Renyi entropy of the ladder; alpha = 1 falls back to von Neumann.

    Takes a float or, elementwise, an array of ratios.
    """
    x = _check_ladder_ratio(xi)
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if alpha == 1:
        return von_neumann_entropy(xi)
    xa = x**alpha
    with np.errstate(divide="ignore"):  # log(0) at xi = 0, masked below
        # log(1 - xi^alpha): log1p(-xi^alpha) cancels as xi^alpha -> 1 and
        # log(-expm1(alpha log xi)) as xi^alpha -> 0, so each takes its side of 1/2
        log_tail = np.where(xa >= 0.5, np.log(-np.expm1(alpha * np.log(x))),
                            np.log1p(-np.minimum(xa, 0.5)))
    s = (alpha * np.log1p(-x) - log_tail) / (1 - alpha)
    return _scalar_or_array(np.where(x == 0, 0.0, s))


def _clamp_thermal_ratio(x):
    """Zero out rounding-level negatives of a mathematically non-negative ratio (elementwise)."""
    x = np.asarray(x, dtype=float)
    return _scalar_or_array(np.where((-1e-12 < x) & (x < 0), 0.0, x))


def substate_ratio(rho: QuadraticKernel) -> float:
    """Geometric ratio zeta of the reduced one-particle substate.

    zeta >= 0 always: it equals r((a+_1 + a+_2) / 2, harmonic_mean(a-_1, a-_2))
    with r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m), and the arithmetic
    mean of the a+ is at least that of the a-, which is at least their
    harmonic mean.
    """
    return _clamp_thermal_ratio(eigendecompose_1d(reduce_substate(rho)).xi)


def mutual_information(rho: QuadraticKernel) -> float:
    """Total correlations I = S_A + S_B - S_AB of a bipartite thermal kernel."""
    sd = eigendecompose_bipartite(rho)
    s_ab = sum(von_neumann_entropy(_clamp_thermal_ratio(xi)) for xi in (sd.xi1, sd.xi2))
    return 2 * von_neumann_entropy(substate_ratio(rho)) - s_ab
