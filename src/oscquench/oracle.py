"""Independent numerical verification of Gaussian kernels by quadrature.

Everything here consumes only the (dim, norm, Q) data of a kernel — never
the closed-form spectral formulas it is used to check.  Integral operators
are discretised on Gauss-Legendre nodes (Nystrom method); traces and trace
powers are quadrature contractions with grid-refinement error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalFailureError
from .kernels import QuadraticKernel
from .special import hermite_all

MIN_POINTS = 32
# full dense eigensolve up to this many nodes; iterative top-k beyond
FULL_EIG_MAX = 4096
ECONOMY_MAX_AXIS = 128
IMAG_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on [-L, L], tensorised for 2-d kernels."""

    n_points: int
    half_width: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def make(cls, n_points: int, half_width: float) -> "QuadratureGrid":
        if n_points < MIN_POINTS:
            raise DomainError(f"n_points must be >= {MIN_POINTS}, got {n_points}")
        if half_width <= 0:
            raise DomainError(f"half_width must be positive, got {half_width}")
        x, w = np.polynomial.legendre.leggauss(n_points)
        return cls(n_points, float(half_width), x * half_width, w * half_width)

    @classmethod
    def for_kernel(cls, k: QuadraticKernel, n_points: int = 200) -> "QuadratureGrid":
        """Choose L so the Gaussian envelope at +-L is far below 1e-18 of the peak."""
        q_min = float(np.diag(k.q).min())
        if q_min <= 0:
            raise DomainError("kernel has a non-positive diagonal exponent; not integrable")
        return cls.make(n_points, 8.0 / math.sqrt(q_min))

    def refined(self, factor: float = 2.0) -> "QuadratureGrid":
        return QuadratureGrid.make(int(round(self.n_points * factor)), self.half_width)

    def coarsened(self) -> "QuadratureGrid":
        return QuadratureGrid.make(max(MIN_POINTS, self.n_points // 2), self.half_width)


@dataclass(frozen=True)
class NumericSpectrum:
    """Discretised-operator eigenvalues sorted by |lambda| descending."""

    eigenvalues: np.ndarray
    error_estimate: float
    imag_residue: float


def _points_2d(grid: QuadratureGrid):
    x1, x2 = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    w = np.outer(grid.weights, grid.weights).ravel()
    return pts, w


def kernel_matrix(k: QuadraticKernel, grid: QuadratureGrid):
    """Dense kernel matrix K[a, b] = K(out = node_a, in = node_b) and weights."""
    if k.dim == 1:
        p = grid.nodes[:, None]
        w = grid.weights
    else:
        p, w = _points_2d(grid)
    d = k.dim
    qoo, qoi, qii = k.q[:d, :d], k.q[:d, d:], k.q[d:, d:]
    if k.dim == 1:
        d_out = qoo[0, 0] * p[:, 0] ** 2
        d_in = qii[0, 0] * p[:, 0] ** 2
        cross = qoi[0, 0] * np.outer(p[:, 0], p[:, 0])
    else:
        d_out = np.einsum("ai,ij,aj->a", p, qoo, p)
        d_in = np.einsum("ai,ij,aj->a", p, qii, p)
        cross = p @ qoi @ p.T
    mat = k.norm * np.exp(-(d_out[:, None] + 2 * cross + d_in[None, :]))
    return mat, w


def _spectrum_once(k: QuadraticKernel, grid: QuadratureGrid, top_k):
    mat, w = kernel_matrix(k, grid)
    m = mat.shape[0]
    sw = np.sqrt(w)
    sym = sw[:, None] * mat * sw[None, :]
    symmetric = np.abs(sym - sym.T).max() <= 1e-12 * max(np.abs(sym).max(), 1e-300)
    if top_k is not None:
        # imported here, not at module level: scipy costs the CLI, which never
        # calls the oracle, most of its start-up time and memory
        from scipy.sparse.linalg import eigs as arpack_eigs

        kk = min(top_k, m - 3)
        ev = arpack_eigs(sym, k=kk, which="LM", return_eigenvectors=False)
    elif m > FULL_EIG_MAX:
        raise DomainError(
            f"dense eigensolve capped at {FULL_EIG_MAX} nodes (got {m}); pass top_k for economy mode")
    elif symmetric:
        ev = np.linalg.eigvalsh(sym).astype(complex)
    else:
        ev = np.linalg.eigvals(sym)
    order = np.argsort(-np.abs(ev))
    ev = ev[order]
    residue = float(np.abs(ev.imag).max()) if ev.size else 0.0
    scale = max(float(np.abs(ev).max()), 1e-300)
    if residue > IMAG_RESIDUE_TOL * scale:
        raise NumericalFailureError(
            f"discretised operator has complex eigenvalues (max imag {residue:.3e})")
    return ev.real, residue


def nystrom_spectrum(k: QuadraticKernel, grid: QuadratureGrid, top_k: int | None = None,
                     with_error: bool = True, tol: float | None = None) -> NumericSpectrum:
    """Eigenvalues of the weighted kernel matrix W^1/2 K W^1/2.

    The matrix is symmetrised when the kernel itself is symmetric; otherwise
    a general real eigensolve is used (quench kernels are similar to
    symmetric operators, so genuinely complex output is an error).  The
    error estimate compares against a refined or coarsened grid; with ``tol``
    set, a non-converged estimate raises instead of passing silently.
    """
    if k.dim == 2 and grid.n_points > ECONOMY_MAX_AXIS:
        raise DomainError(f"2-d grids capped at {ECONOMY_MAX_AXIS} points per axis")
    ev, residue = _spectrum_once(k, grid, top_k)
    err = math.nan
    if with_error:
        n_check = 12 if top_k is None else min(top_k, 12)
        if k.dim == 1:
            other, _ = _spectrum_once(k, grid.refined(), top_k)
        elif grid.n_points * 2 <= ECONOMY_MAX_AXIS:
            other, _ = _spectrum_once(k, grid.refined(), n_check)
        else:
            other, _ = _spectrum_once(k, grid.coarsened(), n_check)
        n_cmp = min(len(ev), len(other), n_check)
        err = float(np.abs(ev[:n_cmp] - other[:n_cmp]).max())
        if tol is not None and err > 10 * tol:
            raise NumericalFailureError(
                f"spectrum not converged: grid-refinement change {err:.3e} > 10 x tol {tol:.1e}")
    return NumericSpectrum(eigenvalues=ev, error_estimate=err, imag_residue=residue)


def _trace_once(k: QuadraticKernel, p: int, grid: QuadratureGrid) -> float:
    mat, w = kernel_matrix(k, grid)
    if p == 1:
        return float(np.sum(np.diag(mat) * w))
    kw = mat * w[None, :]
    if p == 2:
        return float(np.sum(kw * kw.T))
    return float(np.sum((kw @ kw) * kw.T))


def trace_power(k: QuadraticKernel, p: int, grid: QuadratureGrid,
                with_error: bool = True, tol: float | None = None):
    """tr K^p for p in {1, 2, 3} by p-fold quadrature contraction.

    Returns ``(value, error_estimate)``; the estimate is the change under
    grid refinement (halved grid for large 2-d problems).
    """
    if p not in (1, 2, 3):
        raise DomainError(f"p must be 1, 2 or 3, got {p}")
    value = _trace_once(k, p, grid)
    err = math.nan
    if with_error:
        if k.dim == 2 and grid.n_points * 2 > ECONOMY_MAX_AXIS:
            other = _trace_once(k, p, grid.coarsened())
        else:
            other = _trace_once(k, p, grid.refined())
        err = abs(value - other)
        if tol is not None and err > 10 * tol:
            raise NumericalFailureError(
                f"trace power not converged: refinement change {err:.3e} > 10 x tol {tol:.1e}")
    return value, err


class MehlerCheck(NamedTuple):
    lhs: float
    rhs: float
    tail_bound: float
    diverges: bool


def mehler_check(t: float, x: float, y: float, terms: int = 80) -> MehlerCheck:
    """Partial sum of sum_n t^n/n! H_n(x) H_n(y) against its closed form.

    The closed form is (1 - 4 t^2)^{-1/2} exp[(4 t x y - 4 t^2 (x^2 + y^2))
    / (1 - 4 t^2)]; the series converges for |t| < 1/2 and the
    prefactor blows up at |t| = 1/2, which is flagged rather than summed.
    """
    if terms < 1 or terms > 120:
        raise DomainError(f"terms must lie in [1, 120], got {terms}")
    if abs(t) >= 0.5:
        return MehlerCheck(lhs=math.nan, rhs=math.inf, tail_bound=math.inf, diverges=True)
    hx = hermite_all(terms - 1, np.asarray(x, dtype=float))
    hy = hermite_all(terms - 1, np.asarray(y, dtype=float))
    n = np.arange(terms)
    log_fact = np.array([math.lgamma(i + 1) for i in n])
    # straightforward accumulation; magnitudes stay finite for n <= 120
    term = (t ** n) / np.exp(log_fact) * hx * hy
    lhs = float(np.sum(term))
    rhs = float((1 - 4 * t * t) ** -0.5
                * math.exp((4 * t * x * y - 4 * t * t * (x * x + y * y)) / (1 - 4 * t * t)))
    # Cramer bound |H_n(z)| <= 1.09 2^{n/2} sqrt(n!) e^{z^2/2} gives a geometric tail
    q = 2 * abs(t)
    tail = 1.09**2 * math.exp((x * x + y * y) / 2) * q**terms / (1 - q) if q > 0 else 0.0
    return MehlerCheck(lhs=lhs, rhs=rhs, tail_bound=tail, diverges=False)
