"""Independent numerical verification of Gaussian kernels by quadrature.

Everything here consumes only the (dim, norm, Q) data of a kernel — never
the closed-form spectral formulas it is used to check.  Integral operators
are discretised on Gauss-Legendre nodes (Nystrom method); traces and trace
powers are quadrature contractions with grid-refinement error estimates.

A kernel norm * exp(-v^T Q v), v = (out, in), has the blocks Q_oo, Q_oi and
Q_ii.  When Q_oi is symmetric, the weighted matrix W^1/2 K W^1/2 is
diagonally similar to a symmetric matrix S_w.  That covers every kernel the
package builds: Hermitian states and their partial transposes, which are
again real symmetric kernels (Simon, PRL 84, 2726 (2000)).

The kernel is centred (no linear term) and the nodes of a QuadratureGrid are
exactly antisymmetric, its weights exactly symmetric (``leggauss``
symmetrises them).  So reversing the flat node index a -> m-1-a maps p_a to
-p_a and leaves S_w invariant, and in the basis (e_a +- e_{m-1-a})/sqrt 2
S_w is the direct sum of an even block E and an odd block O of about m/2
rows each.  With h = m // 2, A[a, c] = S_w[a, c] and B[a, c] = S_w[a, m-1-c]
for a, c < h, E = A + B and O = A - B; for odd m the centre node (p = 0)
joins E with the column sqrt 2 S_w[a, centre].  Only E and O are assembled,
with the weights folded into their exponents: half the ``exp`` work of S_w
and no m x m buffer.  Spectra are those of E and O from symmetric
eigensolvers (``eigvalsh``, ARPACK ``eigsh``), tr S_w^2 = |E|^2 + |O|^2,
and tr S_w^3 takes one symmetric rank-k product per block, m^3/4 flops in
all against m^3 for S_w.

A kernel with an asymmetric Q_oi, or a grid built by hand without that
parity, takes the general route: the kernel matrix, a general eigensolve
whose imaginary residue is checked, general products.  tr K needs only the
kernel's diagonal and costs O(m) on either route.
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
# relative asymmetry of Q_oi up to which the symmetric route is taken
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on [-L, L], tensorised for 2-d kernels.

    ``make`` gives exactly antisymmetric nodes and symmetric weights, the
    parity the oracle's symmetric route relies on.
    """

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


def _points(k: QuadraticKernel, grid: QuadratureGrid):
    """Quadrature points as an (m, dim) array and their weights."""
    if k.dim == 1:
        return grid.nodes[:, None], grid.weights
    x1, x2 = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    return pts, np.outer(grid.weights, grid.weights).ravel()


def _quad(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p_a^T A p_a for every point a."""
    return np.einsum("ai,ij,aj->a", p, a, p)


def _assemble(p: np.ndarray, h_out: np.ndarray, q_oi: np.ndarray, h_in: np.ndarray) -> np.ndarray:
    """exp(h_out[a] - 2 p_a^T Q_oi p_b + h_in[b]), built in place in one m x m buffer."""
    out = p @ (-2.0 * q_oi) @ p.T
    out += h_out[:, None]
    out += h_in[None, :]
    return np.exp(out, out=out)


def kernel_matrix(k: QuadraticKernel, grid: QuadratureGrid):
    """Dense kernel matrix K[a, b] = K(out = node_a, in = node_b) and weights."""
    p, w = _points(k, grid)
    d = k.dim
    mat = _assemble(p, -_quad(p, k.q[:d, :d]), k.q[:d, d:], -_quad(p, k.q[d:, d:]))
    mat *= k.norm
    return mat, w


def _parity_blocks(k: QuadraticKernel, grid: QuadratureGrid):
    """Even and odd blocks (E, O) of the symmetric S_w = D^-1 W^1/2 K W^1/2 D, or None.

    With M = (Q_oo + Q_ii)/2 the exponent is x'Mx' + 2x'Q_oi x + xMx
    + e(x') - e(x), e(x) = x(Q_oo - Q_ii)x/2, so the e terms are the
    diagonal similarity D = diag(exp(-e)), and S_w is symmetric exactly when
    Q_oi is.  S_w[a, m-1-c] is S_w[a, c] with Q_oi negated, since
    p_{m-1-c} = -p_c, so B is assembled like A.  ``None`` when Q_oi is not
    symmetric to 1e-12 of max |Q|, or the grid lacks the node parity.
    """
    d = k.dim
    q_oi = k.q[:d, d:]
    if np.abs(q_oi - q_oi.T).max() > _SYM_TOL * max(np.abs(k.q).max(), 1.0):
        return None
    if not (np.array_equal(grid.nodes, -grid.nodes[::-1])
            and np.array_equal(grid.weights, grid.weights[::-1])):
        return None
    p, w = _points(k, grid)
    half = len(w) // 2
    n_even = len(w) - half
    p, w = p[:n_even], w[:n_even]
    # the norm and the weights enter as sqrt(norm w_a) sqrt(norm w_c)
    h = 0.5 * (math.log(k.norm) + np.log(w)) - _quad(p, (k.q[:d, :d] + k.q[d:, d:]) / 2)
    q_sym = (q_oi + q_oi.T) / 2
    even = _assemble(p, h, q_sym, h)
    odd = _assemble(p[:half], h[:half], -q_sym, h[:half])
    even[:half, :half] += odd
    odd *= -2.0
    odd += even[:half, :half]
    if n_even > half:
        even[half, :half] *= math.sqrt(2.0)
        even[:half, half] *= math.sqrt(2.0)
    return even, odd


def _parity_eigvals(blocks, top_k) -> np.ndarray:
    """Eigenvalues of each block, its top ``top_k`` by |lambda| if set, unsorted."""
    parts = []
    for block in blocks:
        # ARPACK needs top_k below the block size; a smaller block is solved densely
        if top_k is not None and top_k < len(block):
            from scipy.sparse.linalg import eigsh

            parts.append(eigsh(block, k=top_k, which="LM", return_eigenvectors=False))
        else:
            parts.append(np.linalg.eigvalsh(block))
    return np.concatenate(parts)


def _parity_trace(blocks, p: int) -> float:
    """tr S_w^p, p in {2, 3}, as the sum over the blocks."""
    if p == 2:
        return float(sum(np.vdot(b, b) for b in blocks))
    # b @ b.T is a rank-k update (syrk): half the flops of a general product,
    # and one block at a time keeps a single product buffer alive
    return float(sum(np.vdot(b @ b.T, b) for b in blocks))


def _spectrum_once(k: QuadraticKernel, grid: QuadratureGrid, top_k):
    """Eigenvalues sorted by |lambda| descending, the top ``top_k`` if set, and the imaginary residue."""
    m = grid.n_points ** k.dim
    if top_k is None and m > FULL_EIG_MAX:
        raise DomainError(
            f"dense eigensolve capped at {FULL_EIG_MAX} nodes (got {m}); pass top_k for economy mode")
    # scipy is imported inside the functions that use it, not at module level: it
    # costs the CLI, which never calls the oracle, most of its start-up time and memory
    blocks = _parity_blocks(k, grid)
    if blocks is not None:
        ev = _parity_eigvals(blocks, top_k)
        residue = 0.0
    else:
        mat, w = kernel_matrix(k, grid)
        sw = np.sqrt(w)
        mat *= sw[:, None]
        mat *= sw[None, :]
        # ARPACK's eigs needs top_k < m - 1
        if top_k is not None and top_k < m - 1:
            from scipy.sparse.linalg import eigs

            ev = eigs(mat, k=top_k, which="LM", return_eigenvectors=False)
        else:
            ev = np.linalg.eigvals(mat)
        residue = float(np.abs(ev.imag).max()) if ev.size else 0.0
        scale = max(float(np.abs(ev).max()), 1e-300)
        if residue > IMAG_RESIDUE_TOL * scale:
            raise NumericalFailureError(
                f"discretised operator has complex eigenvalues (max imag {residue:.3e})")
        ev = ev.real
    return ev[np.argsort(-np.abs(ev))][:top_k], residue


def nystrom_spectrum(k: QuadraticKernel, grid: QuadratureGrid, top_k: int | None = None,
                     with_error: bool = True, tol: float | None = None) -> NumericSpectrum:
    """Eigenvalues of the weighted kernel matrix W^1/2 K W^1/2.

    When the cross block Q_oi of the exponent is symmetric, as in every
    kernel the package builds (Hermitian states and their partial
    transposes), W^1/2 K W^1/2 = D S_w D^-1 with S_w symmetric and D
    diagonal.  On a QuadratureGrid, whose nodes are exactly antisymmetric,
    the centred kernel makes S_w invariant under a -> m-1-a, so the
    spectrum is the union of those of its even and odd blocks of about m/2
    rows: symmetric eigensolves (Lanczos per block for ``top_k``), real by
    construction, ``imag_residue`` 0.  Only a kernel with an asymmetric Q_oi
    (or a hand-built grid without that parity) takes the general real
    eigensolve, where genuinely complex output is an error.

    Returns min(``top_k``, m) eigenvalues sorted by |lambda| descending, all
    m without ``top_k``; ``top_k`` < 1 is refused.  The error estimate
    compares against a refined or coarsened grid; with ``tol`` set, a
    non-converged estimate raises instead of passing silently.
    """
    if k.dim == 2 and grid.n_points > ECONOMY_MAX_AXIS:
        raise DomainError(f"2-d grids capped at {ECONOMY_MAX_AXIS} points per axis")
    if top_k is not None and top_k < 1:
        raise DomainError(f"top_k must be >= 1, got {top_k}")
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
    if p == 1:
        # tr K = sum_a w_a K(x_a, x_a): the diagonal alone, O(m) for any kernel
        pts, w = _points(k, grid)
        d = k.dim
        q = k.q
        diag = q[:d, :d] + q[:d, d:] + q[d:, :d] + q[d:, d:]
        return float(k.norm * np.dot(w, np.exp(-_quad(pts, diag))))
    blocks = _parity_blocks(k, grid)
    if blocks is not None:
        return _parity_trace(blocks, p)
    mat, w = kernel_matrix(k, grid)
    mat *= w[None, :]
    if p == 2:
        return float(np.sum(mat * mat.T))
    return float(np.sum((mat @ mat) * mat.T))


def trace_power(k: QuadraticKernel, p: int, grid: QuadratureGrid,
                with_error: bool = True, tol: float | None = None):
    """tr K^p for p in {1, 2, 3} by p-fold quadrature contraction.

    p = 1 sums the kernel's diagonal, O(m).  For p = 2, 3 the symmetric
    route contracts the even and odd blocks of S_w (see ``nystrom_spectrum``):
    tr S_w^2 = |E|^2 + |O|^2, and tr S_w^3 = tr E^3 + tr O^3 by one symmetric
    rank-k product per block, m^3/4 flops in all.

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
