"""Independent numerical verification of Gaussian kernels by quadrature.

Everything here consumes only the (dim, norm, Q) data of a kernel — never
the closed-form spectral formulas it is used to check — and ``_forms``
reads it once per public call.  Integral operators are discretised on
Gauss-Legendre nodes (Nystrom method); traces and trace powers are
quadrature contractions.  One rule (``_error_estimate``) gives both their
error estimates: the change under grid refinement, plus the bound for the
rows dropped as negligible (below), plus a bound on the kernel's mass
beyond the grid's half-width L, which refinement keeps and so cannot see.
The rule on [-1, 1] is computed once per node count and kept read-only;
every grid scales its own copy by L.

A kernel norm * exp(-v^T Q v), v = (out, in), has the blocks Q_oo, Q_oi and
Q_ii.  Spectra and tr K^p for p = 2, 3 need Q_oi symmetric, so that the
weighted matrix W^1/2 K W^1/2 is diagonally similar to a symmetric matrix
S_w.  That covers every kernel the package builds: Hermitian states and
their partial transposes, which are again real symmetric kernels (Simon,
PRL 84, 2726 (2000)); any other Q_oi is refused before anything is
assembled.  tr K reads only the diagonal, O(m), and takes any kernel, as
does ``kernel_matrix``, the dense reference that tests compare against.

The kernel is centred (no linear term), and a QuadratureGrid refuses nodes
that are not exactly antisymmetric and weights that are not exactly
symmetric (``leggauss`` symmetrises both).  So the parity P: x -> -x, which
reverses the flat node index, leaves S_w invariant.  Both oscillators of
the model share k0, so a two-mode kernel is also invariant under the
exchange X: x1 <-> x2, which maps the tensor grid onto itself.  S_w
therefore splits over the characters chi of the group {I, P} (1-d, or a
2-d kernel without the exchange) or {I, P, X, PX}.  Over one representative
r per node orbit the block of chi is
sum_h chi(h) S_w[r, h s] / sqrt(|Stab r| |Stab s|), kept on the
representatives whose stabiliser chi fixes (for odd grids the centre node
only in the fully symmetric block).  The representatives are ordered
X-fixed, free, PX-fixed, then the centre, so that the ones each character
keeps form one run: all of them for chi(P+, X+), X-fixed and free for
chi(P-, X+), free for chi(P+, X-), free and PX-fixed for chi(P-, X-) (free,
then centre, on {I, P}).  Each T_h[r, s] = S_w[r, h s] is the ``exp`` of one
matrix product, rows [p_r, h_r, 1] against columns [-2 Q_oi G_h p_s, 1, h_s].
The products are taken in row tiles of about 2^15 entries per group element,
so that the tiles of all elements stay in L2 together while one
Walsh-Hadamard butterfly, (a, b) -> (a + b, a - b) per generator, combines
them in place and each character's rows of its run are copied into its
block, once, at its final place in one buffer.  On a 2-d grid of m nodes
that is four blocks of about m/4 rows: a quarter of the ``exp`` work of S_w
and no m x m buffer.  Spectra are those of the blocks
from symmetric eigensolvers: ``eigvalsh``, or for the top k ARPACK ``eigsh``
from a fixed start vector, with a matvec that reads one triangle of the
block in place (BLAS ``dsymv``).  tr S_w^2 is the sum of their squared
norms, and tr S_w^3 takes one symmetric rank-k product per block, m^3/16
flops in all against m^3 for S_w (m^3/4 on the {I, P} route).

Before any ``exp`` is taken, the node orbits that S_w provably does not
need at the unit roundoff u = 2^-53 are dropped.  With
Sigma = M - Q_oi M^-1 Q_oi, maximising log |S_w[r, s]| over a continuous
p_s gives |S_w[r, s]| <= exp(g_r) for every s, with
g_r = 1/2 log(norm w_r) + 1/2 max log(norm w) - p_r^T Sigma p_r; the largest
diagonal entry costs O(m) through the diagonal exponent.  Sigma and w are
invariant under P and X, so whole orbits go, and the blocks are assembled
on the kept representatives only.  When M or Sigma is not positive
definite nothing is dropped.  The spectrum is that of S_w with the dropped
rows and columns set to zero, so a dense spectrum is padded with zeros to
all m eigenvalues; by Weyl each eigenvalue moves by at most
|E|_F <= sqrt(2 m |J|) max_{r in J} exp(g_r), J the dropped nodes, and
tr S_w^p by at most p |E|_F (|S|_F + |E|_F)^(p-1).  The error estimates add
these terms.  An orbit is dropped when g_r < log(u max diag S_w)
- log(sqrt(2) m): with |J| <= m that keeps |E|_F at or below u max diag S_w,
so at most u |S_w|_2, the rounding floor of the eigensolve and the
contraction on the kept blocks.  Grids sized by ``QuadratureGrid.for_kernel``
keep about a third of their nodes at the benchmark's anchor (301, 290, 275
and 286 of the 812, 784, 756 and 784 block rows of the partial transpose of
3->6/3->6 at beta 0.6 on 56^2 nodes) and most of them at its hottest draws
(710, 693, 665 and 682 at omega_min beta = 0.5).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalFailureError
from .kernels import QuadraticKernel

MIN_POINTS = 32
# full dense eigensolve up to this many nodes; iterative top-k beyond
FULL_EIG_MAX = 4096
ECONOMY_MAX_AXIS = 128
# relative asymmetry of Q_oi (and of the exchange) up to which the kernel is taken as symmetric
_SYM_TOL = 1e-12
# log of the unit roundoff u: the dropped part of S_w is bounded by u times its largest
# diagonal entry, at most u |S_w|_2, the rounding floor of the work on the kept blocks
_LOG_NEGLIGIBLE = math.log(2.0 ** -53)
# entries per group element in one row tile of the symmetry blocks: the tiles of all
# elements (1 MB for four) stay in L2 through the exp, the butterfly and the copy-out
_TILE_ENTRIES = 2 ** 15


@functools.lru_cache(maxsize=None)
def _legendre_rule(n_points: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one ``leggauss`` per n."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on [-L, L], tensorised for 2-d kernels.

    A grid holds ``n_points`` exactly antisymmetric nodes and exactly
    symmetric weights, the parity P the oracle's symmetry blocks rely on;
    any other arrays are refused when the grid is built.  The grid keeps
    read-only copies of them, so the parity cannot be broken in place
    afterwards.  The tensor grid uses the same nodes on
    both axes, so the exchange x1 <-> x2 maps it onto itself.  ``refined``
    and ``coarsened`` keep L, so the oracle's error estimates bound the
    kernel's mass beyond +-L separately.
    """

    n_points: int
    half_width: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.shape(self.nodes) != (self.n_points,) or np.shape(self.weights) != (self.n_points,):
            raise DomainError(f"nodes and weights must each hold n_points = {self.n_points} values")
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise DomainError("nodes and weights must be finite")
        if not np.array_equal(self.nodes, -self.nodes[::-1]):
            raise DomainError("nodes must be exactly antisymmetric about 0")
        if not np.array_equal(self.weights, self.weights[::-1]):
            raise DomainError("weights must be exactly symmetric about the centre node")

    @classmethod
    def make(cls, n_points: int, half_width: float) -> "QuadratureGrid":
        if n_points < MIN_POINTS:
            raise DomainError(f"n_points must be >= {MIN_POINTS}, got {n_points}")
        if not (math.isfinite(half_width) and half_width > 0):
            raise DomainError(f"half_width must be finite and positive, got {half_width}")
        # the rule on [-1, 1] is computed once per n; every grid keeps its own copy
        x, w = _legendre_rule(n_points)
        return cls(n_points, float(half_width), x * half_width, w * half_width)

    @classmethod
    def for_kernel(cls, k: QuadraticKernel, n_points: int = 200) -> "QuadratureGrid":
        """A grid of half-width L = 8 / sqrt(min diag Q) on ``n_points`` nodes.

        L reads single diagonal entries of Q, not the width of the kernel's
        diagonal envelope exp(-x^T D x), so at high temperature the box can
        cut real mass: for mode 0 of 3->6/3->6 at beta 0.05 the envelope at
        +-L is 0.385 of its peak.  Refining keeps L, so the oracle's error
        estimates report that mass through their truncation term (tau = 0.167
        on 200 nodes there) rather than converge it away.
        """
        q_min = float(np.diag(k.q).min())
        if q_min <= 0:
            raise DomainError("kernel has a non-positive diagonal exponent; not integrable")
        return cls.make(n_points, 8.0 / math.sqrt(q_min))

    def refined(self) -> "QuadratureGrid":
        return QuadratureGrid.make(2 * self.n_points, self.half_width)

    def coarsened(self) -> "QuadratureGrid":
        return QuadratureGrid.make(max(MIN_POINTS, self.n_points // 2), self.half_width)


@dataclass(frozen=True)
class NumericSpectrum:
    """Discretised-operator eigenvalues sorted by |lambda| descending."""

    eigenvalues: np.ndarray
    error_estimate: float


def _points(dim: int, grid: QuadratureGrid):
    """Quadrature points as an (m, dim) array and their weights."""
    if dim == 1:
        return grid.nodes[:, None], grid.weights
    x1, x2 = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    return pts, np.outer(grid.weights, grid.weights).ravel()


def _quad(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p_a^T A p_a for every point a."""
    return np.einsum("ai,ij,aj->a", p, a, p)


def _assemble(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(left @ right), built in place in ``out`` if given.

    Row a of ``left`` is [p_a, h_a, 1] and column b of ``right`` is
    [-2 A p_b, 1, h'_b], so entry (a, b) is exp(h_a - 2 p_a^T A p_b + h'_b):
    the row and column terms ride in the one product.  ``right`` is C-ordered
    (d + 2) x m, which BLAS reads faster than the transpose of an m x (d + 2).
    """
    out = np.matmul(left, right, out=out)
    return np.exp(out, out=out)


def kernel_matrix(k: QuadraticKernel, grid: QuadratureGrid):
    """Dense kernel matrix K[a, b] = K(out = node_a, in = node_b) and weights.

    The oracle itself never builds this m x m matrix; it is the direct
    reference, for any Q_oi, that its symmetry blocks are checked against.
    """
    p, w = _points(k.dim, grid)
    d = k.dim
    ones = np.ones(len(p))
    left = np.column_stack([p, -_quad(p, k.q[:d, :d]), ones])
    right = np.vstack([-2.0 * k.q[:d, d:] @ p.T, ones, -_quad(p, k.q[d:, d:])])
    mat = _assemble(left, right)
    mat *= k.norm
    return mat, w


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class _Forms(NamedTuple):
    """What the oracle reads of a kernel, derived once per public call by ``_forms``."""

    dim: int
    norm: float
    # D of the diagonal K(x, x) = norm exp(-x^T D x), and diag D^-1 for an error estimate
    diag: np.ndarray
    spread: np.ndarray | None
    # M and sym(Q_oi) of the exponent of S_w, averaged over the exchange when it holds
    exchange: bool
    big_m: np.ndarray | None
    q_oi: np.ndarray | None
    # Sigma = M - Q_oi M^-1 Q_oi of the row bounds; None prunes nothing
    sigma: np.ndarray | None


def _forms(k: QuadraticKernel, *, blocks: bool, estimate: bool) -> _Forms:
    """The quadratic forms of ``k`` that the oracle works with, read off its (dim, norm, Q) alone.

    D = Q_oo + Q_oi + Q_oi^T + Q_ii always.  With ``blocks`` (spectra and
    tr K^p, p = 2, 3): M = (Q_oo + Q_ii)/2 and sym(Q_oi), refused unless
    Q_oi is symmetric to 1e-12 of max |Q|; the exchange x1 <-> x2, kept (and
    the pair averaged over it) when a 2-d kernel's M and Q_oi commute with
    it to that tolerance; and Sigma = M - Q_oi M^-1 Q_oi, None when M or
    Sigma is not positive definite.  Sigma takes the pair before the
    average, which could move a row bound within an ulp of the cut across
    it.  With ``estimate``: diag D^-1; a D that is not positive definite,
    whose tr K diverges, is refused.
    """
    d, q = k.dim, k.q
    diag = q[:d, :d] + q[:d, d:] + q[d:, :d] + q[d:, d:]
    big_m = q_sym = sigma = spread = None
    exchange = False
    if blocks:
        tol = _SYM_TOL * max(np.abs(q).max(), 1.0)
        q_oi = q[:d, d:]
        asym = np.abs(q_oi - q_oi.T).max()
        if asym > tol:
            raise DomainError(f"cross block Q_oi is asymmetric by {asym:.3e} (> {tol:.1e}): "
                              "not the kernel of a Hermitian state or its partial transpose")
        big_m = (q[:d, :d] + q[d:, d:]) / 2
        q_sym = (q_oi + q_oi.T) / 2
        if np.linalg.eigvalsh(big_m).min() > 0:
            schur = big_m - q_sym @ np.linalg.solve(big_m, q_sym)
            if np.linalg.eigvalsh(schur).min() > 0:
                sigma = schur
        if d == 2:
            m_x, q_x = _SWAP @ big_m @ _SWAP, _SWAP @ q_sym @ _SWAP
            if max(np.abs(big_m - m_x).max(), np.abs(q_sym - q_x).max()) <= tol:
                big_m, q_sym = (big_m + m_x) / 2, (q_sym + q_x) / 2
                exchange = True
    if estimate:
        if np.linalg.eigvalsh(diag).min() <= 0:
            raise DomainError("the kernel's diagonal exp(-x^T D x) has D not positive definite; tr K diverges")
        spread = np.diag(np.linalg.inv(diag))
    return _Forms(d, k.norm, diag, spread, exchange, big_m, q_sym, sigma)


@functools.lru_cache(maxsize=None)
def _orbits(n_points: int, dim: int, exchange: bool):
    """Read-only node orbits of {I, P} (with ``exchange``, {I, P, X, PX}) on a grid of ``n_points`` per axis.

    Returns the coordinate maps G_h of the group elements in binary order
    (bit j of an element's index marks generator j: P, then X), the axis
    indices of one representative per orbit (its lowest flat node index),
    ``fixes[h, r]`` (h fixes r), C-ordered, the stabiliser orders |Stab r|,
    and ``minus[c, h]``: chi_c(h) = (-1)^popcount(c & h) is -1.  The
    representatives are ordered X-fixed, free, PX-fixed, centre ({I, P}:
    free, centre), so that the ones each character keeps form one run.
    """
    m = n_points ** dim
    # generators as (node permutation, coordinate map); P reverses the flat index on either grid
    gens = [(np.arange(m)[::-1], -np.eye(dim))]
    if exchange:
        gens.append((np.arange(m).reshape(n_points, -1).T.ravel(), _SWAP))
    perms, maps = [np.arange(m)], [np.eye(dim)]
    for perm, g in gens:
        perms += [perm[e] for e in perms]
        maps += [g @ e for e in maps]
    perms = np.array(perms)
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(m))
    fixes = perms[:, reps] == reps
    # elements 1, 2 and 3 are P, X and PX
    rank = 2 * fixes[1] + fixes[-1]
    if exchange:
        rank = rank - fixes[2]
    order = np.argsort(rank, kind="stable")
    reps, fixes = reps[order], np.ascontiguousarray(fixes[:, order])
    axes = np.stack(np.unravel_index(reps, (n_points,) * dim), axis=1)
    maps = np.array(maps)
    stab = fixes.sum(axis=0)
    n = len(maps)
    minus = np.array([[bin(c & h).count("1") % 2 == 1 for h in range(n)] for c in range(n)])
    for arr in (maps, axes, fixes, stab, minus):
        arr.flags.writeable = False
    return maps, axes, fixes, stab, minus


def _symmetry_blocks(f: _Forms, grid: QuadratureGrid):
    """Blocks of the symmetric S_w = D^-1 W^1/2 K W^1/2 D, one per character of its symmetry group.

    With M = (Q_oo + Q_ii)/2 the exponent is x'Mx' + 2x'Q_oi x + xMx
    + e(x') - e(x), e(x) = x(Q_oo - Q_ii)x/2, so the e terms are the
    diagonal similarity D = diag(exp(-e)), and S_w is symmetric exactly when
    Q_oi is.  The group is generated by node involutions g, x_{g a} = G x_a,
    that leave S_w invariant: the parity P (G = -1) always, and the exchange
    X when ``f`` keeps it.  Over one representative r per node orbit,
    T_h[r, s] = S_w[r, h s] is ``_assemble`` with the cross block Q_oi G_h,
    and the character chi has the block
    sum_h chi(h) T_h[r, s] / sqrt(|Stab r| |Stab s|) on the representatives
    whose stabiliser chi fixes (any other row vanishes).  The orbits below
    the cut of ``_row_bounds`` are dropped first.

    The orbit data come from ``_orbits``, once per grid size, and the
    representatives' nodes and weights are read off the grid's axes.  Each
    character keeps one run [start, stop) of the representatives, possibly
    empty (a 0 x 0 block); pruning drops whole orbits and keeps the order.
    The blocks are C-contiguous and filled in row tiles of
    _TILE_ENTRIES // rows (see the module docstring).

    Returns the blocks and the bound sqrt(2 m |J|) max_J exp(g) on the
    Frobenius norm of the dropped rows and columns J (0 when nothing is
    dropped; by the cut, at most u max diag S_w).
    """
    maps, axes, fixes, stab, minus = _orbits(grid.n_points, f.dim, f.exchange)
    m, n, n_orbits = grid.n_points ** f.dim, len(maps), len(axes)
    p, w = grid.nodes[axes], np.prod(grid.weights[axes], axis=1)
    # drop the orbits whose rows are negligible; w and the bound are orbit-invariant
    pruned = 0.0
    bounds = _row_bounds(f, p, w, m)
    if bounds is not None:
        bound, cut = bounds
        keep = bound >= cut
        if not keep.all():
            orbit = n // stab[~keep]
            pruned = math.sqrt(2 * m * orbit.sum()) * math.exp(bound[~keep].max())
            # ``compress`` keeps ``fixes`` C-ordered, where fancy indexing would not
            p, w, fixes, stab = p[keep], w[keep], fixes.compress(keep, axis=1), stab[keep]
    # the norm and the weights enter as sqrt(norm w_r) sqrt(norm w_s), the stabilisers as above
    h = 0.5 * (math.log(f.norm) + np.log(w) - np.log(stab)) - _quad(p, f.big_m)
    # T_e[r, s] = exp(left[r] . right[e][:, s]) with right[e][:, s] = [-2 Q_oi G_e p_s, 1, h_s]
    ones = np.ones(len(h))
    left = np.column_stack([p, h, ones])
    right = [np.vstack([-2.0 * f.q_oi @ g @ p.T, ones, h]) for g in maps]
    # character c keeps a representative when it is +1 on every element that fixes it;
    # by the order above its kept set is the run [start, stop) of the representatives
    kept = ~(minus @ fixes)
    sizes = kept.sum(axis=1)
    starts = np.where(sizes > 0, kept.argmax(axis=1), 0)
    runs = np.stack([starts, starts + sizes], axis=1).tolist()
    # one buffer for all blocks: a single large allocation faults its pages in far faster
    # than several.  It is sized for every orbit, kept or not, with the blocks at its front:
    # one request size per grid lets malloc reuse the same memory call after call, where
    # sizes that vary with the dropped orbits fragment its heap (over 138 benchmark verify
    # cycles, peak RSS 126 MB against 112 MB).  Pages past the kept blocks are never touched.
    rows = len(h)
    buf = np.empty(n * n_orbits ** 2)
    blocks, offset = [], 0
    for start, stop in runs:
        size = stop - start
        blocks.append(buf[offset:offset + size * size].reshape(size, size))
        offset += size * size
    # row tiles small enough that the tiles of all elements stay in L2 together
    tile = min(rows, max(1, _TILE_ENTRIES // rows))
    scratch = np.empty((n, tile, rows))
    for i in range(0, rows, tile):
        j = min(i + tile, rows)
        part = scratch[:, :j - i]
        for e in range(n):
            _assemble(left[i:j], right[e], out=part[e])
        # Walsh-Hadamard butterfly in place: part[c] becomes sum_b (-1)^popcount(b & c) T_b
        step = 1
        while step < n:
            pairs = part.reshape(-1, 2, step, j - i, rows)
            lo, hi = pairs[:, 0], pairs[:, 1]
            lo += hi
            hi *= -2.0
            hi += lo
            step *= 2
        for block, (start, stop), rows_c in zip(blocks, runs, part):
            a, b = max(i, start), min(j, stop)
            if a < b:
                block[a - start:b - start] = rows_c[a - i:b - i, start:stop]
    return blocks, pruned


def _row_bounds(f: _Forms, pts: np.ndarray, w: np.ndarray, m: int):
    """Bounds g with |S_w[r, s]| <= exp(g_r) for every s, and the cut log(u max_r S_w[r, r] / (sqrt(2) m)).

    Over the points ``pts`` of weights ``w``, which hold the grid's largest
    weight, on a grid of ``m`` nodes (the orbit representatives stand for
    all m).  Dropping the nodes J below the cut leaves sqrt(2 m |J|) max_J
    exp(g) <= sqrt(2) m max_J exp(g) below u = 2^-53 times the largest
    diagonal entry, so below u |S_w|_2.  log |S_w[r, s]| is
    1/2 log(norm w_r) + 1/2 log(norm w_s)
    - (p_r, p_s) [[M, Q_oi], [Q_oi, M]] (p_r, p_s), and its maximum over p_s
    in R^d is reached at -M^-1 Q_oi p_r when M is positive definite, so
    g_r = 1/2 log(norm w_r) + 1/2 max log(norm w) - p_r^T Sigma p_r with
    Sigma = M - Q_oi M^-1 Q_oi.  The diagonal is norm w_r exp(-p_r^T D p_r).
    ``None`` (prune nothing) without Sigma.
    """
    if f.sigma is None:
        return None
    log_nw = math.log(f.norm) + np.log(w)
    g = 0.5 * (log_nw + log_nw.max()) - _quad(pts, f.sigma)
    log_diag = float((log_nw - _quad(pts, f.diag)).max())
    return g, log_diag + _LOG_NEGLIGIBLE - math.log(math.sqrt(2.0) * m)


def _block_eigvals(blocks, top_k) -> np.ndarray:
    """Eigenvalues of each symmetry block, its top ``top_k`` by |lambda| if set, unsorted.

    Lanczos sees a block only through its matvec, ``dsymv`` on one triangle:
    half the memory traffic of a general product.  The transpose of a
    C-contiguous block is an F-contiguous view, which BLAS takes without a
    copy; handing over the block itself would copy it on every matvec.
    Each Lanczos run starts from a vector seeded by the block size alone:
    without one, ``eigsh`` draws its start from OS entropy, and the top
    eigenvalues would change in their last bits from call to call.  A block
    of exact zeros gives its size in zeros without a Lanczos run; any ARPACK
    failure is raised as ``NumericalFailureError``.
    """
    parts = []
    for block in blocks:
        # ARPACK needs top_k below the block size; a smaller block is solved densely
        if top_k is not None and top_k < len(block):
            # a block underflowed to exact zeros (the odd blocks of a cold state) has only
            # zero eigenvalues; ARPACK refuses it ("starting vector is zero").  The diagonal
            # goes first: a full scan would read the whole block again on every call
            if not (block.diagonal().any() or block.any()):
                parts.append(np.zeros(len(block)))
                continue
            from scipy.linalg.blas import dsymv
            from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

            op = LinearOperator(block.shape, matvec=lambda v, a=block.T: dsymv(1.0, a, v),
                                dtype=block.dtype)
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(block))
            try:
                parts.append(eigsh(op, k=top_k, which="LM", v0=v0, return_eigenvectors=False))
            except ArpackError as exc:
                raise NumericalFailureError(
                    f"top-{top_k} eigensolve of a {len(block)}-row symmetry block failed: {exc}") from exc
        else:
            parts.append(np.linalg.eigvalsh(block))
    return np.concatenate(parts)


def _block_trace(blocks, p: int) -> tuple[float, float]:
    """tr S_w^p, p in {2, 3}, and tr S_w^2, as sums over the symmetry blocks."""
    if p == 2:
        square = float(sum(np.vdot(b, b) for b in blocks))
        return square, square
    # b @ b.T is a rank-k update (syrk): half the flops of a general product,
    # and its trace is the block's squared norm.  All blocks share one product
    # buffer: four requests of sizes that vary with the dropped orbits would
    # fragment malloc's heap (see ``_symmetry_blocks``)
    out = np.empty(max(len(b) for b in blocks) ** 2)
    cube = square = 0.0
    for b in blocks:
        bb = np.matmul(b, b.T, out=out[:b.size].reshape(b.shape))
        cube += np.vdot(bb, b)
        square += np.trace(bb)
    return float(cube), float(square)


def _spectrum_once(f: _Forms, grid: QuadratureGrid, top_k):
    """Eigenvalues by |lambda| descending (the top ``top_k`` if set), and the bound on the dropped rows' norm."""
    m = grid.n_points ** f.dim
    if top_k is None and m > FULL_EIG_MAX:
        raise DomainError(
            f"dense eigensolve capped at {FULL_EIG_MAX} nodes (got {m}); pass top_k for economy mode")
    # scipy is imported inside the functions that use it, not at module level: it
    # costs the CLI, which never calls the oracle, most of its start-up time and memory
    blocks, pruned = _symmetry_blocks(f, grid)
    ev = _block_eigvals(blocks, top_k)
    # the dropped rows and columns are zero, and so are their eigenvalues
    want = m if top_k is None else min(top_k, m)
    if len(ev) < want:
        ev = np.concatenate([ev, np.zeros(want - len(ev))])
    return ev[np.argsort(-np.abs(ev))][:top_k], pruned


def _error_estimate(f: _Forms, grid: QuadratureGrid, change: float, dropped: float, p: int,
                    value: float) -> float:
    """The error estimate of ``nystrom_spectrum`` and ``trace_power``: change + dropped + truncation.

    ``change`` is the change on the comparison grid and ``dropped`` the
    bound for the rows and columns of S_w dropped as negligible.  The
    truncation term |value| ((1 - tau)^-p - 1) bounds the part of tr K^p
    beyond +-L given ``value`` inside: x_i of the diagonal envelope
    exp(-x^T D x) is Gaussian with variance (D^-1)_ii / 2, so
    tau = sum_i erfc(L / sqrt((D^-1)_ii)) bounds its share outside
    [-L, L]^d (exactly for d = 1), and if each of the p points of the
    integrand lies in the box with probability at least 1 - tau, all p do
    with probability at least (1 - tau)^p (Gaussian correlation inequality).
    A spectrum takes p = 1 and tr K: restricting a positive kernel to the
    box lowers each eigenvalue by at most the trace it loses.
    """
    tau = sum(math.erfc(grid.half_width / math.sqrt(v)) for v in f.spread)
    truncated = abs(value) * math.expm1(-p * math.log1p(-tau)) if tau < 1 else math.inf
    return change + dropped + truncated


def nystrom_spectrum(k: QuadraticKernel, grid: QuadratureGrid, top_k: int | None = None,
                     with_error: bool = True) -> NumericSpectrum:
    """Eigenvalues of the weighted kernel matrix W^1/2 K W^1/2.

    The cross block Q_oi must be symmetric, as in every kernel the package
    builds (Hermitian states and their partial transposes); an asymmetric
    one is refused.  The spectrum is the union of those of the symmetry
    blocks of S_w (see the module docstring), from symmetric eigensolves
    (Lanczos per block for ``top_k``), real by construction: that of S_w
    with the rows and columns dropped as negligible set to zero, padded
    with zeros where fewer than asked for remain.

    Returns min(``top_k``, m) eigenvalues sorted by |lambda| descending, all
    m without ``top_k``; ``top_k`` < 1 is refused.  The error estimate
    (``_error_estimate``) takes the change of the leading eigenvalues, and
    the bound on the Frobenius norm of the dropped rows and columns, by
    which (Weyl) no eigenvalue moves further.  A D that is not positive
    definite is refused for it.
    """
    if k.dim == 2 and grid.n_points > ECONOMY_MAX_AXIS:
        raise DomainError(f"2-d grids capped at {ECONOMY_MAX_AXIS} points per axis")
    if top_k is not None and top_k < 1:
        raise DomainError(f"top_k must be >= 1, got {top_k}")
    f = _forms(k, blocks=True, estimate=with_error)
    ev, pruned = _spectrum_once(f, grid, top_k)
    err = math.nan
    if with_error:
        n_check = 12 if top_k is None else min(top_k, 12)
        other = _spectrum_once(f, _comparison_grid(f.dim, grid), top_k if f.dim == 1 else n_check)[0]
        n_cmp = min(len(ev), len(other), n_check)
        change = float(np.abs(ev[:n_cmp] - other[:n_cmp]).max())
        err = _error_estimate(f, grid, change, pruned, 1, _trace_once(f, 1, grid)[0])
    return NumericSpectrum(eigenvalues=ev, error_estimate=err)


def _comparison_grid(dim: int, grid: QuadratureGrid) -> QuadratureGrid:
    """The grid an error estimate compares with: refined, or coarsened if refining passes the 2-d cap."""
    if dim == 2 and grid.n_points * 2 > ECONOMY_MAX_AXIS:
        return grid.coarsened()
    return grid.refined()


def _trace_once(f: _Forms, p: int, grid: QuadratureGrid) -> tuple[float, float]:
    """tr K^p on ``grid`` and a bound on its change from the rows and columns of S_w dropped as negligible."""
    if p == 1:
        # tr K = sum_a w_a K(x_a, x_a): the diagonal alone, O(m) for any kernel
        pts, w = _points(f.dim, grid)
        return float(f.norm * np.dot(w, np.exp(-_quad(pts, f.diag)))), 0.0
    blocks, pruned = _symmetry_blocks(f, grid)
    value, square = _block_trace(blocks, p)
    # |tr (S + E)^p - tr S^p| <= p |E| (|S| + |E|)^(p - 1) in the Frobenius norm
    return value, p * pruned * (math.sqrt(square) + pruned) ** (p - 1)


def trace_power(k: QuadraticKernel, p: int, grid: QuadratureGrid, with_error: bool = True):
    """tr K^p for p in {1, 2, 3} by p-fold quadrature contraction.

    p = 1 sums the kernel's diagonal, O(m), for any kernel.  For p = 2, 3
    the cross block Q_oi must be symmetric (an asymmetric one is refused),
    and the symmetry blocks B_chi of S_w are contracted (see the module
    docstring): tr S_w^2 = sum |B_chi|^2, and tr S_w^3 = sum tr B_chi^3 by
    one symmetric rank-k product per block.

    Returns ``(value, error_estimate)``.  The estimate (``_error_estimate``)
    takes the change of the value, and p |E| (|S| + |E|)^(p-1) for the
    dropped rows and columns E of S_w (Frobenius norms, S with E set to
    zero).  Its truncation term is the missing mass exactly for p = 1 in
    1-d; for p = 2, 3 it holds when each of the p points of the integrand
    is no more spread than the diagonal, as for thermal states.  A D that
    is not positive definite is refused for it.
    """
    if p not in (1, 2, 3):
        raise DomainError(f"p must be 1, 2 or 3, got {p}")
    f = _forms(k, blocks=p > 1, estimate=with_error)
    value, pruned = _trace_once(f, p, grid)
    err = math.nan
    if with_error:
        other = _trace_once(f, p, _comparison_grid(f.dim, grid))[0]
        err = _error_estimate(f, grid, abs(value - other), pruned, p, value)
    return value, err


_MEHLER_MAX_TERMS = 120
# n! for n <= _MEHLER_MAX_TERMS, as exp(lgamma(n + 1))
_FACTORIALS = np.exp([math.lgamma(i + 1) for i in range(_MEHLER_MAX_TERMS + 1)])


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
    if terms < 1 or terms > _MEHLER_MAX_TERMS:
        raise DomainError(f"terms must lie in [1, {_MEHLER_MAX_TERMS}], got {terms}")
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"t, x and y must be finite, got {t}, {x}, {y}")
    if abs(t) >= 0.5:
        return MehlerCheck(lhs=math.nan, rhs=math.inf, tail_bound=math.inf, diverges=True)
    # H_n(x) and H_n(y) in one recurrence on Python floats: the IEEE operations of
    # ``hermite_all``'s array steps, without numpy's per-step overhead on two values
    x, y = float(x), float(y)
    hx, hy = [1.0, 2.0 * x], [1.0, 2.0 * y]
    for n in range(1, terms - 1):
        hx.append(2.0 * x * hx[n] - 2.0 * n * hx[n - 1])
        hy.append(2.0 * y * hy[n] - 2.0 * n * hy[n - 1])
    n = np.arange(terms)
    # straightforward accumulation; magnitudes stay finite for n <= _MEHLER_MAX_TERMS
    term = (t ** n) / _FACTORIALS[:terms] * np.array(hx[:terms]) * np.array(hy[:terms])
    lhs = float(np.sum(term))
    rhs = float((1 - 4 * t * t) ** -0.5
                * math.exp((4 * t * x * y - 4 * t * t * (x * x + y * y)) / (1 - 4 * t * t)))
    # Cramer bound |H_n(z)| <= 1.09 2^{n/2} sqrt(n!) e^{z^2/2} gives a geometric tail
    q = 2 * abs(t)
    tail = 1.09**2 * math.exp((x * x + y * y) / 2) * q**terms / (1 - q) if q > 0 else 0.0
    return MehlerCheck(lhs=lhs, rhs=rhs, tail_bound=tail, diverges=False)
