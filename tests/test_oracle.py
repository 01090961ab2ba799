import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscquench import oracle
from oscquench.special import hermite_all
from oscquench import (DomainError, ModeQuench, NumericalFailureError, QuadraticKernel,
                       QuadratureGrid, QuenchSpec, kernel_matrix, mehler_check,
                       beta_star, mode_thermo, normal_modes, nystrom_spectrum,
                       partial_transpose, pt_spectrum_const, thermal_rho_coupled,
                       thermal_rho_single, trace_power)


def coupled_state(spec, beta):
    m1, m2 = normal_modes(spec)
    return thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))


class TestQuadratureGrid:
    def test_minimum_points(self):
        with pytest.raises(DomainError):
            QuadratureGrid.make(16, 5.0)

    def test_auto_half_width(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        grid = QuadratureGrid.for_kernel(k, 64)
        assert grid.half_width == pytest.approx(8.0 / math.sqrt(np.diag(k.q).min()))

    def test_non_integrable_rejected(self):
        k = QuadraticKernel(1, 1.0, np.array([[1.0, 0.0], [0.0, -0.5]]))
        with pytest.raises(DomainError):
            QuadratureGrid.for_kernel(k)

    def test_weights_integrate_constant(self):
        grid = QuadratureGrid.make(64, 3.0)
        assert grid.weights.sum() == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("n", [32, 33, 56, 200, 400])
    def test_rule_bit_equal_to_leggauss(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        for half_width in (3.7, 3.7, 0.25):   # the second call is served by the cache
            grid = QuadratureGrid.make(n, half_width)
            assert np.array_equal(grid.nodes, x * half_width)
            assert np.array_equal(grid.weights, w * half_width)

    def test_cached_rule_is_read_only_and_never_shared(self):
        x, w = oracle._legendre_rule(56)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        a, b = QuadratureGrid.make(56, 1.0), QuadratureGrid.make(56, 1.0)
        for grid in (a, b):
            assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
            for arr in (grid.nodes, grid.weights):
                assert not np.shares_memory(arr, x) and not np.shares_memory(arr, w)
                with pytest.raises(ValueError):
                    arr[0] = 99.0
        assert not np.shares_memory(a.nodes, b.nodes)
        assert not np.shares_memory(a.weights, b.weights)
        assert np.array_equal(a.nodes, x) and np.array_equal(a.weights, w)

    def test_grid_keeps_its_own_read_only_arrays(self):
        g = QuadratureGrid.make(40, 5.0)
        nodes, weights = g.nodes.copy(), g.weights.copy()
        built = QuadratureGrid(40, 5.0, nodes, weights)
        nodes += 0.25  # the caller's arrays stay the caller's
        assert np.array_equal(built.nodes, g.nodes) and not np.shares_memory(built.nodes, nodes)
        with pytest.raises(ValueError):
            built.nodes += 0.25
        # shifting these nodes in place once gave a top eigenvalue of 1.556 where the answer is 0.970
        grid = QuadratureGrid.for_kernel(RHO_1D, 40)
        with pytest.raises(ValueError):
            grid.nodes[:] += 0.25
        assert np.array_equal(grid.nodes, QuadratureGrid.for_kernel(RHO_1D, 40).nodes)
        assert nystrom_spectrum(RHO_1D, grid).eigenvalues[0] == pytest.approx(0.970, abs=5e-4)

    def test_grid_without_node_parity_refused(self):
        g = QuadratureGrid.make(40, 5.0)
        bent = g.weights.copy()
        bent[0] *= 1 + 1e-15
        for n, nodes, weights in ((40, g.nodes + 0.25, g.weights), (40, g.nodes, bent),
                                  (41, g.nodes, g.weights), (40, g.nodes, g.weights[1:-1])):
            with pytest.raises(DomainError):
                QuadratureGrid(n, 5.0, nodes, weights)

    @pytest.mark.parametrize("half_width", [math.inf, -math.inf, math.nan])
    def test_non_finite_half_width_refused(self, half_width):
        # an infinite half-width once gave eigenvalues [0, 0, 0] and tr K^2 = 0
        with pytest.raises(DomainError, match="half_width must be finite"):
            QuadratureGrid.make(40, half_width)

    def test_non_finite_nodes_or_weights_refused(self):
        g = QuadratureGrid.make(40, 5.0)
        # exactly antisymmetric and symmetric, so only the finiteness check can refuse them
        nodes, weights = g.nodes.copy(), g.weights.copy()
        nodes[[0, -1]] = -math.inf, math.inf
        weights[[0, -1]] = math.inf
        for bad_nodes, bad_weights in ((nodes, g.weights), (g.nodes, weights)):
            with pytest.raises(DomainError, match="finite"):
                QuadratureGrid(40, 5.0, bad_nodes, bad_weights)
        nan_weights = g.weights.copy()
        nan_weights[[0, -1]] = math.nan
        with pytest.raises(DomainError, match="finite"):
            QuadratureGrid(40, 5.0, g.nodes, nan_weights)


def _spy_assemble(monkeypatch):
    """Record the arguments of every ``_assemble`` call, then run the real one."""
    calls = []
    real = oracle._assemble

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_assemble", spy)
    return calls


def _forms(k):
    """The oracle's reading of ``k`` as a spectrum without error estimate takes it."""
    return oracle._forms(k, blocks=True, estimate=False)


def _blocks(k, grid):
    """``_symmetry_blocks`` of ``k`` on ``grid``: the blocks and the dropped norm."""
    return oracle._symmetry_blocks(_forms(k), grid)


def _bounds(k, grid):
    """``_row_bounds`` of ``k`` over every node of ``grid``: the bounds g and the cut, or None."""
    pts, w = oracle._points(k.dim, grid)
    return oracle._row_bounds(_forms(k), pts, w, len(w))


class TestNystromSpectrum:
    def test_known_geometric_ladder(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        sp = nystrom_spectrum(k, QuadratureGrid.make(200, 12.0))
        expected = (1 - math.exp(-1)) * np.exp(-np.arange(3.0))
        assert np.abs(sp.eigenvalues[:3] - expected).max() < 1e-8
        assert sp.error_estimate < 1e-10

    def test_topk_matches_full(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.7))
        grid = QuadratureGrid.for_kernel(k, 128)
        full = nystrom_spectrum(k, grid, with_error=False)
        econ = nystrom_spectrum(k, grid, top_k=6, with_error=False)
        assert np.abs(full.eigenvalues[:6] - econ.eigenvalues[:6]).max() < 1e-10

    def test_coupled_top_eigenvalue(self):
        rho = coupled_state(QuenchSpec(1, 1, 1, 1), 1.0)
        grid = QuadratureGrid.for_kernel(rho, 48)
        sp = nystrom_spectrum(rho, grid, top_k=6, with_error=False)
        expected = (1 - math.exp(-1)) * (1 - math.exp(-math.sqrt(3)))
        assert sp.eigenvalues[0] == pytest.approx(expected, abs=1e-6)

    def test_pt_negativity_sum(self):
        sig = partial_transpose(coupled_state(QuenchSpec(1, 1, 1, 1), 4.0))
        grid = QuadratureGrid.for_kernel(sig, 40)
        sp = nystrom_spectrum(sig, grid, with_error=False)
        assert np.abs(sp.eigenvalues).sum() - 1 == pytest.approx(0.2909206226, abs=1e-5)

    def test_dense_cap_requires_topk(self):
        rho = coupled_state(QuenchSpec(1, 1, 1, 1), 1.0)
        with pytest.raises(DomainError):
            nystrom_spectrum(rho, QuadratureGrid.for_kernel(rho, 80), with_error=False)
        nystrom_spectrum(rho, QuadratureGrid.for_kernel(rho, 80), top_k=4, with_error=False)

    @pytest.mark.parametrize("extra", [-2, 0, 8])
    def test_top_k_near_and_beyond_m(self, extra):
        grid = QuadratureGrid.for_kernel(RHO_1D, 32)
        dense = nystrom_spectrum(RHO_1D, grid, with_error=False).eigenvalues
        top = nystrom_spectrum(RHO_1D, grid, top_k=32 + extra, with_error=False).eigenvalues
        assert len(top) == min(32 + extra, 32)
        assert np.all(np.diff(np.abs(top)) <= 0)
        assert np.abs(np.sort(top) - np.sort(dense[:len(top)])).max() <= 1e-12 * np.abs(dense[0])

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_refused_before_assembly(self, top_k, monkeypatch):
        calls = _spy_assemble(monkeypatch)
        grid = QuadratureGrid.for_kernel(RHO_1D, 32)
        with pytest.raises(DomainError):
            nystrom_spectrum(RHO_1D, grid, top_k=top_k)
        assert calls == []
        # the spy sees an accepted call, so the empty record above means something
        nystrom_spectrum(RHO_1D, grid, top_k=1, with_error=False)
        assert calls

    def test_axis_cap(self):
        rho = coupled_state(QuenchSpec(1, 1, 1, 1), 1.0)
        with pytest.raises(DomainError):
            nystrom_spectrum(rho, QuadratureGrid.for_kernel(rho, 140), top_k=4)

    def test_error_estimate_reported(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.7))
        sp = nystrom_spectrum(k, QuadratureGrid.for_kernel(k, 64))
        assert math.isfinite(sp.error_estimate) and sp.error_estimate > 1e-17


class TestTopKEigensolve:
    @staticmethod
    def _kernel(kernel):
        rho = coupled_state(QuenchSpec(3, 6, 3, 6), 0.6)
        k = rho if kernel == "rho" else partial_transpose(rho)
        return k, QuadratureGrid.for_kernel(k, 56)

    def test_matvec_reads_each_block_in_place(self, monkeypatch):
        import scipy.linalg.blas

        k, grid = self._kernel("sigma")
        made = []
        symmetry_blocks = oracle._symmetry_blocks

        def blocks(*args):
            sym = symmetry_blocks(*args)
            made.extend(sym[0])
            return sym

        monkeypatch.setattr(oracle, "_symmetry_blocks", blocks)
        seen = []
        dsymv = scipy.linalg.blas.dsymv

        def wrapped(alpha, a, x, *args, **kwargs):
            owner = [i for i, b in enumerate(made) if np.shares_memory(a, b)]
            seen.append((a.flags.f_contiguous, owner))
            y = dsymv(alpha, a, x, *args, **kwargs)
            if len(seen) == 1:
                ref = made[owner[0]] @ x
                assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)
            return y

        monkeypatch.setattr(scipy.linalg.blas, "dsymv", wrapped)
        nystrom_spectrum(k, grid, top_k=12, with_error=False)
        assert len(made) == 4 and seen
        assert all(f_contiguous for f_contiguous, _ in seen)
        assert all(len(owner) == 1 for _, owner in seen)
        assert {owner[0] for _, owner in seen} == {0, 1, 2, 3}

    @pytest.mark.parametrize("kernel", ["rho", "sigma"])
    def test_top12_matches_dense_block_spectra(self, kernel):
        k, grid = self._kernel(kernel)
        dense = np.concatenate([np.linalg.eigvalsh(b) for b in _blocks(k, grid)[0]])
        dense = dense[np.argsort(-np.abs(dense))][:12]
        top = nystrom_spectrum(k, grid, top_k=12, with_error=False).eigenvalues
        assert np.abs(top - dense).max() <= 1e-13 * abs(dense[0])

    @pytest.mark.parametrize("dim, beta, n", [(2, 9.0, 56), (1, 16.0, 200)])
    def test_blocks_of_exact_zeros(self, dim, beta, n):
        # cold enough that the odd blocks underflow to exact zeros, which ARPACK once refused
        # ("starting vector is zero"); the 1-d mode is omega = sqrt(6) of 3->6/3->6
        m1, m2 = normal_modes(QuenchSpec(3, 6, 3, 6))
        if dim == 2:
            k = thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))
        else:
            assert m1.omega_f == pytest.approx(math.sqrt(6))
            k = thermal_rho_single(mode_thermo(m1, beta))
        grid = QuadratureGrid.for_kernel(k, n)
        blocks = _blocks(k, grid)[0]
        assert any(len(b) > 12 and not b.any() for b in blocks)
        top = nystrom_spectrum(k, grid, top_k=12, with_error=False).eigenvalues
        dense = nystrom_spectrum(k, grid, with_error=False).eigenvalues[:12]
        assert np.abs(top - dense).max() <= 1e-13 * abs(dense[0])

    def test_arpack_failure_is_a_numerical_failure(self, monkeypatch):
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        k, grid = self._kernel("sigma")
        with pytest.raises(NumericalFailureError, match="no convergence"):
            nystrom_spectrum(k, grid, top_k=12, with_error=False)

    def test_top12_is_a_function_of_its_input(self):
        k, grid = self._kernel("sigma")
        first, second = (nystrom_spectrum(k, grid, top_k=12, with_error=False).eigenvalues
                         for _ in range(2))
        assert np.array_equal(first, second)


class TestTracePower:
    def test_trace_one(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        value, err = trace_power(k, 1, QuadratureGrid.for_kernel(k, 128))
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-10

    def test_purity_constant_coupled(self):
        rho = coupled_state(QuenchSpec(1, 1, 1, 1), 1.0)
        value, _ = trace_power(rho, 2, QuadratureGrid.for_kernel(rho, 48))
        expected = math.tanh(0.5) * math.tanh(math.sqrt(3) / 2)
        assert expected == pytest.approx(0.3231812209, abs=1e-9)  # frozen closed form
        assert value == pytest.approx(expected, abs=1e-8)

    def test_pt_second_moment_matches_closed_form(self):
        pt = pt_spectrum_const(1.0, math.sqrt(3), 1.0)
        b1 = pt.eps1 * pt.eps2 / (4 * (pt.mu_plus + pt.nu_plus) * (pt.mu_minus + pt.nu_minus))
        sig = partial_transpose(coupled_state(QuenchSpec(1, 1, 1, 1), 1.0))
        value, _ = trace_power(sig, 2, QuadratureGrid.for_kernel(sig, 48))
        assert value == pytest.approx(b1, abs=1e-7)

    def test_power_domain(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        with pytest.raises(DomainError):
            trace_power(k, 4, QuadratureGrid.for_kernel(k))

    def test_symmetric_route_allocates_no_full_matrix(self):
        # the four Z2 x Z2 blocks hold about m^2/4 doubles; a full m x m S_w would be m^2
        grid = QuadratureGrid.for_kernel(RHO_2D, 56)
        limit = 0.45 * 8 * (56 ** 2) ** 2
        # imported outside the traced region: the bound is on the route's arrays, not on imports
        import scipy.sparse.linalg  # noqa: F401
        calls = [lambda: trace_power(RHO_2D, 3, grid, with_error=False),
                 lambda: trace_power(RHO_2D, 2, grid, with_error=False),
                 lambda: nystrom_spectrum(RHO_2D, grid, top_k=12, with_error=False)]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit

    def test_non_convergence_reported(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        assert trace_power(k, 2, QuadratureGrid.for_kernel(k, 64))[1] > 1e-18


class TestTruncation:
    """Refining or coarsening keeps the half-width L: the estimates add the mass beyond +-L."""

    BETAS = [0.05, 0.1, 0.2]

    @staticmethod
    def _ladder(beta):
        """omega = 1 at rest: lambda_n = (1 - xi) xi^n, tr rho^p = (1 - xi)^p / (1 - xi^p)."""
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), beta))
        return k, QuadratureGrid.for_kernel(k, 200), math.exp(-beta)

    @pytest.mark.parametrize("beta", BETAS)
    def test_trace_estimate_covers_the_error(self, beta):
        k, grid, xi = self._ladder(beta)
        for p in (1, 2, 3):
            value, err = trace_power(k, p, grid)
            exact = (1 - xi) ** p / (1 - xi ** p)
            # for p = 1 the bound is exact, so it covers the error up to rounding
            assert abs(value - exact) <= err + 1e-14 * exact
            assert err > 1e-7
        # in 1-d the bound is the mass beyond +-L itself
        value, err = trace_power(k, 1, grid)
        assert err == pytest.approx(1 - value, rel=1e-9)

    @pytest.mark.parametrize("beta", BETAS)
    def test_spectrum_estimate_covers_the_error(self, beta):
        k, grid, xi = self._ladder(beta)
        sp = nystrom_spectrum(k, grid, top_k=12)
        exact = (1 - xi) * xi ** np.arange(12)
        assert np.abs(sp.eigenvalues - exact).max() <= sp.error_estimate
        assert sp.error_estimate > 1e-7

    def test_mode_of_the_anchor_quench(self):
        # mode 0 of 3->6/3->6 at beta 0.05: a sixth of tr rho = 1 lies beyond +-L
        k = thermal_rho_single(mode_thermo(normal_modes(QuenchSpec(3, 6, 3, 6))[0], 0.05))
        value, err = trace_power(k, 1, QuadratureGrid.for_kernel(k, 200))
        assert value == pytest.approx(0.8328, abs=1e-4)
        assert err == pytest.approx(1 - value, rel=1e-9)

    def test_diagonal_without_finite_trace_refused(self):
        # K(x, x) = exp(+0.1 x^2)
        k = QuadraticKernel(1, 1.0, np.array([[0.5, -0.55], [-0.55, 0.5]]))
        grid = QuadratureGrid.make(32, 4.0)
        for p in (1, 2, 3):
            with pytest.raises(DomainError):
                trace_power(k, p, grid)
        with pytest.raises(DomainError):
            nystrom_spectrum(k, grid, top_k=4)


def _reference(k, grid):
    """Spectrum sorted by value and tr (KW)^p, p = 1..3, straight from kernel_matrix."""
    mat, w = kernel_matrix(k, grid)
    sw = np.sqrt(w)
    ev = np.linalg.eigvals(sw[:, None] * mat * sw[None, :])
    kw = mat * w[None, :]
    kw2 = kw @ kw
    return np.sort(ev.real), [np.trace(kw), np.trace(kw2), np.trace(kw2 @ kw)]


def _top_parities(k, grid, n):
    """Parity under node reversal (+1 even, -1 odd) of the top-n eigenvectors, from kernel_matrix."""
    mat, w = kernel_matrix(k, grid)
    sw = np.sqrt(w)
    ev, vec = np.linalg.eig(sw[:, None] * mat * sw[None, :])
    top = vec[:, np.argsort(-np.abs(ev))[:n]].real
    return np.sign(np.einsum("ai,ai->i", top[::-1], top))


def _positive_2d(a, g, theta):
    """Blocks (A, C) of a positive exchange-free two-mode kernel in a frame rotated by theta."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return r.T @ np.diag(a) @ r, -r.T @ np.diag(g) @ r


def _product_kernel():
    """K = X Y for positive Gaussian operators X, Y diagonal in different frames.

    Integrating out the middle coordinate gives Q_oi = -C_x M^-1 C_y with
    M = A_x + A_y, which is not symmetric; the spectrum is that of
    X^1/2 Y X^1/2, so it is real and positive.
    """
    ax, cx = _positive_2d([1.1, 0.8], [0.5, 0.3], 0.3)
    ay, cy = _positive_2d([0.9, 1.2], [0.4, 0.6], 1.1)
    m = ax + ay
    mi = np.linalg.inv(m)
    q = np.block([[ax - cx @ mi @ cx.T, -cx @ mi @ cy], [-cy.T @ mi @ cx, ay - cy.T @ mi @ cy]])
    return QuadraticKernel(2, 0.2 * math.pi / math.sqrt(np.linalg.det(m)), q)


# Q_oo != Q_ii with a symmetric Q_oi: the symmetric route, through a
# diagonal similarity whose condition number exp(max e - min e) stays
# below 10 on these grids, so the general reference eigensolve is accurate
KERNEL_1D = QuadraticKernel(1, 0.45, np.array([[0.62, -0.31], [-0.31, 0.55]]))
KERNEL_2D = QuadraticKernel(2, 0.3, np.block([
    [np.array([[0.80, 0.10], [0.10, 0.70]]), np.array([[-0.25, -0.05], [-0.05, -0.20]])],
    [np.array([[-0.25, -0.05], [-0.05, -0.20]]), np.array([[0.76, 0.07], [0.07, 0.73]])]]))
# the exchange x1 <-> x2 kept by Q_oi but broken by M = (Q_oo + Q_ii)/2, and the reverse
KERNEL_2D_M_BREAKS_X = QuadraticKernel(2, 0.3, np.block([
    [np.array([[0.80, 0.10], [0.10, 0.70]]), np.array([[-0.25, -0.05], [-0.05, -0.25]])],
    [np.array([[-0.25, -0.05], [-0.05, -0.25]]), np.array([[0.76, 0.07], [0.07, 0.73]])]]))
KERNEL_2D_QOI_BREAKS_X = QuadraticKernel(2, 0.3, np.block([
    [np.array([[0.80, 0.10], [0.10, 0.74]]), np.array([[-0.25, -0.05], [-0.05, -0.20]])],
    [np.array([[-0.25, -0.05], [-0.05, -0.20]]), np.array([[0.76, 0.07], [0.07, 0.82]])]]))
# the package's own kernels (3->6/3->6 at beta 0.6 is the benchmark's anchor
# quench); their top eigenvectors alternate between the even and the odd block
RHO_1D = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.7))
RHO_2D = coupled_state(QuenchSpec(3, 6, 3, 6), 0.6)
SIGMA_2D = partial_transpose(RHO_2D)
_G40 = QuadratureGrid.make(40, 5.0)
# one block per character: {I, P, X, PX} for the package's two-mode kernels, {I, P} otherwise
BLOCKS = {"PX": 4, "P": 2}
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _exchange_residual(k):
    """How far M = (Q_oo + Q_ii)/2 and Q_oi are from commuting with x1 <-> x2."""
    q = k.q
    return max(np.abs(_SWAP @ a @ _SWAP - a).max() for a in ((q[:2, :2] + q[2:, 2:]) / 2, q[:2, 2:]))


class TestSymmetricAndGeneralRoutes:
    """Every symmetry route of the oracle against a test-local reference on the same grid.

    A kernel with an asymmetric Q_oi is refused for spectra and tr K^p, p = 2, 3.
    """

    # even and odd node counts: an odd grid puts its centre node in the fully symmetric block
    CASES = [(KERNEL_1D, _G40, "P"),
             (KERNEL_2D, QuadratureGrid.make(32, 4.5), "P"),
             (_product_kernel(), QuadratureGrid.make(32, 4.5), "refused"),
             (KERNEL_1D, QuadratureGrid.make(41, 5.0), "P"),
             (KERNEL_2D, QuadratureGrid.make(33, 4.5), "P"),
             (RHO_1D, QuadratureGrid.for_kernel(RHO_1D, 40), "P"),
             (RHO_1D, QuadratureGrid.for_kernel(RHO_1D, 41), "P"),
             (RHO_2D, QuadratureGrid.for_kernel(RHO_2D, 32), "PX"),
             (RHO_2D, QuadratureGrid.for_kernel(RHO_2D, 33), "PX"),
             (SIGMA_2D, QuadratureGrid.for_kernel(SIGMA_2D, 32), "PX"),
             (SIGMA_2D, QuadratureGrid.for_kernel(SIGMA_2D, 33), "PX"),
             (KERNEL_2D_QOI_BREAKS_X, QuadratureGrid.make(32, 4.5), "P"),
             (KERNEL_2D_M_BREAKS_X, QuadratureGrid.make(32, 4.5), "P"),
             (KERNEL_2D_M_BREAKS_X, QuadratureGrid.make(33, 4.5), "P"),
             (KERNEL_2D_QOI_BREAKS_X, QuadratureGrid.make(33, 4.5), "P")]
    # rho of a negative-J pair and sigma of an upward quench, at the other parity
    for _k, _n in ((coupled_state(QuenchSpec(1, 1, -0.3, -0.3), 1.0), 33),
                   (partial_transpose(coupled_state(QuenchSpec(1, 20, 5, 5), 0.3)), 32)):
        CASES.append((_k, QuadratureGrid.for_kernel(_k, _n), "PX"))
    HAND_BUILT = (0, 1, 11, 12, 14)

    @staticmethod
    @functools.cache
    def _reference(case):
        k, grid, _ = TestSymmetricAndGeneralRoutes.CASES[case]
        return _reference(k, grid)

    def test_cases_have_the_intended_cross_block(self):
        for k, grid, route in self.CASES:
            d = k.dim
            asym = np.abs(k.q[:d, d:] - k.q[d:, :d]).max()
            assert asym > 1e-3 or asym < 1e-15
            assert (route == "refused") == (asym > 1e-3)
            if d == 2 and route != "refused":
                exchange = _exchange_residual(k)
                assert exchange > 1e-3 or exchange < 1e-15
                assert (route == "PX") == (exchange < 1e-15)
        # Q_oo != Q_ii: the hand-built kernels make the diagonal similarity non-trivial
        for case in self.HAND_BUILT:
            k, _, _ = self.CASES[case]
            d = k.dim
            assert np.abs(k.q[:d, :d] - k.q[d:, d:]).max() > 1e-3
        # the top 6 eigenvalues of case 6 lie in both parity blocks
        k, grid, _ = self.CASES[6]
        assert set(_top_parities(k, grid, 6)) == {1.0, -1.0}

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_route_blocks(self, case):
        k, grid, route = self.CASES[case]
        if route == "refused":
            with pytest.raises(DomainError, match="asymmetric"):
                _forms(k)
            return
        blocks, pruned = _blocks(k, grid)
        assert len(blocks) == BLOCKS[route]
        # the blocks hold the kept nodes; the rest are the nodes whose row bound falls below the cut
        g, cut = _bounds(k, grid)
        dropped = np.count_nonzero(g < cut)
        m = grid.n_points ** k.dim
        assert sum(len(b) for b in blocks) + dropped == m
        # |E|_F <= sqrt(2 m |J|) max_J exp(g), J the dropped nodes
        bound = math.sqrt(2 * m * dropped) * math.exp(g[g < cut].max()) if dropped else 0.0
        assert pruned == pytest.approx(bound, rel=1e-12, abs=0)
        assert all(b.flags.c_contiguous for b in blocks)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_spectrum_dense_and_top_k(self, case, monkeypatch):
        k, grid, route = self.CASES[case]
        if route == "refused":
            calls = _spy_assemble(monkeypatch)
            for top_k, with_error in ((None, False), (6, False), (6, True)):
                with pytest.raises(DomainError, match="asymmetric"):
                    nystrom_spectrum(k, grid, top_k=top_k, with_error=with_error)
            assert calls == []
            nystrom_spectrum(KERNEL_2D, grid, top_k=6, with_error=False)
            assert calls
            return
        ref, _ = self._reference(case)
        scale = np.abs(ref).max()
        dense = nystrom_spectrum(k, grid, with_error=False)
        top = nystrom_spectrum(k, grid, top_k=6, with_error=False)
        assert np.abs(np.sort(dense.eigenvalues) - ref).max() <= 1e-12 * scale
        want = ref[np.argsort(-np.abs(ref))][:6]
        assert np.abs(np.sort(top.eigenvalues[:6]) - np.sort(want)).max() <= 1e-12 * scale
        assert np.all(np.diff(np.abs(dense.eigenvalues)) <= 0)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_trace_powers(self, case, monkeypatch):
        k, grid, route = self.CASES[case]
        _, ref = self._reference(case)
        # tr K reads only the diagonal, for any kernel
        value, _ = trace_power(k, 1, grid, with_error=False)
        assert abs(value - ref[0]) <= 1e-12 * abs(ref[0])
        if route == "refused":
            calls = _spy_assemble(monkeypatch)
            for p, with_error in ((2, False), (3, False), (3, True)):
                with pytest.raises(DomainError, match="asymmetric"):
                    trace_power(k, p, grid, with_error=with_error)
            assert calls == []
            trace_power(KERNEL_2D, 2, grid, with_error=False)
            assert calls
            return
        for p in (2, 3):
            value, _ = trace_power(k, p, grid, with_error=False)
            assert abs(value - ref[p - 1]) <= 1e-12 * abs(ref[p - 1])

    @pytest.mark.parametrize("case", [i for i, c in enumerate(CASES) if c[2] != "refused"])
    def test_row_bound_covers_every_entry(self, case):
        k, grid, _ = self.CASES[case]
        _assert_row_bound(k, grid)


def _assert_row_bound(k, grid):
    """max_s |S_w[r, s]| <= exp(g_r) on every node r, with S_w built from kernel_matrix."""
    pts, w = oracle._points(k.dim, grid)
    g, _ = _bounds(k, grid)
    d = k.dim
    # S_w = D^-1 W^1/2 K W^1/2 D with D = diag(exp(-e)), e(x) = x (Q_oo - Q_ii) x / 2
    e = np.einsum("ai,ij,aj->a", pts, (k.q[:d, :d] - k.q[d:, d:]) / 2, pts)
    sw, _ = kernel_matrix(k, grid)
    sw *= (np.sqrt(w) * np.exp(e))[:, None]
    sw *= (np.sqrt(w) * np.exp(-e))[None, :]
    row_max = np.abs(sw, out=sw).max(axis=1)
    assert np.all(row_max <= np.exp(g) * (1 + 1e-12))


def _seeded_states():
    """The anchor 3->6/3->6 at beta 0.6 and two seeded upward quenches with omega_min beta in [0.5, 4]."""
    rng = np.random.default_rng(20261018)
    states = [(QuenchSpec(3, 6, 3, 6), 0.6)]
    for _ in range(2):
        k0, j = rng.uniform(0.5, 5.0), rng.uniform(0.1, 3.0)
        spec = QuenchSpec(k0, k0 * rng.uniform(1.2, 4.0), j, j * rng.uniform(1.2, 4.0))
        omega_min = min(min(m.omega_i, m.omega_f) for m in normal_modes(spec))
        states.append((spec, rng.uniform(0.5, 4.0) / omega_min))
    return states


# symmetric Q_oi on a parity grid: M = (Q_oo + Q_ii)/2 positive definite with
# Sigma = M - Q_oi M^-1 Q_oi indefinite, and M itself indefinite (there the
# maximum over p_s behind the row bound does not exist); both grow along
# the anti-diagonal, so their grids stay small enough for tr S^3 to keep its digits
KERNEL_SIGMA_INDEFINITE = QuadraticKernel(2, 0.3, np.block([
    [np.diag([3.0, 1.0]), np.diag([0.3, 1.05])], [np.diag([0.3, 1.05]), np.diag([3.0, 1.0])]]))
KERNEL_M_INDEFINITE = QuadraticKernel(1, 0.45, np.array([[0.02, 0.3], [0.3, -0.06]]))
# Sigma indefinite on a kernel that keeps the exchange, whose pair the exponent averages
KERNEL_SIGMA_INDEFINITE_X = QuadraticKernel(2, 0.3, np.block([
    [np.array([[1.0, 0.1], [0.1, 1.0]]), 1.05 * np.eye(2)], [1.05 * np.eye(2), np.array([[1.0, 0.1], [0.1, 1.0]])]]))


# the same quench at omega_min beta = 0.5 (omega_min = sqrt(6), the softer final frequency):
# the hottest draw of the benchmark's verify ops, where pruning keeps the most rows
HOT_SIGMA = partial_transpose(coupled_state(QuenchSpec(3, 6, 3, 6), 0.5 / math.sqrt(6.0)))


def _max_diagonal(k, grid):
    """Largest diagonal entry of S_w: w_a K(x_a, x_a) = w_a norm exp(-x_a^T D x_a), D = sum of Q's blocks."""
    pts, w = oracle._points(k.dim, grid)
    d = k.dim
    q = k.q
    env = q[:d, :d] + q[:d, d:] + q[d:, :d] + q[d:, d:]
    return float((w * k.norm * np.exp(-np.einsum("ai,ij,aj->a", pts, env, pts))).max())


class TestPruning:
    """Orbits are dropped while their bound stays within 2^-53 of the largest diagonal entry of S_w."""

    @staticmethod
    def _unpruned(monkeypatch):
        monkeypatch.setattr(oracle, "_LOG_NEGLIGIBLE", -math.inf)

    @pytest.mark.parametrize("kernel", ["rho", "sigma"])
    def test_row_bound_covers_every_entry_at_the_anchor(self, kernel):
        k = RHO_2D if kernel == "rho" else SIGMA_2D
        _assert_row_bound(k, QuadratureGrid.for_kernel(k, 56))

    @pytest.mark.parametrize("n", [48, 56])
    @pytest.mark.parametrize("kernel", ["rho", "sigma"])
    def test_pruned_matches_unpruned(self, kernel, n, monkeypatch):
        pruned, full = [], []
        for results, patch in ((pruned, False), (full, True)):
            if patch:
                self._unpruned(monkeypatch)
            for spec, beta in _seeded_states():
                rho = coupled_state(spec, beta)
                k = rho if kernel == "rho" else partial_transpose(rho)
                grid = QuadratureGrid.for_kernel(k, n)
                kept = sum(len(b) for b in _blocks(k, grid)[0])
                top = nystrom_spectrum(k, grid, top_k=12, with_error=False).eigenvalues
                traces = [trace_power(k, p, grid, with_error=False)[0] for p in (2, 3)]
                results.append((kept, top, traces))
        # the pruned runs did drop nodes, the unpruned kept all n^2
        assert all(kept < n * n for kept, _, _ in pruned)
        assert all(kept == n * n for kept, _, _ in full)
        for (_, top, traces), (_, top_ref, traces_ref) in zip(pruned, full):
            assert np.abs(top - top_ref).max() <= 1e-14 * abs(top_ref[0])
            for value, ref in zip(traces, traces_ref):
                assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_dropped_norm_within_unit_roundoff(self):
        # the route cases (the hand-built kernels drop nothing), then rho and sigma of every
        # seeded state at 48^2 and 56^2 and the hot sigma, which all drop orbits
        routes = [(k, grid) for k, grid, route in TestSymmetricAndGeneralRoutes.CASES
                  if route != "refused"]
        states = [(HOT_SIGMA, QuadratureGrid.for_kernel(HOT_SIGMA, 56))]
        for spec, beta in _seeded_states():
            rho = coupled_state(spec, beta)
            states += [(k, QuadratureGrid.for_kernel(k, n))
                       for k in (rho, partial_transpose(rho)) for n in (48, 56)]
        pruned = [_blocks(k, grid)[1] for k, grid in routes + states]
        for (k, grid), dropped in zip(routes + states, pruned):
            assert dropped <= 2.0 ** -53 * _max_diagonal(k, grid)
        assert all(pruned[len(routes):])
        assert sum(p > 0 for p in pruned[:len(routes)]) == 8

    def test_anchor_keeps_fewer_rows_than_the_fixed_cut(self):
        # a fixed cut of 1e-24 of the largest diagonal entry kept 433, 421, 404 and 416 rows
        grid = QuadratureGrid.for_kernel(SIGMA_2D, 56)
        sizes = [len(b) for b in _blocks(SIGMA_2D, grid)[0]]
        assert len(sizes) == 4
        assert all(size < old for size, old in zip(sizes, (433, 421, 404, 416)))

    @pytest.mark.parametrize("n", [33, 40])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_dense_spectrum_keeps_every_eigenvalue(self, dim, n, monkeypatch):
        k = RHO_1D if dim == 1 else RHO_2D
        grid = QuadratureGrid.for_kernel(k, n)
        m = n ** dim
        assert sum(len(b) for b in _blocks(k, grid)[0]) < m
        ev = nystrom_spectrum(k, grid, with_error=False).eigenvalues
        self._unpruned(monkeypatch)
        ref = nystrom_spectrum(k, grid, with_error=False).eigenvalues
        assert len(ev) == len(ref) == m
        assert np.abs(ev - ref).max() <= 1e-14 * abs(ref[0])

    @pytest.mark.parametrize("k, half_width", [(KERNEL_SIGMA_INDEFINITE, 4.5),
                                               (KERNEL_M_INDEFINITE, 2.0),
                                               (KERNEL_SIGMA_INDEFINITE_X, 2.5)],
                             ids=["sigma_indefinite", "m_indefinite", "sigma_indefinite_exchange"])
    def test_no_pruning_without_a_bound(self, k, half_width):
        assert _forms(k).exchange == (k is KERNEL_SIGMA_INDEFINITE_X)
        grid = QuadratureGrid.make(32, half_width)
        assert _bounds(k, grid) is None
        blocks, pruned = _blocks(k, grid)
        assert sum(len(b) for b in blocks) == grid.n_points ** k.dim and pruned == 0.0
        ev = nystrom_spectrum(k, grid, with_error=False).eigenvalues
        ref, traces = _reference(k, grid)
        assert np.abs(np.sort(ev) - ref).max() <= 1e-12 * np.abs(ref).max()
        for p in (2, 3):
            value = trace_power(k, p, grid, with_error=False)[0]
            assert abs(value - traces[p - 1]) <= 1e-12 * abs(traces[p - 1])

    def test_error_estimates_add_the_dropped_norm(self, monkeypatch):
        grid = QuadratureGrid.for_kernel(RHO_1D, 40)
        assert _blocks(RHO_1D, grid)[1] > 0
        spectrum = nystrom_spectrum(RHO_1D, grid, top_k=6).error_estimate
        traces = [trace_power(RHO_1D, p, grid) for p in (2, 3)]
        # a dropped norm |E| = 1e-3 on the estimated grid and on its refinement
        real = oracle._symmetry_blocks
        monkeypatch.setattr(oracle, "_symmetry_blocks", lambda *args: (real(*args)[0], 1e-3))
        assert nystrom_spectrum(RHO_1D, grid, top_k=6).error_estimate == pytest.approx(
            spectrum - real(_forms(RHO_1D), grid)[1] + 1e-3, rel=1e-12, abs=0)
        norm = math.sqrt(traces[0][0])
        for p, (value, err) in zip((2, 3), traces):
            value_e, err_e = trace_power(RHO_1D, p, grid)
            assert value_e == value
            # p |E| (|S| + |E|)^(p - 1) with |S| the Frobenius norm of the pruned S_w
            assert err_e - err == pytest.approx(p * 1e-3 * (norm + 1e-3) ** (p - 1), rel=1e-6, abs=0)


class TestRepresentatives:
    """The representatives' nodes and weights, read off the grid's axes, are those of the tensor grid."""

    @pytest.mark.parametrize("n", [32, 33], ids=["even_n", "odd_n"])
    @pytest.mark.parametrize("k", [KERNEL_1D, KERNEL_2D, RHO_2D], ids=["1d", "2d", "2d_exchange"])
    def test_nodes_and_weights_bit_equal_to_points(self, k, n, monkeypatch):
        f = _forms(k)
        assert f.exchange == (k is RHO_2D)
        grid = QuadratureGrid.make(n, 4.5)
        # the points and weights ``_symmetry_blocks`` bounds the rows of, before any is dropped
        seen = []
        row_bounds = oracle._row_bounds

        def spy(f, pts, w, m):
            seen.append((pts, w, m))
            return row_bounds(f, pts, w, m)

        monkeypatch.setattr(oracle, "_row_bounds", spy)
        oracle._symmetry_blocks(f, grid)
        [(pts, w, m)] = seen
        all_pts, all_w = oracle._points(k.dim, grid)
        assert m == len(all_w) == n ** k.dim
        reps = np.ravel_multi_index(tuple(oracle._orbits(n, k.dim, f.exchange)[1].T), (n,) * k.dim)
        assert np.array_equal(pts, all_pts[reps]) and np.array_equal(w, all_w[reps])
        # one representative per orbit: its lowest node index
        nodes = np.arange(m)
        perms = [nodes, nodes[::-1]]
        if f.exchange:
            exchange = nodes.reshape(n, n).T.ravel()
            perms += [exchange, exchange[::-1]]
        assert sorted(reps) == np.flatnonzero(np.min(perms, axis=0) == nodes).tolist()


def _character_blocks(k, grid, route):
    """The oracle's symmetry blocks built straight from kernel_matrix.

    Block chi is sum_h chi(h) S_w[r, h s] / sqrt(|Stab r| |Stab s|) over the
    kept representatives r, s that chi keeps, ordered X-fixed, free, PX-fixed,
    centre and by lowest node within each; the kept ones are those whose row
    bound reaches the cut of ``_row_bounds``.
    """
    pts, w = oracle._points(k.dim, grid)
    d = k.dim
    e = np.einsum("ai,ij,aj->a", pts, (k.q[:d, :d] - k.q[d:, d:]) / 2, pts)
    sw, _ = kernel_matrix(k, grid)
    sw *= (np.sqrt(w) * np.exp(e))[:, None]
    sw *= (np.sqrt(w) * np.exp(-e))[None, :]
    # node permutations of I, P, X, PX (I, P without the exchange)
    nodes = np.arange(len(w))
    perms = [nodes, nodes[::-1]]
    if route == "PX":
        exchange = nodes.reshape(grid.n_points, -1).T.ravel()
        perms += [exchange, exchange[::-1]]
    perms = np.array(perms)
    reps = np.flatnonzero(perms.min(axis=0) == nodes)
    bounds = _bounds(k, grid)
    if bounds is not None:
        reps = reps[bounds[0][reps] >= bounds[1]]

    def run_class(r):
        fixed = perms[:, r] == r
        if fixed[1]:
            return 3                                        # the centre
        if route == "PX" and (fixed[2] or fixed[3]):
            return 0 if fixed[2] else 2                     # X-fixed, PX-fixed
        return 1                                            # free

    reps = np.array(sorted(reps, key=lambda r: (run_class(r), r)), dtype=int)
    fixes = perms[:, reps] == reps
    stab = fixes.sum(axis=0)
    blocks = []
    for c in range(len(perms)):
        chi = np.array([(-1) ** bin(b & c).count("1") for b in range(len(perms))])
        kept = ~np.any(fixes & (chi[:, None] < 0), axis=0)
        keep = reps[kept]
        norm = np.sqrt(np.outer(stab[kept], stab[kept]))
        blocks.append(sum(x * sw[np.ix_(keep, perm[keep])] for x, perm in zip(chi, perms)) / norm)
    return blocks


class TestTiles:
    """Blocks built in row tiles equal the character projections of kernel_matrix."""

    CASES = [(RHO_1D, QuadratureGrid.for_kernel(RHO_1D, 40), "P"),           # 1-d, even, pruned
             (KERNEL_1D, QuadratureGrid.make(41, 5.0), "P"),                # 1-d, odd
             (KERNEL_2D, QuadratureGrid.make(32, 4.5), "P"),                # {I, P}, even
             (KERNEL_2D, QuadratureGrid.make(33, 4.5), "P"),                # {I, P}, odd
             (RHO_2D, QuadratureGrid.for_kernel(RHO_2D, 32), "PX"),         # even, pruned
             (SIGMA_2D, QuadratureGrid.for_kernel(SIGMA_2D, 33), "PX"),     # odd, pruned
             # so cold on its grid that chi(P+, X-) (free orbits only) and chi(P-) are empty
             (RHO_2D, QuadratureGrid.make(32, 100.0), "PX"),
             (RHO_1D, QuadratureGrid.make(41, 100.0), "P")]
    WITH_EMPTY = (6, 7)

    @staticmethod
    def _tiles(rows):
        """Tiles of 1 and 7 rows, and tiles with rows = k tile + 1 and rows = k tile - 1."""
        over = [t for t in range(2, rows) if rows % t == 1 and rows // t >= 2]
        short = [t for t in range(2, rows) if rows % t == t - 1]
        return sorted({1, 7, *over[-1:], *short[-1:]})

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_blocks_match_kernel_matrix_at_every_tile_size(self, case, monkeypatch):
        k, grid, route = self.CASES[case]
        ref = _character_blocks(k, grid, route)
        rows = len(ref[0])
        for tile in self._tiles(rows):
            monkeypatch.setattr(oracle, "_TILE_ENTRIES", tile * rows)
            blocks = _blocks(k, grid)[0]
            assert [b.shape for b in blocks] == [r.shape for r in ref]
            scale = max(np.abs(r).max() for r in ref if r.size)
            for b, r in zip(blocks, ref):
                assert b.flags.c_contiguous
                assert np.abs(b - r).max(initial=0.0) <= 1e-12 * scale
        assert (min(len(r) for r in ref) == 0) == (case in self.WITH_EMPTY)


@st.composite
def _two_mode_state(draw):
    """A spec of each kind the package accepts and a beta in its domain (omega_min beta in [0.3, 4])."""
    kind = draw(st.sampled_from(["up", "down", "const", "negJ"]))
    k0, j = draw(st.floats(0.5, 5.0)), draw(st.floats(0.1, 3.0))
    r1, r2 = draw(st.floats(1.2, 4.0)), draw(st.floats(1.2, 4.0))
    u1, u2 = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
    spec = {"up": QuenchSpec(k0, k0 * r1, j, j * r2),
            "down": QuenchSpec(k0, k0 / r1, j, j / r2),
            "const": QuenchSpec(k0, k0, j, j),
            "negJ": QuenchSpec(k0, k0, -k0 * u1, -k0 * u2)}[kind]
    modes = normal_modes(spec)
    omega_min = min(min(m.omega_i, m.omega_f) for m in modes)
    beta = draw(st.floats(0.3, 4.0)) / omega_min
    # a downward quench only below beta*, which at least one of its modes has
    beta = min(beta, 0.9 * min(beta_star(m) for m in modes))
    return spec, beta


@pytest.mark.parametrize("parity", [0, 1], ids=["even_n", "odd_n"])
@settings(max_examples=3, deadline=None, database=None)
@given(state=_two_mode_state(), kernel=st.sampled_from(["rho", "sigma"]), data=st.data())
def test_package_kernels_match_the_reference(parity, state, kernel, data):
    """Random rho and sigma on 32-40 nodes per axis: the Z2 x Z2 route against kernel_matrix + eigvals."""
    rho = coupled_state(*state)
    k = rho if kernel == "rho" else partial_transpose(rho)
    grid = QuadratureGrid.for_kernel(k, data.draw(st.sampled_from(range(32 + parity, 41, 2))))
    assert len(_blocks(k, grid)[0]) == 4
    ref, traces = _reference(k, grid)
    dense = nystrom_spectrum(k, grid, with_error=False).eigenvalues
    assert np.abs(np.sort(dense) - ref).max() <= 1e-12 * np.abs(ref).max()
    for p in (2, 3):
        value, _ = trace_power(k, p, grid, with_error=False)
        assert abs(value - traces[p - 1]) <= 1e-12 * abs(traces[p - 1])


class TestKernelMatrix:
    def test_matches_pointwise_evaluation(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        grid = QuadratureGrid.for_kernel(k, 32)
        mat, w = kernel_matrix(k, grid)
        i, j = 5, 20
        assert mat[i, j] == pytest.approx(k.evaluate(grid.nodes[i], grid.nodes[j]), rel=1e-14)
        assert w[j] == pytest.approx(grid.weights[j])

    def test_dim2_matches_pointwise(self):
        rho = coupled_state(QuenchSpec(3, 6, 3, 6), 1.0)
        grid = QuadratureGrid.for_kernel(rho, 32)
        mat, _ = kernel_matrix(rho, grid)
        n = grid.n_points
        a, b = 3 * n + 7, 11 * n + 2
        pa = [grid.nodes[3], grid.nodes[7]]
        pb = [grid.nodes[11], grid.nodes[2]]
        assert mat[a, b] == pytest.approx(rho.evaluate(pa, pb), rel=1e-13)


class TestMehler:
    def test_zero_parameter(self):
        res = mehler_check(0.0, 0.7, -1.1, 10)
        assert res.lhs == 1.0 and res.rhs == pytest.approx(1.0)

    def test_identity_accuracy(self):
        res = mehler_check(0.3, 0.5, -0.2, 80)
        assert abs(res.lhs - res.rhs) < 1e-10
        assert abs(res.lhs - res.rhs) <= max(res.tail_bound, 1e-12)

    def test_divergence_flag(self):
        res = mehler_check(0.5, 0.0, 0.0, 40)
        assert res.diverges and math.isinf(res.rhs)

    def test_terms_cap(self):
        with pytest.raises(DomainError):
            mehler_check(0.2, 0.0, 0.0, 121)

    @pytest.mark.parametrize("t, x, y", [(math.nan, 0.1, 0.2), (0.1, math.inf, 0.2),
                                         (0.1, 0.2, -math.inf), (math.inf, 0.0, 0.0)])
    def test_non_finite_input_refused(self, t, x, y):
        # refused, not summed: a NaN t would otherwise report an exact sum (tail_bound 0)
        with pytest.raises(DomainError, match="finite"):
            mehler_check(t, x, y)

    @staticmethod
    def _two_call_lhs(t, x, y, terms):
        hx = hermite_all(terms - 1, np.asarray(x, dtype=float))
        hy = hermite_all(terms - 1, np.asarray(y, dtype=float))
        n = np.arange(terms)
        log_fact = np.array([math.lgamma(i + 1) for i in n])
        return float(np.sum((t ** n) / np.exp(log_fact) * hx * hy))

    def test_lhs_bit_equal_to_two_recurrences(self):
        rng = np.random.default_rng(20261018)
        for t, x, y in zip(rng.uniform(-0.45, 0.45, 32), rng.uniform(-3, 3, 32),
                           rng.uniform(-3, 3, 32)):
            for terms in (1, 2, 17, 80, 120):
                assert mehler_check(t, x, y, terms).lhs == self._two_call_lhs(t, x, y, terms)
