import math
import warnings

import numpy as np
import pytest

from oscquench import (DomainError, ModeQuench, QuadraticKernel, QuenchSpec, eigendecompose_1d,
                       eigendecompose_bipartite, eigenfunction_eval, mode_thermo,
                       mutual_information, normal_modes, normalization_constant,
                       partial_transpose, reduce_substate, renyi_entropy, substate_ratio,
                       thermal_rho_coupled, thermal_rho_single, von_neumann_entropy)
from oscquench.oracle import QuadratureGrid, nystrom_spectrum
from oscquench.special import hermite_n


def coupled_state(spec, beta):
    m1, m2 = normal_modes(spec)
    return thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))


class TestEigendecompose1D:
    def test_constant_frequency_ladder(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        sd = eigendecompose_1d(k)
        assert sd.xi == pytest.approx(math.exp(-1), rel=1e-12)
        lam = sd.eigenvalues(3)
        expected = (1 - math.exp(-1)) * np.exp(-np.arange(3.0))
        assert np.allclose(lam, expected, rtol=1e-12)
        # values quoted to six decimals
        assert lam == pytest.approx([0.632121, 0.232544, 0.085548], abs=1e-6)

    def test_against_nystrom(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        sp = nystrom_spectrum(k, QuadratureGrid.make(200, 12.0))
        sd = eigendecompose_1d(k)
        assert np.abs(sp.eigenvalues[:12] - sd.eigenvalues(12)).max() < 1e-8

    def test_rank_one_gaussian(self):
        # no cross coupling: single eigenvalue carries the whole trace
        a1, a2 = 1.3, 0.8
        norm = math.sqrt(a1 + a2) / math.sqrt(math.pi)
        k = QuadraticKernel(1, norm, np.array([[a2, 0.0], [0.0, a1]]))
        sd = eigendecompose_1d(k)
        assert sd.xi == 0.0
        assert sd.eigenvalue(0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_mode_thermo_ratio(self):
        mt = mode_thermo(ModeQuench(3, 5), 0.5)
        sd = eigendecompose_1d(thermal_rho_single(mt))
        assert sd.xi == pytest.approx(mt.xi, abs=1e-12)
        assert sd.eps0 == pytest.approx(mt.mode.omega_f, rel=1e-12)
        assert sd.eigenvalues(200).sum() == pytest.approx(1.0, abs=1e-12)

    def test_continuous_spectrum_rejected(self):
        k = QuadraticKernel(1, 1.0, np.array([[0.5, -0.6], [-0.6, 0.5]]))
        with pytest.raises(DomainError):
            eigendecompose_1d(k)


class TestEigendecomposeBipartite:
    def test_constant_frequency_ratios(self):
        sd = eigendecompose_bipartite(coupled_state(QuenchSpec(1, 1, 1, 1), 1.0))
        assert sd.xi1 == pytest.approx(math.exp(-1), rel=1e-10)
        assert sd.xi2 == pytest.approx(math.exp(-math.sqrt(3)), rel=1e-10)
        assert sd.xi2 == pytest.approx(0.176921, abs=1e-6)

    def test_eigenvalue_sum_and_eps(self, quench_36, rho_36):
        sd = eigendecompose_bipartite(rho_36)
        total = sd.eigenvalues(200, 200).sum()
        assert total == pytest.approx(1.0, abs=1e-12)
        m1, m2 = normal_modes(quench_36)
        assert sd.eps1 == pytest.approx(m1.omega_f, rel=1e-12)
        assert sd.eps2 == pytest.approx(m2.omega_f, rel=1e-12)
        # Hermitian state: eigenfunction widths are half the scales
        assert sd.mu1 == pytest.approx(sd.eps1 / 2, rel=1e-9)
        assert sd.mu2 == pytest.approx(sd.eps2 / 2, rel=1e-9)

    def test_quench_partial_transpose_factorises(self, rho_36):
        # with the trace-preserving prefactor the sudden-quench sigma has
        # alpha3 = alpha4, so it factorises; ratios must match the moment route
        from oscquench import pt_moments
        sig = partial_transpose(rho_36)
        sd = eigendecompose_bipartite(sig)
        mom = pt_moments(sig)
        assert sorted([sd.xi1, sd.xi2]) == pytest.approx(
            sorted([mom.zeta1, mom.zeta2]), abs=1e-10)

    def test_purity_from_spectrum(self, quench_36, rho_36):
        sd = eigendecompose_bipartite(rho_36)
        from_spectrum = ((1 - sd.xi1) * (1 - sd.xi2) / ((1 + sd.xi1) * (1 + sd.xi2)))
        m1, m2 = normal_modes(quench_36)
        mt1, mt2 = mode_thermo(m1, 1.0), mode_thermo(m2, 1.0)
        direct = math.sqrt(mt1.a_minus * mt2.a_minus / (mt1.a_plus * mt2.a_plus))
        assert from_spectrum == pytest.approx(direct, abs=1e-12)

    def test_genuinely_nonfactorizable_rejected(self, rho_36):
        q = np.array(rho_36.q)
        q[0, 3] += 0.05  # break exchange symmetry: couple x1' with x2 only
        q[3, 0] += 0.05
        k = QuadraticKernel(2, rho_36.norm, q)
        with pytest.raises(DomainError, match="normal-mode cross couplings"):
            eigendecompose_bipartite(k)


class TestEigenfunctions:
    def test_constant_frequency_normalisation_constant(self):
        for eps in (0.7, 2.0):
            for n in (0, 1, 5, 12):
                c = normalization_constant(eps, eps, n)
                expected = math.sqrt(2**n * math.factorial(n) * math.sqrt(math.pi / eps))
                assert c == pytest.approx(expected, rel=1e-12)

    def test_ground_state_constant(self):
        assert normalization_constant(1.7, 2.3, 0) == pytest.approx(
            (math.pi / 2.3) ** 0.25, rel=1e-12)

    def test_alternating_sum_against_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(400)
        x, w = x * 10, w * 10
        for eps, alpha0 in [(2.0, 3.0), (3.0, 2.0)]:
            for n in (2, 9, 17):
                direct = np.sum(w * hermite_n(n, math.sqrt(eps) * x) ** 2 * np.exp(-alpha0 * x * x))
                c = normalization_constant(eps, alpha0, n)
                assert c * c == pytest.approx(direct, rel=1e-9)

    def test_index_cap(self):
        with pytest.raises(DomainError):
            normalization_constant(1.0, 1.0, 61)

    def test_l2_norms_quench_kernel(self):
        sd = eigendecompose_1d(thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5)))
        x, w = np.polynomial.legendre.leggauss(800)
        lim = (math.sqrt(2 * 20 + 1) + 7) / math.sqrt(min(sd.eps0, sd.alpha0))
        x, w = x * lim, w * lim
        for n in (0, 1, 3, 10, 20):
            f = eigenfunction_eval(sd, n, x)
            assert np.sum(w * f * f) == pytest.approx(1.0, abs=1e-8)

    def test_eigenrelation_1d(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        sd = eigendecompose_1d(k)
        x, w = np.polynomial.legendre.leggauss(600)
        x, w = x * 8, w * 8
        for n in (0, 2, 5):
            f = eigenfunction_eval(sd, n, x)
            xp = np.array([-0.9, 0.1, 1.3])
            kf = np.array([np.sum(w * k.evaluate(xo, x) * f) for xo in xp])
            assert kf == pytest.approx(sd.eigenvalue(n) * eigenfunction_eval(sd, n, xp), rel=1e-8)

    def test_bipartite_norm_and_eigenrelation(self, rho_36):
        sd = eigendecompose_bipartite(rho_36)
        x, w = np.polynomial.legendre.leggauss(160)
        x, w = x * 6, w * 6
        xx1, xx2 = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w)
        for m, n in [(0, 0), (1, 0), (1, 2)]:
            u = eigenfunction_eval(sd, m, n, xx1, xx2)
            assert np.sum(ww * u * u) == pytest.approx(1.0, abs=1e-8)
        u = eigenfunction_eval(sd, 1, 1, xx1, xx2)
        pts = [(-0.4, 0.3), (0.8, 0.5)]
        for x1p, x2p in pts:
            kv = rho_36.evaluate(np.array([x1p, x2p]),
                                 np.stack([xx1.ravel(), xx2.ravel()], axis=-1)).reshape(xx1.shape)
            val = np.sum(ww * kv * u)
            expected = sd.eigenvalue(1, 1) * float(eigenfunction_eval(sd, 1, 1, x1p, x2p))
            assert val == pytest.approx(expected, rel=1e-7)


class TestEntropies:
    def test_von_neumann_series_oracle(self):
        xi = math.exp(-1)
        lam = (1 - xi) * xi ** np.arange(200)
        series = float(-(lam * np.log(lam)).sum())
        assert von_neumann_entropy(xi) == pytest.approx(series, abs=1e-12)
        assert von_neumann_entropy(xi) == pytest.approx(1.040652, abs=2e-6)

    def test_renyi2_series_oracle(self):
        xi = math.exp(-1)
        lam = (1 - xi) * xi ** np.arange(200)
        series = -math.log(float((lam**2).sum()))
        assert renyi_entropy(xi, 2.0) == pytest.approx(series, abs=1e-12)
        assert renyi_entropy(xi, 2.0) == pytest.approx(-math.log(math.tanh(0.5)), rel=1e-12)

    def test_pure_state_zero(self):
        assert von_neumann_entropy(0.0) == 0.0
        assert renyi_entropy(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("alpha", [1e-20, 1e-8, 0.5, 2.0, 3.0])
    def test_renyi_matches_mpmath(self, alpha):
        # small orders put xi^alpha near 1, where log1p(-xi^alpha) cancels
        mpmath = pytest.importorskip("mpmath")
        xis = np.geomspace(1e-300, 0.5, 120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = renyi_entropy(xis, alpha)
        for xi, s in zip(xis, values):
            with mpmath.workdps(80):
                x, a = mpmath.mpf(xi), mpmath.mpf(alpha)
                exact = (a * mpmath.log1p(-x) - mpmath.log1p(-(x**a))) / (1 - a)
            assert abs(s / exact - 1) <= 1e-15, f"xi = {xi!r}"

    def test_renyi_at_a_tiny_order_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert renyi_entropy(0.5, 1e-20) == pytest.approx(46.41821478046258, rel=1e-14)

    def test_alpha_one_dispatch_and_limit(self):
        for xi in (0.1, 0.5, 0.9):
            sv = von_neumann_entropy(xi)
            assert renyi_entropy(xi, 1.0) == sv
            assert abs(renyi_entropy(xi, 1.0001) - sv) < 1e-3 * (1 + sv)

    def test_domain(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(1.0)
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                renyi_entropy(0.5, alpha)
        with pytest.raises(DomainError):
            renyi_entropy(-0.2, 2.0)


class TestMutualInformation:
    def test_product_state_zero(self):
        assert abs(mutual_information(coupled_state(QuenchSpec(2, 2, 0, 0), 1.0))) < 1e-12

    def test_quench_value(self, rho_36):
        # frozen from 40-digit evaluation of the closed forms
        assert substate_ratio(rho_36) == pytest.approx(0.0701806684773, abs=1e-10)
        assert mutual_information(rho_36) == pytest.approx(0.148481407643, abs=1e-10)

    def test_substate_ratio_closed_form(self, rho_36):
        al = rho_36.alphas()
        d = al.a1 + al.a2 - 2 * al.a5
        b1 = (al.a2 * d - (al.a4 + al.a6) ** 2) / d
        b2 = (al.a1 * d - (al.a3 + al.a6) ** 2) / d
        b3 = (al.a5 * d + (al.a3 + al.a6) * (al.a4 + al.a6)) / d
        nu = math.sqrt((b1 + b2) ** 2 - 4 * b3 * b3)
        assert substate_ratio(rho_36) == pytest.approx(2 * b3 / (b1 + b2 + nu), rel=1e-12)

    def test_plateau_and_monotonicity(self):
        spec = QuenchSpec(3, 3, 3, 3)
        temps = np.geomspace(0.05, 100, 200)
        vals = [mutual_information(coupled_state(spec, 1 / t)) for t in temps]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
        assert vals[-1] == pytest.approx(0.14384104, abs=1e-6)

    def test_nonnegative_on_grid(self, rng):
        from conftest import random_valid_quench
        for _ in range(25):
            spec = random_valid_quench(rng)
            beta = rng.uniform(0.1, 4.0)
            assert mutual_information(coupled_state(spec, beta)) >= -1e-12
