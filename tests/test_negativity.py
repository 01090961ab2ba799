import math
import sys
import warnings

import numpy as np
import pytest

from oscquench import (DomainError, NumericalFailureError, QuenchSpec, boundary_g, check_separable,
                       critical_temperature, critical_temperature_sqm, g_inverse,
                       negativity, negativity_for_quench, normal_modes, pt_moments,
                       pt_spectrum_const, sigma_for_quench)
from conftest import mp_tc_x

W1, W2 = 1.0, math.sqrt(3.0)  # k0 = 1, J = 1

# the package binds the function ``negativity`` over its module's name
ng = sys.modules["oscquench.negativity"]


class TestConstFreqPT:
    def test_frozen_ratios(self):
        pt = pt_spectrum_const(W1, W2, 1.0)
        assert pt.zeta1 == pytest.approx(0.3966878223, abs=1e-9)
        assert pt.zeta2 == pytest.approx(0.1440500209, abs=1e-9)
        pt4 = pt_spectrum_const(W1, W2, 4.0)
        assert pt4.zeta1 == pytest.approx(0.1459260185, abs=1e-9)
        assert pt4.zeta2 == pytest.approx(-0.1269885215, abs=1e-9)

    def test_ladder_sums_to_one(self):
        pt = pt_spectrum_const(W1, W2, 4.0)
        m = np.arange(300)
        lam = np.outer((1 - pt.zeta1) * pt.zeta1**m, (1 - pt.zeta2) * pt.zeta2**m)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale_parameters(self):
        pt = pt_spectrum_const(W1, W2, 1.0)
        t1, c1 = math.tanh(W1 / 2), 1 / math.tanh(W1 / 2)
        t2, c2 = math.tanh(W2 / 2), 1 / math.tanh(W2 / 2)
        assert pt.mu_plus == pytest.approx((W1 * c1 + W2 * t2) / 4, rel=1e-14)
        assert pt.nu_minus == pytest.approx(-(W1 * t1 - W2 * c2) / 4, rel=1e-14)
        assert pt.eps1 == pytest.approx(math.sqrt(W1 * W2 * t1 * c2), rel=1e-12)
        assert pt.eps2 == pytest.approx(math.sqrt(W1 * W2 * c1 * t2), rel=1e-12)
        assert pt.eps1**2 == pytest.approx(4 * (pt.mu_minus**2 - pt.nu_minus**2), rel=1e-12)

    def test_equal_frequencies_always_separable(self):
        for beta in np.geomspace(0.05, 50, 40):
            pt = pt_spectrum_const(2.0, 2.0, beta)
            assert pt.zeta1 >= 0 and pt.zeta2 >= 0
            assert pt.zeta1 == pytest.approx(pt.zeta2, rel=1e-12)
            assert negativity(pt.zeta1, pt.zeta2) == 0.0


class TestNegativity:
    def test_separable_branch_exact_zero(self):
        assert negativity(0.3, 0.1) == 0.0
        assert negativity(0.0, 0.0) == 0.0

    def test_frozen_value(self):
        pt = pt_spectrum_const(W1, W2, 4.0)
        assert negativity(pt.zeta1, pt.zeta2) == pytest.approx(0.2909206226, abs=1e-9)

    def test_matches_abs_ladder_sum(self):
        pt = pt_spectrum_const(W1, W2, 4.0)
        m = np.arange(400)
        lam = np.outer((1 - pt.zeta1) * pt.zeta1**m, (1 - pt.zeta2) * pt.zeta2**m)
        assert negativity(pt.zeta1, pt.zeta2) == pytest.approx(np.abs(lam).sum() - 1, abs=1e-12)

    def test_divergence_guard(self):
        assert negativity(-1.0, 0.2) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            negativity(1.5, 0.0)
        # a NaN must not read as a separable 0
        with pytest.raises(DomainError, match="finite"):
            negativity(math.nan, 0.3)
        with pytest.raises(DomainError, match="finite"):
            negativity([math.nan, -0.2], [0.1, 0.1])
        with pytest.raises(DomainError, match="finite"):
            negativity(0.1, -math.inf)


class TestPTMoments:
    def test_constant_frequency_coincidence(self):
        # moment-route ratios equal the exact factorised ones on a dense grid
        for beta in np.geomspace(0.1, 10, 60):
            mom = pt_moments(sigma_for_quench(QuenchSpec(1, 1, 1, 1), beta))
            pt = pt_spectrum_const(W1, W2, beta)
            assert mom.zeta1 == pytest.approx(pt.zeta1, abs=1e-10)
            assert mom.zeta2 == pytest.approx(pt.zeta2, abs=1e-10)

    def test_constant_frequency_closed_moments(self):
        for beta in (0.5, 1.0, 4.0):
            mom = pt_moments(sigma_for_quench(QuenchSpec(1, 1, 1, 1), beta))
            pt = pt_spectrum_const(W1, W2, beta)
            b1 = pt.eps1 * pt.eps2 / (4 * (pt.mu_plus + pt.nu_plus) * (pt.mu_minus + pt.nu_minus))
            b2 = (4 * (pt.mu_plus - pt.nu_plus) * (pt.mu_minus - pt.nu_minus)
                  / ((2 * pt.mu_plus + pt.nu_plus) * (2 * pt.mu_minus + pt.nu_minus)))
            assert mom.beta1 == pytest.approx(b1, rel=1e-12)
            assert mom.beta2 == pytest.approx(b2, rel=1e-12)

    def test_frozen_sqm_values(self, rho_36):
        from oscquench import partial_transpose
        mom = pt_moments(partial_transpose(rho_36))
        assert mom.beta1 == pytest.approx(0.817219617793, abs=1e-10)
        assert mom.beta2 == pytest.approx(0.697049416723, abs=1e-10)
        assert mom.zeta1 == pytest.approx(0.185611667968, abs=1e-10)
        assert mom.zeta2 == pytest.approx(-0.0866468625487, abs=1e-10)
        assert negativity(mom.zeta1, mom.zeta2) == pytest.approx(0.189733541159, abs=1e-9)

    def test_beta1_is_purity(self, rho_36):
        # tr sigma^2 = tr rho^2 since transposition permutes matrix elements
        from oscquench import mode_thermo, normal_modes, partial_transpose, purity_single
        mom = pt_moments(partial_transpose(rho_36))
        m1, m2 = normal_modes(QuenchSpec(3, 6, 3, 6))
        p = purity_single(mode_thermo(m1, 1.0)) * purity_single(mode_thermo(m2, 1.0))
        assert mom.beta1 == pytest.approx(p, rel=1e-12)

    def test_recomposition_identity(self, rng):
        from conftest import random_valid_quench
        for _ in range(40):
            spec = random_valid_quench(rng)
            beta = rng.uniform(0.1, 5.0)
            mom = pt_moments(sigma_for_quench(spec, beta))
            recomposed = ((1 - mom.zeta1) * (1 - mom.zeta2)
                          / ((1 + mom.zeta1) * (1 + mom.zeta2)))
            assert recomposed == pytest.approx(mom.beta1, abs=1e-10)
            assert mom.u == pytest.approx(mom.zeta1 + mom.zeta2, abs=1e-12)
            assert mom.v == pytest.approx(mom.zeta1 * mom.zeta2, abs=1e-12)

    def test_degenerate_modes_clamp(self):
        # J = 0: both ratios coincide, discriminant rounds to ~0
        mom = pt_moments(sigma_for_quench(QuenchSpec(1.0, 3.0, 0.0, 0.0), 1.0))
        assert mom.zeta1 == pytest.approx(mom.zeta2, abs=1e-6)
        assert negativity(mom.zeta1, mom.zeta2) == 0.0

    def test_ratio_continuity_in_beta(self):
        # the moment route must not jump between branches along a sweep
        spec = QuenchSpec(1.0, 20.0, 5.0, 5.0)
        betas = np.geomspace(0.05, 20.0, 400)
        z1 = np.empty(len(betas))
        z2 = np.empty(len(betas))
        for i, beta in enumerate(betas):
            mom = pt_moments(sigma_for_quench(spec, beta))
            z1[i], z2[i] = mom.zeta1, mom.zeta2
        step = np.abs(np.diff(betas)) / betas[:-1]
        assert np.abs(np.diff(z1)).max() < 10 * step.max()
        assert np.abs(np.diff(z2)).max() < 10 * step.max()


class TestSeparability:
    def test_equal_coordinates_separable(self):
        for beta in (0.1, 1.0, 10.0):
            assert check_separable(2.0, 2.0, beta)

    def test_example_points(self):
        assert check_separable(W1, W2, 1.0)
        assert not check_separable(W1, W2, 4.0)

    def test_equivalence_with_ratio_signs(self):
        for beta in np.geomspace(0.2, 8, 50):
            pt = pt_spectrum_const(W1, W2, beta)
            assert check_separable(W1, W2, beta) == (pt.zeta1 >= 0 and pt.zeta2 >= 0)

    def test_margin_sign_matches_the_ppt_condition(self, rng):
        mpmath = pytest.importorskip("mpmath")
        for _ in range(200):
            x, d = math.exp(rng.uniform(-5, 3)), math.exp(rng.uniform(-30, 5))
            with mpmath.workdps(60):
                r = 1 + mpmath.mpf(d)
                exact = mpmath.coth(x) * mpmath.coth(r * x) - r
            if abs(exact) > 1e-12 * r:
                assert (ng._margin(x, d) >= 0) == (exact >= 0)

    def test_no_warning_at_extreme_arguments(self):
        x = np.geomspace(1e-300, 1e4, 61)[:, None]
        ratio = np.geomspace(1 + 2.0**-52, 1e300, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sep = check_separable(2 * x, 2 * x * ratio, 1.0)
            g = boundary_g(x[:, 0])
            tc = critical_temperature(1.0, ratio)
        # high temperature is separable, low temperature entangled beyond near-equal frequencies
        assert sep[0].all() and not sep[-1, 1:].any()
        assert np.all(np.isfinite(g) & (g >= 1))
        assert np.all(np.isfinite(tc.tc_exact) & (tc.tc_exact > 0))
        assert np.all(tc.tc_exact <= tc.tc_approx)


class TestRoot:
    def test_refines_to_adjacent_doubles(self):
        x = ng._root(lambda x: 2.0 - x * x, 0.0, 2.0)
        assert abs(x - math.sqrt(2)) <= math.ulp(math.sqrt(2))

    @pytest.mark.parametrize("lo, hi", [(1.5, 2.0), (0.0, 1.0), (np.array([0.0, 1.5]), 2.0)])
    def test_unbracketed_root_refused(self, lo, hi):
        with pytest.raises(NumericalFailureError, match="not bracketed"):
            ng._root(lambda x: 2.0 - x * x, lo, hi)

    def test_nan_bracket_refused(self):
        with pytest.raises(NumericalFailureError):
            ng._root(lambda x: 2.0 - x * x, np.nan, 2.0)


class TestBoundary:
    def test_g_inverse_round_trip(self):
        for z in (0.3, 0.8, 1.5, 3.0):
            r = boundary_g(z)
            assert g_inverse(r) == pytest.approx(z, rel=1e-13)

    def test_mirror_symmetry(self):
        # upper-boundary point reflected through y = x lies on the lower boundary
        def lower_y(x, tol=1e-12):
            target = x * math.tanh(x)
            lo, hi = 1e-9, max(2.0 * x, 2.0)
            while hi / math.tanh(hi) < target:
                hi *= 2
            for _ in range(200):
                mid = (lo + hi) / 2
                if mid / math.tanh(mid) <= target:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        for x in (0.4, 1.0, 1.7, 3.0):
            y_up = x * boundary_g(x)
            assert lower_y(y_up) == pytest.approx(x, abs=1e-8)

    def test_g_decreasing_to_one(self):
        gs = [boundary_g(z) for z in (0.2, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(gs[i] > gs[i + 1] for i in range(len(gs) - 1))
        assert gs[-1] == pytest.approx(1.0, abs=0.01)
        assert all(g > 1 for g in gs)


class TestCriticalTemperature:
    def test_frozen_values(self):
        tc = critical_temperature(W1, W2)
        assert tc.tc_exact == pytest.approx(0.6339013112, abs=1e-8)
        assert tc.tc_approx == pytest.approx(1 / math.log(2 + math.sqrt(3)), rel=1e-14)
        assert tc.tc_approx == pytest.approx(0.7593257175, abs=1e-9)

    def test_equal_frequencies(self):
        tc = critical_temperature(2.0, 2.0)
        assert tc.tc_exact == 0.0 and tc.tc_approx == 0.0

    def test_negativity_vanishes_at_tc(self):
        tc = critical_temperature(W1, W2).tc_exact
        spec = QuenchSpec(1, 1, 1, 1)
        for t in np.linspace(tc + 1e-6, 3 * tc, 20):
            assert negativity_for_quench(spec, 1 / t) == 0.0
        for t in np.linspace(0.3 * tc, tc - 1e-4, 20):
            assert negativity_for_quench(spec, 1 / t) > 0.0

    def test_matches_mpmath_at_every_ratio(self):
        rng = np.random.default_rng(17)
        near_one = 1 + np.arange(1, 401) * 2.0**-52
        spread = np.exp(rng.uniform(math.log(1e-12), math.log(math.log(1e300)), 300))
        ratios = np.concatenate([near_one, [1 + 1e-12], np.exp(spread)])
        tc = critical_temperature(1.0, ratios).tc_exact
        assert np.all(np.isfinite(tc))
        for r, t in zip(ratios, tc):
            exact = 1 / (2 * mp_tc_x(r, 1 / (2 * t)))
            assert abs(t / exact - 1) <= 1e-15, f"r = {r!r}"

    @pytest.mark.parametrize("k0", [1e-20, 1e-30])
    def test_extreme_ratios(self, k0):
        # k0 -> 0 at J = 0.5: omega_max -> 1, tc_approx -> 1 / 2 and tc_exact -> 1 / (2 y0), y0 tanh y0 = 1
        tc = critical_temperature(math.sqrt(k0), math.sqrt(k0 + 1))
        assert tc.tc_approx == pytest.approx(0.5, rel=1e-15)
        assert tc.tc_exact == pytest.approx(0.4167782798, abs=1e-10)

    def test_overflowing_ratio(self):
        # omega_max / omega_min = 1e310 overflows; both T_c are finite: omega_max / (2 y0) and omega_max / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tc = critical_temperature(1e-300, 1e10)
            both = critical_temperature([1e-300, 1.0], [1e10, 1e300])
        y0 = 1.1996786402577338   # y0 tanh y0 = 1
        assert tc.tc_exact == pytest.approx(1e10 / (2 * y0), rel=1e-15)
        assert tc.tc_approx == 5e9
        assert both.tc_exact[0] == tc.tc_exact and both.tc_approx[0] == tc.tc_approx
        assert both.tc_exact[1] == critical_temperature(1.0, 1e300).tc_exact

    def test_tc_approx_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        w_max = np.concatenate([1 + np.arange(1, 50) * 2.0**-52, np.geomspace(1 + 1e-12, 1e300, 60)])
        tc = critical_temperature(1.0, w_max).tc_approx
        for w, t in zip(w_max, tc):
            with mpmath.workdps(60):
                exact = 1 / (2 * mpmath.atanh(1 / mpmath.mpf(w)))
            assert abs(t / exact - 1) <= 4e-16, f"omega_max = {w!r}"

    def test_monotone_in_coupling(self):
        tcs = [critical_temperature(1.0, math.sqrt(1 + 2 * j)).tc_exact
               for j in np.linspace(0.1, 10, 50)]
        assert all(tcs[i] <= tcs[i + 1] + 1e-10 for i in range(len(tcs) - 1))
        tcs_neg = [critical_temperature(1.0, math.sqrt(1 + 2 * j)).tc_exact
                   for j in np.linspace(-0.05, -0.45, 30)]
        assert all(tcs_neg[i] <= tcs_neg[i + 1] + 1e-10 for i in range(len(tcs_neg) - 1))


class TestCriticalTemperatureSQM:
    def test_constant_case_matches_exact(self):
        t_sqm = critical_temperature_sqm(QuenchSpec(1, 1, 1, 1))
        assert t_sqm == pytest.approx(0.6339013112, abs=2e-6)

    def test_tiny_frequencies_scale_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = critical_temperature_sqm(QuenchSpec(1e-10, 4e-10, 1e-10, 1e-10))
        unit = critical_temperature_sqm(QuenchSpec(1, 4, 1, 1))
        assert tiny == pytest.approx(1e-5 * unit, rel=1e-10, abs=0)

    def test_never_entangled_returns_zero(self):
        assert critical_temperature_sqm(QuenchSpec(1.0, 3.0, 0.0, 0.0)) == 0.0

    def test_tc_depends_on_the_final_pair_only(self):
        """The abstract's T_c "rising with the quench distance", as the package computes it.

        With the final pair (k0_f, J_f) fixed, an upward quench from any (k0_i, J_i)
        has exactly the T_c of the final frequencies; a downward one has it too, or
        0.0 exactly where 1/T_c lies at or beyond the beta* cut.
        """
        k0_f, j_f = 2.0, 1.5
        w1, w2 = math.sqrt(k0_f), math.sqrt(k0_f + 2 * j_f)
        tc = critical_temperature(w1, w2).tc_exact
        assert tc > 0
        for k0_i in (0.05, 0.5, 1.0, 2.0):
            for j_i in (-0.02, 0.0, 0.7, 1.5):
                assert critical_temperature_sqm(QuenchSpec(k0_i, k0_f, j_i, j_f)) == tc
        outcomes = set()
        for k0_i in (2.0, 2.01, 2.5, 4.0, 10.0, 100.0):
            for j_i in (1.5, 1.6, 3.0, 20.0):
                if (k0_i, j_i) == (k0_f, j_f):
                    continue
                # beta* of a mode whose frequency falls from wi to wf, and the admitted cut below it
                cut = min(math.acosh((wi * wi + wf * wf) / (wi * wi - wf * wf)) / (2 * wf)
                          for wi, wf in ((math.sqrt(k0_i), w1), (math.sqrt(k0_i + 2 * j_i), w2))
                          if wi > wf) * (1 - 1e-6)
                want = tc if 1 / tc < cut else 0.0
                assert critical_temperature_sqm(QuenchSpec(k0_i, k0_f, j_i, j_f)) == want
                outcomes.add(want)
        assert outcomes == {tc, 0.0}

    def test_vanishing_temperature_brackets_negativity(self):
        spec = QuenchSpec(1.0, 20.0, 5.0, 5.0)
        t_c = critical_temperature_sqm(spec)
        assert negativity_for_quench(spec, 1 / (t_c + 1e-3)) == 0.0
        assert negativity_for_quench(spec, 1 / (t_c - 1e-3)) > 0.0
