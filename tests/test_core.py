import math

import numpy as np
import pytest

from oscquench import (BETA_FLOOR, DomainError, ModeQuench, QuenchSpec, beta_star, mode_thermo,
                       normal_modes, purity_single, sudden_phase_euclidean,
                       sudden_scale_euclidean)
from oscquench.core import beta_limit, domain_errors
from conftest import random_valid_quench


class TestNormalModes:
    def test_equal_constants(self):
        m1, m2 = normal_modes(QuenchSpec(1, 1, 1, 1))
        assert m1 == ModeQuench(1.0, 1.0)
        assert m2.omega_i == pytest.approx(math.sqrt(3), abs=1e-12)
        assert m2.omega_f == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_upward_quench(self):
        m1, m2 = normal_modes(QuenchSpec(3, 6, 3, 6))
        assert (m1.omega_i, m1.omega_f) == (math.sqrt(3), math.sqrt(6))
        assert (m2.omega_i, m2.omega_f) == (3.0, math.sqrt(18))

    def test_negative_coupling(self):
        _, m2 = normal_modes(QuenchSpec(1, 1, -0.45, -0.45))
        assert m2.omega_i == pytest.approx(math.sqrt(0.1), rel=1e-14)

    def test_imaginary_mode_rejected(self):
        with pytest.raises(DomainError):
            QuenchSpec(1, 1, -0.6, -0.6)
        with pytest.raises(DomainError):
            QuenchSpec(-1, 1, 0, 0)


def _prefactor_exponent(wi, wf, beta):
    """The paper's A = (wf^2 - wi^2) sinh(2 wf beta) / (4 wf b^2)."""
    b = sudden_scale_euclidean(wi, wf, beta)
    return (wf**2 - wi**2) * np.sinh(2 * wf * beta) / (4 * wf * b**2)


class TestModeThermo:
    def test_sqm_values(self):
        # frozen from 50-digit evaluation cross-checked by Euclidean ODE integration;
        # b, Gamma_E and A are the paper's closed forms, a+- those of mode_thermo
        assert sudden_scale_euclidean(3, 5, 0.5) == pytest.approx(4.94238642034, abs=1e-9)
        assert sudden_phase_euclidean(3, 5, 0.5) == pytest.approx(0.680691222685, abs=1e-9)
        assert _prefactor_exponent(3, 5, 0.5) == pytest.approx(2.43018473228, abs=1e-9)
        mt = mode_thermo(ModeQuench(3, 5), 0.5)
        assert mt.a_plus == pytest.approx(5.89425489834, abs=1e-9)
        assert mt.a_minus == pytest.approx(4.24141819979, abs=1e-9)

    def test_constant_frequency(self):
        mt = mode_thermo(ModeQuench(2, 2), 1.0)
        assert sudden_scale_euclidean(2, 2, 1.0) == 1.0
        assert sudden_phase_euclidean(2, 2, 1.0) == 2.0
        assert _prefactor_exponent(2, 2, 1.0) == 0.0
        assert mt.a_plus == pytest.approx(2 / math.tanh(1), rel=1e-14)
        assert mt.a_minus == pytest.approx(2 * math.tanh(1), rel=1e-14)
        assert mt.xi == pytest.approx(math.exp(-2), rel=1e-14)
        assert math.sqrt(mt.a_plus * mt.a_minus) == pytest.approx(2.0, rel=1e-14)

    def test_constant_reduction_large_argument(self):
        # b = 1, Gamma = omega beta, A = 0 at machine precision up to omega beta = 300
        assert sudden_scale_euclidean(2, 2, 150.0) == 1.0 and _prefactor_exponent(2, 2, 150.0) == 0.0
        assert sudden_phase_euclidean(2, 2, 150.0) == 300.0

    def test_high_temperature_limits(self):
        assert sudden_scale_euclidean(3, 5, 1e-6) == pytest.approx(1.0, abs=1e-10)
        assert sudden_phase_euclidean(3, 5, 1e-6) == pytest.approx(0.0, abs=1e-5)
        assert _prefactor_exponent(3, 5, 1e-6) == pytest.approx(0.0, abs=1e-4)

    def test_invariants_random(self, rng):
        for _ in range(200):
            spec = random_valid_quench(rng)
            m1, m2 = normal_modes(spec)
            beta = rng.uniform(0.05, 8.0)
            for mode in (m1, m2):
                mt = mode_thermo(mode, beta)
                assert mt.a_plus > mt.a_minus > 0
                assert 0 <= mt.xi < 1
                sp, sm = math.sqrt(mt.a_plus), math.sqrt(mt.a_minus)
                assert mt.xi == pytest.approx((sp - sm) / (sp + sm), abs=1e-12)
                assert mode.omega_f**2 == pytest.approx(mt.a_plus * mt.a_minus, rel=1e-12)
                p = purity_single(mt)
                assert mt.xi == pytest.approx((1 - p) / (1 + p), abs=1e-12)

    def test_scale_factor_above_one_for_upward(self):
        for beta in (0.1, 0.5, 2.0):
            assert sudden_scale_euclidean(3, 5, beta) >= 1.0

    def test_deterministic(self):
        a = mode_thermo(ModeQuench(3, 5), 0.7)
        b = mode_thermo(ModeQuench(3, 5), 0.7)
        assert a == b

    def test_beta_floor(self):
        with pytest.raises(DomainError):
            mode_thermo(ModeQuench(3, 5), BETA_FLOOR / 10)
        with pytest.raises(DomainError):
            mode_thermo(ModeQuench(3, 5), -1.0)

    def test_downward_quench_domain(self):
        mode = ModeQuench(5, 3)
        bs = beta_star(mode)
        assert math.cosh(2 * 3 * bs) == pytest.approx((25 + 9) / (25 - 9), rel=1e-12)
        mode_thermo(mode, bs * 0.9)  # inside the domain
        with pytest.raises(DomainError) as exc:
            mode_thermo(mode, bs)
        assert exc.value.beta_star == pytest.approx(bs)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta_refused_as_such(self, beta):
        # an upward quench has beta* = inf: the refusal names the input, not a beta* cut
        with pytest.raises(DomainError, match="beta must be finite") as exc:
            mode_thermo(ModeQuench(3, 5), beta)
        assert "downward" not in str(exc.value)

    def test_domain_errors_name_the_first_failed_check(self):
        modes = (ModeQuench(3, 5), ModeQuench(5, 3))
        beta = np.array([0.1, math.inf, -1.0, BETA_FLOOR / 2, beta_star(modes[1]), 0.2])
        errors = domain_errors(modes, beta)
        assert sorted(errors) == [1, 2, 3, 4]
        assert str(errors[1]) == "beta must be finite, got inf"
        assert str(errors[2]) == "beta must be positive, got -1.0"
        assert "below floor" in str(errors[3])
        assert errors[4].beta_star == beta_star(modes[1]) and "(5 -> 3)" in str(errors[4])
        assert domain_errors(modes, 0.1) == {}
        assert beta_limit(modes[0]) == math.inf
        assert beta_limit(modes[1]) == beta_star(modes[1]) * (1 - 1e-6)

    def test_beta_star_infinite_for_upward(self):
        assert beta_star(ModeQuench(3, 5)) == math.inf
        assert beta_star(ModeQuench(3, 3)) == math.inf


class TestPuritySingle:
    def test_constant(self):
        assert purity_single(mode_thermo(ModeQuench(1, 1), 1.0)) == pytest.approx(
            math.tanh(0.5), rel=1e-14)

    def test_high_temperature_mixing(self):
        assert purity_single(mode_thermo(ModeQuench(1, 1), 1e-6)) < 1e-5

    def test_sqm_value(self):
        mt = mode_thermo(ModeQuench(3, 5), 0.5)
        # frozen: cross-checked against quadrature tr rho^2 (numeric oracle)
        assert purity_single(mt) == pytest.approx(0.848283639958, abs=1e-10)
        assert purity_single(mt) == pytest.approx(math.sqrt(mt.a_minus / mt.a_plus), rel=1e-14)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.05, 20, 100)
        p = [purity_single(mode_thermo(ModeQuench(3, 5), 1 / t)) for t in temps]
        assert all(p[i] >= p[i + 1] - 1e-13 for i in range(len(p) - 1))

    def test_monotone_in_final_frequency(self):
        for beta in np.linspace(0.05, 3.0, 100):
            p = [purity_single(mode_thermo(ModeQuench(3, w), beta)) for w in (3, 5, 7)]
            assert p[0] <= p[1] + 1e-13 and p[1] <= p[2] + 1e-13

