import cmath
import math

import numpy as np
import pytest

from oscquench import (CausticError, DomainError, ModeQuench, QuadraticKernel,
                       QuenchSpec, RealTimeKernelParams, mode_thermo,
                       normal_modes, partial_transpose, partition_single,
                       realtime_kernel_single, reduce_substate, thermal_rho_coupled,
                       thermal_rho_single)
from oscquench.oracle import QuadratureGrid, trace_power
from conftest import random_valid_quench


def coupled_state(spec: QuenchSpec, beta: float):
    m1, m2 = normal_modes(spec)
    return thermal_rho_coupled(mode_thermo(m1, beta), mode_thermo(m2, beta))


class TestQuadraticKernel:
    def test_symmetry_enforced(self):
        with pytest.raises(DomainError):
            QuadraticKernel(1, 1.0, np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_json_roundtrip(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        k2 = QuadraticKernel.from_json(k.to_json())
        assert k2.dim == k.dim and k2.norm == k.norm
        assert np.array_equal(k2.q, k.q)

    def test_swap_identity(self, rho_36):
        al = rho_36.alphas()
        sw = rho_36.swap_in_out().alphas()
        assert sw.a1 == pytest.approx(al.a2, rel=1e-14)
        assert sw.a2 == pytest.approx(al.a1, rel=1e-14)
        assert sw.a3 == pytest.approx(al.a4, rel=1e-14)
        assert sw.a4 == pytest.approx(al.a3, rel=1e-14)
        assert sw.a5 == al.a5 and sw.a6 == al.a6

    def test_eval_kernel(self):
        k = QuadraticKernel(1, 2.0, np.array([[1.0, -0.25], [-0.25, 0.5]]))
        v = k.evaluate(0.3, -0.7)
        expected = 2.0 * math.exp(-(1.0 * 0.09 + 2 * (-0.25) * 0.3 * (-0.7) + 0.5 * 0.49))
        assert v == pytest.approx(expected, rel=1e-14)


class TestThermalSingle:
    def test_normalisation_by_construction(self):
        for beta in (0.3, 1.0, 4.0):
            k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), beta))
            assert k.norm**2 * math.pi / mode_thermo(ModeQuench(3, 5), beta).a_minus == pytest.approx(1.0, rel=1e-14)

    def test_trace_one_by_quadrature(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        tr, _ = trace_power(k, 1, QuadratureGrid.for_kernel(k, 200))
        assert tr == pytest.approx(1.0, abs=1e-8)

    def test_constant_frequency_symmetric(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        assert k.q[0, 0] == pytest.approx(k.q[1, 1], rel=1e-14)

    def test_quench_kernel_also_symmetric(self):
        # the Euclidean sudden-quench state is Hermitian: out and in
        # exponents coincide through A = (wi coth Gamma / 2)(1 - 1/b^2)
        k = thermal_rho_single(mode_thermo(ModeQuench(3, 5), 0.5))
        assert k.q[0, 0] == pytest.approx(k.q[1, 1], rel=1e-12)

    def test_width_closed_forms(self):
        mt = mode_thermo(ModeQuench(3, 5), 0.5)
        k = thermal_rho_single(mt)
        a_in, a_out, cross = k.gauss_coefficients_1d()
        assert a_in + a_out + 2 * cross == pytest.approx(mt.a_plus, rel=1e-12)
        assert a_in + a_out - 2 * cross == pytest.approx(mt.a_minus, rel=1e-12)


class TestThermalCoupled:
    def test_alpha_sum_identities_random(self, rng):
        for _ in range(100):
            spec = random_valid_quench(rng)
            beta = rng.uniform(0.05, 6.0)
            m1, m2 = normal_modes(spec)
            mt1, mt2 = mode_thermo(m1, beta), mode_thermo(m2, beta)
            al = thermal_rho_coupled(mt1, mt2).alphas()
            s1 = (mt1.a_plus + mt1.a_minus, mt2.a_plus + mt2.a_minus)
            d1 = (mt1.a_plus - mt1.a_minus, mt2.a_plus - mt2.a_minus)
            scale = max(map(abs, al))
            assert al.a1 + al.a2 == pytest.approx((s1[0] + s1[1]) / 4, abs=1e-12 * scale)
            assert al.a3 + al.a4 == pytest.approx(-(s1[0] - s1[1]) / 4, abs=1e-12 * scale)
            assert al.a5 == pytest.approx((d1[0] + d1[1]) / 8, abs=1e-12 * scale)
            assert al.a6 == pytest.approx((d1[0] - d1[1]) / 8, abs=1e-12 * scale)

    def test_alpha_coefficient_formulas(self, quench_36):
        # alphas from the Q rotation equal the per-mode sums written in
        # terms of A_j, b_j, Gamma_j
        beta = 1.0
        m1, m2 = normal_modes(quench_36)
        mt1, mt2 = mode_thermo(m1, beta), mode_thermo(m2, beta)
        al = coupled_state(quench_36, beta).alphas()

        def t1(mt):
            return mt.a_cap / 2 + mt.mode.omega_i * math.cosh(mt.gamma_e) / (
                4 * mt.b**2 * math.sinh(mt.gamma_e))

        def t2(mt):
            return mt.mode.omega_i * math.cosh(mt.gamma_e) / (4 * math.sinh(mt.gamma_e))

        def t3(mt):
            return mt.mode.omega_i / (4 * mt.b * math.sinh(mt.gamma_e))

        assert al.a1 == pytest.approx(t1(mt1) + t1(mt2), rel=1e-12)
        assert al.a2 == pytest.approx(t2(mt1) + t2(mt2), rel=1e-12)
        assert al.a3 == pytest.approx(-t1(mt1) + t1(mt2), rel=1e-9)
        assert al.a4 == pytest.approx(-t2(mt1) + t2(mt2), rel=1e-9)
        assert al.a5 == pytest.approx(t3(mt1) + t3(mt2), rel=1e-12)
        assert al.a6 == pytest.approx(t3(mt1) - t3(mt2), rel=1e-12)

    def test_mismatched_beta_rejected(self):
        m1, m2 = normal_modes(QuenchSpec(1, 1, 1, 1))
        with pytest.raises(DomainError):
            thermal_rho_coupled(mode_thermo(m1, 1.0), mode_thermo(m2, 2.0))

    def test_uncoupled_factorises(self):
        spec = QuenchSpec(2.0, 2.0, 0.0, 0.0)
        rho = coupled_state(spec, 1.0)
        al = rho.alphas()
        assert al.a3 == pytest.approx(0.0, abs=1e-14)
        assert al.a4 == pytest.approx(0.0, abs=1e-14)
        assert al.a6 == pytest.approx(0.0, abs=1e-14)
        single = thermal_rho_single(mode_thermo(ModeQuench(math.sqrt(2), math.sqrt(2)), 1.0))
        pts = [(0.3, -0.5, 0.2, 0.9), (0.0, 1.0, -1.0, 0.4)]
        for x1p, x2p, x1, x2 in pts:
            prod = single.evaluate(x1p, x1) * single.evaluate(x2p, x2)
            assert rho.evaluate([x1p, x2p], [x1, x2]) == pytest.approx(prod, rel=1e-12)

    def test_exchange_symmetric_structure(self, rho_36):
        al = rho_36.alphas()  # raises if the exchange structure is broken
        # trace-preserving prefactor makes the state Hermitian: a1 = a2, a3 = a4
        assert al.a1 == pytest.approx(al.a2, rel=1e-12)
        assert al.a3 == pytest.approx(al.a4, rel=1e-9)

    def test_trace_one(self, rho_36):
        tr, _ = trace_power(rho_36, 1, QuadratureGrid.for_kernel(rho_36, 48))
        assert tr == pytest.approx(1.0, abs=1e-8)


class TestReduceSubstate:
    def test_substate_coefficient_formulas(self, rho_36):
        al = rho_36.alphas()
        d = al.a1 + al.a2 - 2 * al.a5
        b1 = (al.a2 * d - (al.a4 + al.a6) ** 2) / d
        b2 = (al.a1 * d - (al.a3 + al.a6) ** 2) / d
        b3 = (al.a5 * d + (al.a3 + al.a6) * (al.a4 + al.a6)) / d
        sub = reduce_substate(rho_36)
        a_in, a_out, cross = sub.gauss_coefficients_1d()
        assert a_in == pytest.approx(b1, rel=1e-12)
        assert a_out == pytest.approx(b2, rel=1e-12)
        assert cross == pytest.approx(b3, rel=1e-12)
        assert sub.norm == pytest.approx(rho_36.norm * math.sqrt(math.pi / d), rel=1e-12)

    def test_substate_equals_single_for_product_state(self):
        spec = QuenchSpec(2.0, 2.0, 0.0, 0.0)
        sub = reduce_substate(coupled_state(spec, 1.0))
        single = thermal_rho_single(mode_thermo(ModeQuench(math.sqrt(2), math.sqrt(2)), 1.0))
        assert np.allclose(sub.q, single.q, rtol=1e-12, atol=1e-14)
        assert sub.norm == pytest.approx(single.norm, rel=1e-12)

    def test_particle_swap_symmetry(self, rho_36):
        # tracing particle B equals tracing particle A after relabelling
        perm = [1, 0, 3, 2]
        swapped = QuadraticKernel(2, rho_36.norm, rho_36.q[np.ix_(perm, perm)])
        sub_a = reduce_substate(rho_36)
        sub_b = reduce_substate(swapped)
        assert np.allclose(sub_a.q, sub_b.q, rtol=1e-12)
        assert sub_a.norm == pytest.approx(sub_b.norm, rel=1e-12)

    def test_substate_trace_one(self):
        rho = coupled_state(QuenchSpec(1, 1, 1, 1), 1.0)
        sub = reduce_substate(rho)
        tr, _ = trace_power(sub, 1, QuadratureGrid.for_kernel(sub, 200))
        assert tr == pytest.approx(1.0, abs=1e-8)

    def test_requires_dim2(self):
        k = thermal_rho_single(mode_thermo(ModeQuench(1, 1), 1.0))
        with pytest.raises(DomainError):
            reduce_substate(k)


class TestPartialTranspose:
    def test_involution_bit_identical(self, rho_36):
        back = partial_transpose(partial_transpose(rho_36))
        assert np.array_equal(back.q, rho_36.q)
        assert back.norm == rho_36.norm

    def test_transposed_exponent_structure(self, rho_36):
        al = rho_36.alphas()
        qs = partial_transpose(rho_36).q
        # sigma exponent: -a1 (x1^2 + x2'^2) - a2 (x1'^2 + x2^2) + ...
        assert qs[2, 2] == pytest.approx(al.a1, rel=1e-14)
        assert qs[1, 1] == pytest.approx(al.a1, rel=1e-14)
        assert qs[0, 0] == pytest.approx(al.a2, rel=1e-14)
        assert qs[3, 3] == pytest.approx(al.a2, rel=1e-14)
        assert -qs[2, 1] == pytest.approx(al.a3, rel=1e-14)  # x1 x2'
        assert -qs[0, 3] == pytest.approx(al.a4, rel=1e-14)  # x1' x2
        assert -qs[2, 3] == pytest.approx(al.a6, rel=1e-14)  # x1 x2
        assert -qs[0, 1] == pytest.approx(al.a6, rel=1e-14)  # x1' x2'

    def test_trace_preserved(self, rho_36):
        sig = partial_transpose(rho_36)
        grid = QuadratureGrid.for_kernel(sig, 48)
        tr, _ = trace_power(sig, 1, grid)
        assert tr == pytest.approx(1.0, abs=1e-8)


class TestRealTimeKernel:
    def test_reduces_to_standard_oscillator(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = rng.uniform(0.1, 2.5)
            omega = rng.uniform(0.5, 3.0)
            if abs(math.sin(omega * t)) < 0.1:
                continue
            x, xp = rng.uniform(-1.5, 1.5, 2)
            p = RealTimeKernelParams(omega, omega, t)
            got = realtime_kernel_single(p, x, xp)
            pref = cmath.sqrt(omega / (2j * math.pi * cmath.sin(omega * t)))
            expo = 1j * omega / (2 * math.sin(omega * t)) * (
                (x * x + xp * xp) * math.cos(omega * t) - 2 * x * xp)
            assert got == pytest.approx(pref * cmath.exp(expo), rel=1e-12)

    def test_quarter_period_form(self):
        p = RealTimeKernelParams(1.0, 1.0, math.pi / 2)
        for x, xp in [(0.4, -1.2), (0.0, 0.7)]:
            expected = cmath.sqrt(1 / (2j * math.pi)) * cmath.exp(-1j * x * xp)
            assert realtime_kernel_single(p, x, xp) == pytest.approx(expected, rel=1e-12)

    def test_origin_is_prefactor_only(self):
        p = RealTimeKernelParams(3.0, 5.0, 0.2)
        got = realtime_kernel_single(p, 0.0, 0.0)
        pref = cmath.sqrt(3.0 / (2j * math.pi * p.b * cmath.sin(p.gamma)))
        assert got == pytest.approx(pref, rel=1e-12)

    def test_caustic_reported(self):
        with pytest.raises(CausticError) as exc:
            RealTimeKernelParams(1.0, 1.0, math.pi)
        assert exc.value.caustic_time == pytest.approx(math.pi)

    def test_euclidean_continuation_matches_thermal(self):
        rng = np.random.default_rng(11)
        for beta in (0.4, 1.1):
            mt = mode_thermo(ModeQuench(3, 5), beta)
            k = thermal_rho_single(mt)
            z = partition_single(mt)
            p = RealTimeKernelParams(3.0, 5.0, -1j * beta)
            for _ in range(20):
                x, xp = rng.uniform(-1.5, 1.5, 2)
                lhs = realtime_kernel_single(p, x, xp)
                rhs = z * k.evaluate(xp, x)
                assert abs(lhs - rhs) / abs(rhs) < 1e-12
