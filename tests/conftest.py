import numpy as np
import pytest

from oscquench import QuenchSpec, mode_thermo, normal_modes, thermal_rho_coupled


@pytest.fixture
def quench_36():
    return QuenchSpec(3.0, 6.0, 3.0, 6.0)


@pytest.fixture
def rho_36(quench_36):
    m1, m2 = normal_modes(quench_36)
    return thermal_rho_coupled(mode_thermo(m1, 1.0), mode_thermo(m2, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_valid_quench(rng) -> QuenchSpec:
    """Random spec whose both modes quench upward (always-valid beta domain)."""
    k0_i = rng.uniform(0.2, 4.0)
    j_i = rng.uniform(-0.4 * k0_i, 4.0)
    k0_f = k0_i * rng.uniform(1.0, 4.0)
    # raise J so that omega2 also moves up
    j_min = (k0_i + 2 * j_i - k0_f) / 2
    j_f = max(j_min, -0.4 * k0_f) + rng.uniform(0.01, 3.0)
    return QuenchSpec(k0_i, k0_f, j_i, j_f)


def mp_tc_x(r, x_double):
    """x = omega_min / (2 T_c) solving coth x coth(r x) = r, by bisection in mpmath at 80 digits.

    The bracket [x_double / 2, 2 x_double] is checked before bisecting, so a
    wrong double fails the check rather than steering the reference.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        r = mpmath.mpf(r)

        def f(x):
            return mpmath.coth(x) * mpmath.coth(r * x) - r

        lo, hi = mpmath.mpf(x_double) / 2, mpmath.mpf(x_double) * 2
        assert f(lo) > 0 > f(hi), f"bracket misses the root at r = {r}"
        for _ in range(90):  # 2^-90 of the bracket: 1e-27 relative
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return (lo + hi) / 2
