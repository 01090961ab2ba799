"""Independent high-precision reference for every number the benchmark checks.

Everything here is written from the closed forms of the model in mpmath and
imports nothing from the package.  Per mode (angular frequency wi -> wf) at
inverse temperature beta:

    b^2     = ((wf^2 - wi^2) cosh(2 wf beta) + (wf^2 + wi^2)) / (2 wf^2)
    Gamma_E = artanh((wi / wf) tanh(wf beta))
    A       = (wf^2 - wi^2) sinh(2 wf beta) / (4 wf b^2)

and the thermal kernel exp(-q_in x^2 - q_out x'^2 + 2 g x x') has
q_in = wi coth(Gamma_E) / 2, q_out = A + wi cosh(Gamma_E) / (2 b^2 sinh Gamma_E),
g = wi / (2 b sinh Gamma_E); its widths are a+- = q_in + q_out +- 2 g.  With
r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m) the observables are

    xi_i  = r(a+_i, a-_i)                     (ladder ratio of mode i)
    zeta_sub = r((a+_1 + a+_2) / 2, harmonic_mean(a-_1, a-_2))
    zeta_1 = r(a+_2, a-_1),  zeta_2 = r(a+_1, a-_2)   (partial transpose)

T_c is the root of max(a-_1 / a+_2, a-_2 / a+_1) = 1 and the separability
boundary the root of y tanh y = x coth x.  The working precision grows with
the cancellations the formulas contain (tanh near 1 at low T, a+ ~ a- at
high T), so every result carries at least 50 significant digits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

BASE_DPS = 50
MAX_DPS = 600


def _dps(beta, w) -> int:
    """Digits that keep a+ - a- (~ beta^2 at high T, ~ exp(-w beta) at low T) resolved."""
    beta = float(beta)
    need = BASE_DPS + 10 + int(2 * abs(math.log10(beta)) + 1.1 * float(w) * beta / math.log(10))
    return min(need, MAX_DPS)


def modes(spec):
    """Normal-mode frequencies ((w1_i, w1_f), (w2_i, w2_f)) of (k0_i, k0_f, j_i, j_f)."""
    k0i, k0f, ji, jf = (mp.mpf(v) for v in spec)
    return (mp.sqrt(k0i), mp.sqrt(k0f)), (mp.sqrt(k0i + 2 * ji), mp.sqrt(k0f + 2 * jf))


def beta_star(wi, wf) -> float:
    """Inverse temperature where b^2 vanishes (inf unless the mode softens)."""
    wi, wf = mp.mpf(wi), mp.mpf(wf)
    if wf >= wi:
        return math.inf
    return float(mp.acosh((wi**2 + wf**2) / (wi**2 - wf**2)) / (2 * wf))


def scale_b2(wi, wf, beta):
    wi, wf, beta = mp.mpf(wi), mp.mpf(wf), mp.mpf(beta)
    return ((wf**2 - wi**2) * mp.cosh(2 * wf * beta) + (wf**2 + wi**2)) / (2 * wf**2)


def gamma_e(wi, wf, beta):
    wi, wf, beta = mp.mpf(wi), mp.mpf(wf), mp.mpf(beta)
    if wi == wf:  # artanh(tanh x) = x; the general form would need 2x/ln 10 extra digits
        return wf * beta
    return mp.atanh(wi / wf * mp.tanh(wf * beta))


def widths(wi, wf, beta):
    """(a+, a-) of one mode, evaluated at adaptive precision."""
    with mp.workdps(_dps(beta, max(float(wi), float(wf)))):
        wi, wf, beta = mp.mpf(wi), mp.mpf(wf), mp.mpf(beta)
        b2 = scale_b2(wi, wf, beta)
        g_e = gamma_e(wi, wf, beta)
        a_cap = (wf**2 - wi**2) * mp.sinh(2 * wf * beta) / (4 * wf * b2)
        sh, ch = mp.sinh(g_e), mp.cosh(g_e)
        q_in = wi * ch / (2 * sh)
        q_out = a_cap + wi * ch / (2 * b2 * sh)
        g = wi / (2 * mp.sqrt(b2) * sh)
        ap, am = q_in + q_out + 2 * g, q_in + q_out - 2 * g
        return +ap, +am


def ratio(p, m):
    sp, sm = mp.sqrt(p), mp.sqrt(m)
    return (sp - sm) / (sp + sm)


def von_neumann(xi):
    if xi == 0:
        return mp.mpf(0)
    return -mp.log(1 - xi) - xi / (1 - xi) * mp.log(xi)


def renyi(xi, alpha):
    alpha = mp.mpf(alpha)
    if alpha == 1:
        return von_neumann(xi)
    return (alpha * mp.log(1 - xi) - mp.log(1 - xi**alpha)) / (1 - alpha)


def negativity(z1, z2):
    n = mp.mpf(1)
    for z in (z1, z2):
        if z < 0:
            n *= (1 - z) / (1 + z)
    return n - 1


def _pair_widths(spec, beta):
    (w1i, w1f), (w2i, w2f) = modes(spec)
    return widths(w1i, w1f, beta) + widths(w2i, w2f, beta)


def _w_max(spec) -> float:
    return float(max(max(pair) for pair in modes(spec)))


@lru_cache(maxsize=4096)
def coupled_observables(spec, temperature, names) -> dict[str, float]:
    """Observables of the two-mode state at temperature T, keyed by CSV column.

    With "negativity" the product zeta1 * zeta2 is returned too, under "zeta1*zeta2".
    """
    beta = 1 / mp.mpf(temperature)
    with mp.workdps(_dps(beta, _w_max(spec))):
        ap1, am1, ap2, am2 = _pair_widths(spec, beta)
        xi1, xi2 = ratio(ap1, am1), ratio(ap2, am2)
        out = {}
        for name in names:
            if name == "purity":
                v = mp.sqrt(am1 / ap1 * am2 / ap2)
            elif name == "von_neumann":
                v = von_neumann(xi1) + von_neumann(xi2)
            elif name.startswith("renyi"):
                alpha = name.replace(":", "_").split("_", 1)[1]
                v = renyi(xi1, alpha) + renyi(xi2, alpha)
            elif name == "mutual_info":
                z_sub = ratio((ap1 + ap2) / 2, 2 / (1 / am1 + 1 / am2))
                v = 2 * von_neumann(z_sub) - von_neumann(xi1) - von_neumann(xi2)
            elif name == "negativity":
                z1, z2 = ratio(ap2, am1), ratio(ap1, am2)
                v = negativity(z1, z2)
                out["zeta1*zeta2"] = float(z1 * z2)
            else:
                raise KeyError(name)
            out[name] = float(v)
        return out


def single_mode(wi, wf, temperature) -> dict[str, float]:
    beta = 1 / mp.mpf(temperature)
    with mp.workdps(_dps(beta, max(wi, wf))):
        ap, am = widths(wi, wf, beta)
        return {"purity": float(mp.sqrt(am / ap)), "von_neumann": float(von_neumann(ratio(ap, am)))}


def zero_t_negativity(spec) -> float:
    """beta -> infinity limit of the negativity (a+- converge like exp(-2 wf beta))."""
    (w1i, w1f), (w2i, w2f) = modes(spec)
    beta = 80 / float(min(w1f, w2f))
    with mp.workdps(_dps(beta, _w_max(spec))):
        ap1, am1, ap2, am2 = _pair_widths(spec, beta)
        return float(negativity(ratio(ap2, am1), ratio(ap1, am2)))


def _entangled_log_margin(spec, log_t):
    """log max(a-_1/a+_2, a-_2/a+_1): positive exactly when entangled."""
    beta = mp.exp(-log_t)
    ap1, am1, ap2, am2 = _pair_widths(spec, beta)
    return mp.log(max(am1 / ap2, am2 / ap1))


@lru_cache(maxsize=None)
def critical_temperature(spec, t_floor=1e-4, t_ceil=1e4) -> float:
    """Highest T at which entanglement vanishes; 0.0 if separable down to t_floor."""
    spec = tuple(float(v) for v in spec)
    (w1i, w1f), (w2i, w2f) = modes(spec)
    cap = min(beta_star(w1i, w1f), beta_star(w2i, w2f))
    lo = max(math.log(t_floor), -math.log(cap) + 1e-6 if math.isfinite(cap) else -math.inf)
    hi = math.log(t_ceil)
    grid = [hi - k * (hi - lo) / 32 for k in range(33)]
    with mp.workdps(BASE_DPS + 10):
        f = lambda lt: _entangled_log_margin(spec, lt)
        prev_lt, prev_v = grid[0], f(grid[0])
        if prev_v > 0:
            raise ValueError(f"{spec} still entangled at T = {t_ceil}")
        for lt in grid[1:]:
            v = f(lt)
            if v > 0:
                root = mp.findroot(f, (mp.mpf(lt), mp.mpf(prev_lt)), solver="anderson")
                return float(mp.exp(root))
            prev_lt, prev_v = lt, v
    return 0.0


def constant_tc(k0, j) -> tuple[float, float]:
    """(exact, approximate) T_c of the constant-frequency pair (k0, J)."""
    exact = critical_temperature((k0, k0, j, j))
    with mp.workdps(BASE_DPS):
        w1, w2 = mp.sqrt(mp.mpf(k0)), mp.sqrt(mp.mpf(k0) + 2 * mp.mpf(j))
        lo, hi = min(w1, w2), max(w1, w2)
        approx = lo / mp.log((hi + lo) / (hi - lo))
    return exact, float(approx)


def boundary_y(x) -> float:
    """Upper separability boundary: the y > x solving y tanh y = x coth x."""
    with mp.workdps(BASE_DPS):
        x = mp.mpf(x)
        target = x / mp.tanh(x)
        f = lambda y: y * mp.tanh(y) - target
        hi = max(2 * x, mp.mpf(2))
        while f(hi) < 0:
            hi *= 2
        return float(mp.findroot(f, (x, hi), solver="anderson"))


def separable_const(w1, w2, beta) -> bool | None:
    """zeta_1 >= 0 and zeta_2 >= 0 at constant frequencies; None within 1e-12 of the edge."""
    with mp.workdps(BASE_DPS + 10):
        ap1, am1 = widths(w1, w1, beta)
        ap2, am2 = widths(w2, w2, beta)
        margins = (ap2 / am1 - 1, ap1 / am2 - 1)
        if any(abs(m) < mp.mpf("1e-12") for m in margins):
            return None
        return all(m > 0 for m in margins)


def thermal_spectrum_1d(wi, wf, beta, count) -> list[float]:
    """Leading eigenvalues (1 - xi) xi^n of the normalised one-mode thermal kernel."""
    with mp.workdps(_dps(beta, max(wi, wf))):
        ap, am = widths(wi, wf, beta)
        xi = ratio(ap, am)
        return [float((1 - xi) * xi**n) for n in range(count)]


def ladder_ratios(spec, beta, kernel) -> tuple:
    """(r1, r2) of the two-mode kernel: (xi_1, xi_2) for rho, (zeta_1, zeta_2) for sigma."""
    with mp.workdps(_dps(beta, _w_max(spec))):
        ap1, am1, ap2, am2 = _pair_widths(spec, beta)
        if kernel == "rho":
            return ratio(ap1, am1), ratio(ap2, am2)
        return ratio(ap2, am1), ratio(ap1, am2)


def product_spectrum(spec, beta, kernel, count) -> list[float]:
    """The `count` eigenvalues (1-r1)(1-r2) r1^m r2^n largest in magnitude."""
    r1, r2 = ladder_ratios(spec, beta, kernel)
    with mp.workdps(BASE_DPS):
        lead = (1 - r1) * (1 - r2)
        vals = [lead * r1**m * r2**n for m in range(count) for n in range(count)]
        vals.sort(key=lambda v: -abs(v))
        return [float(v) for v in vals[:count]]


def trace_power(spec, beta, kernel, p) -> float:
    """tr K^p = prod_i (1 - r_i)^p / (1 - r_i^p) of the normalised two-mode kernel."""
    r1, r2 = ladder_ratios(spec, beta, kernel)
    with mp.workdps(BASE_DPS):
        return float(((1 - r1) ** p / (1 - r1**p)) * ((1 - r2) ** p / (1 - r2**p)))


def real_scale(wi, wf, t) -> float:
    """b(t) after a sudden real-time quench."""
    with mp.workdps(BASE_DPS):
        wi, wf, t = mp.mpf(wi), mp.mpf(wf), mp.mpf(t)
        return float(mp.sqrt(((wf**2 - wi**2) * mp.cos(2 * wf * t) + (wf**2 + wi**2)) / (2 * wf**2)))


def euclidean_scale_phase(wi, wf, beta) -> tuple[float, float]:
    """(b, Gamma_E) at Euclidean time beta."""
    with mp.workdps(_dps(beta, max(wi, wf))):
        return float(mp.sqrt(scale_b2(wi, wf, beta))), float(gamma_e(wi, wf, beta))


def mehler_rhs(t, x, y) -> float:
    """Closed form of sum_n t^n / n! H_n(x) H_n(y) for |t| < 1/2."""
    with mp.workdps(BASE_DPS):
        t, x, y = mp.mpf(t), mp.mpf(x), mp.mpf(y)
        d = 1 - 4 * t**2
        return float(mp.exp((4 * t * x * y - 4 * t**2 * (x**2 + y**2)) / d) / mp.sqrt(d))
