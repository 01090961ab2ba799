"""The array observable layer against the kernel, spectra and trace-moment routes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscquench as oq
from oscquench.cli import SweepConfig, _negativity_at_zero_t, run_sweep


def _draw_spec(rng, kind):
    if kind == "up":
        k0, j = rng.uniform(0.5, 5.0), rng.uniform(0.1, 3.0)
        return oq.QuenchSpec(k0, k0 * rng.uniform(1.2, 4.0), j, j * rng.uniform(1.2, 4.0))
    if kind == "down":
        k0, j = rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0)
        return oq.QuenchSpec(k0, k0 / rng.uniform(1.2, 4.0), j, j / rng.uniform(1.2, 4.0))
    if kind == "const":
        k0, j = rng.uniform(0.5, 5.0), rng.uniform(0.1, 5.0)
        return oq.QuenchSpec(k0, k0, j, j)
    k0 = rng.uniform(0.5, 5.0)  # negative J, both before and after
    return oq.QuenchSpec(k0, k0 * rng.uniform(0.8, 1.5), -k0 * rng.uniform(0.3, 0.45),
                         -k0 * rng.uniform(0.05, 0.25))


def _betas(spec):
    """Inverse temperatures across the domain, up to the downward-quench cut."""
    cut = min(oq.beta_star(m) for m in oq.normal_modes(spec)) * (1 - 1e-6)
    if math.isfinite(cut):
        return cut * np.concatenate([np.geomspace(1e-3, 0.99, 12), [1 - 1e-12]])
    return np.geomspace(1e-3, 20.0, 13)


SPECS = [(kind, seed) for kind in ("up", "down", "const", "negJ") for seed in range(5)]


@pytest.mark.parametrize("kind,seed", SPECS)
def test_mode_widths_match_mode_thermo(kind, seed):
    spec = _draw_spec(np.random.default_rng(seed), kind)
    betas = _betas(spec)
    for mode in oq.normal_modes(spec):
        w = oq.mode_widths(mode, betas)
        mts = [oq.mode_thermo(mode, b) for b in betas]
        for field in ("a_plus", "a_minus", "xi"):
            np.testing.assert_allclose(getattr(w, field), [getattr(mt, field) for mt in mts],
                                       rtol=1e-13, atol=0, err_msg=f"{kind} {field}")


@pytest.mark.parametrize("kind,seed", SPECS)
def test_ratios_match_kernel_routes(kind, seed):
    spec = _draw_spec(np.random.default_rng(seed), kind)
    betas = _betas(spec)[:-1]
    m1, m2 = oq.normal_modes(spec)
    w_max = max(m1.omega_i, m1.omega_f, m2.omega_i, m2.omega_f)
    r = oq.ladder_ratios(oq.mode_widths(m1, betas), oq.mode_widths(m2, betas))
    values, flags = oq.observables(spec, 1 / betas, ["mutual_info", "negativity"])
    assert not any(flags)
    for i, beta in enumerate(betas):
        rho = oq.thermal_rho_coupled(oq.mode_thermo(m1, beta), oq.mode_thermo(m2, beta))
        assert r.zeta_sub[i] == pytest.approx(oq.substate_ratio(rho), abs=1e-11)
        # I = 2 S_sub - S_1 - S_2 cancels entropies ~ ln(T / omega): at constant
        # frequency and omega beta ~ 2e-3 the kernel route is 1.4e-10 off mpmath,
        # the elementary route 2e-13; quench widths also lose digits there
        # (the a- cancellation at high T)
        if w_max * beta >= 0.02:
            assert values["mutual_info"][i] == pytest.approx(oq.mutual_information(rho), abs=1e-11)
        # the moment route's error grows like ~1e-14 / |zeta1 zeta2|
        if abs(r.zeta1[i] * r.zeta2[i]) > 1e-2:
            mom = oq.pt_moments(oq.partial_transpose(rho))
            assert sorted((r.zeta1[i], r.zeta2[i])) == pytest.approx(
                sorted((mom.zeta1, mom.zeta2)), abs=1e-11)
            assert values["negativity"][i] == pytest.approx(
                oq.negativity(mom.zeta1, mom.zeta2), abs=1e-11)


def _mp_widths(mp, wi, wf, beta):
    """(a+, a-) of one mode in mpmath, by the paper's route through b, Gamma_E and A."""
    wi, wf, beta = mp.mpf(wi), mp.mpf(wf), mp.mpf(beta)
    b2 = ((wf**2 - wi**2) * mp.cosh(2 * wf * beta) + wf**2 + wi**2) / (2 * wf**2)
    gamma = wf * beta if wi == wf else mp.atanh(wi / wf * mp.tanh(wf * beta))
    a_cap = (wf**2 - wi**2) * mp.sinh(2 * wf * beta) / (4 * wf * b2)
    q = a_cap + wi * mp.cosh(gamma) / (2 * mp.sinh(gamma)) * (1 + 1 / b2)
    g = wi / (mp.sqrt(b2) * mp.sinh(gamma))
    return q + g, q - g


def _mp_modes(mp, spec):
    k0_i, k0_f, j_i, j_f = (mp.mpf(v) for v in spec)
    return [(mp.sqrt(wi2), mp.sqrt(wf2)) for wi2, wf2 in ((k0_i, k0_f), (k0_i + 2 * j_i, k0_f + 2 * j_f))]


def _mp_log_margin(mp, spec, log_t):
    """log max(a-_1 / a+_2, a-_2 / a+_1) in mpmath, written from the closed forms."""
    beta = mp.exp(-log_t)
    (ap1, am1), (ap2, am2) = (_mp_widths(mp, wi, wf, beta) for wi, wf in _mp_modes(mp, spec))
    return mp.log(max(am1 / ap2, am2 / ap1))


def _mp_tc(mp, spec, t_floor=1e-4, t_ceil=1e4):
    m1, m2 = oq.normal_modes(oq.QuenchSpec(*spec))
    cut = min(oq.beta_star(m1), oq.beta_star(m2)) * (1 - 1e-6)
    lo = max(math.log(t_floor), -math.log(cut) + 1e-9)
    grid = np.linspace(math.log(t_ceil), lo, 129)
    with mp.workdps(40):
        f = lambda lt: _mp_log_margin(mp, spec, lt)
        for upper, lower in zip(grid, grid[1:]):
            if f(lower) > 0:
                return float(mp.exp(mp.findroot(f, (mp.mpf(lower), mp.mpf(upper)), solver="anderson")))
    return 0.0


@pytest.mark.parametrize("spec,entangled", [
    ((3.0, 6.0, 3.0, 6.0), True),
    ((1.0, 20.0, 5.0, 5.0), True),
    ((1.0, 1.0, 1.0, 1.0), True),
    ((1.0, 1.0, -0.3, -0.3), True),
    # the trace-moment ratios put T_c 4.7e-6 off here
    ((3.9745058408479896, 8.34146358861205, 0.1018751542019519, 0.37905296955335793), True),
    # downward, separable at every temperature of its domain (T > 1 / beta* = 2.73)
    ((5.0, 2.0, 3.0, 1.5), False),
])
def test_critical_temperature_sqm_matches_mpmath(spec, entangled):
    mp = pytest.importorskip("mpmath")
    expected = _mp_tc(mp, spec)
    assert (expected > 0) == entangled
    assert oq.critical_temperature_sqm(oq.QuenchSpec(*spec)) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["up", "down", "const", "negJ"]), rng=st.randoms(use_true_random=False),
       log_s=st.floats(math.log(1e-8), math.log(1e8)))
def test_critical_temperature_sqm_scales_with_the_frequencies(kind, rng, log_s):
    # every mode frequency scales by s, and a+-, beta* and T_c with it
    spec = _draw_spec(rng, kind)
    s = math.exp(log_s)
    scaled = oq.QuenchSpec(*(s * s * v for v in (spec.k0_i, spec.k0_f, spec.j_i, spec.j_f)))
    expected = s * oq.critical_temperature_sqm(spec)
    assert oq.critical_temperature_sqm(scaled) == pytest.approx(expected, rel=1e-10, abs=0)


def test_critical_temperature_sqm_matches_constant_route_on_fig4b_grid():
    js = np.linspace(0.5, 10.0, 200)
    exact = oq.critical_temperature(np.ones_like(js), np.sqrt(1 + 2 * js)).tc_exact
    quench = [oq.critical_temperature_sqm(oq.QuenchSpec(1.0, 1.0, j, j)) for j in js]
    np.testing.assert_allclose(quench, exact, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["up", "down", "const", "negJ"]), rng=st.randoms(use_true_random=False),
       u=st.floats(0.0, 1.0))
def test_quenched_state_is_the_thermal_state_of_the_final_frequencies(kind, rng, u):
    # the paper's b, Gamma_E and A give a+- = omega_f coth(x/2), omega_f tanh(x/2): omega_i cancels
    mp = pytest.importorskip("mpmath")
    spec = _draw_spec(rng, kind)
    modes = oq.normal_modes(spec)
    cut = min(oq.beta_star(m) for m in modes) * (1 - 1e-6)
    beta = math.exp(math.log(2e-8) + u * (math.log(min(cut, 20.0)) - math.log(2e-8)))
    with mp.workdps(60):
        for mode in modes:
            w = oq.mode_widths(mode, beta)
            ap, am = _mp_widths(mp, mode.omega_i, mode.omega_f, beta)
            assert (float(w.a_plus), float(w.a_minus)) == pytest.approx((float(ap), float(am)),
                                                                         rel=1e-13, abs=0)

    final = oq.QuenchSpec(spec.k0_f, spec.k0_f, spec.j_f, spec.j_f)
    names = ["purity", "von_neumann", "renyi:2", "mutual_info", "negativity"]
    got, flags = oq.observables(spec, [1 / beta], names)
    expected, _ = oq.observables(final, [1 / beta], names)
    assert not any(flags)
    for name in names:
        np.testing.assert_array_equal(got[name], expected[name], err_msg=name)

    tc = oq.critical_temperature(modes[0].omega_f, modes[1].omega_f).tc_exact
    tc_sqm = oq.critical_temperature_sqm(spec)
    assert tc_sqm == (tc if tc > 0 and 1 / tc < cut else 0.0)
    # and the paper's route agrees: entangled just below T_c, separable above it
    with mp.workdps(40):
        margin = lambda t: _mp_log_margin(mp, (spec.k0_i, spec.k0_f, spec.j_i, spec.j_f), mp.log(t))
        if tc_sqm > 0:
            assert margin(tc_sqm * (1 - 1e-9)) > 0 > margin(tc_sqm * (1 + 1e-9))
        else:
            assert margin(1 / cut) <= 0


def test_downward_quench_at_high_temperature_is_computed_to_rounding():
    # the paper's route cancelled a- = common - gap to <= 0 on 7 rows near T = 1e8
    # ("Gaussian widths out of order") and put purity up to 130% off
    mp = pytest.importorskip("mpmath")
    spec = (5.0, 2.0, 3.0, 1.5)
    temps = np.geomspace(1e3, 1e8, 1000)
    values, flags = oq.observables(oq.QuenchSpec(*spec), temps, ["purity"])
    assert not any(flags)
    rows = np.r_[0:990:10, 990:1000]
    with mp.workdps(60):
        for i in rows:
            beta = 1 / mp.mpf(temps[i])
            (ap1, am1), (ap2, am2) = (_mp_widths(mp, wi, wf, beta) for wi, wf in _mp_modes(mp, spec))
            expected = float(mp.sqrt(am1 / ap1 * am2 / ap2))
            assert values["purity"][i] == pytest.approx(expected, rel=1e-12, abs=0)


def test_von_neumann_entropy_does_not_underflow_at_low_temperature():
    # 26th row of a 1000-point sweep over [0.01, 100]: omega_f beta = 355 and 435,
    # S ~ 2e-152, which the paper's route wrote as 0
    mp = pytest.importorskip("mpmath")
    spec = (1.0, 20.0, 5.0, 5.0)
    t = np.geomspace(0.01, 100.0, 1000)[25]
    values, _ = oq.observables(oq.QuenchSpec(*spec), [t], ["von_neumann"])
    expected = 0
    with mp.workdps(400):
        for wi, wf in _mp_modes(mp, spec):
            ap, am = _mp_widths(mp, wi, wf, 1 / mp.mpf(t))
            xi = (mp.sqrt(ap) - mp.sqrt(am)) / (mp.sqrt(ap) + mp.sqrt(am))
            expected += -mp.log(1 - xi) - xi / (1 - xi) * mp.log(xi)
    assert values["von_neumann"][0] == pytest.approx(float(expected), rel=1e-12, abs=0)
    assert values["von_neumann"][0] > 1e-152


def test_downward_sweep_with_tc_keeps_in_domain_rows(tmp_path):
    cfg = SweepConfig.from_dict({
        "quench": {"k0_i": 5.0, "k0_f": 2.0, "j_i": 3.0, "j_f": 1.5},
        "T_min": 1.0, "T_max": 10.0, "T_points": 5, "scale": "log", "observables": ["purity", "tc"]})
    result = run_sweep(cfg)
    assert [bool(flag) for flag in result.flags] == [True, True, False, False, False]
    assert np.all(result.values["tc"][2:] == oq.critical_temperature_sqm(cfg.quench))


# warnings cells, byte for byte: "domain:" and the DomainError message of mode_thermo
_FLAGS = [
    ((4.0, 1.0, 0.0, 0.0), 0.5, 5.0, 4, [
        "domain:downward quench (2.0 -> 1.0): b^2 vanishes at beta* = 0.5493061443340548; "
        "requested beta = 2.0 is out of domain",
        "domain:downward quench (2.0 -> 1.0): b^2 vanishes at beta* = 0.5493061443340548; "
        "requested beta = 0.9283177667225557 is out of domain", "", ""]),
    ((3.0, 6.0, 1.0, 2.0), 1e7, 1e9, 3, [
        "", "", "domain:beta=1e-09 below floor 1e-08; use analytic high-T limits instead"]),
    ((5.0, 2.0, 3.0, 1.5), 1.0, 10.0, 5, [
        "domain:downward quench (2.23606797749979 -> 1.4142135623730951): b^2 vanishes at "
        "beta* = 0.527146800407171; requested beta = 1.0 is out of domain",
        "domain:downward quench (2.23606797749979 -> 1.4142135623730951): b^2 vanishes at "
        "beta* = 0.527146800407171; requested beta = 0.5623413251903491 is out of domain",
        "", "", ""]),
]


@pytest.mark.parametrize("quench,t_min,t_max,points,flags", _FLAGS)
def test_flagged_rows_keep_their_messages(quench, t_min, t_max, points, flags):
    cfg = SweepConfig.from_dict({
        "quench": dict(zip(("k0_i", "k0_f", "j_i", "j_f"), quench)),
        "T_min": t_min, "T_max": t_max, "T_points": points, "scale": "log",
        "observables": ["purity", "negativity"]})
    lines = run_sweep(cfg).to_csv_text().splitlines()
    data = lines[lines.index("T,beta,purity,negativity,warnings") + 1:]
    assert [line.split(",", 4)[4] for line in data] == flags
    assert all((line.split(",")[2] == "") == bool(flag) for line, flag in zip(data, flags))


FIG5_SPECS = [(1.0, k, 5.0, 5.0) for k in (1.0, 20.0, 40.0)] + [(1.0, 1.0, 5.0, j) for j in (5.0, 25.0, 45.0)]


@pytest.mark.parametrize("spec", FIG5_SPECS)
def test_zero_temperature_negativity_limit(spec):
    spec = oq.QuenchSpec(*spec)
    w_min = min(m.omega_f for m in oq.normal_modes(spec))
    values, _ = oq.observables(spec, np.array([w_min / 80]), ["negativity"])
    assert _negativity_at_zero_t(spec) == pytest.approx(values["negativity"][0], rel=1e-12)


def test_zero_temperature_limit_refuses_downward_quench():
    with pytest.raises(oq.DomainError):
        _negativity_at_zero_t(oq.QuenchSpec(5.0, 2.0, 3.0, 1.5))


def test_array_calls_match_scalar_calls():
    xs = np.linspace(0.05, 5.0, 40)
    assert oq.boundary_g(xs) == pytest.approx([oq.boundary_g(x) for x in xs], rel=1e-11)
    ratios = np.linspace(1.01, 6.0, 25)
    assert oq.g_inverse(ratios) == pytest.approx([oq.g_inverse(r) for r in ratios], rel=1e-11)
    w2 = np.sqrt(1 + 2 * np.linspace(-0.45, 10.0, 30))
    tc = oq.critical_temperature(np.ones_like(w2), w2)
    for k, w in enumerate(w2):
        one = oq.critical_temperature(1.0, w)
        assert (tc.tc_exact[k], tc.tc_approx[k]) == pytest.approx((one.tc_exact, one.tc_approx), rel=1e-11)
    gx, gy = np.meshgrid(np.linspace(0.05, 3.0, 21), np.linspace(0.05, 3.0, 21))
    mask = oq.check_separable(2 * gx, 2 * gy, 1.0)
    assert mask.tolist() == [[oq.check_separable(2 * x, 2 * y, 1.0) for x, y in zip(rx, ry)]
                             for rx, ry in zip(gx, gy)]
    z = np.linspace(-0.9, 0.9, 19)
    assert oq.negativity(z, z[::-1]).tolist() == [oq.negativity(a, b) for a, b in zip(z, z[::-1])]


def test_cli_import_loads_no_scipy():
    code = "import sys, oscquench.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(oq.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
