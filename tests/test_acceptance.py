"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import oscquench as oq
from oscquench.oracle import QuadratureGrid, nystrom_spectrum, trace_power

SETTINGS = [
    ("const-k1-J1", oq.QuenchSpec(1.0, 1.0, 1.0, 1.0)),
    ("quench-3-to-6", oq.QuenchSpec(3.0, 6.0, 3.0, 6.0)),
    ("quench-3-to-9", oq.QuenchSpec(3.0, 9.0, 3.0, 9.0)),
]
BETAS = (0.5, 1.0, 4.0)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:>3} {name}: {tag}{suffix}", flush=True)
    return ok


def coupled(spec, beta):
    m1, m2 = oq.normal_modes(spec)
    return oq.thermal_rho_coupled(oq.mode_thermo(m1, beta), oq.mode_thermo(m2, beta))


def ladder_top(lead, r1, r2, count=12, terms=60):
    lam = np.outer(lead * r1 ** np.arange(terms), r2 ** np.arange(terms)).ravel()
    return lam[np.argsort(-np.abs(lam))][:count]


def test_criterion_1_constant_frequency_reductions():
    start = time.perf_counter()
    w1, w2 = 1.0, math.sqrt(3.0)
    worst = 0.0
    for t in np.geomspace(0.05, 20.0, 100):
        beta = 1.0 / t
        mt1 = oq.mode_thermo(oq.ModeQuench(w1, w1), beta)
        mt2 = oq.mode_thermo(oq.ModeQuench(w2, w2), beta)
        worst = max(
            worst,
            abs(oq.purity_single(mt1) - math.tanh(w1 * beta / 2)),
            abs(oq.purity_single(mt1) * oq.purity_single(mt2)
                - math.tanh(w1 * beta / 2) * math.tanh(w2 * beta / 2)),
            abs(mt1.xi - math.exp(-w1 * beta)),
            abs(mt2.xi - math.exp(-w2 * beta)),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, "constant-frequency reductions", ok,
                  f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_spectrum_match():
    start = time.perf_counter()
    worst = 0.0
    worst_tr = 0.0
    for _, spec in SETTINGS:
        m1, m2 = oq.normal_modes(spec)
        for beta in BETAS:
            mt1, mt2 = oq.mode_thermo(m1, beta), oq.mode_thermo(m2, beta)
            rho = oq.thermal_rho_coupled(mt1, mt2)
            sig = oq.partial_transpose(rho)

            # single oscillator (normal mode 1)
            k1 = oq.thermal_rho_single(mt1)
            sp = nystrom_spectrum(k1, QuadratureGrid.for_kernel(k1, 200), with_error=False)
            closed = (1 - mt1.xi) * mt1.xi ** np.arange(12)
            worst = max(worst, np.abs(sp.eigenvalues[:12] - closed).max())

            # two-mode thermal state
            grid2 = QuadratureGrid.for_kernel(rho, 56)
            sp = nystrom_spectrum(rho, grid2, top_k=14, with_error=False)
            closed = ladder_top((1 - mt1.xi) * (1 - mt2.xi), mt1.xi, mt2.xi)
            worst = max(worst, np.abs(sp.eigenvalues[:12] - closed).max())

            # reduced substate
            sub = oq.reduce_substate(rho)
            zeta = oq.substate_ratio(rho)
            sp = nystrom_spectrum(sub, QuadratureGrid.for_kernel(sub, 200), with_error=False)
            closed = (1 - zeta) * zeta ** np.arange(12)
            worst = max(worst, np.abs(sp.eigenvalues[:12] - closed).max())

            # partial transpose via the trace-moment ladder
            mom = oq.pt_moments(sig)
            sp = nystrom_spectrum(sig, QuadratureGrid.for_kernel(sig, 56),
                                  top_k=14, with_error=False)
            closed = ladder_top((1 - mom.zeta1) * (1 - mom.zeta2), mom.zeta1, mom.zeta2)
            worst = max(worst, np.abs(sp.eigenvalues[:12] - closed).max())

            tr, _ = trace_power(rho, 1, grid2, with_error=False)
            worst_tr = max(worst_tr, abs(tr - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and worst_tr < 1e-8 and elapsed < 120.0
    assert report(2, "quadrature oracle spectrum match", ok,
                  f"max eig dev {worst:.2e}, max |tr-1| {worst_tr:.2e}, {elapsed:.0f}s")


def test_criterion_3_moment_pipeline():
    worst_tr = 0.0
    for _, spec in SETTINGS:
        for beta in BETAS:
            sig = oq.sigma_for_quench(spec, beta)
            mom = oq.pt_moments(sig)
            grid = QuadratureGrid.for_kernel(sig, 56)
            tr2, _ = trace_power(sig, 2, grid, with_error=False)
            tr3, _ = trace_power(sig, 3, grid, with_error=False)
            worst_tr = max(worst_tr, abs(tr2 - mom.beta1), abs(tr3 - mom.beta2))
    worst_z = 0.0
    for beta in np.geomspace(0.1, 10.0, 60):
        mom = oq.pt_moments(oq.sigma_for_quench(oq.QuenchSpec(1, 1, 1, 1), beta))
        pt = oq.pt_spectrum_const(1.0, math.sqrt(3.0), beta)
        worst_z = max(worst_z, abs(mom.zeta1 - pt.zeta1), abs(mom.zeta2 - pt.zeta2))
    ok = worst_tr < 1e-7 and worst_z < 1e-10
    assert report(3, "trace-moment pipeline", ok,
                  f"max trace dev {worst_tr:.2e}, max ratio dev {worst_z:.2e}")


def test_criterion_4a_entanglement_phase_transition():
    spec = oq.QuenchSpec(1.0, 1.0, 1.0, 1.0)
    tc = oq.critical_temperature(1.0, math.sqrt(3.0)).tc_exact
    below = all(oq.negativity_for_quench(spec, 1 / t) > 0.0
                for t in np.linspace(0.05, tc - 1e-4, 50))
    above = all(oq.negativity_for_quench(spec, 1 / t) == 0.0
                for t in np.linspace(tc + 1e-6, 20.0, 50))
    pt1 = oq.pt_spectrum_const(1.0, math.sqrt(3.0), 1.0)
    pt4 = oq.pt_spectrum_const(1.0, math.sqrt(3.0), 4.0)
    spots = (abs(pt1.zeta1 - 0.396684) < 1e-5 and abs(pt1.zeta2 - 0.144050) < 1e-5
             and abs(oq.negativity(pt4.zeta1, pt4.zeta2) - 0.290922) < 1e-5)
    ok = below and above and spots
    assert report("4a", "negativity vanishes exactly above T_c", ok,
                  f"T_c = {tc:.6f}")


def _bisect(f, lo, hi):
    """Root of an increasing f in (lo, hi), widening hi until f(hi) > 0."""
    while f(hi) <= 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# y0 tanh y0 = 1: where the exact boundary y tanh y = x coth x starts at x -> 0
Y0 = _bisect(lambda y: y * math.tanh(y) - 1.0, 0.0, 2.0)


def _tc_covariance(w_min, w_max):
    """T_c from the covariance-matrix PPT condition (Simon, PRL 84, 2726):
    (w_min / w_max) coth(w_min / 2T) coth(w_max / 2T) = 1."""
    return _bisect(lambda t: w_min / w_max / math.tanh(w_min / (2 * t))
                   / math.tanh(w_max / (2 * t)) - 1.0, 1e-9, 1.0)


def test_criterion_4b_tc_approximation_within_10_percent():
    # With r = w_max / w_min, the exact x_e = w_min / 2T_c solves
    # coth x_e = r tanh(r x_e) < r = coth x_a, so x_e > x_a and the coth
    # approximation always lies above T_c.  Its relative gap x_e / x_a - 1
    # rises with r towards Y0 - 1 = 0.19968 and is 0.198 at k0 = J = 1; it
    # drops below the originally stated 10% only for r - 1 <~ 1e-3.  So the
    # test checks the gap against the covariance-matrix root and its bound.
    w_max = math.sqrt(3.0)
    tc = oq.critical_temperature(1.0, w_max)
    assert tc.tc_approx == pytest.approx(1 / math.log(2 + math.sqrt(3)), rel=1e-12)
    ref = _tc_covariance(1.0, w_max)
    gap = tc.tc_approx / tc.tc_exact - 1
    gap_ref = 1 / math.log(2 + math.sqrt(3)) / ref - 1
    gaps = []
    for j in np.linspace(0.5, 10.0, 200):  # fig4b's grid
        tc_j = oq.critical_temperature(1.0, math.sqrt(1 + 2 * j))
        gaps.append(tc_j.tc_approx / tc_j.tc_exact - 1)
    ok = (abs(tc.tc_exact - ref) < 1e-9 and abs(gap - gap_ref) < 1e-8
          and gaps[0] > 0 and all(np.diff(gaps) > 0) and gaps[-1] < Y0 - 1)
    assert report("4b", "approximate T_c above exact by its proven gap", ok,
                  f"exact {tc.tc_exact:.9f} (covariance root {ref:.9f}), "
                  f"approx {tc.tc_approx:.6f}, gap {gap:.7f}; "
                  f"J in [0.5, 10]: gap {gaps[0]:.4f}-{gaps[-1]:.4f} < Y0 - 1 = {Y0 - 1:.5f}")


def test_criterion_5_monotonicity_suite():
    violations = []

    # purity falls and entropy rises with temperature
    for label, spec in (("const", oq.QuenchSpec(1, 1, 1, 1)), ("quench", oq.QuenchSpec(3, 6, 3, 6))):
        m1, m2 = oq.normal_modes(spec)
        p, s = [], []
        for t in np.geomspace(0.05, 20, 100):
            mt1, mt2 = oq.mode_thermo(m1, 1 / t), oq.mode_thermo(m2, 1 / t)
            p.append(oq.purity_single(mt1) * oq.purity_single(mt2))
            s.append(oq.von_neumann_entropy(mt1.xi) + oq.von_neumann_entropy(mt2.xi))
        if not all(p[i] >= p[i + 1] - 1e-13 for i in range(99)):
            violations.append(f"P(T) {label}")
        if not all(s[i] <= s[i + 1] + 1e-13 for i in range(99)):
            violations.append(f"S(T) {label}")

    # quench distance makes the state purer at fixed temperature
    for t_fix in (0.5, 2.0):
        p, s = [], []
        for wf in np.linspace(3.0, 9.0, 51):
            mt = oq.mode_thermo(oq.ModeQuench(3.0, wf), 1 / t_fix)
            p.append(oq.purity_single(mt))
            s.append(oq.von_neumann_entropy(mt.xi))
        if not all(p[i] <= p[i + 1] + 1e-13 for i in range(50)):
            violations.append(f"P(|wf-wi|) at T={t_fix}")
        if not all(s[i] >= s[i + 1] - 1e-13 for i in range(50)):
            violations.append(f"S(|wf-wi|) at T={t_fix}")

    # constant-frequency critical temperature grows with |J|
    tc_pos = [oq.critical_temperature(1.0, math.sqrt(1 + 2 * j)).tc_exact
              for j in np.linspace(0.1, 10.0, 50)]
    if not all(tc_pos[i] <= tc_pos[i + 1] + 1e-10 for i in range(49)):
        violations.append("T_c(J>0)")
    tc_neg = [oq.critical_temperature(1.0, math.sqrt(1 + 2 * j)).tc_exact
              for j in np.linspace(-0.02, -0.45, 50)]
    if not all(tc_neg[i] <= tc_neg[i + 1] + 1e-10 for i in range(49)):
        violations.append("T_c(J<0)")

    # sudden-quench vanishing temperature grows with the quench distance
    tc_k = [oq.critical_temperature_sqm(oq.QuenchSpec(1.0, k0f, 5.0, 5.0))
            for k0f in np.linspace(1.0, 41.0, 50)]
    if not all(tc_k[i] <= tc_k[i + 1] + 1e-5 for i in range(49)):
        violations.append("T_c(|k0f-k0i|)")
    tc_j = [oq.critical_temperature_sqm(oq.QuenchSpec(1.0, 1.0, 5.0, jf))
            for jf in np.linspace(5.0, 45.0, 50)]
    if not all(tc_j[i] <= tc_j[i + 1] + 1e-5 for i in range(49)):
        violations.append("T_c(|Jf-Ji|)")

    ok = not violations
    assert report(5, "monotonicity suite", ok,
                  "no violations" if ok else "; ".join(violations))


def test_criterion_6_mutual_information_plateau():
    plateaus = {}
    ok = True
    for k0f in (6.0, 9.0):
        spec = oq.QuenchSpec(3.0, k0f, 3.0, k0f)
        temps = np.geomspace(0.2, 100.0, 60)
        vals = [oq.mutual_information(coupled(spec, 1 / t)) for t in temps]
        decreasing = all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))
        i100 = oq.mutual_information(coupled(spec, 1 / 100.0))
        i80 = oq.mutual_information(coupled(spec, 1 / 80.0))
        plateaus[k0f] = i100
        ok = ok and decreasing and 0.10 <= i100 <= 0.20 and abs(i100 - i80) < 5e-3
    # expected large-T value 0.144; both parameter sets give the same
    # plateau because they share the final frequency ratio
    matches = {k: abs(v - 0.144) <= 0.015 for k, v in plateaus.items()}
    detail = ", ".join(f"k0f={k:g}: I(100)={v:.6f} ({'~0.144' if matches[k] else 'differs'})"
                       for k, v in plateaus.items())
    assert report(6, "mutual-information plateau", ok and all(matches.values()), detail)


def _upper_y(x):
    target = x / math.tanh(x)
    return _bisect(lambda y: y * math.tanh(y) - target, 1e-9, max(2.0 * x, 2.0))


def _lower_y(x):
    target = x * math.tanh(x)
    return _bisect(lambda y: y / math.tanh(y) - target, 1e-9, max(2.0 * x, 2.0))


def test_criterion_7a_boundary_mirror_symmetry():
    worst = 0.0
    for x in np.linspace(0.1, 5.0, 50):
        y_up = x * oq.boundary_g(x)
        worst = max(worst, abs(_lower_y(y_up) - x))
    ok = worst < 1e-8
    assert report("7a", "separability boundary mirror symmetry", ok,
                  f"max |mirror residual| {worst:.2e}")


def test_criterion_7b_dashed_line_within_2_percent():
    # On the exact boundary x coth x = y_e tanh y_e, so the dashed line's
    # relative deviation (y_e - x coth x) / y_e is exactly 1 - tanh y_e.  It
    # falls with x from 1 - 1/Y0 = 0.166 at x -> 0 and reaches 2% only at
    # x2 = 2.197, so the originally stated 2% cannot hold on [0.1, 5].  The
    # test checks the deviation against that identity and its crossing.
    y2 = math.atanh(0.98)  # y_e at 2% deviation, tanh y_e = 0.98
    x2 = _bisect(lambda x: x / math.tanh(x) - y2 * math.tanh(y2), 1e-9, 1.0)
    worst_ref = worst_dev = 0.0
    devs, below, within = [], True, True
    for x in np.linspace(0.1, 5.0, 50):
        exact = x * oq.boundary_g(x)
        y_ref = _upper_y(x)
        approx = x / math.tanh(x)
        dev = (exact - approx) / exact
        worst_ref = max(worst_ref, abs(exact - y_ref))
        worst_dev = max(worst_dev, abs(dev - (1 - math.tanh(y_ref))))
        below = below and approx < exact
        within = within and (dev <= 0.02) == (x >= x2)
        devs.append(dev)
    ok = (worst_ref < 1e-10 and worst_dev < 1e-10 and below and within
          and all(np.diff(devs) < 0) and devs[0] < 1 - 1 / Y0)
    assert report("7b", "dashed approximation deviates by exactly 1 - tanh y", ok,
                  f"max rel deviation {devs[0]:.4f} < 1 - 1/Y0 = {1 - 1 / Y0:.5f}, "
                  f"within 2% from x2 = {x2:.5f}, identity residual {worst_dev:.1e}")


def test_criterion_8_ermakov_and_special_functions():
    # real-time scale factor vs closed form
    sol = oq.solve_real(oq.FrequencySchedule.sudden(3.0, 5.0), 2.0, tol=1e-11)
    ts = np.linspace(0.0, 2.0, 2000)
    err_real = np.abs(sol.b_at(ts) - oq.sudden_scale_real(3.0, 5.0, ts)).max()

    # Euclidean scale factor vs closed form, relative over the growing range
    mode = oq.ModeQuench(3.0, 5.0)
    sol_e = oq.solve_euclidean(mode, 5.0, tol=1e-11)
    betas = np.geomspace(1e-8, 5.0, 2000)
    closed = oq.sudden_scale_euclidean(3.0, 5.0, betas)
    err_eucl = (np.abs(sol_e.b_at(betas) - closed) / np.maximum(1.0, closed)).max()

    # downward quench up to its domain boundary
    down = oq.ModeQuench(5.0, 3.0)
    bstar = oq.beta_star(down)
    sol_d = oq.solve_euclidean(down, bstar * 0.99, tol=1e-11)
    bd = np.linspace(1e-6, bstar * 0.99, 500)
    err_down = np.abs(sol_d.b_at(bd) - oq.sudden_scale_euclidean(5.0, 3.0, bd)).max()

    # generating-function identity at 20 random points
    rng = np.random.default_rng(5)
    err_mehler = 0.0
    for _ in range(20):
        t, x, y = rng.uniform(-0.35, 0.35), rng.uniform(-2, 2), rng.uniform(-2, 2)
        res = oq.mehler_check(t, x, y, terms=100)
        err_mehler = max(err_mehler, abs(res.lhs - res.rhs))

    # eigenfunction normalisation up to index 20
    sd = oq.eigendecompose_1d(oq.thermal_rho_single(oq.mode_thermo(mode, 0.5)))
    xq, wq = np.polynomial.legendre.leggauss(800)
    lim = (math.sqrt(41) + 7) / math.sqrt(min(sd.eps0, sd.alpha0))
    xq, wq = xq * lim, wq * lim
    err_norm = max(abs(np.sum(wq * oq.eigenfunction_eval(sd, n, xq) ** 2) - 1.0)
                   for n in range(21))

    ok = (err_real < 1e-8 and err_eucl < 1e-8 and err_down < 1e-8
          and err_mehler < 1e-10 and err_norm < 1e-8)
    assert report(8, "scale-factor solver and special functions", ok,
                  f"real {err_real:.1e}, eucl {err_eucl:.1e}, down {err_down:.1e}, "
                  f"mehler {err_mehler:.1e}, norm {err_norm:.1e}")


def test_criterion_9_determinism_and_performance():
    from dataclasses import replace

    from oscquench.cli import SweepConfig, run_sweep

    cfg = SweepConfig.from_dict({
        "quench": {"k0_i": 3.0, "k0_f": 6.0, "j_i": 3.0, "j_f": 6.0},
        "T_min": 0.1, "T_max": 10.0, "T_points": 1000, "scale": "log",
        "observables": ["purity", "renyi:2", "von_neumann", "mutual_info", "negativity", "tc"],
    })
    start = time.perf_counter()
    r1 = run_sweep(replace(cfg, threads=1))
    elapsed = time.perf_counter() - start
    texts = {r1.to_csv_text()}
    for n in (2, 8):
        texts.add(run_sweep(replace(cfg, threads=n)).to_csv_text())
    ok = len(texts) == 1 and elapsed < 10.0
    assert report(9, "determinism and throughput", ok,
                  f"1000-point sweep {elapsed:.2f}s, byte-identical across 1/2/8 threads: "
                  f"{len(texts) == 1}")
