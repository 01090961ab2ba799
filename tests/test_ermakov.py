import math
import warnings

import numpy as np
import pytest

from oscquench import (DomainError, FrequencySchedule, ModeQuench, solve_euclidean, solve_real,
                       sudden_phase_euclidean, sudden_phase_real, sudden_scale_euclidean,
                       sudden_scale_real)
from oscquench.ermakov import TOL_MIN, _check_domain


def rk4_fixed(schedule, t_max, n_steps):
    """Independent fixed-step classical RK4 oracle for the real-time equation.

    It integrates the nonlinear Ermakov form b'' = omega0^2 / b^3 - omega^2 b,
    not the linear equation the solver integrates, so it shares no code path with it.

    Node k sits at k * h exactly, so the last node is t_max and a tabulated
    schedule whose knots are multiples of h has no kink inside a step.
    """
    w0sq = schedule.omega_initial**2

    def f(t, b, v):
        w = schedule.omega_at(t)
        return v, w0sq / b**3 - w * w * b

    h = t_max / n_steps
    b, v = 1.0, 0.0
    bs = [b]
    for k in range(n_steps):
        t = k * h
        k1b, k1v = f(t, b, v)
        k2b, k2v = f(t + h / 2, b + h / 2 * k1b, v + h / 2 * k1v)
        k3b, k3v = f(t + h / 2, b + h / 2 * k2b, v + h / 2 * k2v)
        k4b, k4v = f(t + h, b + h * k3b, v + h * k3v)
        b += h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        bs.append(b)
    return np.arange(n_steps + 1) * h, np.array(bs)


# a fixed count, so the reference does not coarsen as the solver takes fewer
# steps; its own error at 40000 steps is below 1e-9 on every schedule below
RK4_STEPS = 40_000


class TestSolveReal:
    def test_constant_frequency_is_one(self):
        sol = solve_real(FrequencySchedule.constant(2.0), 10.0, tol=1e-10)
        assert np.abs(sol.b - 1.0).max() < 10 * 1e-10
        ts = np.linspace(0, 10, 500)
        assert np.abs(sol.b_at(ts) - 1.0).max() < 1e-9

    def test_sudden_matches_closed_form(self):
        sol = solve_real(FrequencySchedule.sudden(3.0, 5.0), 2.0, tol=1e-11)
        ts = np.linspace(0, 2, 1500)
        err = np.abs(sol.b_at(ts) - sudden_scale_real(3.0, 5.0, ts)).max()
        assert err < 1e-8

    def test_initial_conditions_exact(self):
        sol = solve_real(FrequencySchedule.sudden(3.0, 5.0), 1.0)
        assert sol.b[0] == 1.0 and sol.db[0] == 0.0 and sol.gamma[0] == 0.0

    def test_sinusoidal_against_fixed_step_oracle(self):
        sched = FrequencySchedule.sinusoidal(1.0, 2.0, 0.5)
        sol = solve_real(sched, 20.0, tol=1e-11)
        assert np.all(sol.b > 0)
        # Ermakov energy-like combination stays finite
        w = sched.omega_at(sol.t)
        inv = sched.omega_initial**2 / sol.b**2 + sol.db**2 + w**2 * sol.b**2
        assert np.all(np.isfinite(inv))
        ts, bs = rk4_fixed(sched, 20.0, RK4_STEPS)
        assert np.abs(sol.b_at(ts) - bs).max() < 1e-8

    @pytest.mark.parametrize("sched, t_max", [
        # knots at multiples of 2, a multiple of the reference's step
        (FrequencySchedule.tabulated(np.linspace(0.0, 20.0, 11),
                                     [1.0, 2.5, 1.5, 3.0, 0.8, 2.0, 1.2, 2.2, 1.7, 2.9, 1.1]), 20.0),
        (FrequencySchedule.sudden(1.3, 2.7), 20.0 / 2.7),
    ], ids=["tabulated", "sudden"])
    def test_general_schedules_against_fixed_step_oracle(self, sched, t_max):
        sol = solve_real(sched, t_max, tol=1e-11)
        ts, bs = rk4_fixed(sched, t_max, RK4_STEPS)
        assert np.abs(sol.b_at(ts) - bs).max() < 1e-8

    def test_schedule_crossing_zero_rejected(self):
        sched = FrequencySchedule.sinusoidal(0.5, 2.0, 1.0)  # dips to -1
        with pytest.raises(DomainError):
            solve_real(sched, 10.0)

    @pytest.mark.parametrize("omega_f", [2.00000001, 2.0000001])
    def test_shallow_dip_below_zero_rejected(self, omega_f):
        # omega reaches 1 - (omega_f - 1) < 0 only near t = 3 pi / 0.5
        with pytest.raises(DomainError, match="non-positive at t = 9.42"):
            solve_real(FrequencySchedule.sinusoidal(1.0, omega_f, 0.5), 12.0)

    def test_dip_beyond_t_max_accepted(self):
        sched = FrequencySchedule.sinusoidal(1.0, 2.0000001, 0.5)
        assert solve_real(sched, 9.0).b.min() > 0
        # 1 - 1.5 sin t first turns negative at t = 0.73, before its minimum at pi / 2
        with pytest.raises(DomainError, match="non-positive at t = 1.0: omega = -0.26"):
            solve_real(FrequencySchedule.sinusoidal(1.0, -0.5, 1.0), 1.0)

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            solve_real(FrequencySchedule.constant(1.0), 1.0, tol=1e-3)
        with pytest.raises(DomainError):
            solve_real(FrequencySchedule.constant(1.0), -1.0)


class TestDenseOutput:
    """The 1.3 -> 2.7 sudden quench over about three periods of omega_f."""

    WI, WF, T = 1.3, 2.7, 20.0 / 2.7

    def closed_forms(self, ts):
        b = sudden_scale_real(self.WI, self.WF, ts)
        db = -(self.WF**2 - self.WI**2) * self.WF * np.sin(2 * self.WF * ts) / (2 * self.WF**2 * b)
        return b, db, sudden_phase_real(self.WI, self.WF, ts)

    def test_default_tol_errors_and_step_count(self):
        sol = solve_real(FrequencySchedule.sudden(self.WI, self.WF), self.T)
        # 104 steps; the nonlinear Ermakov form takes 266, so a return to it fails here
        assert len(sol.t) < 120
        ts = np.linspace(0.0, self.T, 2001)
        b, db, gamma = self.closed_forms(ts)
        assert np.abs(sol.b_at(ts) - b).max() < 1e-11
        assert np.abs(sol.db_at(ts) - db).max() < 4e-11
        assert np.abs(sol.gamma_at(ts) - gamma).max() < 2e-11

    def test_db_at_against_closed_form(self):
        sol = solve_real(FrequencySchedule.sudden(self.WI, self.WF), self.T, tol=1e-11)
        ts = np.linspace(0.0, self.T, 2001)
        _, db, _ = self.closed_forms(ts)
        assert np.abs(sol.db_at(ts) - db).max() < 1e-8
        assert sol.db_at(0.0) == 0.0 and isinstance(sol.db_at(1.0), float)

    def test_accepted_steps_match_dense_output(self):
        sol = solve_real(FrequencySchedule.sudden(self.WI, self.WF), self.T)
        sol_e = solve_euclidean(ModeQuench(5.0, 3.0), 0.98 * math.acosh(34 / 16) / 6)
        for s in (sol, sol_e):
            for at, steps in ((s.b_at, s.b), (s.db_at, s.db), (s.gamma_at, s.gamma)):
                np.testing.assert_allclose(at(s.t), steps, rtol=0, atol=1e-14)
        grid = np.linspace(0.0, self.T, 6).reshape(2, 3)
        assert np.array_equal(sol.db_at(grid), sol.db_at(grid.ravel()).reshape(2, 3))
        assert sol.b_at(np.empty(0)).shape == (0,)
        with pytest.raises(DomainError):
            sol.b_at(self.T + 1e-6)
        with pytest.raises(DomainError):
            sol.gamma_at([-1e-6, 1.0])

    def test_tol_min_reaches_rounding_floor_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_real(FrequencySchedule.sudden(self.WI, self.WF), self.T, tol=TOL_MIN)
            sol_e = solve_euclidean(ModeQuench(self.WI, self.WF), 2.0, tol=TOL_MIN)
        ts = np.linspace(0.0, self.T, 2001)
        b, _, _ = self.closed_forms(ts)
        assert np.abs(sol.b_at(ts) - b).max() < 2e-13
        assert sol_e.b_at(1.0) == pytest.approx(sudden_scale_euclidean(self.WI, self.WF, 1.0), rel=1e-12)


@pytest.mark.parametrize("wi, wf, t_max", [(2.255013606652227, 0.7251563274048723, 0.15543414727263064),
                                            (1.02113752910553, 0.5778630890800708, 0.4888084943649635)])
def test_query_in_a_last_step_whose_length_rounds_off_t_max(wi, wf, t_max):
    # the run clamped its last step to t_max, and t[k] + (t_max - t[k]) rounds off t_max:
    # taking that step again from t[k] with that length would end elsewhere
    sol = solve_real(FrequencySchedule.sudden(wi, wf), t_max)
    t = sol.t
    k = len(t) - 2
    assert t[k] + (t[k + 1] - t[k]) != t[k + 1]
    ts = np.linspace(t[k], t[k + 1], 5)
    assert np.abs(np.array([sol.b_at(x) for x in ts]) - sudden_scale_real(wi, wf, ts)).max() < 1e-12
    assert np.abs(sol.gamma_at(ts) - sudden_phase_real(wi, wf, ts)).max() < 1e-12


class TestSolveEuclidean:
    def test_sudden_matches_closed_form(self):
        mode = ModeQuench(3.0, 5.0)
        sol = solve_euclidean(mode, 2.0, tol=1e-11)
        assert sol.b_at(0.5) == pytest.approx(4.94238642034, abs=1e-8)
        betas = np.linspace(1e-6, 2.0, 800)
        closed = sudden_scale_euclidean(3.0, 5.0, betas)
        rel = np.abs((sol.b_at(betas) - closed) / np.maximum(1.0, closed))
        assert rel.max() < 1e-8

    def test_constant_is_one(self):
        sol = solve_euclidean(ModeQuench(2.0, 2.0), 3.0)
        assert np.abs(sol.b - 1.0).max() < 1e-8

    def test_downward_quench_domain_error(self):
        mode = ModeQuench(5.0, 3.0)
        bs = math.acosh((25 + 9) / (25 - 9)) / 6
        with pytest.raises(DomainError) as exc:
            solve_euclidean(mode, bs + 0.1)
        assert exc.value.beta_star == pytest.approx(bs, rel=1e-12)
        # but integrating inside the domain matches the closed form
        sol = solve_euclidean(mode, bs * 0.98, tol=1e-11)
        betas = np.linspace(0.01, bs * 0.98, 300)
        closed = sudden_scale_euclidean(5.0, 3.0, betas)
        assert np.abs(sol.b_at(betas) - closed).max() < 1e-8

    # (omega_i, omega_f, beta_max / beta*, bounds on the relative error in b and
    # on the error in Gamma_E).  The bounds are the errors of the nonlinear
    # Ermakov form, except for 5 -> 2 at 0.98 beta*: there the dense output
    # over 5 steps reads 4.7e-12 and 3.0e-12, against 2.9e-12 and 2.5e-12 of
    # the nonlinear form on 43 steps.
    @pytest.mark.parametrize("wi, wf, frac, b_bound, g_bound", [
        (5.0, 3.0, 0.98, 3.4e-12, 3.0e-12),
        (5.0, 3.0, 1 - 2e-6, 3.4e-8, 3.4e-8),
        (5.0, 2.0, 0.98, 5e-12, 3.5e-12),
        (5.0, 2.0, 1 - 2e-6, 2.8e-8, 2.8e-8),
    ])
    def test_near_beta_star_against_mpmath(self, wi, wf, frac, b_bound, g_bound):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        bs = math.acosh((wi**2 + wf**2) / (wi**2 - wf**2)) / (2 * wf)
        sol = solve_euclidean(ModeQuench(wi, wf), bs * frac)
        assert len(sol.t) < 10  # the nonlinear form takes 43 and 136 steps
        betas = np.linspace(0.0, bs * frac, 401)[1:]
        b_ref, g_ref = [], []
        for beta in betas:
            x = mp.mpf(wf) * mp.mpf(beta)
            r = mp.mpf(wi) / wf
            b_ref.append(float(mp.sqrt(mp.cosh(x)**2 - r**2 * mp.sinh(x)**2)))
            g_ref.append(float(mp.atanh(r * mp.tanh(x))))
        assert np.abs(sol.b_at(betas) / np.array(b_ref) - 1).max() < b_bound
        assert np.abs(sol.gamma_at(betas) - np.array(g_ref)).max() < g_bound


class TestGammaPhase:
    def test_constant(self):
        sol = solve_real(FrequencySchedule.constant(2.0), 5.0, tol=1e-11)
        ts = np.linspace(0, 5, 200)
        assert np.abs(sol.gamma_at(ts) - 2.0 * ts).max() < 1e-8

    def test_sudden_arctangent_within_first_branch(self):
        sol = solve_real(FrequencySchedule.sudden(3.0, 5.0), 0.3, tol=1e-11)
        expected = math.atan(3 / 5 * math.tan(5 * 0.3))
        assert sol.gamma_at(0.3) == pytest.approx(expected, abs=1e-9)

    def test_branch_continuity(self):
        # several caustics of tan within [0, 4]; lifted closed form stays continuous
        sol = solve_real(FrequencySchedule.sudden(3.0, 5.0), 4.0, tol=1e-11)
        ts = np.linspace(0, 4, 2000)
        g = sol.gamma_at(ts)
        assert np.all(np.diff(g) > -1e-12)
        closed = sudden_phase_real(3.0, 5.0, ts)
        assert np.abs(g - closed).max() < 1e-8

    def test_several_periods(self):
        # eight periods of omega_f = 2.7, crossing sixteen branches of the arctangent
        t_max = 8 * 2 * math.pi / 2.7
        sol = solve_real(FrequencySchedule.sudden(1.3, 2.7), t_max, tol=1e-11)
        ts = np.linspace(0, t_max, 4001)  # holds every caustic omega_f t = (k + 1/2) pi
        assert np.abs(sol.gamma_at(ts) - sudden_phase_real(1.3, 2.7, ts)).max() < 1e-9
        assert sudden_phase_real(1.3, 2.7, 1.5 * math.pi / 2.7) == pytest.approx(1.5 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("wi, wf", [(0.5, 3.0), (3.0, 0.5)])
    def test_lift_at_extreme_ratios_in_any_query_order(self, wi, wf):
        # eight periods of omega_f; b swings by the factor omega_f / omega_i = 6 or 1/6
        t_max = 8 * 2 * math.pi / wf
        sol = solve_real(FrequencySchedule.sudden(wi, wf), t_max)
        ts = np.linspace(0.0, t_max, 4001)
        queries = np.concatenate([ts, ts[::7], [t_max, 0.0, t_max]])
        np.random.default_rng(3).shuffle(queries)
        gamma = sol.gamma_at(queries)
        assert np.abs(gamma - sudden_phase_real(wi, wf, queries)).max() < 1e-10
        # the lift reads only the accepted step that holds each query
        assert np.array_equal(gamma, sol.gamma_at(np.sort(queries))[np.argsort(np.argsort(queries))])
        assert all(sol.gamma_at(q) == g for q, g in zip(queries[:40], gamma[:40]))
        assert np.all(np.diff(sol.gamma) > 0) and sol.gamma[-1] == pytest.approx(16 * math.pi, rel=1e-11)

    def test_euclidean_gamma(self):
        sol = solve_euclidean(ModeQuench(3.0, 5.0), 1.0, tol=1e-11)
        assert sol.gamma_at(0.5) == pytest.approx(0.680691222685, abs=1e-8)


class TestClosedForms:
    """The sudden-quench closed forms against mpmath."""

    def test_real_scale_keeps_its_accuracy_at_a_tiny_frequency_ratio(self):
        # b dips to r = omega_i / omega_f = 5e-7 twice a period; the form
        # ((wf^2 - wi^2) cos 2 theta + wf^2 + wi^2) / (2 wf^2) cancelled there
        mp = pytest.importorskip("mpmath")
        wi, wf = 1e-6, 2.0  # theta = 2 t is exact in floating point
        ts = np.concatenate([np.linspace(0.0, 8 * math.pi, 4001), (np.arange(16) + 0.5) * math.pi / 2])
        with mp.workdps(40):
            r = mp.mpf(wi) / wf
            ref = [mp.sqrt(mp.cos(2 * mp.mpf(t)) ** 2 + r**2 * mp.sin(2 * mp.mpf(t)) ** 2) for t in ts]
            rel = max(abs(float(b / rb - 1)) for b, rb in zip(sudden_scale_real(wi, wf, ts), ref))
        assert rel < 1e-14

    @pytest.mark.parametrize("wi, wf", [(3.0, 5.0), (1.0, math.sqrt(20.0)), (5.0, 2.0), (5.0, 3.0),
                                        (2.0, 2.0)])
    def test_euclidean_forms_against_mpmath(self, wi, wf):
        mp = pytest.importorskip("mpmath")
        bs = math.inf if wf >= wi else math.acosh((wi**2 + wf**2) / (wi**2 - wf**2)) / (2 * wf)
        betas = [b for b in (1e-8, 1e-6, 1e-3, 1.0) if b < bs]
        near = [bs * (1 - 1e-6)] if bs < math.inf else []
        for beta in betas + near:
            with mp.workdps(60):
                x = mp.mpf(wf) * mp.mpf(beta)
                r = mp.mpf(wi) / mp.mpf(wf)
                b_ref = mp.sqrt(mp.cosh(x) ** 2 - r**2 * mp.sinh(x) ** 2)
                g_ref = x if wi == wf else mp.atanh(r * mp.tanh(x))
                b_err = abs(float(sudden_scale_euclidean(wi, wf, beta) / b_ref - 1))
                g_err = abs(float(sudden_phase_euclidean(wi, wf, beta) / g_ref - 1))
            # at beta* (1 - 1e-6) b^2 ~ 1e-6, so the rounding of x = omega_f beta
            # alone moves b and Gamma_E by ~1e-10 relative
            bound = 1e-9 if beta in near else 2e-15
            assert max(b_err, g_err) < bound, (beta, b_err, g_err)
        b = sudden_scale_euclidean(wi, wf, np.array(betas))
        # the continuation t = -i beta of the real-time form
        np.testing.assert_allclose(sudden_scale_real(wi, wf, -1j * np.array(betas)).real, b, rtol=1e-13)


class TestSchedules:
    def test_tabulated_csv(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,omega\n0.0,1.0\n1.0,2.0\n2.0,1.5\n")
        sched = FrequencySchedule.from_csv(path)
        assert sched.omega_initial == 1.0
        assert sched.omega_at(0.5) == pytest.approx(1.5)
        assert sched.omega_at(5.0) == pytest.approx(1.5)  # clamped beyond the table

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n")
        assert FrequencySchedule.from_csv(path).omega_at(1.0) == pytest.approx(2.0)

    def test_csv_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,omega\n1.0,1.0\n0.5,2.0\n")
        with pytest.raises(DomainError):
            FrequencySchedule.from_csv(bad)
        bad.write_text("t,omega\n0.0,1.0\n1.0,-2.0\n")
        with pytest.raises(DomainError):
            FrequencySchedule.from_csv(bad)
        bad.write_text("t,omega\n0.0,1.0\n1.0,inf\n")
        with pytest.raises(DomainError, match="omega values must all be finite"):
            FrequencySchedule.from_csv(bad)
        bad.write_text("t,omega\n0.0,1.0\n")
        with pytest.raises(DomainError):
            FrequencySchedule.from_csv(bad)

    def test_sudden_is_right_continuous(self):
        sched = FrequencySchedule.sudden(3.0, 5.0)
        assert sched.omega_at(0.0) == 5.0
        assert sched.omega_initial == 3.0

    @pytest.mark.parametrize("make, field", [
        (lambda: FrequencySchedule.constant(math.nan), "omega"),
        (lambda: FrequencySchedule.sudden(math.nan, 2.0), "omega_i"),
        (lambda: FrequencySchedule.sudden(1.0, math.inf), "omega_f"),
        (lambda: FrequencySchedule.sinusoidal(1.0, 2.0, math.nan), "rate"),
        (lambda: FrequencySchedule.sinusoidal(1.0, -math.inf, 1.0), "omega_f"),
        (lambda: FrequencySchedule.tabulated([0.0, 1.0, 2.0], [1.0, math.inf, 2.0]), "omega"),
        (lambda: FrequencySchedule.tabulated([0.0, 1.0, math.inf], [1.0, 1.5, 2.0]), "t values"),
        (lambda: _check_domain(math.inf, 1e-10, "t_max"), "t_max"),
        (lambda: _check_domain(math.nan, 1e-10, "t_max"), "t_max"),
        (lambda: solve_euclidean(ModeQuench(1.0, 2.0), math.inf), "beta_max must be finite"),
        (lambda: FrequencySchedule("sudden", (1.0, math.nan)), "omega_f"),
    ], ids=["constant_nan", "sudden_nan", "sudden_inf", "sinusoidal_rate_nan", "sinusoidal_inf",
            "table_omega_inf", "table_t_inf", "t_max_inf", "t_max_nan", "beta_max_inf", "direct_nan"])
    def test_non_finite_input_refused(self, make, field):
        # refused up front: a non-finite frequency or endpoint stalls the integrator
        with pytest.raises(DomainError, match=field):
            make()

    def test_positive_parameters_required(self):
        with pytest.raises(DomainError):
            FrequencySchedule.constant(-1.0)
        with pytest.raises(DomainError):
            FrequencySchedule.sudden(1.0, 0.0)
        with pytest.raises(DomainError):
            FrequencySchedule("sudden", (1.0, -2.0))
        with pytest.raises(DomainError):
            FrequencySchedule("ramp", (1.0, 2.0))

    def test_table_is_a_read_only_copy(self):
        t, w = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.5])
        sched = FrequencySchedule.tabulated(t, w)
        w[1] = -5.0  # the caller's arrays stay the caller's, and writeable
        assert sched.omega_at(1.0) == 2.0
        with pytest.raises(ValueError):
            sched.table_w[1] = -5.0
