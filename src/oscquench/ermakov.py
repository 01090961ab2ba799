"""Numeric and closed-form solutions of the auxiliary scale-factor ODE.

The wavefunction rescaling b(t) of an oscillator with time-dependent
frequency obeys the Ermakov equation

    b'' + omega^2(t) b = omega(0)^2 / b^3,      b(0) = 1,  b'(0) = 0,

in real time, and b'' - omega^2 b = -omega(0)^2 / b^3 after continuation to
Euclidean time.  For a sudden frequency jump both have elementary solutions,
used here as test oracles; general schedules (the sinusoidal ramp, tabulated
data) are integrated adaptively with DOP853, the 8th-order Dormand-Prince
pair, whose own 7th-order continuous extension answers queries between the
accepted steps (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BETA_STAR_MARGIN, ModeQuench, beta_star
from .errors import DomainError, NumericalFailureError

TOL_MIN, TOL_MAX = 1e-13, 1e-6
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises any smaller rtol to this, with a warning


@dataclass(frozen=True)
class FrequencySchedule:
    """Frequency-versus-time protocol omega(t) >= 0 for t >= 0.

    ``omega_initial`` is omega(0) entering the Ermakov right-hand side; for a
    sudden schedule the solver-facing ``omega_at`` is right-continuous (the
    final frequency already applies at t = 0+).
    """

    kind: str
    params: tuple = ()
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_w: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, omega: float) -> "FrequencySchedule":
        if omega <= 0:
            raise DomainError(f"omega must be positive, got {omega}")
        return cls("constant", (float(omega),))

    @classmethod
    def sudden(cls, omega_i: float, omega_f: float) -> "FrequencySchedule":
        if omega_i <= 0 or omega_f <= 0:
            raise DomainError(f"frequencies must be positive, got ({omega_i}, {omega_f})")
        return cls("sudden", (float(omega_i), float(omega_f)))

    @classmethod
    def sinusoidal(cls, omega_i: float, omega_f: float, rate: float) -> "FrequencySchedule":
        """omega(t) = omega_i + (omega_f - omega_i) sin(rate * t)."""
        if omega_i <= 0:
            raise DomainError(f"omega_i must be positive, got {omega_i}")
        return cls("sinusoidal", (float(omega_i), float(omega_f), float(rate)))

    @classmethod
    def tabulated(cls, t, omega) -> "FrequencySchedule":
        t = np.asarray(t, dtype=float)
        w = np.asarray(omega, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.size < 2:
            raise DomainError("tabulated schedule needs two equal-length 1-d arrays with >= 2 samples")
        if not np.all(np.diff(t) > 0):
            raise DomainError("tabulated schedule times must be strictly increasing")
        if not np.all(w > 0):
            raise DomainError("tabulated schedule frequencies must all be positive")
        t.setflags(write=False)
        w.setflags(write=False)
        return cls("tabulated", (), table_t=t, table_w=w)

    @classmethod
    def from_csv(cls, path) -> "FrequencySchedule":
        """Read a two-column (t, omega) CSV; a single header row is allowed."""
        ts, ws = [], []
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row or not "".join(row).strip():
                    continue
                try:
                    tv, wv = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if i == 0:
                        continue
                    raise DomainError(f"{path}: row {i + 1} is not two numeric columns: {row!r}")
                ts.append(tv)
                ws.append(wv)
        if len(ts) < 2:
            raise DomainError(f"{path}: need at least two (t, omega) samples")
        return cls.tabulated(np.array(ts), np.array(ws))

    @property
    def omega_initial(self) -> float:
        if self.kind != "tabulated":
            return self.params[0]
        return float(np.interp(0.0, self.table_t, self.table_w))

    def omega_at(self, t):
        """Schedule value used by the integrator (right-continuous at jumps)."""
        if self.kind == "constant":
            return self.params[0] if np.isscalar(t) else np.full(np.shape(t), self.params[0])
        if self.kind == "sudden":
            return self.params[1] if np.isscalar(t) else np.full(np.shape(t), self.params[1])
        if self.kind == "sinusoidal":
            wi, wf, rate = self.params
            return wi + (wf - wi) * np.sin(rate * np.asarray(t))
        return np.interp(t, self.table_t, self.table_w)

    def _check_nonnegative(self, t_max: float) -> None:
        """Raise ``DomainError`` if omega(t) < 0 anywhere on [0, t_max].

        Exact, not sampled: tabulated, sudden and constant schedules are
        positive by construction, and a sinusoidal one takes its minimum at
        an endpoint or at the first interior point where sin(rate * t) sends
        omega to omega_i - |omega_f - omega_i|.  A schedule that only touches
        zero is accepted.
        """
        if self.kind != "sinusoidal":
            return
        wi, wf, rate = self.params
        amp = wf - wi
        cands = [(0.0, wi), (t_max, float(self.omega_at(t_max)))]
        if amp and rate:
            # first theta = |rate| t > 0 with sin(rate t) = -sign(amp)
            theta = 0.5 * math.pi if amp * rate < 0 else 1.5 * math.pi
            t_low = theta / abs(rate)
            if t_low < t_max:
                cands.append((t_low, wi - abs(amp)))
        t_bad, w_bad = min(cands, key=lambda c: c[1])
        if w_bad < 0:
            raise DomainError(f"schedule frequency is non-positive at t = {t_bad}: omega = {w_bad}")


@dataclass(frozen=True)
class ErmakovSolution:
    """Accepted integration steps plus the integrator's own dense output.

    ``t, b, db, gamma`` are the accepted DOP853 steps; the phase integral
    gamma(t) of omega(0)/b^2 is a third ODE state.  ``b_at``, ``db_at`` and
    ``gamma_at`` evaluate DOP853's 7th-order continuous extension, ``dense``
    (a scipy ``OdeSolution``), anywhere in [t[0], t[-1]].
    """

    omega0: float
    t: np.ndarray
    b: np.ndarray
    db: np.ndarray
    gamma: np.ndarray
    dense: object = field(repr=False, compare=False)

    def _eval(self, tq, row: int):
        tq = np.asarray(tq, dtype=float)
        if np.any(tq < self.t[0] - 1e-12) or np.any(tq > self.t[-1] + 1e-12):
            raise DomainError(f"query time outside solution range [{self.t[0]}, {self.t[-1]}]")
        # OdeSolution takes only a scalar or a non-empty 1-d array
        flat = np.clip(tq, self.t[0], self.t[-1]).ravel()
        out = self.dense(flat)[row] if flat.size else flat
        return float(out[0]) if tq.ndim == 0 else out.reshape(tq.shape)

    def b_at(self, tq):
        return self._eval(tq, 0)

    def db_at(self, tq):
        return self._eval(tq, 1)

    def gamma_at(self, tq):
        return self._eval(tq, 2)


def _check_domain(t_end: float, tol: float) -> None:
    if not t_end > 0:
        raise DomainError(f"integration endpoint must be positive, got {t_end}")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


def _integrate(rhs, t_end, tol, omega0):
    """DOP853 over [0, t_end] from (b, b', gamma) = (1, 0, 0).

    rtol = atol = tol / 100, with rtol floored at scipy's 100 eps, and no
    step cap: over a few periods the global error in b and gamma then stays
    below tol.  Against the closed forms over three periods of the sudden quench
    1.3 -> 2.7 (2001 dense points) the default tol = 1e-10 gives errors of
    1.7e-11 in b, 2.2e-10 in b' and 5.2e-11 in gamma in 266 steps;
    tol = TOL_MIN gives 2.5e-12 in b, near the rounding floor.
    """
    # imported here, not at module level: scipy costs the CLI, which never
    # integrates, most of its start-up time and memory
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), [1.0, 0.0, 0.0], method="DOP853",
                    rtol=max(tol / 100, _RTOL_FLOOR), atol=tol / 100, dense_output=True)
    if not sol.success:
        raise NumericalFailureError(f"integration failed near t = {sol.t[-1]}: {sol.message}")
    t, (b, db, gamma) = sol.t, sol.y
    if np.any(b <= 0):
        bad = t[np.argmax(b <= 0)]
        raise NumericalFailureError(f"scale factor became non-positive near t = {bad}")
    return ErmakovSolution(omega0=omega0, t=t, b=b, db=db, gamma=gamma, dense=sol.sol)


def solve_real(schedule: FrequencySchedule, t_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate the real-time Ermakov equation over [0, t_max]."""
    _check_domain(t_max, tol)
    schedule._check_nonnegative(t_max)
    w0 = schedule.omega_initial
    w0sq = w0 * w0

    def rhs(t, y):
        w = schedule.omega_at(t)
        b, db, _ = y
        return [db, w0sq / b**3 - w * w * b, w0 / b**2]

    return _integrate(rhs, t_max, tol, w0)


def solve_euclidean(mode: ModeQuench, beta_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate the Euclidean Ermakov equation for a sudden quench.

    For a downward quench the scale factor vanishes at a finite beta*; a
    ``DomainError`` carrying ``beta_star`` is raised if beta_max reaches it.
    """
    _check_domain(beta_max, tol)
    bs = beta_star(mode)
    if beta_max >= bs * (1 - BETA_STAR_MARGIN):
        raise DomainError(
            f"b^2 vanishes at beta* = {bs} for quench ({mode.omega_i} -> {mode.omega_f}); "
            f"beta_max = {beta_max} is out of domain", beta_star=bs)
    wi, wf = mode.omega_i, mode.omega_f
    wi2 = wi * wi

    def rhs(t, y):
        b, db, _ = y
        return [db, wf * wf * b - wi2 / b**3, wi / b**2]

    return _integrate(rhs, beta_max, tol, wi)


def sudden_scale_real(omega_i: float, omega_f: float, t):
    """Closed-form b(t) after a sudden real-time quench (complex t allowed)."""
    wi2, wf2 = omega_i**2, omega_f**2
    return np.sqrt(((wf2 - wi2) * np.cos(2 * omega_f * np.asarray(t)) + (wf2 + wi2)) / (2 * wf2))


def sudden_phase_real(omega_i: float, omega_f: float, t):
    """Closed-form phase Gamma(t) for a sudden quench, lifted to the continuous branch.

    The arctangent form arctan((omega_i/omega_f) tan(omega_f t)) is
    multivalued; on the real axis the continuous branch is
    theta + arctan((r - 1) sin theta cos theta / (cos^2 theta + r sin^2 theta))
    with theta = omega_f t and r = omega_i / omega_f, whose denominator never
    vanishes, so no caustic of tan needs a branch choice.  For complex t the
    principal logarithm form is used.
    """
    t_arr = np.asarray(t)
    if np.iscomplexobj(t_arr):
        tn = np.tan(omega_f * t_arr)
        return np.log((omega_f + 1j * omega_i * tn) / (omega_f - 1j * omega_i * tn)) / 2j
    theta = omega_f * t_arr
    r = omega_i / omega_f
    s, c = np.sin(theta), np.cos(theta)
    return theta + np.arctan((r - 1) * s * c / (c * c + r * s * s))
