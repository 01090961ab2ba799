"""Numeric and closed-form solutions of the auxiliary scale-factor ODE.

The wavefunction rescaling b(t) of an oscillator with time-dependent
frequency obeys the Ermakov equation

    b'' + omega^2(t) b = omega(0)^2 / b^3,      b(0) = 1,  b'(0) = 0,

in real time, and b'' - omega^2 b = -omega(0)^2 / b^3 after continuation to
Euclidean time.  For a sudden frequency jump both have elementary solutions,
used here as test oracles; general schedules (the sinusoidal ramp, tabulated
data) are integrated adaptively.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModeQuench, beta_star
from .errors import DomainError, NumericalFailureError

TOL_MIN, TOL_MAX = 1e-13, 1e-6


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
        if self.kind == "constant":
            return self.params[0]
        if self.kind in ("sudden", "sinusoidal"):
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

    def omega_max(self, t_max: float) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "sudden":
            return max(self.params)
        if self.kind == "sinusoidal":
            wi, wf, _ = self.params
            return wi + abs(wf - wi)
        mask = self.table_t <= t_max
        return float(max(self.table_w[mask].max() if mask.any() else 0.0, self.omega_initial))


@dataclass(frozen=True)
class ErmakovSolution:
    """Accepted integration steps plus cubic-Hermite dense output.

    ``grid`` columns are (t, b, db/dt); the phase integral gamma(t) of
    omega(0)/b^2 is accumulated as an auxiliary ODE state on the same grid.
    """

    domain_kind: str
    omega0: float
    t: np.ndarray
    b: np.ndarray
    db: np.ndarray
    d2b: np.ndarray
    gamma: np.ndarray
    tol: float
    max_step: float

    @property
    def grid(self) -> np.ndarray:
        return np.column_stack([self.t, self.b, self.db])

    def _hermite(self, tq, y, dy):
        tq = np.asarray(tq, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        if np.any(tq < self.t[0] - 1e-12) or np.any(tq > self.t[-1] + 1e-12):
            raise DomainError(f"query time outside solution range [{self.t[0]}, {self.t[-1]}]")
        idx = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        h = self.t[idx + 1] - self.t[idx]
        s = np.clip((tq - self.t[idx]) / h, 0.0, 1.0)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = h00 * y[idx] + h10 * h * dy[idx] + h01 * y[idx + 1] + h11 * h * dy[idx + 1]
        return float(out[0]) if scalar else out

    def b_at(self, tq):
        return self._hermite(tq, self.b, self.db)

    def db_at(self, tq):
        return self._hermite(tq, self.db, self.d2b)

    def gamma_at(self, tq):
        dgamma = self.omega0 / self.b**2
        return self._hermite(tq, self.gamma, dgamma)


def _integrate(rhs, t_end, tol, max_step, kind, omega0):
    if not t_end > 0:
        raise DomainError(f"integration endpoint must be positive, got {t_end}")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    # imported here, not at module level: scipy costs the CLI, which never
    # integrates, most of its start-up time and memory
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), [1.0, 0.0, 0.0], method="RK45",
                    rtol=tol, atol=tol * 1e-2, max_step=max_step)
    if not sol.success:
        raise NumericalFailureError(f"integration failed near t = {sol.t[-1]}: {sol.message}")
    t, (b, db, gamma) = sol.t, sol.y
    if np.any(b <= 0):
        bad = t[np.argmax(b <= 0)]
        raise NumericalFailureError(f"scale factor became non-positive near t = {bad}")
    d2b = np.array([rhs(ti, yi)[1] for ti, yi in zip(t, sol.y.T)])
    return ErmakovSolution(domain_kind=kind, omega0=omega0, t=t, b=b, db=db,
                           d2b=d2b, gamma=gamma, tol=tol, max_step=max_step)


def _interp_step(w_ref: float, t_max: float, tol: float) -> float:
    # cubic Hermite between accepted steps: local error ~ (2 w h)^4 / 384,
    # keep it at or below the requested integration tolerance
    h = (384.0 * max(tol, 1e-12)) ** 0.25 / (2.0 * max(w_ref, 1e-6))
    return float(min(max(h, t_max / 200_000), t_max / 16))


def solve_real(schedule: FrequencySchedule, t_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate the real-time Ermakov equation over [0, t_max]."""
    w0 = schedule.omega_initial
    w0sq = w0 * w0

    def rhs(t, y):
        w = schedule.omega_at(t)
        if w <= 0:
            raise DomainError(f"schedule frequency is non-positive at t = {t}: omega = {w}")
        b, db, _ = y
        return [db, w0sq / b**3 - w * w * b, w0 / b**2]

    max_step = _interp_step(schedule.omega_max(t_max), t_max, tol)
    return _integrate(rhs, t_max, tol, max_step, "real", w0)


def solve_euclidean(mode: ModeQuench, beta_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate the Euclidean Ermakov equation for a sudden quench.

    For a downward quench the scale factor vanishes at a finite beta*; a
    ``DomainError`` carrying ``beta_star`` is raised if beta_max reaches it.
    """
    bs = beta_star(mode)
    if beta_max >= bs * (1 - 1e-6):
        raise DomainError(
            f"b^2 vanishes at beta* = {bs} for quench ({mode.omega_i} -> {mode.omega_f}); "
            f"beta_max = {beta_max} is out of domain", beta_star=bs)
    wi, wf = mode.omega_i, mode.omega_f
    wi2 = wi * wi

    def rhs(t, y):
        b, db, _ = y
        return [db, wf * wf * b - wi2 / b**3, wi / b**2]

    max_step = _interp_step(max(wi, wf), beta_max, tol)
    return _integrate(rhs, beta_max, tol, max_step, "euclidean", wi)


def gamma_phase(sol: ErmakovSolution, omega_i: float | None = None):
    """Accumulated phase integral of omega(0)/b^2 on the solution grid.

    Returns ``(t, gamma)`` arrays; ``sol.gamma_at`` interpolates between
    the samples.  ``omega_i``, when given, must match the solved omega(0).
    """
    if omega_i is not None and not math.isclose(omega_i, sol.omega0, rel_tol=1e-12):
        raise DomainError(f"omega_i = {omega_i} does not match solution omega(0) = {sol.omega0}")
    return sol.t.copy(), sol.gamma.copy()


def sudden_scale_real(omega_i: float, omega_f: float, t):
    """Closed-form b(t) after a sudden real-time quench (complex t allowed)."""
    wi2, wf2 = omega_i**2, omega_f**2
    return np.sqrt(((wf2 - wi2) * np.cos(2 * omega_f * np.asarray(t)) + (wf2 + wi2)) / (2 * wf2))


def sudden_phase_real(omega_i: float, omega_f: float, t):
    """Closed-form phase Gamma(t) for a sudden quench, lifted to the continuous branch.

    The arctangent form is multivalued; on the real axis the branch is fixed
    by continuity (Gamma non-decreasing), for complex t the principal
    logarithm form is used.
    """
    t_arr = np.asarray(t)
    if np.iscomplexobj(t_arr):
        tn = np.tan(omega_f * t_arr)
        return np.log((omega_f + 1j * omega_i * tn) / (omega_f - 1j * omega_i * tn)) / 2j
    theta = omega_f * t_arr
    return np.arctan(omega_i / omega_f * np.tan(theta)) + np.pi * np.round(theta / np.pi)
