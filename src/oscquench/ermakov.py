"""Numeric and closed-form solutions of the auxiliary scale-factor ODE.

The wavefunction rescaling b(t) of an oscillator with time-dependent
frequency obeys the Ermakov equation

    b'' + omega^2(t) b = omega(0)^2 / b^3,      b(0) = 1,  b'(0) = 0,

in real time, and b'' - omega^2 b = -omega(0)^2 / b^3 after continuation to
Euclidean time; the phase obeys Gamma' = omega(0) / b^2.  For a sudden
frequency jump both have elementary solutions (``sudden_scale_real``,
``sudden_phase_real``, ``sudden_scale_euclidean``, ``sudden_phase_euclidean``),
used here as test oracles.

The solvers do not integrate the nonlinear equation, whose omega(0)^2 / b^3
term makes the step control reject steps; they integrate linear ones and
read b and Gamma off them (Pinney, Proc. AMS 1, 681 (1950); Lewis &
Riesenfeld, J. Math. Phys. 10, 1458 (1969)).  In real time z'' + omega^2 z = 0
with z(0) = 1, z'(0) = i omega(0) gives b = |z| and Gamma = arg z, because
the Wronskian Im(conj(z) z') = omega(0) is conserved.  In Euclidean time
u'' = omega_f^2 u and v'' = omega_f^2 v, with (u, u') = (1, 0) and
(v, v') = (0, 1) at 0, give b^2 = u^2 - omega_i^2 v^2 and
Gamma_E = artanh(omega_i v / u).  Every schedule (sudden, the sinusoidal
ramp, tabulated data) is integrated adaptively with DOP853, the
8th-order Dormand-Prince pair, whose own 7th-order continuous extension
answers queries between the accepted steps (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.6).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModeQuench, beta_limit, beta_star
from .errors import DomainError, NumericalFailureError

TOL_MIN, TOL_MAX = 1e-13, 1e-6
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises any smaller rtol to this, with a warning


# parameter names per schedule kind; the first ``positive`` of them must be > 0
_PARAMS = {"sudden": (("omega_i", "omega_f"), 2), "sinusoidal": (("omega_i", "omega_f", "rate"), 1)}


@dataclass(frozen=True)
class FrequencySchedule:
    """Frequency-versus-time protocol omega(t) >= 0 for t >= 0.

    ``omega_initial`` is omega(0) entering the Ermakov right-hand side; for a
    sudden schedule the solver-facing ``omega_at`` is right-continuous (the
    final frequency already applies at t = 0+).  Every schedule is checked
    when it is built, through a classmethod or directly: parameters and
    table entries must be finite, frequencies positive and table times
    strictly increasing.  A table is kept as read-only copies.
    """

    kind: str
    params: tuple = ()
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_w: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "tabulated":
            t = np.array(self.table_t, dtype=float)
            w = np.array(self.table_w, dtype=float)
            if t.ndim != 1 or t.shape != w.shape or t.size < 2:
                raise DomainError("tabulated schedule needs two equal-length 1-d arrays with >= 2 samples")
            for name, values in (("t", t), ("omega", w)):
                if not np.all(np.isfinite(values)):
                    raise DomainError(f"tabulated schedule {name} values must all be finite")
            if not np.all(np.diff(t) > 0):
                raise DomainError("tabulated schedule times must be strictly increasing")
            if not np.all(w > 0):
                raise DomainError("tabulated schedule frequencies must all be positive")
            t.flags.writeable = False
            w.flags.writeable = False
            object.__setattr__(self, "table_t", t)
            object.__setattr__(self, "table_w", w)
            return
        if self.kind not in _PARAMS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        names, positive = _PARAMS[self.kind]
        if len(self.params) != len(names):
            raise DomainError(f"a {self.kind} schedule takes the parameters {names}, got {self.params}")
        for k, (name, value) in enumerate(zip(names, self.params)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if k < positive and value <= 0:
                raise DomainError(f"{name} must be positive, got {value}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))

    @classmethod
    def constant(cls, omega: float) -> "FrequencySchedule":
        """omega(t) = omega: the sudden schedule omega -> omega."""
        return cls.sudden(omega, omega)

    @classmethod
    def sudden(cls, omega_i: float, omega_f: float) -> "FrequencySchedule":
        return cls("sudden", (omega_i, omega_f))

    @classmethod
    def sinusoidal(cls, omega_i: float, omega_f: float, rate: float) -> "FrequencySchedule":
        """omega(t) = omega_i + (omega_f - omega_i) sin(rate * t)."""
        return cls("sinusoidal", (omega_i, omega_f, rate))

    @classmethod
    def tabulated(cls, t, omega) -> "FrequencySchedule":
        return cls("tabulated", (), table_t=t, table_w=omega)

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
        if self.kind == "sudden":
            return self.params[1] if np.isscalar(t) else np.full(np.shape(t), self.params[1])
        if self.kind == "sinusoidal":
            wi, wf, rate = self.params
            return wi + (wf - wi) * np.sin(rate * np.asarray(t))
        return np.interp(t, self.table_t, self.table_w)

    def _check_nonnegative(self, t_max: float) -> None:
        """Raise ``DomainError`` if omega(t) < 0 anywhere on [0, t_max].

        Exact, not sampled: tabulated and sudden schedules are positive by
        construction, and a sinusoidal one takes its minimum at an endpoint
        or at the first interior point where sin(rate * t) sends omega to
        omega_i - |omega_f - omega_i|.  A schedule that only touches zero is
        accepted.
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

    The integrated equations are linear (see the module docstring).  ``read``
    maps times and states to (b, b', gamma); ``t, b, db, gamma`` are its
    values at the accepted DOP853 steps.  ``b_at``, ``db_at`` and
    ``gamma_at`` apply it to DOP853's 7th-order continuous extension of the
    state, ``dense`` (a scipy ``OdeSolution``), anywhere in [t[0], t[-1]].
    """

    t: np.ndarray
    b: np.ndarray
    db: np.ndarray
    gamma: np.ndarray
    dense: object = field(repr=False, compare=False)
    read: object = field(repr=False, compare=False)

    def _eval(self, tq, row: int):
        tq = np.asarray(tq, dtype=float)
        if np.any(tq < self.t[0] - 1e-12) or np.any(tq > self.t[-1] + 1e-12):
            raise DomainError(f"query time outside solution range [{self.t[0]}, {self.t[-1]}]")
        # OdeSolution takes only a scalar or a non-empty 1-d array
        flat = np.clip(tq, self.t[0], self.t[-1]).ravel()
        out = self.read(flat, self.dense(flat))[row] if flat.size else flat
        return float(out[0]) if tq.ndim == 0 else out.reshape(tq.shape)

    def b_at(self, tq):
        return self._eval(tq, 0)

    def db_at(self, tq):
        return self._eval(tq, 1)

    def gamma_at(self, tq):
        return self._eval(tq, 2)


def _check_domain(t_end: float, tol: float, name: str) -> None:
    if not (math.isfinite(t_end) and t_end > 0):
        raise DomainError(f"{name} must be finite and positive, got {t_end}")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


def _integrate(rhs, t_end, tol, y0):
    """DOP853 over [0, t_end] from the linear state y0, with dense output.

    rtol = atol = tol / 100, with rtol floored at scipy's 100 eps, and no
    step cap.  Against the closed forms over three periods of the sudden quench
    1.3 -> 2.7 (2001 dense points) the default tol = 1e-10 gives errors of
    3.5e-12 in b, 1.1e-11 in b' and 5.5e-12 in gamma in 104 steps;
    tol = TOL_MIN gives 4.2e-14 in b in 180 steps.  The global error is not
    held below tol: the step control bounds the error of the linear state,
    and where b = |z| passes a small minimum omega_i / omega_f that error
    becomes a phase error about omega_f / omega_i times larger.  Over eight
    periods of a sudden omega_i -> 2 at the default tol (20001 points),
    gamma is off by 1.2e-11 at omega_i = 1.3, 1.9e-8 at 1e-3 and 1.9e-5 at
    1e-6, and b by 3.7e-9 relative at the last two.
    """
    # imported here, not at module level: scipy costs the CLI, which never
    # integrates, most of its start-up time and memory
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                    rtol=max(tol / 100, _RTOL_FLOOR), atol=tol / 100, dense_output=True)
    if not sol.success:
        raise NumericalFailureError(f"integration failed near t = {sol.t[-1]}: {sol.message}")
    return sol


def solve_real(schedule: FrequencySchedule, t_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate z'' + omega(t)^2 z = 0 over [0, t_max]; b = |z| and Gamma = arg z.

    The phase is lifted at the accepted steps.  Since Gamma' = omega(0) / b^2
    > 0, each step must advance it by an angle in (0, pi); a step that does
    not raises ``NumericalFailureError``.  A query is lifted against the
    accepted step [t_k, t_k+1] that holds it, Gamma(t) = Gamma_k +
    arg(conj(z_k) z(t)), so it does not depend on the order of the queries.
    """
    _check_domain(t_max, tol, "t_max")
    schedule._check_nonnegative(t_max)
    w0 = schedule.omega_initial

    def rhs(t, y):
        w2 = schedule.omega_at(t) ** 2
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    sol = _integrate(rhs, t_max, tol, [1.0, 0.0, 0.0, w0])
    t = sol.t
    z = sol.y[0] + 1j * sol.y[1]
    step = np.angle(np.conj(z[:-1]) * z[1:])
    bad = ~((step > 0) & (step < math.pi))
    if bad.any():
        k = np.argmax(bad)
        raise NumericalFailureError(f"phase step {step[k]} outside (0, pi) between t = {t[k]} and {t[k + 1]}")
    gamma = np.concatenate(([0.0], np.cumsum(step)))

    def read(tq, y):
        zq = y[0] + 1j * y[1]
        b = np.abs(zq)
        k = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
        return b, (y[0] * y[2] + y[1] * y[3]) / b, gamma[k] + np.angle(np.conj(z[k]) * zq)

    return ErmakovSolution(t, *read(t, sol.y), dense=sol.sol, read=read)


def solve_euclidean(mode: ModeQuench, beta_max: float, tol: float = 1e-10) -> ErmakovSolution:
    """Integrate u'' = omega_f^2 u and v'' = omega_f^2 v for a sudden quench.

    b^2 = u^2 - omega_i^2 v^2 and Gamma_E = artanh(omega_i v / u).  The state
    is (w, w', v, v') with w = u - omega_i v, the factor of b^2 that vanishes
    at beta*: integrated directly, it keeps b^2 = w (w + 2 omega_i v) and
    Gamma_E = log1p(2 omega_i v / w) / 2 accurate near beta*, where u and
    omega_i v cancel.  For a downward quench a ``DomainError`` carrying
    ``beta_star`` is raised if beta_max reaches ``core.beta_limit``, and a
    ``NumericalFailureError`` if b^2 is not positive at an accepted step.
    """
    _check_domain(beta_max, tol, "beta_max")
    if beta_max >= beta_limit(mode):
        bs = beta_star(mode)
        raise DomainError(
            f"b^2 vanishes at beta* = {bs} for quench ({mode.omega_i} -> {mode.omega_f}); "
            f"beta_max = {beta_max} is out of domain", beta_star=bs)
    wi, wf2 = mode.omega_i, mode.omega_f**2

    def rhs(t, y):
        return [y[1], wf2 * y[0], y[3], wf2 * y[2]]

    def b2(y):
        return y[0] * (y[0] + 2 * wi * y[2])

    def read(tq, y):
        w, dw, v, dv = y
        b = np.sqrt(b2(y))
        return b, (w * dw + wi * (dw * v + w * dv)) / b, 0.5 * np.log1p(2 * wi * v / w)

    sol = _integrate(rhs, beta_max, tol, [1.0, -wi, 0.0, 1.0])
    bad = b2(sol.y) <= 0
    if bad.any():
        raise NumericalFailureError(f"b^2 became non-positive near beta = {sol.t[np.argmax(bad)]}")
    return ErmakovSolution(sol.t, *read(sol.t, sol.y), dense=sol.sol, read=read)


def sudden_scale_real(omega_i: float, omega_f: float, t):
    """Closed-form b(t) = sqrt(cos^2 theta + r^2 sin^2 theta) after a sudden real-time quench.

    theta = omega_f t and r = omega_i / omega_f; complex t is allowed.  On
    the real axis neither term cancels, so b keeps its relative accuracy at
    its minimum r, however small r is.
    """
    theta = omega_f * np.asarray(t)
    r = omega_i / omega_f
    return np.sqrt(np.cos(theta) ** 2 + r * r * np.sin(theta) ** 2)


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


def sudden_scale_euclidean(omega_i: float, omega_f: float, beta):
    """Closed-form Euclidean b(beta) after a sudden quench: ``sudden_scale_real`` at t = -i beta.

    b^2 = cosh^2 x - r^2 sinh^2 x = 1 + (1 - r^2) sinh^2 x with x = omega_f beta
    and r = omega_i / omega_f: exactly 1 at constant frequency, free of
    cancellation for an upward quench, and vanishing at ``core.beta_star``
    for a downward one.  The reference for ``solve_euclidean`` and the tests.
    """
    s = np.sinh(omega_f * np.asarray(beta, dtype=float))
    return np.sqrt(1 + ((omega_f - omega_i) * (omega_f + omega_i) / omega_f**2 * s) * s)


def sudden_phase_euclidean(omega_i: float, omega_f: float, beta):
    """Closed-form Euclidean phase Gamma_E(beta) = artanh(r tanh x) after a sudden quench.

    x = omega_f beta and r = omega_i / omega_f.  For x < 0.5 artanh is taken
    as written, which keeps the relative accuracy of a small Gamma_E and of
    1 - r tanh x near beta* of a steep downward quench.  From x = 0.5 on it is
    log((omega_f + omega_i tanh x) / (omega_f - omega_i tanh x)) / 2 with the
    denominator written as (omega_f - omega_i) + 2 omega_i / (exp(2x) + 1),
    so nothing is lost where tanh x rounds to 1.  The reference for
    ``solve_euclidean`` and the tests.
    """
    x = omega_f * np.asarray(beta, dtype=float)
    t = np.tanh(x)
    e = np.exp(-2 * x)
    gap = (omega_f - omega_i) + 2 * omega_i * e / (1 + e)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch np.where drops
        return np.where(x < 0.5, np.arctanh(omega_i / omega_f * t),
                        0.5 * np.log((omega_f + omega_i * t) / gap))[()]
