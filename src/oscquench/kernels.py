"""Gaussian position-space kernels: thermal states, substates, partial transposes.

Every kernel is stored as ``norm * exp(-v^T Q v)`` over the coordinate vector
v = (out-coords, in-coords) with a symmetric matrix Q.  Keeping the quadratic
form explicit turns partial transposition into a row/column permutation and
the partial trace into a Schur complement, with the conventional coefficient
names available as accessor views.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ModeThermo
from .errors import CausticError, DomainError
from .ermakov import sudden_phase_real, sudden_scale_real

_SYM_TOL = 1e-14

# Normal-mode rotation y1 = (x1 + x2)/sqrt(2), y2 = (x1 - x2)/sqrt(2);
# symmetric and orthogonal, so it is its own inverse and transpose.
ROT_NORMAL = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class Alphas(NamedTuple):
    """Exchange-symmetric coefficient view of a two-particle kernel exponent."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float


@dataclass(frozen=True)
class QuadraticKernel:
    """Gaussian kernel norm * exp(-v^T Q v), v = (out-coords, in-coords)."""

    dim: int
    norm: float
    q: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError(f"dim must be 1 or 2, got {self.dim}")
        q = np.array(self.q, dtype=float)
        if q.shape != (2 * self.dim, 2 * self.dim):
            raise DomainError(f"Q must be {2 * self.dim}x{2 * self.dim}, got {q.shape}")
        scale = max(np.abs(q).max(), 1.0)
        if np.abs(q - q.T).max() > _SYM_TOL * scale:
            raise DomainError("Q must be symmetric")
        q = (q + q.T) / 2
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if not self.norm > 0:
            raise DomainError(f"norm must be positive, got {self.norm}")

    def evaluate(self, out_coords, in_coords):
        """Pointwise kernel value; coordinates broadcast elementwise."""
        out = np.atleast_1d(np.asarray(out_coords, dtype=float))
        inn = np.atleast_1d(np.asarray(in_coords, dtype=float))
        if self.dim == 1:
            v = np.stack(np.broadcast_arrays(out, inn), axis=-1)
        else:
            if out.shape[-1] != 2 or inn.shape[-1] != 2:
                raise DomainError("dim-2 kernel needs coordinate pairs")
            v = np.concatenate(np.broadcast_arrays(out, inn), axis=-1)
        expo = -np.einsum("...i,ij,...j->...", v, self.q, v)
        val = self.norm * np.exp(expo)
        return float(val.reshape(())) if val.size == 1 else val

    def alphas(self) -> Alphas:
        """Named coefficients (a1..a6); requires the exchange-symmetric layout."""
        if self.dim != 2:
            raise DomainError("alphas are defined for two-particle kernels")
        q = self.q
        pairs = [(q[0, 0], q[1, 1]), (q[2, 2], q[3, 3]), (q[0, 1], q[0, 1]),
                 (q[2, 3], q[2, 3]), (q[0, 2], q[1, 3]), (q[0, 3], q[1, 2])]
        scale = max(abs(q).max(), 1.0)
        for a, b in pairs:
            if abs(a - b) > 1e-10 * scale:
                raise DomainError("kernel is not symmetric under particle exchange")
        return Alphas(a1=q[0, 0], a2=q[2, 2], a3=-q[0, 1], a4=-q[2, 3],
                      a5=-(q[0, 2] + q[1, 3]) / 2, a6=-(q[0, 3] + q[1, 2]) / 2)

    def gauss_coefficients_1d(self) -> tuple[float, float, float]:
        """(a_in, a_out, cross) of norm * exp(-a_in x^2 - a_out x'^2 + 2 cross x x')."""
        if self.dim != 1:
            raise DomainError("1-d coefficient view requires dim = 1")
        return self.q[1, 1], self.q[0, 0], -self.q[0, 1]

    def swap_in_out(self) -> "QuadraticKernel":
        """Kernel with incoming and outgoing coordinates exchanged."""
        d = self.dim
        perm = list(range(d, 2 * d)) + list(range(d))
        return QuadraticKernel(self.dim, self.norm, self.q[np.ix_(perm, perm)])

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "norm": self.norm, "Q": self.q.ravel().tolist()})

    @classmethod
    def from_json(cls, text: str) -> "QuadraticKernel":
        data = json.loads(text)
        n = 2 * data["dim"]
        return cls(data["dim"], data["norm"], np.array(data["Q"], dtype=float).reshape(n, n))


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _mode_q1(mt: ModeThermo) -> tuple[float, float, float]:
    """(q_out, q_in, g) of one mode's Euclidean kernel exponent."""
    q_in = mt.mode.omega_i * _coth(mt.gamma_e) / 2
    q_out = (mt.a_plus + mt.a_minus) / 2 - q_in
    g = (mt.a_plus - mt.a_minus) / 4
    return q_out, q_in, g


def thermal_rho_single(mt: ModeThermo) -> QuadraticKernel:
    """Normalised one-mode thermal density kernel rho[x', x]."""
    q_out, q_in, g = _mode_q1(mt)
    q = np.array([[q_out, -g], [-g, q_in]])
    return QuadraticKernel(1, math.sqrt(mt.a_minus / math.pi), q)


def thermal_rho_coupled(mt1: ModeThermo, mt2: ModeThermo) -> QuadraticKernel:
    """Two-particle thermal kernel assembled from the normal-mode kernels.

    Each mode contributes a one-dimensional kernel in its normal coordinate;
    rotating back to particle coordinates produces the exchange-symmetric
    exponent whose alphas() satisfy the sum identities with a+/-.
    """
    if mt1.beta != mt2.beta:
        raise DomainError(f"modes at different temperatures: beta {mt1.beta} != {mt2.beta}")
    qy = np.zeros((4, 4))
    for slot, mt in ((0, mt1), (1, mt2)):
        q_out, q_in, g = _mode_q1(mt)
        qy[slot, slot] = q_out
        qy[slot + 2, slot + 2] = q_in
        qy[slot, slot + 2] = qy[slot + 2, slot] = -g
    rot = np.zeros((4, 4))
    rot[:2, :2] = ROT_NORMAL
    rot[2:, 2:] = ROT_NORMAL
    qx = rot.T @ qy @ rot
    norm = math.sqrt(mt1.a_minus * mt2.a_minus) / math.pi
    return QuadraticKernel(2, norm, qx)


def rotate_to_normal_modes(k: QuadraticKernel) -> QuadraticKernel:
    """Express a two-particle kernel over (y1', y2', y1, y2) coordinates."""
    if k.dim != 2:
        raise DomainError("normal-mode rotation requires dim = 2")
    rot = np.zeros((4, 4))
    rot[:2, :2] = ROT_NORMAL
    rot[2:, 2:] = ROT_NORMAL
    return QuadraticKernel(2, k.norm, rot.T @ k.q @ rot)


def reduce_substate(rho: QuadraticKernel) -> QuadraticKernel:
    """Partial trace over the second particle (equals the first by symmetry).

    Marginalising x2' = x2 = t is a Schur complement of Q along the traced
    direction; the Gaussian t-integral converges only if its diagonal
    coefficient is positive.
    """
    if rho.dim != 2:
        raise DomainError("substate reduction requires dim = 2")
    q = rho.q
    e = np.zeros(4)
    e[[1, 3]] = 1.0  # x2' and x2 move together under the trace
    d = float(e @ q @ e)
    if d <= 0:
        raise DomainError(f"marginal diverges: traced-direction coefficient {d} <= 0")
    qe = q @ e
    q_new = q - np.outer(qe, qe) / d
    kept = [0, 2]
    return QuadraticKernel(1, rho.norm * math.sqrt(math.pi / d), q_new[np.ix_(kept, kept)])


def partial_transpose(rho: QuadraticKernel) -> QuadraticKernel:
    """Transpose on the first particle: relabel x1 <-> x1'."""
    if rho.dim != 2:
        raise DomainError("partial transpose requires dim = 2")
    perm = [2, 1, 0, 3]
    return QuadraticKernel(2, rho.norm, rho.q[np.ix_(perm, perm)])


@dataclass(frozen=True)
class RealTimeKernelParams:
    """Sudden-quench real-time propagator parameters at a fixed time.

    ``t`` may be complex; t = -i beta reproduces the unnormalised thermal
    kernel.  Real times sitting on a caustic (sin Gamma = 0) are rejected
    with the nearest caustic time reported.
    """

    omega_i: float
    omega_f: float
    t: complex

    def __post_init__(self):
        if self.omega_i <= 0 or self.omega_f <= 0:
            raise DomainError("frequencies must be positive")
        if abs(np.sin(self.gamma)) < 1e-12:
            tc = round((self.omega_f * self.t).real / math.pi) * math.pi / self.omega_f
            raise CausticError(f"kernel is singular at a caustic; nearest caustic time {tc}",
                               caustic_time=tc)

    @property
    def b(self) -> complex:
        return complex(sudden_scale_real(self.omega_i, self.omega_f, self.t))

    @property
    def gamma(self) -> complex:
        return complex(sudden_phase_real(self.omega_i, self.omega_f, self.t))

    @property
    def phase_coef(self) -> complex:
        """Coefficient of x'^2 in the prefactor phase, (d b/dt)/(2 b) continued."""
        wi2, wf2 = self.omega_i**2, self.omega_f**2
        return (wf2 - wi2) * np.sin(2 * self.omega_f * self.t) / (4 * self.omega_f * self.b**2)


def realtime_kernel_single(p: RealTimeKernelParams, x, xp):
    """Evaluate the sudden-quench propagator K[x', x : t] (complex value)."""
    wi = p.omega_i
    b, gamma = p.b, p.gamma
    sin_g, cos_g = np.sin(gamma), np.cos(gamma)
    pref = np.sqrt(wi / (2j * math.pi * b * sin_g))
    phase = np.exp(-1j * p.phase_coef * np.asarray(xp) ** 2)
    x = np.asarray(x)
    xp = np.asarray(xp)
    main = np.exp(1j * wi / (2 * sin_g) * ((x**2 + xp**2 / b**2) * cos_g - 2 * x * xp / b))
    val = phase * pref * main
    return complex(val) if np.ndim(val) == 0 else val
