"""Every closed-form observable of a coupled quench over a whole temperature grid.

Each observable is elementary in the per-mode widths a+-_i(beta) of
``core.mode_widths``.  With r(p, m) = (sqrt p - sqrt m) / (sqrt p + sqrt m):

    xi_i     = r(a+_i, a-_i)                     ladder ratio of mode i
               (``mode_widths`` evaluates it without cancellation)
    zeta_sub = r((a+_1 + a+_2) / 2, harmonic_mean(a-_1, a-_2))   substate ratio
    zeta_1   = r(a+_2, a-_1),  zeta_2 = r(a+_1, a-_2)         partial transpose

The kernels, spectra and trace-moment modules derive the same numbers
through Gaussian kernels; the tests use them as the reference for this
module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (QuenchSpec, Widths, _check_beta, _check_widths, in_domain, mode_widths,
                   normal_modes, purity_single)
from .errors import DomainError
from .negativity import negativity
from .spectra import _clamp_thermal_ratio, renyi_entropy, von_neumann_entropy


class Ratios(NamedTuple):
    """Geometric ladder ratios of the two-mode state, elementwise over beta."""

    xi1: np.ndarray
    xi2: np.ndarray
    zeta_sub: np.ndarray
    zeta1: np.ndarray
    zeta2: np.ndarray


def _ratio(p, m):
    sp, sm = np.sqrt(p), np.sqrt(m)
    return (sp - sm) / (sp + sm)


def ladder_ratios(w1: Widths, w2: Widths) -> Ratios:
    """The ratios of the two-mode state from the widths of its normal modes."""
    harmonic = 2 / (1 / w1.a_minus + 1 / w2.a_minus)
    # zeta_sub >= 0 since AM(a+) >= AM(a-) >= HM(a-); clamp rounding below 0
    zeta_sub = _clamp_thermal_ratio(_ratio((w1.a_plus + w2.a_plus) / 2, harmonic))
    return Ratios(xi1=w1.xi, xi2=w2.xi, zeta_sub=zeta_sub,
                  zeta1=_ratio(w2.a_plus, w1.a_minus), zeta2=_ratio(w1.a_plus, w2.a_minus))


def observables(spec: QuenchSpec, temps, names) -> tuple[dict[str, np.ndarray], list[str]]:
    """Observables ``names`` of the two-mode state at each temperature of a 1-d ``temps``.

    ``names`` holds "purity", "von_neumann", "renyi:<alpha>", "mutual_info"
    and "negativity".  Returns one array per name, nan on flagged rows, and
    one flag per row: "" in domain, else "domain:" and the message of the
    ``DomainError`` that ``mode_thermo`` raises there.
    """
    beta = 1.0 / np.asarray(temps, dtype=float)
    modes = normal_modes(spec)
    widths = [mode_widths(m, beta) for m in modes]
    ok = np.ones(beta.shape, dtype=bool)
    for m, w in zip(modes, widths):
        ok &= in_domain(m, beta) & (w.a_plus >= w.a_minus) & (w.a_minus > 0)
    flags = [""] * beta.size
    for i in np.flatnonzero(~ok):
        try:
            for m, w in zip(modes, widths):
                _check_beta(m, beta[i])
                _check_widths(float(w.a_plus[i]), float(w.a_minus[i]), beta[i])
        except DomainError as exc:
            flags[i] = f"domain:{exc}"

    w1, w2 = (Widths(*(v[ok] for v in w)) for w in widths)
    r = ladder_ratios(w1, w2)
    values = {}
    for name in names:
        if name == "purity":
            v = purity_single(w1) * purity_single(w2)
        elif name == "von_neumann":
            v = von_neumann_entropy(r.xi1) + von_neumann_entropy(r.xi2)
        elif name.startswith("renyi:"):
            alpha = float(name.split(":", 1)[1])
            v = renyi_entropy(r.xi1, alpha) + renyi_entropy(r.xi2, alpha)
        elif name == "mutual_info":
            v = 2 * von_neumann_entropy(r.zeta_sub) - (von_neumann_entropy(r.xi1) + von_neumann_entropy(r.xi2))
        elif name == "negativity":
            v = negativity(r.zeta1, r.zeta2)
        else:
            raise DomainError(f"unknown observable {name!r}")
        column = np.full(beta.shape, np.nan)
        column[ok] = v
        values[name] = column
    return values, flags
