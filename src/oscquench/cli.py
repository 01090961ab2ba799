"""Config-driven temperature sweeps, figure presets, T_c tables and CSV emission.

Output files carry a ``#``-prefixed provenance block (version, prefactor
convention, config echo) above the CSV header, and every file is written by
:func:`_csv_text`.  Every curve and sweep column comes from
:func:`oscquench.observables.observables`, evaluated as arrays over the
whole temperature grid in one thread; the worker-count setting is accepted
and ignored, so the bytes cannot depend on it.  T_c has one route,
:func:`oscquench.negativity.critical_temperature` of a frequency pair: a
sweep's ``tc`` column applies it to the spec's final pair through
:func:`oscquench.negativity.critical_temperature_sqm` (0 where a downward
quench's beta* cut leaves no entangled temperature), and the ``tc`` table and
fig4b apply it to their pairs directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (ModeQuench, QuenchSpec, beta_star, domain_errors, mode_widths, normal_modes,
                   purity_single)
from .core import mode_thermo  # noqa: F401  (unused here; bench/test_bench.py looks it up on this module)
from .errors import DomainError, NumericalFailureError
from .negativity import boundary_g, check_separable, critical_temperature, critical_temperature_sqm
from .observables import observables
from .spectra import von_neumann_entropy

A_CONVENTION_NOTE = ("prefactor exponent A = (wf^2 - wi^2) sinh(2 wf beta) / (4 wf b^2)"
                     " (trace-preserving normalisation)")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

_KNOWN_OBSERVABLES = ("purity", "von_neumann", "mutual_info", "negativity", "tc")
_CONFIG_KEYS = {"quench", "T_min", "T_max", "T_points", "scale", "observables", "threads"}
_QUENCH_KEYS = {"k0_i", "k0_f", "j_i", "j_f"}

# what a malformed config raises, caught alike by ``sweep`` and ``validate``
_CONFIG_ERRORS = (DomainError, ValueError, TypeError)

FIGURE_NAMES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig2c",
                "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")


def _number(name: str, value, integer: bool = False):
    """A config field as a float, or as an int if ``integer``; a ``DomainError`` names the field."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not integer:
        return number
    if not number.is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class SweepConfig:
    quench: QuenchSpec
    t_min: float
    t_max: float
    t_points: int
    scale: str = "linear"
    observables: tuple[str, ...] = ("purity",)
    threads: int = 0

    def __post_init__(self):
        for name, value in (("T_min", self.t_min), ("T_max", self.t_max)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not (0 < self.t_min < self.t_max):
            raise DomainError(f"need 0 < T_min < T_max, got ({self.t_min}, {self.t_max})")
        if self.t_points < 2:
            raise DomainError(f"T_points must be >= 2, got {self.t_points}")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if not self.observables:
            raise DomainError("observables must not be empty")
        for obs in self.observables:
            if obs in _KNOWN_OBSERVABLES:
                continue
            if isinstance(obs, str) and obs.startswith("renyi:"):
                try:
                    alpha = float(obs.split(":", 1)[1])
                except ValueError:
                    raise DomainError(f"bad renyi observable {obs!r}")
                if not 0 < alpha < math.inf:
                    raise DomainError(f"renyi order must be positive and finite in {obs!r}")
                continue
            raise DomainError(f"unknown observable {obs!r}")
        if self.threads < 0:
            raise DomainError(f"threads must be >= 0, got {self.threads}")

    def temperatures(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.t_min, self.t_max, self.t_points)
        return np.linspace(self.t_min, self.t_max, self.t_points)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise DomainError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        missing = {"quench", "T_min", "T_max", "T_points", "observables"} - set(data)
        if missing:
            raise DomainError(f"missing config keys: {sorted(missing)}")
        qd = data["quench"]
        if not isinstance(qd, dict) or set(qd) != _QUENCH_KEYS:
            raise DomainError(f"quench must be an object with keys {sorted(_QUENCH_KEYS)}")
        quench = QuenchSpec(*(_number(key, qd[key]) for key in ("k0_i", "k0_f", "j_i", "j_f")))
        return cls(quench=quench, t_min=_number("T_min", data["T_min"]), t_max=_number("T_max", data["T_max"]),
                   t_points=_number("T_points", data["T_points"], integer=True),
                   scale=data.get("scale", "linear"), observables=tuple(data["observables"]),
                   threads=_number("threads", data.get("threads", 0), integer=True))

    def to_dict(self) -> dict:
        return {
            "quench": {"k0_i": self.quench.k0_i, "k0_f": self.quench.k0_f,
                       "j_i": self.quench.j_i, "j_f": self.quench.j_f},
            "T_min": self.t_min, "T_max": self.t_max, "T_points": self.t_points,
            "scale": self.scale, "observables": list(self.observables),
        }


def _csv_text(comments, header, keys, values, flags=None) -> str:
    """A ``#`` comment block, a header line and one CSV row per entry of the columns.

    ``keys`` and ``values`` are equal-length numeric columns, each formatted
    at once with '%.12g' (the bytes of f"{v:.12g}").  With ``flags`` (one
    string per row, "" on a clean row) the flag is the last cell, and a
    flagged row keeps its ``keys`` cells and leaves its ``values`` cells
    empty; a flag holding ',' or '"' is quoted, its quotes doubled (RFC 4180).
    """
    def cells(column):
        column = np.asarray(column, dtype=float).tolist()
        return ("%.12g\n" * len(column) % tuple(column)).split("\n")[:-1]

    columns = [cells(c) for c in keys]
    blank = [] if flags is None else [i for i, flag in enumerate(flags) if flag]
    for column in values:
        column = cells(column)
        for i in blank:
            column[i] = ""
        columns.append(column)
    if flags is not None:
        flags = list(flags)
        for i in blank:
            if "," in flags[i] or '"' in flags[i]:
                flags[i] = '"' + flags[i].replace('"', '""') + '"'
        columns.append(flags)
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@dataclass
class SweepResult:
    """Sweep columns by header name (``T``, ``beta`` and one per observable) and row flags."""

    values: dict[str, np.ndarray]
    flags: list[str]
    provenance: list[str] = field(default_factory=list)

    def to_csv_text(self) -> str:
        cols = list(self.values.values())
        return _csv_text(self.provenance, [*self.values, "warnings"], cols[:2], cols[2:], self.flags)

    def write(self, path) -> None:
        _write(path, self.to_csv_text())


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate all observables on the temperature grid, as arrays over the whole grid."""
    temps = cfg.temperatures()
    values, flags = observables(cfg.quench, temps, [o for o in cfg.observables if o != "tc"])
    if "tc" in cfg.observables:
        values["tc"] = np.full(len(temps), critical_temperature_sqm(cfg.quench))
    with np.errstate(over="ignore"):  # a subnormal T_min gives beta = inf, flagged by ``observables``
        columns = {"T": temps, "beta": 1.0 / temps}
    for name in cfg.observables:
        columns[name.replace(":", "_")] = values[name]  # renyi:2 -> renyi_2
    provenance = [f"oscquench {__version__}",
                  f"a_convention: {A_CONVENTION_NOTE}",
                  f"config: {json.dumps(cfg.to_dict(), sort_keys=True)}"]
    return SweepResult(values=columns, flags=flags, provenance=provenance)


def validate_config(path) -> tuple[int, list[str]]:
    """Structural and physical validation; returns (exit code, report lines).

    The exit code is the one ``sweep`` would give the config: ``EXIT_CONFIG``
    if it is refused, ``EXIT_DOMAIN`` if every temperature would be flagged.
    """
    report: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return EXIT_CONFIG, [f"error: cannot read {path}: {exc}"]
    except json.JSONDecodeError as exc:
        return EXIT_CONFIG, [f"error: {path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
    try:
        cfg = SweepConfig.from_dict(data)
    except _CONFIG_ERRORS as exc:
        return EXIT_CONFIG, [f"error: {exc}"]
    m1, m2 = normal_modes(cfg.quench)
    report.append(f"ok: normal modes omega1 {m1.omega_i:.6g} -> {m1.omega_f:.6g}, "
                  f"omega2 {m2.omega_i:.6g} -> {m2.omega_f:.6g}")
    temps = cfg.temperatures()
    with np.errstate(over="ignore"):
        errors = domain_errors((m1, m2), 1.0 / temps)
    if errors:
        first = min(errors)
        detail = f"the first, T = {temps[first]:.6g}: {errors[first]}"
        if len(errors) == cfg.t_points:
            report.append(f"error: all {cfg.t_points} temperatures are out of domain; {detail}")
            return EXIT_DOMAIN, report
        report.append(f"warning: {len(errors)} of {cfg.t_points} temperatures are out of domain and will "
                      f"be flagged; {detail}")
    report.append(f"ok: {cfg.t_points} temperatures in [{cfg.t_min}, {cfg.t_max}] ({cfg.scale})")
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# figure presets

_T_GRID_NOTE = "T grid [0.05, 20], 400 points, log-spaced (axis ranges are not fixed by the source figures)"
_PRESET_POINTS = 400


def _tc_columns(k0: float, js: np.ndarray) -> list[np.ndarray]:
    """Exact and approximate T_c of the constant-frequency pair (k0, J), per J of a 1-d array."""
    tc = critical_temperature(np.full(js.shape, math.sqrt(k0)), np.sqrt(k0 + 2 * js))
    return [tc.tc_exact, tc.tc_approx]


def _negativity_at_zero_t(spec: QuenchSpec) -> float:
    """N in the beta -> infinity limit: a+- -> omega_f, so N = sqrt(w_max,f / w_min,f) - 1."""
    m1, m2 = normal_modes(spec)
    if min(beta_star(m1), beta_star(m2)) < math.inf:
        raise DomainError(f"downward quench {spec} has no zero-temperature limit: beta < beta*")
    w_min, w_max = sorted((m1.omega_f, m2.omega_f))
    return math.sqrt(w_max / w_min) - 1.0


def figure_preset(name: str, out_dir) -> list[str]:
    """Emit one CSV per curve of a source-figure parameter set."""
    if name not in FIGURE_NAMES:
        raise DomainError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
    os.makedirs(out_dir, exist_ok=True)
    temps = np.geomspace(0.05, 20.0, _PRESET_POINTS)
    base = [f"oscquench {__version__}", f"a_convention: {A_CONVENTION_NOTE}", _T_GRID_NOTE]
    paths = []

    def emit(fname, header, keys, values, extra):
        path = os.path.join(out_dir, fname)
        _write(path, _csv_text(base + extra, header, keys, values))
        paths.append(path)

    def curve(spec, kind):
        return observables(spec, temps, [kind])[0][kind]

    if name in ("fig1a", "fig1b"):
        kind = "purity" if name == "fig1a" else "von_neumann"
        for omega in (3.0, 5.0, 7.0):
            w = mode_widths(ModeQuench(3.0, omega), 1.0 / temps)
            vals = purity_single(w) if kind == "purity" else von_neumann_entropy(w.xi)
            emit(f"{name}_omega{omega:g}.csv", ["T", kind], [temps], [vals],
                 [f"single mode, omega_i=3, omega_f={omega:g}"])
    elif name in ("fig2a", "fig2b", "fig2c"):
        kind = {"fig2a": "purity", "fig2b": "von_neumann", "fig2c": "mutual_info"}[name]
        for label, spec in (("quench6", QuenchSpec(3, 6, 3, 6)),
                            ("quench9", QuenchSpec(3, 9, 3, 9)),
                            ("const3", QuenchSpec(3, 3, 3, 3))):
            emit(f"{name}_{label}.csv", ["T", kind], [temps], [curve(spec, kind)],
                 [f"coupled pair, k0 {spec.k0_i:g}->{spec.k0_f:g}, J {spec.j_i:g}->{spec.j_f:g}"])
    elif name in ("fig3a", "fig3b"):
        js = (1.0, 5.0, 10.0) if name == "fig3a" else (-0.45, -0.35, -0.2)
        for j in js:
            spec = QuenchSpec(1.0, 1.0, j, j)
            emit(f"{name}_J{j:g}.csv", ["T", "negativity"], [temps], [curve(spec, "negativity")],
                 [f"constant k0=1, J={j:g}"])
    elif name == "fig4a":
        xs = np.linspace(0.05, 5.0, _PRESET_POINTS)
        ys = xs * boundary_g(xs)
        emit("fig4a_upper_boundary.csv", ["x", "y"], [xs], [ys], ["upper separability boundary y(x)"])
        emit("fig4a_lower_boundary.csv", ["x", "y"], [ys], [xs], ["lower boundary (mirror of upper)"])
        emit("fig4a_dashed.csv", ["x", "y"], [xs], [xs / np.tanh(xs)], ["approximation y = x coth x"])
        gx, gy = np.meshgrid(np.linspace(0.05, 3.0, 61), np.linspace(0.05, 3.0, 61), indexing="ij")
        separable = check_separable(2 * gx, 2 * gy, 1.0)
        emit("fig4a_mask.csv", ["x", "y", "separable"], [gx.ravel(), gy.ravel()], [separable.ravel()],
             ["separability mask on a 61x61 grid (x = omega1 beta/2, y = omega2 beta/2)"])
    elif name == "fig4b":
        js = np.linspace(0.5, 10.0, 200)
        emit("fig4b_tc.csv", ["J", "tc_exact", "tc_approx"], [js], _tc_columns(1.0, js), ["k0 = 1"])
    else:  # fig5a, fig5b
        if name == "fig5a":
            settings = [(f"k0f{k:g}", QuenchSpec(1.0, k, 5.0, 5.0)) for k in (1.0, 20.0, 40.0)]
        else:
            settings = [(f"Jf{j:g}", QuenchSpec(1.0, 1.0, 5.0, j)) for j in (5.0, 25.0, 45.0)]
        for label, spec in settings:
            n_inf = _negativity_at_zero_t(spec)
            emit(f"{name}_{label}.csv", ["T", "negativity_ratio"], [temps], [curve(spec, "negativity") / n_inf],
                 [f"k0 {spec.k0_i:g}->{spec.k0_f:g}, J {spec.j_i:g}->{spec.j_f:g}; "
                  f"normalised by the zero-temperature limit N = {n_inf:.12g}"])
    return paths


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscquench",
                                 description="Thermal quantities of suddenly quenched coupled oscillators")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a temperature sweep from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)

    fp = sub.add_parser("figure", help="emit CSV curves for a source-figure preset")
    fp.add_argument("name", choices=FIGURE_NAMES)
    fp.add_argument("--out-dir", required=True)

    tp = sub.add_parser("tc", help="critical-temperature table over a coupling range")
    tp.add_argument("--k0", type=float, required=True)
    tp.add_argument("--j-min", type=float, required=True)
    tp.add_argument("--j-max", type=float, required=True)
    tp.add_argument("--points", type=int, default=100)
    tp.add_argument("--out", required=True)

    vp = sub.add_parser("validate", help="validate a sweep config file")
    vp.add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            code, report = validate_config(args.config)
            for line in report:
                print(line)
            return code

        if args.command == "sweep":
            try:
                with open(args.config, encoding="utf-8") as fh:
                    data = json.load(fh)
                cfg = SweepConfig.from_dict(data)
            except (OSError, *_CONFIG_ERRORS) as exc:  # JSONDecodeError is a ValueError
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            result = run_sweep(cfg)
            result.write(args.out)
            n_flagged = sum(map(bool, result.flags))
            if n_flagged == len(result.flags):
                print("domain error: every grid point failed", file=sys.stderr)
                return EXIT_DOMAIN
            print(f"wrote {args.out} ({len(result.flags)} rows, {n_flagged} flagged)")
            return EXIT_OK

        if args.command == "figure":
            paths = figure_preset(args.name, args.out_dir)
            for p in paths:
                print(p)
            return EXIT_OK

        # tc table
        for name, value in (("k0", args.k0), ("j_min", args.j_min), ("j_max", args.j_max)):
            if not math.isfinite(value):
                print(f"config error: {name} must be finite, got {value}", file=sys.stderr)
                return EXIT_CONFIG
        if args.k0 <= 0:
            print(f"config error: k0 must be positive, got {args.k0}", file=sys.stderr)
            return EXIT_CONFIG
        if args.points < 1 or args.j_min > args.j_max:
            print("config error: need points >= 1 and j_min <= j_max", file=sys.stderr)
            return EXIT_CONFIG
        js = np.linspace(args.j_min, args.j_max, args.points)
        js = js[args.k0 + 2 * js > 0]
        if not js.size:
            print("domain error: no coupling in range keeps both modes real", file=sys.stderr)
            return EXIT_DOMAIN
        comments = [f"oscquench {__version__}", f"a_convention: {A_CONVENTION_NOTE}", f"k0 = {args.k0:g}"]
        _write(args.out, _csv_text(comments, ["J", "tc_exact", "tc_approx"], [js], _tc_columns(args.k0, js)))
        print(f"wrote {args.out} ({len(js)} rows)")
        return EXIT_OK
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
