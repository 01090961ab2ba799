"""Seeded inputs of the two workloads and the calls that run them.

A workload is an endless sequence of *cycles*.  Each cycle is a fixed mix of
op kinds whose parameters are drawn from ``Random(f"{workload}:{seed}:{cycle}")``,
so the same seed always yields the same inputs, and a run that stops on a
cycle boundary always measures the same proportions of each kind.

An op is plain data: ``params`` holds everything both the program and the
reference read.  ``cli`` ops are run through ``oscquench.cli.main`` with a
config file or arguments; ``verify`` ops call the library directly.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli", "verify")

FIGURE_NAMES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig2c",
                "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")

LARGE_OBSERVABLES = ("purity", "renyi:2", "von_neumann", "mutual_info", "negativity", "tc")
SMALL_OBSERVABLES = ("purity", "renyi:0.5", "renyi:2", "renyi:3", "von_neumann",
                     "mutual_info", "negativity")
# spec classes of the small sweeps; "down" quenches keep beta* inside the grid
SMALL_CLASSES = ("up", "down", "const", "negJ")
# the quenches whose T_c the small sweeps request: the README's criterion-9 pair.
# Seeded specs do not request tc: their T_c misses its 1e-6 tolerance in about
# one spec in thirty (pt-moment-noise, see checks.KNOWN_DEFECTS), and the
# benchmark's workloads must be ones on which no op fails.
TC_SPECS = ((3.0, 6.0, 3.0, 6.0), (1.0, 20.0, 5.0, 5.0))
# Re-evaluating a value in mpmath costs ~4 ms (a tc table row ~20 ms), so
# values are compared in the first cycles only; exit codes, flags and row
# counts in every cycle.  16 cycles cover each large-sweep spec and thread
# count twice.
LARGE_VALUE_CYCLES = 16
SMALL_VALUE_CYCLES = 40
TC_TABLE_VALUE_CYCLES = 3
# the verify workload's fixed first check of every cycle
VERIFY_ANCHOR = {"spec": (3.0, 6.0, 3.0, 6.0), "beta": 0.6,
                 "kernel": "sigma", "n": 48, "top_k": 12}

# What one op is, per workload, recorded with every result.
OP_DEFINITIONS = {
    "cli": "one `oscquench` command through cli.main; a cycle is 1 `sweep` of a 1000-point "
           "log grid (T_min 0.01-0.05, T_max 20-100) with purity, renyi:2, von_neumann, "
           "mutual_info, negativity and tc, rotating 3->6/3->6, 1->20/5->5, const k0=1 J=1 "
           "and a const negative J with threads 1 and 2; 12 `sweep`s of 3-16 temperatures of "
           "seeded specs (up, down with beta* in the grid, const, negative J); 2 such sweeps "
           "with tc of 3->6/3->6 and 1->20/5->5; 1 fully out-of-domain `sweep`; 2 `tc` tables "
           "of 3-16 couplings; 1 `figure` preset, the 11 presets in seeded rotation (19 ops)",
    "verify": "one library cross-check: a fixed 2-D Nystrom anchor (48 nodes/axis), 1-D "
              "nystrom_spectrum with error estimate (200 nodes), 2-D nystrom_spectrum top_k=12 "
              "of rho and of its partial transpose (56 nodes/axis), trace_power p=2 and p=3 of "
              "rho and of its partial transpose (56 nodes/axis), solve_real, solve_euclidean, "
              "32 mehler_check calls (10 ops); "
              "omega_min * beta in [0.5, 4]",
}


@dataclass
class Op:
    """One closed-loop operation and what the checker samples from its output."""

    workload: str
    kind: str                      # sweep | tc_table | figure | <verify check>
    params: dict
    sample_rows: tuple = ()        # CSV data-row indices re-evaluated by the reference
    check_tc: bool = False         # whether the tc column is re-evaluated
    probe: str | None = None       # the known defect a probe op must show
    argv: list = field(default_factory=list)
    out: str = ""


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _beta_star(wi: float, wf: float) -> float:
    if wf >= wi:
        return math.inf
    return math.acosh((wi * wi + wf * wf) / (wi * wi - wf * wf)) / (2 * wf)


def spec_beta_star(spec) -> float:
    k0i, k0f, ji, jf = spec
    return min(_beta_star(math.sqrt(k0i), math.sqrt(k0f)),
               _beta_star(math.sqrt(k0i + 2 * ji), math.sqrt(k0f + 2 * jf)))


def draw_spec(rng, kind: str) -> tuple:
    if kind == "up":
        k0, j = rng.uniform(0.5, 5.0), rng.uniform(0.1, 3.0)
        return (k0, k0 * rng.uniform(1.2, 4.0), j, j * rng.uniform(1.2, 4.0))
    if kind == "down":
        k0, j = rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0)
        return (k0, k0 / rng.uniform(1.2, 4.0), j, j / rng.uniform(1.2, 4.0))
    if kind == "const":
        k0, j = rng.uniform(0.5, 5.0), rng.uniform(0.1, 5.0)
        return (k0, k0, j, j)
    if kind == "negJ":
        k0 = rng.uniform(0.5, 5.0)
        return (k0, k0, -k0 * rng.uniform(0.3, 0.45), -k0 * rng.uniform(0.05, 0.25))
    raise ValueError(kind)


def _sweep_params(spec, t_min, t_max, points, observables, threads) -> dict:
    return {"quench": dict(zip(("k0_i", "k0_f", "j_i", "j_f"), spec)),
            "T_min": t_min, "T_max": t_max, "T_points": points, "scale": "log",
            "observables": list(observables), "threads": threads}


def _small_grid(rng, spec, kind):
    if kind == "down":
        t_star = 1.0 / spec_beta_star(spec)
        return t_star * rng.uniform(0.3, 0.8), t_star * rng.uniform(2.0, 30.0)
    t_min = _log_uniform(rng, 0.01, 0.3)
    return t_min, min(100.0, t_min * _log_uniform(rng, 3.0, 1000.0))


def _small_sweep(rng, spec, kind, observables, index, check_tc=False) -> Op:
    t_min, t_max = _small_grid(rng, spec, kind)
    points = rng.randint(3, 16)
    params = _sweep_params(spec, t_min, t_max, points, observables, rng.choice((1, 2)))
    params["class"] = "tc" if check_tc else kind
    rows = {0, points - 1, rng.randrange(points)}
    return Op("cli", "sweep", params, tuple(sorted(rows)) if index < SMALL_VALUE_CYCLES else (),
              check_tc=check_tc)


def _cli_cycle(seed: int, index: int) -> list[Op]:
    run_rng = _rng("cli", seed, "run")
    j_neg = run_rng.uniform(-0.45, -0.2)
    figures = list(FIGURE_NAMES)
    run_rng.shuffle(figures)
    rng = _rng("cli", seed, index)

    large = [(3.0, 6.0, 3.0, 6.0), (1.0, 20.0, 5.0, 5.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, j_neg, j_neg)]
    params = _sweep_params(large[index % 4], _log_uniform(rng, 0.01, 0.05),
                           _log_uniform(rng, 20.0, 100.0), 1000, LARGE_OBSERVABLES,
                           1 + index // 4 % 2)
    params["class"] = "large"
    rows = {0, 999, *rng.sample(range(1, 999), 8)} if index < LARGE_VALUE_CYCLES else ()
    ops = [Op("cli", "sweep", params, tuple(sorted(rows)), check_tc=True)]

    for i in range(12):
        kind = SMALL_CLASSES[i % 4]
        obs = rng.sample(SMALL_OBSERVABLES, rng.randint(1, 4))
        ops.append(_small_sweep(rng, draw_spec(rng, kind), kind, obs, index))
    for spec in TC_SPECS:
        obs = rng.sample(SMALL_OBSERVABLES, rng.randint(1, 4)) + ["tc"]
        ops.append(_small_sweep(rng, spec, "up", obs, index, check_tc=True))

    # every temperature beyond beta*: the CLI must refuse the whole op
    spec = draw_spec(rng, "down")
    t_star = 1.0 / spec_beta_star(spec)
    params = _sweep_params(spec, t_star * 0.2, t_star * 0.8, rng.randint(3, 16), ["purity"], 1)
    params["class"] = "refused"
    ops.append(Op("cli", "sweep", params))

    for sign in (1.0, -1.0):
        k0 = rng.uniform(0.5, 5.0)
        if sign > 0:
            j_min = k0 * rng.uniform(0.05, 0.5)
            j_max = j_min + rng.uniform(1.0, 10.0)
        else:
            j_min = -k0 * rng.uniform(0.35, 0.45)
            j_max = -k0 * rng.uniform(0.05, 0.3)
        points = rng.randint(3, 16)
        params = {"k0": k0, "j_min": j_min, "j_max": j_max, "points": points}
        rows = (0, points - 1) if index < TC_TABLE_VALUE_CYCLES else ()
        ops.append(Op("cli", "tc_table", params, rows))

    ops.append(Op("cli", "figure", {"name": figures[index % len(figures)]}))
    return ops


def defect_probes() -> list[Op]:
    """Fixed untimed ops that show each catalogued defect (``checks.KNOWN_DEFECTS``).

    The timed workloads avoid these inputs, so a ``cli`` run executes the probes
    once after its timed phase and reports which defects are still present.
    """
    probes = []
    params = _sweep_params((5.0, 2.0, 3.0, 1.5), 1.0, 10.0, 5, ["purity", "tc"], 1)
    probes.append(Op("probe", "sweep", params, (0,), probe="tc-downward"))
    params = _sweep_params((1.0, 20.0, 5.0, 5.0), 1e4, 1e8, 9, SMALL_OBSERVABLES, 1)
    probes.append(Op("probe", "sweep", params, tuple(range(9)), probe="high-T-cancellation"))
    # a seeded upward spec whose T_c comes out 4.7e-6 off, and a temperature in the
    # band |zeta1 zeta2| < 1e-4 of a constant pair whose negativity is 1.9e-9 off
    spec = (3.9745058408479896, 8.34146358861205, 0.1018751542019519, 0.37905296955335793)
    params = _sweep_params(spec, 0.3, 3.0, 3, ["purity", "tc"], 1)
    probes.append(Op("probe", "sweep", params, (0,), check_tc=True, probe="pt-moment-noise"))
    spec = (3.296506034314376, 3.296506034314376, 0.16127595786304766, 0.16127595786304766)
    t = 0.41562926292968483
    params = _sweep_params(spec, t / 2, t, 2, ["negativity"], 1)
    probes.append(Op("probe", "sweep", params, (1,), probe="pt-moment-noise"))
    return probes


def _verify_spec_beta(rng):
    """A spec and a beta at which 48-56 quadrature nodes per axis resolve the state.

    Below omega_min * beta ~ 0.2 the softest mode's ladder is so long that the
    fixed-node oracle itself is off by up to 1e-2, which would measure the
    grid rather than the package; 0.5 keeps that error below 1e-9.
    """
    spec = draw_spec(rng, rng.choice(("up", "const", "negJ")))
    k0i, k0f, ji, jf = spec
    omega_min = math.sqrt(min(k0i, k0f, k0i + 2 * ji, k0f + 2 * jf))
    return spec, _log_uniform(rng, 0.5, 4.0) / omega_min


def _verify_cycle(seed: int, index: int) -> list[Op]:
    rng = _rng("verify", seed, index)
    ops = [Op("verify", "nystrom2d", dict(VERIFY_ANCHOR))]
    spec, beta = _verify_spec_beta(rng)
    ops.append(Op("verify", "nystrom1d", {"spec": spec, "beta": beta, "mode": rng.randrange(2), "n": 200}))
    for kernel in ("rho", "sigma"):
        spec, beta = _verify_spec_beta(rng)
        ops.append(Op("verify", "nystrom2d", {"spec": spec, "beta": beta, "kernel": kernel,
                                              "n": 56, "top_k": 12}))
    # two p = 3 traces, the heaviest op (~1.8 s), so that op_tail_ms lies inside
    # their group rather than at its edge: with one per cycle a 40 s run holds
    # about ten, and the tenth-highest latency jumped between two op kinds
    for p, kernel in ((2, rng.choice(("rho", "sigma"))), (3, "rho"), (3, "sigma")):
        spec, beta = _verify_spec_beta(rng)
        ops.append(Op("verify", "trace", {"spec": spec, "beta": beta, "p": p, "n": 56,
                                          "kernel": kernel}))
    wi, wf = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    t_max = 20.0 / max(wi, wf)    # about three periods; the step count scales with omega * t
    ops.append(Op("verify", "solve_real", {"omega_i": wi, "omega_f": wf, "t_max": t_max,
                                           "times": [t_max * k / 6 for k in range(1, 7)]}))
    wi, wf = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    beta_max = min(rng.uniform(0.5, 3.0), 0.9 * _beta_star(wi, wf))
    ops.append(Op("verify", "solve_euclidean", {"omega_i": wi, "omega_f": wf, "beta_max": beta_max,
                                                "betas": [beta_max * k / 6 for k in range(1, 7)]}))
    # |t| <= 0.35 keeps the 80-term truncation below 1e-10
    triples = [(rng.uniform(-0.35, 0.35), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
               for _ in range(32)]
    ops.append(Op("verify", "mehler", {"triples": triples, "terms": 80}))
    return ops


_CYCLES = {"cli": _cli_cycle, "verify": _verify_cycle}


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of cycle ``index``; a pure function of (workload, seed, index)."""
    return _CYCLES[workload](seed, index)


def materialise(op: Op, workdir: str, serial: int) -> None:
    """Write the op's input files and fix its CLI arguments (outside the timed region)."""
    base = os.path.join(workdir, f"{serial:06d}")
    if op.kind == "sweep":
        config = {k: v for k, v in op.params.items() if k != "class"}
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        op.out = base + ".csv"
        op.argv = ["sweep", "--config", base + ".json", "--out", op.out]
    elif op.kind == "tc_table":
        p = op.params
        op.out = base + ".csv"
        op.argv = ["tc", "--k0", repr(p["k0"]), "--j-min", repr(p["j_min"]),
                   "--j-max", repr(p["j_max"]), "--points", str(p["points"]), "--out", op.out]
    elif op.kind == "figure":
        op.out = base
        op.argv = ["figure", op.params["name"], "--out-dir", op.out]


def _two_mode_kernel(oq, p):
    spec = oq.QuenchSpec(*p["spec"])
    m1, m2 = oq.normal_modes(spec)
    rho = oq.thermal_rho_coupled(oq.mode_thermo(m1, p["beta"]), oq.mode_thermo(m2, p["beta"]))
    return rho if p["kernel"] == "rho" else oq.partial_transpose(rho)


def run_library_check(oq, op: Op) -> dict:
    """Program side of a verify op: public library calls only, plain-data result."""
    p = op.params
    if op.kind == "nystrom1d":
        mode = oq.normal_modes(oq.QuenchSpec(*p["spec"]))[p["mode"]]
        k = oq.thermal_rho_single(oq.mode_thermo(mode, p["beta"]))
        s = oq.nystrom_spectrum(k, oq.QuadratureGrid.for_kernel(k, p["n"]))
        return {"eigenvalues": s.eigenvalues[:6].tolist(), "error_estimate": s.error_estimate}
    if op.kind == "nystrom2d":
        k = _two_mode_kernel(oq, p)
        s = oq.nystrom_spectrum(k, oq.QuadratureGrid.for_kernel(k, p["n"]), top_k=p["top_k"],
                                with_error=False)
        return {"eigenvalues": s.eigenvalues[:8].tolist()}
    if op.kind == "trace":
        k = _two_mode_kernel(oq, p)
        value, _ = oq.trace_power(k, p["p"], oq.QuadratureGrid.for_kernel(k, p["n"]), with_error=False)
        return {"value": value}
    if op.kind == "solve_real":
        sol = oq.solve_real(oq.FrequencySchedule.sudden(p["omega_i"], p["omega_f"]), p["t_max"])
        return {"b": [sol.b_at(t) for t in p["times"]]}
    if op.kind == "solve_euclidean":
        sol = oq.solve_euclidean(oq.ModeQuench(p["omega_i"], p["omega_f"]), p["beta_max"])
        return {"b": [sol.b_at(b) for b in p["betas"]], "gamma": [sol.gamma_at(b) for b in p["betas"]]}
    if op.kind == "mehler":
        checks = [oq.mehler_check(t, x, y, terms=p["terms"]) for t, x, y in p["triples"]]
        return {"lhs": [c.lhs for c in checks]}
    raise ValueError(op.kind)
