"""Per-layer timings of the Nystrom oracle's symmetry blocks, the Ermakov solvers and T_c.

Usage: python scripts/oracle_layers.py

The process pins itself to one CPU and caps the BLAS pools at one thread
before numpy loads.  The kernel is the partial transpose sigma of the
3->6/3->6 quench at beta = 0.6, on its ``QuadratureGrid.for_kernel`` grid.
Four layers are timed on their own: assembly of the symmetry blocks (one
per character of the kernel's grid symmetry group, four for sigma), the
ARPACK top-12 eigensolve of every block, and the p = 2 and p = 3 trace
contractions of the blocks; so are the public calls that chain them.
The blocks hold only the node orbits that the oracle's pruning rule
keeps: it drops the rest only while its bound on their Frobenius norm
stays at or below u = 2^-53 times the largest diagonal entry of S_w.  The
problem record gives the kept block sizes, the kept share of the nodes
and that bound as a share of the largest diagonal entry
(``pruned_over_max_diag``, at most 2^-53 = 1.1e-16) for rho and for
sigma, and counts the eigensolve's matvecs per block of sigma (``dsymv``
calls on one triangle of the block).
The ``hot`` record times the same four layers on the hot sigma: the same
quench at omega_min beta = 0.5 (omega_min the softer final frequency), the
low end of the benchmark's ``verify`` draws, on 56 nodes per axis, and
gives its kept block sizes and pruning bound the same way.  There pruning
keeps about 88% of the nodes, so assembly is a larger share than at the
anchor.
The ``grid`` entries time ``QuadratureGrid.make`` at 56, 200 and 400 nodes,
both with the Gauss-Legendre rule cache emptied first (the first call for
that n) and served from it.  ``nystrom1d`` times the 1-D call in the shape
of the benchmark's ``verify`` op: mode 0 of the same quench and beta, 200
nodes, with the error estimate (a second solve on 400 nodes).
The ``ermakov`` entries time the two solver calls in the shape of the
benchmark's ``verify`` ops: ``solve_real`` of the sudden quench 1.3 -> 2.7
over t_max = 20 / 2.7 (about three periods) and ``solve_euclidean`` of the
same quench up to beta = 2, each at the default tol and followed by its six
dense-output queries.
The ``separability`` entries time the separability layer on the inputs the
CLI gives it: ``critical_temperature_sqm`` of the same 3->6/3->6 quench (one
scalar root), ``critical_temperature`` on fig4b's 200 frequency pairs,
``boundary_g`` on fig4a's 400 points and ``check_separable`` on fig4a's
61 x 61 grid (no root); each run makes SEPARABILITY_CALLS calls, and the
entry reports ms per call and the passes of every root search of one call
(``negativity._root``; a pass is one evaluation of f over 32 or 33 points
of every bracket).
Prints JSON on stdout: the machine, the problem with its kept blocks and
the solvers' accepted step counts, and per entry the median, minimum and
maximum over the runs in ms.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (after the BLAS cap)

import oscquench as oq  # noqa: E402
from oscquench import oracle  # noqa: E402

# the package binds the function ``negativity`` over its module's name
ng = sys.modules["oscquench.negativity"]

SPEC = (3.0, 6.0, 3.0, 6.0)
BETA = 0.6
HOT_OMEGA_BETA = 0.5
POINTS = 56
TOP_K = 12
RUNS = 7
ERMAKOV_QUENCH = (1.3, 2.7)
T_MAX = 20.0 / 2.7
BETA_MAX = 2.0
GRID_POINTS = (56, 200, 400)
NYSTROM1D_POINTS = 200
SEPARABILITY_CALLS = 50
FIG4A_X = np.linspace(0.05, 5.0, 400)
FIG4A_GRID = np.meshgrid(np.linspace(0.05, 3.0, 61), np.linspace(0.05, 3.0, 61), indexing="ij")
FIG4B_J = np.linspace(0.5, 10.0, 200)


def _timed(fn, before=None, calls=1) -> dict:
    """Median, min and max in ms per call of ``fn`` over RUNS runs of ``calls`` calls.

    Each run starts after an untimed ``before``.
    """
    fn()  # warm-up: lazy imports and first-touch page faults
    times = []
    for _ in range(RUNS):
        if before is not None:
            before()
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) * 1e3 / calls)
    return {"median_ms": statistics.median(times), "min_ms": min(times), "max_ms": max(times)}


def _root_passes(fn) -> list[int]:
    """Passes of each ``negativity._root`` search that one call of ``fn`` makes."""
    root = ng._root
    passes = []

    def counted(f, lo, hi):
        passes.append(0)

        def f_counted(x):
            passes[-1] += 1
            return f(x)

        return root(f_counted, lo, hi)

    ng._root = counted
    try:
        fn()
    finally:
        ng._root = root
    return passes


def _matvec_counts(blocks) -> list[int]:
    """``dsymv`` calls of the top-12 eigensolve of each block."""
    import scipy.linalg.blas

    dsymv = scipy.linalg.blas.dsymv
    counts = []

    def counted(*args, **kwargs):
        counts[-1] += 1
        return dsymv(*args, **kwargs)

    scipy.linalg.blas.dsymv = counted
    try:
        for block in blocks:
            counts.append(0)
            oracle._parity_eigvals([block], TOP_K)
    finally:
        scipy.linalg.blas.dsymv = dsymv
    return counts


def _kept(k, grid) -> tuple[list, float]:
    """The symmetry blocks of ``k`` on ``grid`` and their pruning bound over max diag S_w."""
    blocks, pruned = oracle._symmetry_blocks(k, grid)
    # the diagonal of S_w is that of W^1/2 K W^1/2: norm w_a exp(-x_a^T D x_a)
    pts, w = oracle._points(k, grid)
    max_diag = k.norm * (w * np.exp(-oracle._quad(pts, oracle._diagonal_exponent(k)))).max()
    return blocks, pruned / max_diag


def main() -> None:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    m1, m2 = oq.normal_modes(oq.QuenchSpec(*SPEC))
    rho = oq.thermal_rho_coupled(oq.mode_thermo(m1, BETA), oq.mode_thermo(m2, BETA))
    sigma = oq.partial_transpose(rho)
    grid = oq.QuadratureGrid.for_kernel(sigma, POINTS)
    kept = {name: _kept(k, oq.QuadratureGrid.for_kernel(k, POINTS))
            for name, k in (("rho", rho), ("sigma", sigma))}
    blocks = kept["sigma"][0]

    import scipy

    def layers(k, grid):
        blocks = oracle._symmetry_blocks(k, grid)[0]
        return {
            "assembly": lambda: oracle._symmetry_blocks(k, grid),
            "top12_eigensolve": lambda: oracle._parity_eigvals(blocks, TOP_K),
            "p2_contraction": lambda: oracle._parity_trace(blocks, 2),
            "p3_contraction": lambda: oracle._parity_trace(blocks, 3),
        }

    hot_beta = HOT_OMEGA_BETA / min(m1.omega_f, m2.omega_f)
    hot = oq.partial_transpose(
        oq.thermal_rho_coupled(oq.mode_thermo(m1, hot_beta), oq.mode_thermo(m2, hot_beta)))
    hot_grid = oq.QuadratureGrid.for_kernel(hot, POINTS)
    hot_blocks, hot_bound = _kept(hot, hot_grid)
    calls = {
        "nystrom_spectrum_top12": lambda: oq.nystrom_spectrum(sigma, grid, top_k=TOP_K,
                                                              with_error=False),
        "trace_power_p2": lambda: oq.trace_power(sigma, 2, grid, with_error=False),
        "trace_power_p3": lambda: oq.trace_power(sigma, 3, grid, with_error=False),
    }
    sudden = oq.FrequencySchedule.sudden(*ERMAKOV_QUENCH)
    mode = oq.ModeQuench(*ERMAKOV_QUENCH)

    def real_op():
        sol = oq.solve_real(sudden, T_MAX)
        return [sol.b_at(T_MAX * k / 6) for k in range(1, 7)], len(sol.t)

    def euclidean_op():
        sol = oq.solve_euclidean(mode, BETA_MAX)
        return ([(sol.b_at(b), sol.gamma_at(b)) for b in (BETA_MAX * k / 6 for k in range(1, 7))],
                len(sol.t))

    ermakov = {"solve_real": real_op, "solve_euclidean": euclidean_op}

    mode = oq.normal_modes(oq.QuenchSpec(*SPEC))[0]
    single = oq.thermal_rho_single(oq.mode_thermo(mode, BETA))
    grids = {}
    for n in GRID_POINTS:
        make = functools.partial(oq.QuadratureGrid.make, n, grid.half_width)
        grids[f"make_{n}_first"] = _timed(make, before=oracle._legendre_rule.cache_clear)
        grids[f"make_{n}_cached"] = _timed(make)
    calls["nystrom1d"] = lambda: oq.nystrom_spectrum(
        single, oq.QuadratureGrid.for_kernel(single, NYSTROM1D_POINTS))
    separability = {
        "critical_temperature_sqm": lambda: oq.critical_temperature_sqm(oq.QuenchSpec(*SPEC)),
        "critical_temperature_fig4b": lambda: oq.critical_temperature(
            np.ones_like(FIG4B_J), np.sqrt(1 + 2 * FIG4B_J)),
        "boundary_g_fig4a": lambda: oq.boundary_g(FIG4A_X),
        "check_separable_fig4a": lambda: oq.check_separable(2 * FIG4A_GRID[0], 2 * FIG4A_GRID[1], 1.0),
    }
    report = {
        "machine": {"nproc": os.cpu_count(), "pinned_cpu": cpu, "blas_threads": 1,
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "processor": platform.processor()},
        "problem": {"kernel": "sigma", "spec": SPEC, "beta": BETA, "points_per_axis": POINTS,
                    "nodes": POINTS ** 2,
                    "kept_block_sizes": {name: [len(b) for b in bs] for name, (bs, _) in kept.items()},
                    "pruned_over_max_diag": {name: bound for name, (_, bound) in kept.items()},
                    "kept_share": {name: sum(len(b) for b in bs) / POINTS ** 2
                                   for name, (bs, _) in kept.items()},
                    "top12_matvecs_per_block": _matvec_counts(blocks), "runs": RUNS},
        "ermakov_problem": {"quench": ERMAKOV_QUENCH, "t_max": T_MAX, "beta_max": BETA_MAX,
                            "steps": {name: fn()[1] for name, fn in ermakov.items()}},
        "grid": grids,
        "layers": {name: _timed(fn) for name, fn in layers(sigma, grid).items()},
        "hot": {"kernel": "sigma", "spec": SPEC, "omega_min_beta": HOT_OMEGA_BETA, "beta": hot_beta,
                "kept_block_sizes": [len(b) for b in hot_blocks], "pruned_over_max_diag": hot_bound,
                "layers": {name: _timed(fn) for name, fn in layers(hot, hot_grid).items()}},
        "calls": {name: _timed(fn) for name, fn in calls.items()},
        "ermakov": {name: _timed(fn) for name, fn in ermakov.items()},
        "separability": {name: {**_timed(fn, calls=SEPARABILITY_CALLS), "root_passes": _root_passes(fn)}
                         for name, fn in separability.items()},
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
