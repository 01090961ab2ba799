"""Spans and counts at the package's layer boundaries, for the traced run only.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each wrapper under every name that holds the original in any
``oscquench`` module, because ``cli`` and ``negativity`` import names
directly (``from .core import mode_thermo``).  ``uninstall`` restores them.

A span records its layer, function, op id, parent span, thread, wall start and
end, and thread CPU start and end.  The parent is the innermost open span of
the same thread; a sweep's rows run on pool threads whose stacks start empty,
so their outermost spans take the op's root span (opened by the benchmark
around the whole op) as parent.  Self time is thread CPU time minus that of
same-thread child spans, so two pool threads waiting on the interpreter lock
are not both counted busy.  Spans are kept per op and folded into
``Totals`` when the op ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "core", "kernels", "spectra", "negativity", "oracle", "ermakov")
BOUNDARY_FUNCTIONS = frozenset({"boundary_g", "g_inverse", "critical_temperature", "check_separable"})
TC_FUNCTION = "critical_temperature_sqm"
ERMAKOV_SOLVERS = frozenset({"solve_real", "solve_euclidean"})


class Span:
    __slots__ = ("id", "op", "parent", "layer", "name", "thread", "t0", "t1", "c0", "c1",
                 "child_cpu", "child_wall", "in_tc", "in_boundary", "arg_p", "error")

    def __init__(self, sid, op, parent, layer, name, thread, in_tc, in_boundary):
        self.id, self.op, self.parent = sid, op, parent
        self.layer, self.name, self.thread = layer, name, thread
        self.in_tc, self.in_boundary = in_tc, in_boundary
        self.child_cpu = self.child_wall = 0.0
        self.arg_p = None
        self.error = None
        self.t0 = self.t1 = self.c0 = self.c1 = 0.0

    @property
    def self_cpu(self) -> float:
        return (self.c1 - self.c0) - self.child_cpu

    @property
    def self_wall(self) -> float:
        return (self.t1 - self.t0) - self.child_wall

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def _flops_computed(p: int, m: int) -> int:
    """Multiply-adds of the trace contraction on an m x m kernel matrix, counted as 2 flops."""
    return {1: m, 2: 2 * m * m, 3: 2 * m**3 + 2 * m * m}[p]


class Totals:
    """Per-layer sums over the ops of one traced phase."""

    def __init__(self):
        self.calls = Counter()          # layer and layer.function -> calls
        self.self_cpu = defaultdict(float)
        self.errors = Counter()         # (layer, "domain_errors" | "numerical_failures")
        self.tc_calls = 0
        self.tc_s = 0.0
        self.tc_evals = 0
        self.boundary_calls = 0
        self.boundary_s = 0.0
        self.kernel_matrix_s = 0.0
        self.eigensolve_s = 0.0
        self.trace_s = 0.0
        self.op_cpu = 0.0
        self.spans = 0

    def add_op(self, spans, op_cpu: float, through_cli: bool) -> None:
        layer_self = 0.0
        for s in spans:
            self.spans += 1
            self.calls[s.layer] += 1
            self.calls[f"{s.layer}.{s.name}"] += 1
            if s.layer != "cli":
                self.self_cpu[s.layer] += s.self_cpu
                layer_self += s.self_cpu
            if s.error is not None:
                self.errors[(s.layer, s.error)] += 1
            if s.name == TC_FUNCTION:
                self.tc_calls += 1
                self.tc_s += s.wall
            elif s.name == "sigma_for_quench" and s.in_tc:
                self.tc_evals += 1
            if s.name in BOUNDARY_FUNCTIONS:
                self.boundary_calls += 1
                if not s.in_boundary:
                    self.boundary_s += s.wall
            if s.name == "kernel_matrix":
                self.kernel_matrix_s += s.wall
            elif s.name == "nystrom_spectrum":
                self.eigensolve_s += s.self_wall
            elif s.name == "trace_power":
                self.trace_s += s.self_wall
        self.op_cpu += op_cpu
        if through_cli:
            # everything outside the lower layers' spans, on any thread: argument
            # and config parsing, row dispatch on the pool, CSV formatting, output
            self.self_cpu["cli"] += op_cpu - layer_self


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []
        self.op_id = None
        self.root = None
        self.spans = []
        self.extra = Counter()          # work counted from results: bytes, flops, steps

    # -- op lifecycle (called by the benchmark's single caller thread) ------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.root = next(self._ids)
        self.spans = []

    def end_op(self):
        spans, self.spans, self.op_id = self.spans, [], None
        return spans

    # -- wrapping -------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, layer: str):
        name = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1] if st else None
            span = Span(next(tracer._ids), tracer.op_id, parent.id if parent else tracer.root,
                        layer, name, threading.get_ident(),
                        in_tc=bool(parent and (parent.in_tc or parent.name == TC_FUNCTION)),
                        in_boundary=bool(parent and (parent.in_boundary or parent.name in BOUNDARY_FUNCTIONS)))
            if name == "trace_power":
                span.arg_p = args[1] if len(args) > 1 else kwargs.get("p")
            st.append(span)
            span.t0, span.c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, in the layer it started from
                if not getattr(exc, "_bench_counted", False):
                    kind = _error_kind(exc)
                    if kind:
                        span.error = kind
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                span.t1, span.c1 = time.perf_counter(), time.thread_time()
                st.pop()
                if parent is not None:
                    parent.child_cpu += span.c1 - span.c0
                    parent.child_wall += span.t1 - span.t0
                tracer.spans.append(span)
            tracer._count_work(span, parent, result)
            return result

        return traced

    def _count_work(self, span, parent, result) -> None:
        if span.name == "kernel_matrix":
            mat = result[0]
            self.extra["matrix_bytes"] += mat.nbytes
            if parent is not None and parent.name == "trace_power":
                self.extra["trace_flops"] += _flops_computed(parent.arg_p, mat.shape[0])
        elif span.name in ERMAKOV_SOLVERS:
            self.extra["ermakov_steps"] += len(result.t)

    def install(self) -> None:
        """Wrap every public function of the layer modules and rebind the wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"oscquench.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self.wrap(obj, layer)
        for modname, module in list(sys.modules.items()):
            if modname != "oscquench" and not modname.startswith("oscquench."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches = []


def _error_kind(exc):
    errors = sys.modules["oscquench.errors"]
    if isinstance(exc, errors.DomainError):
        return "domain_errors"
    if isinstance(exc, errors.NumericalFailureError):
        return "numerical_failures"
    return None


def per_layer_metrics(totals: Totals, extra: Counter, overhead_frac: float) -> dict:
    """The per-layer metric set, every name present on every workload."""
    def count(value):
        return {"value": int(value), "unit": "count"}

    def secs(value):
        return {"value": float(value), "unit": "s"}

    m = {
        "cli.self_s": secs(totals.self_cpu["cli"]),
        "cli.rows": count(extra["rows"]),
        "cli.flagged_rows": count(extra["flagged_rows"]),
        "cli.csv_bytes": {"value": int(extra["csv_bytes"]), "unit": "B"},
    }
    for layer in ("core", "kernels", "spectra", "negativity", "oracle", "ermakov"):
        m[f"{layer}.calls"] = count(totals.calls[layer])
        m[f"{layer}.self_s"] = secs(totals.self_cpu[layer])
    m["core.mode_thermo.calls"] = count(totals.calls["core.mode_thermo"])
    m["core.domain_errors"] = count(totals.errors[("core", "domain_errors")])
    m["negativity.pt_moments.calls"] = count(totals.calls["negativity.pt_moments"])
    m["negativity.tc.calls"] = count(totals.tc_calls)
    m["negativity.tc.s"] = secs(totals.tc_s)
    m["negativity.tc.evals_per_call"] = {
        "value": totals.tc_evals / totals.tc_calls if totals.tc_calls else 0.0, "unit": "evals/call"}
    m["negativity.boundary.calls"] = count(totals.boundary_calls)
    m["negativity.boundary.s"] = secs(totals.boundary_s)
    m["negativity.domain_errors"] = count(totals.errors[("negativity", "domain_errors")])
    m["negativity.numerical_failures"] = count(totals.errors[("negativity", "numerical_failures")])
    m["oracle.kernel_matrix.s"] = secs(totals.kernel_matrix_s)
    m["oracle.eigensolve.s"] = secs(totals.eigensolve_s)
    m["oracle.trace.s"] = secs(totals.trace_s)
    m["oracle.matrix_bytes"] = {"value": int(extra["matrix_bytes"]), "unit": "B-computed"}
    m["oracle.trace_flops"] = {"value": int(extra["trace_flops"]), "unit": "flop-computed"}
    m["ermakov.steps"] = count(extra["ermakov_steps"])
    m["trace.op_cpu_s"] = secs(totals.op_cpu)
    m["trace.spans"] = count(totals.spans)
    m["trace_overhead_frac"] = {"value": float(overhead_frac), "unit": "frac"}
    return m
