"""Self-tests of the benchmark: input generation, checker resolution, tracing.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import oscquench as oq  # noqa: E402
import oscquench.cli as cli  # noqa: E402


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for index in range(3):
        assert workloads.cycle(workload, 7, index) == workloads.cycle(workload, 7, index)
        assert workloads.cycle(workload, 7, index) != workloads.cycle(workload, 8, index)


def test_configs_written_identically(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        for k, op in enumerate(workloads.cycle("cli", 3, 0)):
            workloads.materialise(op, str(tmp_path / sub), k)
        texts.append(sorted((p.name, p.read_bytes()) for p in (tmp_path / sub).glob("*.json")))
    assert texts[0] == texts[1] and texts[0]


def _sweep_op(tmp_path, observables=("purity", "von_neumann", "negativity")):
    params = workloads._sweep_params((3.0, 6.0, 3.0, 6.0), 0.3, 5.0, 6, observables, 1)
    op = workloads.Op("cli", "sweep", params, tuple(range(6)))
    tmp_path.mkdir(exist_ok=True)
    workloads.materialise(op, str(tmp_path), 1)
    assert _run_cli(op.argv) == 0
    return op


def _perturb_cell(path, column, row, factor):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = f"{float(cells[header.index(column)]) * factor:.12g}"
    lines[data[1 + row]] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("column", ["purity", "von_neumann", "negativity"])
def test_perturbation_of_1e6_is_a_failed_op(tmp_path, column):
    op = _sweep_op(tmp_path)
    v = checks.Verdict()
    checks.check_sweep(op, 0, "", v)
    assert v.failure is None, v.failure
    _perturb_cell(op.out, column, 1, 1 + 1e-6)
    v = checks.Verdict()
    checks.check_sweep(op, 0, "", v)
    assert v.failure is not None and v.known is None


def test_perturbed_tc_table_is_a_failed_op(tmp_path):
    op = workloads.Op("cli", "tc_table", {"k0": 1.0, "j_min": 0.5, "j_max": 3.0, "points": 4}, (0, 3))
    workloads.materialise(op, str(tmp_path), 1)
    assert _run_cli(op.argv) == 0
    v = checks.Verdict()
    checks.check_tc_table(op, 0, "", v)
    assert v.failure is None, v.failure
    _perturb_cell(op.out, "tc_exact", 3, 1 + 1e-6)
    v = checks.Verdict()
    checks.check_tc_table(op, 0, "", v)
    assert v.failure is not None


def test_known_defect_is_counted_not_hidden(tmp_path):
    params = workloads._sweep_params((5.0, 2.0, 3.0, 1.5), 1.0, 10.0, 5, ["purity", "tc"], 1)
    op = workloads.Op("cli", "sweep", params, (0,))
    workloads.materialise(op, str(tmp_path), 1)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv)
    v = checks.Verdict()
    checks.check_sweep(op, rc, err.getvalue(), v)
    assert rc == 2 and v.failure and v.known == "tc-downward"


def test_defect_probes_show_their_defects(tmp_path):
    probes = workloads.defect_probes()
    assert {op.probe for op in probes} == set(checks.KNOWN_DEFECTS)
    records = []
    for k, op in enumerate(probes):
        workloads.materialise(op, str(tmp_path), k)
        records.append(run.execute(op, k, oq, cli.main))
    for rec, v in zip(records, run.check_records(records, checks)):
        assert v.known == rec.op.probe, (rec.op.probe, v.failure)


def test_traced_functions_return_identical_results(tmp_path):
    spec = oq.QuenchSpec(3, 6, 3, 6)
    plain_n = oq.negativity_for_quench(spec, 0.7)
    plain_tc = oq.critical_temperature_sqm(spec)
    plain = _sweep_op(tmp_path / "plain")
    tracer, totals = tracing.Tracer(), tracing.Totals()
    original = cli.mode_thermo
    tracer.install()
    try:
        assert cli.mode_thermo is not original and oq.mode_thermo is cli.mode_thermo
        tracer.begin_op(1)
        traced_n = oq.negativity_for_quench(spec, 0.7)
        traced_tc = oq.critical_temperature_sqm(spec)
        traced = _sweep_op(tmp_path / "traced")
        spans = tracer.end_op()
    finally:
        tracer.uninstall()
    assert cli.mode_thermo is original
    assert (traced_n, traced_tc) == (plain_n, plain_tc)
    assert Path(traced.out).read_bytes() == Path(plain.out).read_bytes()
    names = {s.name for s in spans}
    assert {"main", "run_sweep", "mode_thermo", "pt_moments", "critical_temperature_sqm"} <= names
    roots = {s.parent for s in spans if s.layer == "cli" and s.name == "main"}
    assert all(s.op == 1 for s in spans) and len(roots) == 1


def _last_json(argv):
    out = io.StringIO()
    cpus = os.sched_getaffinity(0)   # run.main pins the calling process to one CPU
    try:
        with contextlib.redirect_stdout(out):
            assert run.main(argv) == 0
    finally:
        os.sched_setaffinity(0, cpus)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_metric_name_is_printed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = _last_json(["--workload", "cli", "--seed", "1", "--seconds", "0.1", "--trace", "1"])
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert traced["correct"] and traced["attempted"] >= 1
    plain = _last_json(["--workload", "cli", "--seed", "1", "--seconds", "0.1", "--trace", "0"])
    assert set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for result in (traced, plain):
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode != 0 and "{" not in done.stdout
