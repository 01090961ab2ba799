"""Check that two source trees give the same outputs on the benchmark's workloads.

Usage: python scripts/same_outputs.py OTHER_TREE [--seed S] [--cycles N]

OTHER_TREE is a checkout of the repository (for example one made with
``git archive``) whose ``src/oscquench`` is compared with this tree's.  The
ops are those of cycles 0 to N - 1 of both workloads of ``bench/workloads.py``
for seed S, taken from this tree's ``bench/`` (imported, not changed).  Each
tree runs them once, in its own Python subprocess with its own ``src`` on
the path and the BLAS pools at one thread, in a fresh working directory, so
that the paths an op prints are the same for both trees.

For every ``cli`` op the script compares the exit code, standard output,
standard error and the bytes of every CSV it wrote; for every ``verify`` op
it compares the library result (every float to the last bit) or the error
raised.  It prints the first differing op and exits 1, or prints
``identical`` and exits 0.

``--dump OUT`` is the subprocess side: it runs the ops under the
``oscquench`` on the path and writes their outputs to OUT as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli", "verify")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _written(path: str) -> dict[str, str]:
    """The CSV files an op wrote: its output file, or every file of its output directory."""
    if os.path.isdir(path):
        return {name: Path(path, name).read_text(encoding="utf-8") for name in sorted(os.listdir(path))}
    return {"": Path(path).read_text(encoding="utf-8")} if os.path.exists(path) else {}


def dump(seed: int, cycles: int) -> list[dict]:
    """Run every op of both workloads under the ``oscquench`` on the path; one record per op."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    import oscquench as oq
    import oscquench.cli

    records = []
    serial = 0
    os.makedirs("work")
    for workload in WORKLOADS:
        for index in range(cycles):
            for position, op in enumerate(workloads.cycle(workload, seed, index)):
                serial += 1
                workloads.materialise(op, "work", serial)
                out, err = io.StringIO(), io.StringIO()
                rec = {"op": f"{workload} cycle {index} op {position} ({op.kind})"}
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        if op.argv:
                            rec["rc"] = oscquench.cli.main(op.argv)
                        else:
                            rec["result"] = workloads.run_library_check(oq, op)
                    except (Exception, SystemExit) as exc:
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
                if op.argv:
                    rec["files"] = _written(op.out)
                records.append(rec)
    return records


def _run_tree(tree: Path, seed: int, cycles: int) -> tuple[str, list[dict]]:
    """``dump`` under ``tree`` in a subprocess; returns the package path it imported and the records."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "records.json")
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", out,
                        "--seed", str(seed), "--cycles", str(cycles)],
                       cwd=work, env=env, check=True)
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
    return data["package"], data["records"]


def _first_difference(a: dict, b: dict) -> str | None:
    """What differs between two records of the same op, or None.

    Values compare by their JSON text: floats to the last bit, and a nan equals a nan.
    """
    for key in ("rc", "error", "stdout", "stderr", "result"):
        if json.dumps(a.get(key)) != json.dumps(b.get(key)):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    files_a, files_b = a.get("files", {}), b.get("files", {})
    if sorted(files_a) != sorted(files_b):
        return f"files written: {sorted(files_a)} != {sorted(files_b)}"
    for name, text in files_a.items():
        if text != files_b[name]:
            lines_a, lines_b = text.splitlines(), files_b[name].splitlines()
            line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                        min(len(lines_a), len(lines_b)))
            shown = [lines[line] if line < len(lines) else "<end of file>" for lines in (lines_a, lines_b)]
            return f"csv {name or 'file'} line {line + 1}: {shown[0]!r} != {shown[1]!r}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other_tree", nargs="?", type=Path)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cycles", type=int, default=100)
    ap.add_argument("--dump", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        records = dump(args.seed, args.cycles)
        import oscquench
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump({"package": oscquench.__file__, "records": records}, fh)
        return 0
    if args.other_tree is None:
        ap.error("OTHER_TREE is required")
    trees = (ROOT, args.other_tree.resolve())
    runs = [_run_tree(tree, args.seed, args.cycles) for tree in trees]
    for tree, (package, records) in zip(trees, runs):
        print(f"{tree}: {len(records)} ops, oscquench from {package}")
    (_, ours), (_, theirs) = runs
    for a, b in zip(ours, theirs):
        diff = _first_difference(a, b)
        if diff is not None:
            print(f"first difference: {a['op']}: {diff}")
            return 1
    if len(ours) != len(theirs):
        print(f"op counts differ: {len(ours)} != {len(theirs)}")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
