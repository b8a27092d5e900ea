"""lobkit's benchmark: one workload, one seed, timed for a fixed span.

    python3 benchmarks/run.py --workload research-600s --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lobkit is imported from ``src/``.
The run sets up its workload (see ``workloads.py``) several times and
reports the median set-up time, repeats the workload's unit for
``--seconds``, checks the outputs, prints a table of every figure with its
unit, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
units alternate, the metrics are the per-layer ones from the traced units,
and ``trace.overhead_pct`` compares the two kinds of unit.

The full result -- every figure, the checks, and provenance (artifact
sha256s, source revision, Python and numpy versions, CPU count, BLAS
threads) -- goes to ``.bench_out/<workload>-seed<seed>-trace<t>.json``, and
a traced run's spans to ``.bench_out/spans-<workload>.csv``.
"""

from __future__ import annotations

import os

# a single process with one BLAS thread; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> str:
    """Thread count numpy's bundled OpenBLAS reports, else the pinned setting."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def source_revision() -> dict[str, str]:
    """git revision when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lobkit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = "unknown"
    return {"git_revision": git, "src_sha256": digest.hexdigest()}


def provenance(run) -> dict:
    import numpy

    return {
        **source_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "artifacts_sha256": run.artifacts(),
    }


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lobkit" / "__init__.py").is_file():
        print(f"error: no lobkit source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import END_TO_END, LAYERS, PER_LAYER, PRINTED_ONLY, end_to_end, per_layer
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        run = Run(spec, args.seed, work_dir)
        run.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_checks = [c for c in run.checks if not c.ok]
    attempted = run.operations + len(run.checks)
    failed = run.failed_operations + len(failed_checks)
    e2e = end_to_end(run) if any(not u.traced for u in run.units) else {}
    e2e["error_rate"] = failed / attempted
    layers = per_layer(run) if args.trace else {}
    units = {**END_TO_END, **PRINTED_ONLY}
    prov = provenance(run)

    print(f"workload {spec.name} seed {args.seed}: {spec.why}")
    print(f"units {len(run.units)} ({sum(u.traced for u in run.units)} traced), set-ups {len(run.setup_s)}, "
          f"route decisions timed {e2e.get('route_decisions', 0)}")
    print_table("provenance", [(k, v) for k, v in prov.items() if k != "artifacts_sha256"])
    print_table("artifacts (sha256)", sorted(prov["artifacts_sha256"].items()))
    print_table("checks", [("ok" if c.ok else "FAILED", c.name, c.detail) for c in run.checks])
    print_table("end-to-end", [(name, e2e[name], units[name]) for name in units if name in e2e])
    if layers:
        print_table(
            "per-layer (median per traced unit)", [(name, layers[name], unit) for name, unit in PER_LAYER.items()]
        )
        print_table(
            "layer table: self s, calls, share % of the unit",
            [
                (layer, layers[f"layer.{layer}.self_s"], layers[f"layer.{layer}.calls"], layers[f"layer.{layer}.share_pct"])
                for layer in LAYERS
            ]
            + [("(benchmark glue)", layers["layer.glue.self_s"], "", "")],
        )
        run.tracer.write(OUT_DIR / f"spans-{spec.name}.csv")

    names = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items() if name in values}
    result = {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {**result, "end_to_end": e2e, "per_layer": layers, "provenance": prov,
             "checks": [c.__dict__ for c in run.checks]},
            indent=2,
            default=str,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
