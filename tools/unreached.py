"""The statements of ``src/lobkit`` that no benchmark workload, demo or README CLI step reaches.

    python3 tools/unreached.py [--part bench] [--part demos] [--part cli]

Runs each selected part (all three by default) in this process under
``sys.settrace`` and prints every statement of ``src/lobkit/*.py`` that no
part executed, as ``path:line: source``, then a count per module:

- ``bench``: ``benchmarks/run.py --seed 1 --seconds 0 --trace 0`` for each
  workload of ``BENCHMARK.json`` (set-up and one unit of work);
- ``demos``: every script under ``demos/``;
- ``cli``: the README's command-line pipeline in a temporary directory, with
  a second synthetic period for ``backtest``, a snapshot built from the last
  lifecycle, post-and-wait and 2-D survival, and every ``route`` output.

Raises and docstrings are not listed: a raise refuses a malformed input, which
no valid run holds, and a docstring runs no code.  Neither are ``global``,
``nonlocal`` and a bare annotation inside a function, which compile to no code.
The full trace takes about a minute on a 2-CPU host; the benchmark runs write
their results to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lobkit"
PARTS = ("bench", "demos", "cli")


def statements(source: str) -> dict[int, range]:
    """Each statement a trace can show, by its first line, with the lines whose execution shows it ran.

    A simple statement runs when any of its lines does; a compound one
    (``if``, ``for``, ``def``, ``class``, ``try`` ...) when any line of its
    header, decorators included, does.
    """
    tree = ast.parse(source)
    skipped: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                skipped.add(id(first))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.update(id(sub) for sub in ast.walk(node) if isinstance(sub, ast.AnnAssign) and sub.value is None)
    found: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) or id(node) in skipped:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = range(first, last + 1)
    return found


def unreached(sources: dict[str, str], hits: set[tuple[str, int]]) -> list[tuple[str, int]]:
    """The (file, first line) of every statement of ``sources`` (file -> text) none of whose lines is in ``hits``."""
    return [
        (path, line)
        for path, text in sources.items()
        for line, lines in sorted(statements(text).items())
        if not any((path, n) in hits for n in lines)
    ]


@contextlib.contextmanager
def tracing(files: set[str], hits: set[tuple[str, int]]):
    """Record in ``hits`` every (file, line) of ``files`` that runs inside the block."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    try:
        yield
    finally:
        sys.settrace(None)


def run_bench() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    bench = runpy.run_path(str(ROOT / "benchmarks" / "run.py"), run_name="bench_run")
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        bench["main"](["--workload", workload["name"], "--seed", "1", "--seconds", "0", "--trace", "0"])


def run_demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def run_cli() -> None:
    from lobkit import io as lio
    from lobkit.cli import main

    def lobkit(command: str) -> None:
        if main(command.split()) != 0:
            raise SystemExit(f"lobkit {command} failed")

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            lobkit("synth --preset monotone-delta --seed 5 --duration 300 --out messages.csv --truth truth.csv")
            lobkit("replay --messages messages.csv --out lifecycles.csv --fill-ratio-out icdf.csv --diagnostics-out diag.json")
            lobkit("features --lifecycles lifecycles.csv --out matrix.csv")
            lobkit("survival --lifecycles lifecycles.csv --by delta --edges 0,1,2,3,6 --out curves.csv")
            lobkit("survival --lifecycles lifecycles.csv --by delta --by spread --out grid.csv")
            lobkit("survival --lifecycles lifecycles.csv --mode post-and-wait --out pw.csv")
            lobkit("survival --lifecycles lifecycles.csv --out cif.csv")
            lobkit("train-fill --matrix matrix.csv --seed 7 --out fill.json --report fill_report.json --importance")
            lobkit("train-cleanup --matrix matrix.csv --seed 7 --out cleanup.json --bucket-curve-out vhat_by_vol.csv")
            last = lio.read_lifecycles("lifecycles.csv")[-1].features
            features = {f.name: getattr(last, f.name) for f in dataclasses.fields(last) if f.name != "partial_window"}
            snapshot = {"best_bid": 500.0, "best_ask": 500.0 + 0.01 * last.spread, "tick_size": 0.01, "features": features}
            Path("snap.json").write_text(json.dumps(snapshot))
            lobkit(
                "route --snapshot snap.json --fill-model fill.json --cleanup-model cleanup.json --quantity 1.0"
                " --out decision.json --curve-out curve.csv --decision-map-out map.csv --surface-out surface.csv"
            )
            lobkit(
                "synth --preset monotone-delta --seed 6 --duration 300 --synth-set start_ts=1700001000000000000"
                " --out test_messages.csv --truth test_truth.csv"
            )
            lobkit("replay --messages test_messages.csv --out test_lifecycles.csv")
            lobkit(
                "backtest --lifecycles test_lifecycles.csv --train-matrix matrix.csv --fill-model fill.json"
                " --cleanup-model cleanup.json --average-trade-size 1.0 --out metrics.json"
            )
        finally:
            os.chdir(cwd)


RUNNERS = {"bench": run_bench, "demos": run_demos, "cli": run_cli}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--part", action="append", choices=PARTS, help="repeat for several parts (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sources = {str(path): path.read_text() for path in sorted(SRC.glob("*.py"))}
    hits: set[tuple[str, int]] = set()
    for part in args.part or PARTS:
        print(f"tracing {part} ...", file=sys.stderr)
        with tracing(set(sources), hits), contextlib.redirect_stdout(io.StringIO()):
            RUNNERS[part]()
    missed = unreached(sources, hits)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line}: {sources[path].splitlines()[line - 1].strip()}")
    for path in sources:
        count = sum(1 for p, _ in missed if p == path)
        print(f"{Path(path).relative_to(ROOT)}: {count} of {len(statements(sources[path]))} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
