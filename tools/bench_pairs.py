"""Alternating benchmark pairs: a base revision against the working tree, one metric table per workload.

    python3 tools/bench_pairs.py --workload research-600s --seed 1 --pairs 10 \\
        [--seconds S] [--base HEAD] [--record BENCH_<pr>.json]

Exports ``--base`` (default ``HEAD``) with ``git archive`` into a temporary
directory; the change is the working tree.  Each pair runs
``benchmarks/run.py --trace 0`` once in each tree, the base first in even
pairs and the change first in odd ones, for ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``; ``--seconds 0`` runs the set-up and
one unit of work, which compares ``peak_rss_mb`` at equal work).  For every
end-to-end metric in ``BENCHMARK.json`` it prints each side's median and
quartiles, the change/base ratio of the medians, the pairs the change won
(ties count for neither side), whether a gain holds (wins in at least nine
tenths of the pairs and medians further apart than the base's interquartile
range) and whether the change stays inside the metric's bound: ``ok``,
``WORSE``, or ``unresolved`` when the base's interquartile range is wider than
the bound and not every change run beats every base run, so the runs are too
spread to tell whether the bound holds.  It also says, for each side, whether
its own runs wrote the same artifact digests, names every artifact whose
digest differs between the base and the change, counts the failed
operations and gives each tree's source size (``src_lines``, the total of
``wc -l src/lobkit/*.py``).  It exits 1 when a side's runs disagree with
each other or the change fails an operation; artifacts that differ between
the sides alone do not fail it, since a change may alter an artifact on
purpose.

The change is recorded as the commit the working tree sits on, whether the
tree differs from it under ``src/`` or ``benchmarks/``, and the sha256 of
that difference (``git diff <head> -- src benchmarks``); once the change is
committed, ``git diff <head> <commit> -- src benchmarks | sha256sum`` gives
the same hash when the committed code is the code that was measured.

``--record`` writes the results as JSON at the repository root, after the
entries a file already there holds, so every round of runs stays on record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--record", help="file name under the repository root for the JSON result, e.g. BENCH_11.json")
    return parser.parse_args(argv)


def export(revision: str, into: Path) -> str:
    """The tree of ``revision`` unpacked under ``into``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = into / "tree.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return commit


def working_tree() -> dict:
    """The measured code: the commit under the working tree and the tree's difference from it."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    head = git("rev-parse", "HEAD").decode().strip()
    diff = git("diff", head, "--", "src", "benchmarks")
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "benchmarks")
    return {
        "head": head,
        "dirty": bool(diff or untracked),
        "diff_sha256": hashlib.sha256(diff).hexdigest(),
        "untracked": untracked.decode().split(),
    }


def src_lines(tree: Path) -> int:
    """The line total ``wc -l src/lobkit/*.py`` prints in ``tree``: the newlines of lobkit's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "lobkit").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metric values, operation counts and artifact digests."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "artifacts": full["provenance"]["artifacts_sha256"],
    }


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the change's wins, the gain and bound verdicts."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in p[side]["metrics"] for p in pairs for side in ("base", "change")):
            continue
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        (bq1, bmed, bq3), (cq1, cmed, cq3) = spread(base), spread(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        beats_every_base_run = max(change) < min(base) if lower else min(change) > max(base)
        better = cmed < bmed if lower else cmed > bmed
        worse_by = (cmed - bmed if lower else bmed - cmed) / abs(bmed) if bmed else 0.0
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3, "runs": base},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": change},
            "ratio": cmed / bmed if bmed else None,
            "change_wins": wins,
            "gain_holds": better and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1,
            "within_bound": worse_by <= metric["bound"],
            "resolved": bq3 - bq1 <= metric["bound"] * abs(bmed) or beats_every_base_run,
        }
    return out


def artifact_agreement(pairs: list[dict]) -> dict:
    """Whether each side's runs wrote the same digests, and the artifacts whose digests differ between the sides."""

    def digests(side: str) -> dict[str, set]:
        """Each artifact's digests over the side's runs; a run that lacks it adds ``None``."""
        names = {name for p in pairs for name in p[side]["artifacts"]}
        return {name: {p[side]["artifacts"].get(name) for p in pairs} for name in names}

    base, change = digests("base"), digests("change")
    return {
        "runs_agree": {"base": all(len(d) == 1 for d in base.values()), "change": all(len(d) == 1 for d in change.values())},
        "artifacts_differ": sorted(name for name in base.keys() | change.keys() if base.get(name) != change.get(name)),
    }


def passed(entry: dict) -> bool:
    """Each side's runs agree with each other and the change failed no operation."""
    return all(entry["runs_agree"].values()) and not entry["failed"]["change"]


def report(entry: dict) -> None:
    print(f"\n{entry['workload']} seed {entry['seed']}, {entry['pairs']} pairs of {entry['seconds']} s runs")
    agree = entry["runs_agree"]
    print(f"  artifacts: base runs agree {agree['base']}, change runs agree {agree['change']}; "
          f"differ between base and change: {', '.join(entry['artifacts_differ']) or 'none'}")
    lines = entry["src_lines"]
    print(f"  src/lobkit/*.py: base {lines['base']} lines, change {lines['change']} ({lines['change'] - lines['base']:+d})")
    print(f"  failed operations base {entry['failed']['base']}/{entry['attempted']['base']}, "
          f"change {entry['failed']['change']}/{entry['attempted']['change']}")
    print(f"  {'metric':24}{'base median [q1-q3]':34}{'change median [q1-q3]':34} ratio  wins  gain  bound")
    for name, s in entry["summary"].items():
        base, change = (
            f"{s[side]['median']:.6g} [{s[side]['q1']:.6g}-{s[side]['q3']:.6g}]" for side in ("base", "change")
        )
        ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "-"
        bound = "WORSE" if not s["within_bound"] else "ok" if s["resolved"] else "unresolved"
        print(f"  {name:24}{base:34}{change:34} {ratio:5}  {s['change_wins']:<4}  "
              f"{'yes' if s['gain_holds'] else 'no':4}  {bound}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        (scratch / "base").mkdir()
        base_commit = export(args.base, scratch / "base")
        trees = {"base": scratch / "base" / "tree", "change": ROOT}
        change = working_tree()
        entries = []
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pairs.append({side: run_once(trees[side], workload, args.seed, seconds) for side in order})
                print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs} ({order[0]} first) done", flush=True)
            entry = {
                "workload": workload,
                "seed": args.seed,
                "seconds": seconds,
                "pairs": args.pairs,
                "base": base_commit,
                "change": change,
                "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
                **artifact_agreement(pairs),
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("base", "change")},
                "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in ("base", "change")},
                "summary": summarize(pairs, spec),
            }
            report(entry)
            entries.append(entry)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.record:
        path = ROOT / args.record
        old = json.loads(path.read_text())["results"] if path.exists() else []
        path.write_text(json.dumps({"results": old + entries}, indent=2) + "\n")
        print(f"wrote {path}")
    return 0 if all(map(passed, entries)) else 1


if __name__ == "__main__":
    sys.exit(main())
