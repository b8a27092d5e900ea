"""Output checks.  Each returns a :class:`Check`; a failed one counts in
``error_rate`` and makes the run incorrect."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def add_accounting(adds: int, records: int, diagnostics) -> Check:
    """Every add in the stream is tracked or excluded for a counted reason."""
    d = diagnostics
    accounted = records + d.marketable_excluded + d.depth_excluded + d.no_reference_skipped + d.crossed_rejected
    return Check(
        "add_accounting",
        adds == accounted,
        f"{adds} adds; {records} records + {d.marketable_excluded} marketable + {d.depth_excluded} depth"
        f" + {d.no_reference_skipped} no-reference + {d.crossed_rejected} crossed = {accounted}",
    )


def subject_lifecycles(truth_ids: Iterable[str], record_ids: Iterable[str]) -> Check:
    """Every subject order of the truth sidecar has exactly one lifecycle."""
    counts = Counter(record_ids)
    truth_ids = list(truth_ids)
    missing = [i for i in truth_ids if counts[i] == 0]
    repeated = [i for i in truth_ids if counts[i] > 1]
    detail = f"{len(truth_ids)} subjects, {len(missing)} without a lifecycle, {len(repeated)} with several"
    if missing or repeated:
        detail += f" (first: {(missing + repeated)[0]})"
    return Check("subject_lifecycles", not missing and not repeated, detail)


def identical(name: str, runs: Sequence[dict], labels: Sequence[str]) -> Check:
    """Every run's values equal the first run's, key by key."""
    if len(runs) < 2:
        return Check(name, False, f"needs two runs to compare, got {len(runs)}")
    first = runs[0]
    for run, label in zip(runs[1:], labels[1:]):
        for key in sorted(set(first) | set(run)):
            if first.get(key) != run.get(key):
                return Check(name, False, f"{key} of {label} differs from {labels[0]}")
    return Check(name, True, f"{len(first)} outputs equal across {len(runs)} runs")
