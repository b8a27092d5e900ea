"""Artifacts exchanged between the pipeline stages: CSV tables and model files.

Floats are written with ``repr`` so identical runs produce byte-identical
files and values round-trip exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cleanup import CleanupModel
from .features import FEATURE_COLUMNS, FeatureVector
from .fill_model import REGIMES, FillModel, RegimeFillModels
from .messages import Side
from .mlp import MLP
from .placement import MarketSnapshot
from .replay import OrderLifecycle, Outcome
from .survival import CAUSE_CANCELLATION, CAUSE_EXECUTION, CIFCurve, SurvivalCurve, gray_variance, log_log_ci


class ArtifactInvalid(ValueError):
    """A JSON artifact that does not parse, lacks a field or holds a wrong one."""


#: Lifecycle columns that fill a ``FeatureVector``, in field order; the
#: vector's ``size`` is the record's own column, ``partial_window`` is parsed apart.
_VECTOR_COLUMNS = tuple(f.name for f in dataclasses.fields(FeatureVector) if f.name != "partial_window")
#: Feature fields written to columns of their own.
_FEATURE_FIELDS = tuple(name for name in _VECTOR_COLUMNS if name != "size")

LIFECYCLE_FIELDS = (
    "order_id",
    "side",
    "insert_ts_ns",
    "price_ticks",
    "size",
    "outcome",
    "outcome_time_s",
    "fill_ratio",
    "fill_ratio_horizon",
    "dp_ask_horizon",
    "partial_window",
    "insert_best_ask",
) + _FEATURE_FIELDS


def _cell(x) -> str:
    """``None`` as an empty cell, floats (numpy's too) as ``repr`` of the Python float."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV writer behind every tabular artifact."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def write_lifecycles(path: str | Path, records: Sequence[OrderLifecycle], horizon: float) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LIFECYCLE_FIELDS)
        for r in records:
            f = r.features
            writer.writerow(
                [
                    r.order_id,
                    r.side.value,
                    r.insert_ts,
                    r.price,
                    repr(float(r.size)),
                    r.outcome.name.lower(),
                    repr(float(r.outcome_time)),
                    repr(float(r.fill_ratio)),
                    repr(float(r.fill_ratio_within(horizon))),
                    _cell(r.dp_ask_horizon),
                    int(f.partial_window),
                    r.insert_best_ask,
                ]
                + [_cell(getattr(f, name)) for name in _FEATURE_FIELDS]
            )


def read_lifecycles(path: str | Path) -> list[OrderLifecycle]:
    records: list[OrderLifecycle] = []
    with Path(path).open(newline="") as fh:
        for rec in csv.DictReader(fh):
            features = FeatureVector(  # only aggressiveness may be empty
                *[float(rec[n]) if n != "aggressiveness" or rec[n] else None for n in _VECTOR_COLUMNS],
                partial_window=bool(int(rec["partial_window"])),
            )
            records.append(
                OrderLifecycle(
                    order_id=rec["order_id"],
                    side=Side(rec["side"]),
                    insert_ts=int(rec["insert_ts_ns"]),
                    price=int(rec["price_ticks"]),
                    size=float(rec["size"]),
                    features=features,
                    outcome=Outcome[rec["outcome"].upper()],
                    outcome_time=float(rec["outcome_time_s"]),
                    fill_ratio=float(rec["fill_ratio"]),
                    fill_ratio_horizon=float(rec["fill_ratio_horizon"]) if rec["fill_ratio_horizon"] else None,
                    dp_ask_horizon=float(rec["dp_ask_horizon"]) if rec["dp_ask_horizon"] else None,
                    insert_best_ask=int(rec["insert_best_ask"]),
                )
            )
    return records


MATRIX_FIELDS = (
    "order_id",
    "insert_ts_ns",
    "outcome",
    "outcome_time_s",
    "label",
    "weight",
    "dp_ask_horizon",
    "partial_window",
) + FEATURE_COLUMNS


def write_matrix(
    path: str | Path,
    records: Sequence[OrderLifecycle],
    labels: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Feature matrix export: one row per lifecycle with label and weight."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATRIX_FIELDS)
        for r, y, w in zip(records, labels, weights):
            row = [
                r.order_id,
                r.insert_ts,
                r.outcome.name.lower(),
                repr(float(r.outcome_time)),
                repr(float(y)),
                repr(float(w)),
                _cell(r.dp_ask_horizon),
                int(r.features.partial_window),
            ]
            row.extend(repr(float(v)) for v in r.features.to_row())
            writer.writerow(row)


def read_matrix(path: str | Path):
    """(X, y, w, meta) from a feature matrix CSV; meta is a list of dicts."""
    rows_x: list[list[float]] = []
    ys: list[float] = []
    ws: list[float] = []
    meta: list[dict] = []
    with Path(path).open(newline="") as fh:
        for rec in csv.DictReader(fh):
            rows_x.append([float(rec[c]) for c in FEATURE_COLUMNS])
            ys.append(float(rec["label"]))
            ws.append(float(rec["weight"]))
            meta.append(
                {
                    "order_id": rec["order_id"],
                    "insert_ts": int(rec["insert_ts_ns"]),
                    "outcome": rec["outcome"],
                    "outcome_time": float(rec["outcome_time_s"]),
                    "dp_ask_horizon": float(rec["dp_ask_horizon"]) if rec["dp_ask_horizon"] else None,
                    "partial_window": bool(int(rec["partial_window"])),
                }
            )
    X = np.asarray(rows_x, dtype=float) if rows_x else np.zeros((0, len(FEATURE_COLUMNS)))
    return X, np.asarray(ys), np.asarray(ws), meta


def write_survival_curve(path: str | Path, curve: SurvivalCurve) -> None:
    write_table(
        path,
        ("time", "survival", "at_risk", "deaths", "censored"),
        zip(curve.times, curve.values, curve.at_risk, curve.deaths, curve.censored),
    )


def write_cif_curves(path: str | Path, curves: dict[tuple, CIFCurve], by_names: Sequence[str], alpha: float = 0.05) -> None:
    """Long-format export of bucketed incidence curves with CI bands."""

    def rows():
        for key in sorted(curves):
            curve = curves[key]
            for cause, name in ((CAUSE_EXECUTION, "execution"), (CAUSE_CANCELLATION, "cancellation")):
                var = gray_variance(curve, cause)
                for t, f, v in zip(curve.times, curve.cif[cause], var):
                    yield [*key, name, t, f, v, *log_log_ci(float(f), float(v), alpha)]

    bucket_cols = [f"bucket_{name}" for name in by_names]
    write_table(path, bucket_cols + ["cause", "time", "incidence", "variance", "ci_lo", "ci_hi"], rows())


# ---------------------------------------------------------------------------
# JSON artifacts: route snapshots and model files
# ---------------------------------------------------------------------------


def _json_object(path: Path, what: str) -> dict:
    try:
        blob = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactInvalid(f"{path}: not a JSON {what} ({exc})") from exc
    if not isinstance(blob, dict):
        raise ArtifactInvalid(f"{path}: not a JSON {what} (top level is not an object)")
    return blob


def read_snapshot(path: str | Path) -> MarketSnapshot:
    """Read a ``route --snapshot`` file.

    Its fields are ``best_bid``, ``best_ask`` and ``tick_size`` in quote
    units, and ``features``: null, or an object with a number for each
    feature column of ``lifecycles.csv`` (``aggressiveness`` may be null) and
    an optional boolean ``partial_window``.
    """
    path = Path(path)
    blob = _json_object(path, "snapshot")

    def number(obj: dict, name: str, label: str) -> float | None:
        if name not in obj:
            raise ArtifactInvalid(f"{path}: required field {label!r} is missing")
        value = obj[name]
        if value is None and name == "aggressiveness":
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ArtifactInvalid(f"{path}: field {label!r} is {value!r}, not a number")
        return float(value)

    quote = {name: number(blob, name, name) for name in ("best_bid", "best_ask", "tick_size")}
    feats = blob.get("features")
    features = None
    if feats is not None:
        if not isinstance(feats, dict):
            raise ArtifactInvalid(f"{path}: field 'features' is {feats!r}, not an object")
        unknown = sorted(set(feats) - {*_VECTOR_COLUMNS, "partial_window"})
        if unknown:
            raise ArtifactInvalid(f"{path}: field 'features.{unknown[0]}' is not a feature column")
        partial = feats.get("partial_window", False)
        if not isinstance(partial, bool):
            raise ArtifactInvalid(f"{path}: field 'features.partial_window' is {partial!r}, not a boolean")
        values = [number(feats, name, f"features.{name}") for name in _VECTOR_COLUMNS]
        features = FeatureVector(*values, partial_window=partial)
    try:
        return MarketSnapshot(**quote, features=features)
    except ValueError as exc:
        raise ArtifactInvalid(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> FillModel | RegimeFillModels | CleanupModel:
    """Read a model file written by ``save``, dispatching on its ``kind``.

    Every model file is one JSON envelope: ``kind``, ``columns``, ``horizon``
    and ``trained_span``, then the network under ``mlp`` (kinds ``fill`` and
    ``cleanup``, the latter with ``winsor_bounds``) or one network per regime
    under ``passive``, ``at_best`` and ``aggressive`` (kind ``fill-per-regime``).
    """
    path = Path(path)
    blob = _json_object(path, "model file")

    def field(name: str):
        if name not in blob:
            raise ArtifactInvalid(f"{path}: required field {name!r} is missing")
        return blob[name]

    def net(name: str) -> MLP:
        value = field(name)
        try:
            return MLP.from_dict(value)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactInvalid(f"{path}: field {name!r} is not a network ({exc!r})") from exc

    kind = field("kind")
    span = field("trained_span")
    common = dict(columns=tuple(field("columns")), horizon=field("horizon"), trained_span=tuple(span) if span else None)
    if kind == FillModel.kind:
        return FillModel(mlp=net("mlp"), **common)
    if kind == CleanupModel.kind:
        bounds = field("winsor_bounds")
        return CleanupModel(mlp=net("mlp"), winsor_bounds=tuple(bounds) if bounds else None, **common)
    if kind == RegimeFillModels.kind:
        parts = {name: FillModel(mlp=net(name), **common) for name in REGIMES}
        return RegimeFillModels(**parts, **common)
    kinds = (FillModel.kind, RegimeFillModels.kind, CleanupModel.kind)
    raise ArtifactInvalid(f"{path}: field 'kind' is {kind!r}, not one of {', '.join(kinds)}")
