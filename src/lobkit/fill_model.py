"""Fixed-horizon fill probability model trained on censored order outcomes.

Cancellation and feed loss censor the execution time, so the binary
cross-entropy is reweighted by the inverse of the estimated censoring
survival: orders executed before the horizon weigh ``1/G(E)``, orders that
stay alive through the horizon weigh ``1/G(T)``, and orders censored first
drop out of the loss.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from numbers import Integral
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .features import FEATURE_COLUMNS, feature_matrix
from .mlp import MLP, SingleClass, TrainConfig, TrainingReport, train_mlp
from .replay import OrderLifecycle, Outcome
from .survival import (
    CAUSE_CANCELLATION,
    CAUSE_CENSORED,
    CAUSE_EXECUTION,
    Observation,
    SurvivalCurve,
    kaplan_meier,
    quantile_edges,
)
from .table import ArtifactInvalid, finite_number, json_object

__all__ = [
    "censoring_survival",
    "CensoringModel",
    "stratified_censoring_survival",
    "ipcw_weights",
    "IPCWResult",
    "build_training_matrix",
    "NetModel",
    "FillModel",
    "train_fill_model",
]


def censoring_survival(obs: Sequence[Observation]) -> SurvivalCurve:
    """Product-limit curve of the censoring variable, with roles swapped:
    cancellation and feed loss die, execution censors.  Executions sharing a
    timestamp with a cancellation leave the risk set first, keeping the
    deaths-before-censorings rule consistent between the two curves."""
    return kaplan_meier(
        obs,
        death_causes=(CAUSE_CANCELLATION, CAUSE_CENSORED),
        tie_first_causes=(CAUSE_EXECUTION,),
    )


def _bucket(edges: Sequence[float], x: float) -> int:
    """The bucket of the last edge at or below ``x``, clamped to the first and last bucket; NaN falls in the last."""
    return min(max(bisect_right(edges, x) - 1, 0), len(edges) - 2)


@dataclass
class CensoringModel:
    """Censoring survival stratified by placement regime.

    Passive orders stratify on distance buckets, at-best orders form one
    stratum, aggressive orders stratify on aggressiveness-index buckets.
    """

    delta_edges: list[float]
    curves: dict[str, SurvivalCurve] = field(default_factory=dict)

    def stratum_of(self, delta: float, omega: float | None) -> str:
        if delta == 0:
            return "at_best"
        if delta < 0:
            return f"aggressive_{_bucket(OMEGA_EDGES, 0.0 if omega is None else omega)}"
        return f"passive_{_bucket(self.delta_edges, delta)}"

    def curve_of(self, key: str) -> SurvivalCurve:
        """A stratum's curve, or the pooled one for a stratum unseen when fitting."""
        curve = self.curves.get(key)
        if curve is None:
            curve = self.curves.get("pooled")
        if curve is None:
            raise KeyError(f"no censoring curve for stratum {key!r} and no pooled fallback")
        return curve

    def survival_at(self, delta: float, omega: float | None, t: float) -> float:
        return float(self.curve_of(self.stratum_of(delta, omega)).at(t))


#: Aggressiveness-index bucket edges of the aggressive strata.
OMEGA_EDGES = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 + 1e-9)


def stratified_censoring_survival(records: Sequence[OrderLifecycle], min_count: int = 50) -> CensoringModel:
    """Per-regime censoring curves; the passive strata are distance deciles."""
    deltas = [r.features.delta for r in records if r.features.delta > 0]
    edges = quantile_edges(deltas, 10) if deltas else []
    model = CensoringModel(delta_edges=edges if len(edges) >= 2 else [0.0, float("inf")])
    groups: dict[str, list[Observation]] = {}
    for rec in records:
        key = model.stratum_of(rec.features.delta, rec.features.aggressiveness)
        groups.setdefault(key, []).append(Observation(rec.outcome_time, int(rec.outcome)))
    pooled = [Observation(r.outcome_time, int(r.outcome)) for r in records]
    pooled_curve = censoring_survival(pooled)
    for key, obs in groups.items():
        # thin strata fall back to the pooled curve rather than a noisy one
        model.curves[key] = (
            censoring_survival(obs) if len(obs) >= min_count else pooled_curve
        )
    model.curves.setdefault("pooled", pooled_curve)
    return model


@dataclass
class IPCWResult:
    weights: np.ndarray
    labels: np.ndarray  # 1 when executed within the horizon
    floored: int  # censoring survival evaluations clipped at the floor


def ipcw_weights(
    records: Sequence[OrderLifecycle],
    horizon: float,
    censoring: CensoringModel,
    floor: float = 0.01,
) -> IPCWResult:
    """Inverse-probability-of-censoring weights at a fixed horizon.

    Executed-within-horizon orders get ``1/G(E)``; orders observed alive
    through the horizon get ``1/G(T)``; orders cancelled or censored before
    ``min(E, T)`` get zero.  ``G`` is each record's stratum curve, evaluated
    just before the event time, matching the deaths-before-censorings tie
    rule of the estimator.
    """
    weights = np.zeros(len(records))
    labels = np.zeros(len(records))
    t_eval = np.zeros(len(records))
    # the weighted records of each stratum, in record order; one curve evaluation per stratum
    strata: dict[str, list[int]] = {}
    filled = Outcome.FILLED
    for i, rec in enumerate(records):
        executed_at = rec.outcome_time if rec.outcome is filled else None
        if executed_at is not None and executed_at <= horizon:
            labels[i] = 1.0
            t_eval[i] = executed_at
        elif rec.outcome_time > horizon or (executed_at is not None):
            # survived through the horizon (death or censoring came later)
            t_eval[i] = horizon
        else:
            continue  # censored (cancel or feed loss) before min(E, T): weight 0
        key = censoring.stratum_of(rec.features.delta, rec.features.aggressiveness)
        strata.setdefault(key, []).append(i)
    floored = 0
    for key, rows in strata.items():
        g = censoring.curve_of(key).at(t_eval[rows])
        low = g < floor
        g[low] = floor
        floored += int(np.count_nonzero(low))
        weights[rows] = 1.0 / g
    return IPCWResult(weights=weights, labels=labels, floored=floored)


def build_training_matrix(
    records: Sequence[OrderLifecycle],
    horizon: float,
    censoring: CensoringModel,
    floor: float = 0.01,
):
    """(X, y, w, kept_records, ipcw) ready for the classifier; the one place
    where records whose feature windows are not yet full are dropped."""
    kept = [r for r in records if not r.features.partial_window]
    ipcw = ipcw_weights(kept, horizon, censoring, floor=floor)
    return feature_matrix(r.features for r in kept), ipcw.labels, ipcw.weights, kept, ipcw


# ---------------------------------------------------------------------------
# Model wrappers and their files
# ---------------------------------------------------------------------------

HIDDEN_LAYERS = (32, 32, 32)


@dataclass
class NetModel:
    """One network over the feature columns, saved as a model file: a JSON
    object of its ``kind``, the network under ``mlp`` and every other field
    but ``report``."""

    kind: ClassVar[str]
    mlp: MLP
    columns: tuple[str, ...] = FEATURE_COLUMNS
    horizon: float = 1.0
    trained_span: tuple[int, int] | None = None  # (first_ts, last_ts) of training rows
    report: TrainingReport | None = None

    def __post_init__(self) -> None:
        inputs = self.mlp.layer_sizes[0]
        if not isinstance(self.columns, tuple) or len(self.columns) != inputs:
            raise ValueError(f"field 'columns' is {self.columns!r}, not {inputs} names, one per network input")
        if not (finite_number(self.horizon) and self.horizon > 0):
            raise ValueError(f"field 'horizon' is {self.horizon!r}, not a positive finite number")
        span = self.trained_span
        integers = isinstance(span, tuple) and all(isinstance(t, Integral) and not isinstance(t, bool) for t in span)
        if span is not None and not (integers and len(span) == 2):
            raise ValueError(f"field 'trained_span' is {span!r}, not null or two integers")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """One output per row of the (n, len(columns)) matrix ``X``."""
        return self.mlp.predict(X)

    @classmethod
    def file_fields(cls) -> list[str]:
        """The fields a model file holds beside ``kind`` and ``mlp``."""
        return [f.name for f in fields(cls) if f.name not in ("mlp", "report")]

    def envelope(self) -> dict:
        """The model file's JSON object."""
        return {"kind": self.kind, "mlp": self.mlp.to_dict(), **{name: getattr(self, name) for name in self.file_fields()}}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.envelope(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path):
        """The model ``save`` wrote to ``path``.  A file of another kind, or one
        missing a field or holding one the model rejects, raises
        ``ArtifactInvalid`` naming the file and the field."""
        path = Path(path)
        blob = json_object(path, "model file")
        if blob.get("kind") != cls.kind:
            raise ArtifactInvalid(f"{path}: field 'kind' is {blob.get('kind')!r}, not {cls.kind!r}")
        names = cls.file_fields()
        for name in ["mlp", *names]:
            if name not in blob:
                raise ArtifactInvalid(f"{path}: required field {name!r} is missing")
        try:
            mlp = MLP.from_dict(blob["mlp"])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ArtifactInvalid(f"{path}: field 'mlp' is not a network ({exc!r})") from exc
        # JSON arrays back into the tuples the fields hold
        values = {name: tuple(blob[name]) if isinstance(blob[name], list) else blob[name] for name in names}
        try:
            return cls(mlp=mlp, **values)
        except ValueError as exc:
            raise ArtifactInvalid(f"{path}: {exc}") from exc


class FillModel(NetModel):
    kind = "fill"


def train_fill_model(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    cfg: TrainConfig,
    columns: Sequence[str] = FEATURE_COLUMNS,
    horizon: float = 1.0,
    trained_span: tuple[int, int] | None = None,
) -> FillModel:
    """Weighted binary cross-entropy fit of the sigmoid-head network."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    active = y[w > 0]
    if active.size == 0 or active.min() == active.max():
        raise SingleClass("training needs both classes among positive-weight samples")
    mlp = MLP([X.shape[1], *HIDDEN_LAYERS, 1], output="sigmoid", seed=cfg.seed)
    report = train_mlp(mlp, X, y, w, cfg)
    return FillModel(mlp=mlp, columns=tuple(columns), horizon=horizon, trained_span=trained_span, report=report)

