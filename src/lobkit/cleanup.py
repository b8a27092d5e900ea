"""Clean-up cost estimation: expected best-ask move at the horizon given
non-execution, as a bucketed curve and as a regression network.

Only orders observed alive through the horizon with a measurable ask move
qualify; everything else is excluded and counted by reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import FEATURE_COLUMNS, feature_matrix
from .fill_model import HIDDEN_LAYERS, NetModel
from .mlp import MLP, TrainConfig, train_mlp
from .replay import OrderLifecycle
from .table import finite_number


@dataclass
class CollectionReport:
    read: int = 0
    kept: int = 0
    died_within_horizon: int = 0
    unmeasurable: int = 0


def cleanup_rows(
    outcome_times: Sequence[float],
    ask_moves: Sequence[float | None],
    horizon: float,
) -> tuple[list[int], CollectionReport]:
    """Indices of the rows that qualify as clean-up samples, with each exclusion counted.

    A row qualifies when its outcome comes after the horizon and its ask move
    was measured.
    """
    rows: list[int] = []
    report = CollectionReport(read=len(outcome_times))
    for i, (outcome_time, move) in enumerate(zip(outcome_times, ask_moves)):
        if outcome_time <= horizon:
            report.died_within_horizon += 1
        elif move is None:
            report.unmeasurable += 1
        else:
            rows.append(i)
    report.kept = len(rows)
    return rows, report


def collect_cleanup_samples(
    records: Sequence[OrderLifecycle],
    horizon: float,
) -> tuple[list[OrderLifecycle], CollectionReport]:
    """The records ``cleanup_rows`` keeps; each one's target is its ``dp_ask_horizon``.
    Training passes the records ``build_training_matrix`` kept."""
    rows, report = cleanup_rows([r.outcome_time for r in records], [r.dp_ask_horizon for r in records], horizon)
    return [records[i] for i in rows], report


@dataclass
class BucketCurve:
    edges: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray
    counts: np.ndarray
    omitted: dict[int, int]

    @property
    def mids(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0


def bucket_estimate(
    values: Sequence[float],
    targets: Sequence[float],
    edges: Sequence[float],
    min_count: int = 30,
) -> BucketCurve:
    """Per-bucket conditional mean of the ask move with its standard error."""
    values = np.asarray(values, dtype=float)
    targets = np.asarray(targets, dtype=float)
    edges = np.asarray(edges, dtype=float)
    n_buckets = len(edges) - 1
    means = np.full(n_buckets, np.nan)
    ses = np.full(n_buckets, np.nan)
    counts = np.zeros(n_buckets, dtype=int)
    omitted: dict[int, int] = {}
    idx = np.searchsorted(edges, values, side="right") - 1
    for b in range(n_buckets):
        sel = idx == b
        counts[b] = int(sel.sum())
        if counts[b] < min_count:
            if counts[b] > 0:
                omitted[b] = counts[b]
            continue
        t = targets[sel]
        means[b] = t.mean()
        ses[b] = t.std(ddof=1) / np.sqrt(counts[b]) if counts[b] > 1 else 0.0
    return BucketCurve(edges=edges, means=means, std_errors=ses, counts=counts, omitted=omitted)


# ---------------------------------------------------------------------------
# Regression model
# ---------------------------------------------------------------------------


@dataclass
class CleanupModel(NetModel):
    kind = "cleanup"
    winsor_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        bounds = self.winsor_bounds
        numbers = isinstance(bounds, tuple) and len(bounds) == 2 and all(map(finite_number, bounds))
        if bounds is not None and not (numbers and bounds[0] <= bounds[1]):
            raise ValueError(f"field 'winsor_bounds' is {bounds!r}, not null or two finite numbers, low to high")


#: The target quantiles the clean-up regressor clips its training targets to.
WINSOR_QUANTILES = (0.001, 0.999)


def winsorize(targets: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    lo, hi = np.quantile(targets, WINSOR_QUANTILES)
    return np.clip(targets, lo, hi), (float(lo), float(hi))


def train_cleanup_model(
    X: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    columns: Sequence[str] = FEATURE_COLUMNS,
    horizon: float = 1.0,
    trained_span: tuple[int, int] | None = None,
) -> CleanupModel:
    """Squared-loss fit of the identity-head network on winsorized targets."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    bounds = None
    if len(targets) > 0:
        targets, bounds = winsorize(targets)
    mlp = MLP([X.shape[1], *HIDDEN_LAYERS, 1], output="identity", seed=cfg.seed)
    report = train_mlp(mlp, X, targets, np.ones(len(targets)), cfg)
    return CleanupModel(
        mlp=mlp,
        columns=tuple(columns),
        horizon=horizon,
        winsor_bounds=bounds,
        trained_span=trained_span,
        report=report,
    )


def samples_to_matrix(samples: Sequence[OrderLifecycle]) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and ask-move targets (ticks) of clean-up samples."""
    return feature_matrix(s.features for s in samples), np.array([s.dp_ask_horizon for s in samples], dtype=float)
