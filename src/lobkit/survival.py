"""Non-parametric lifetime estimation under right censoring.

Implements the product-limit survival estimator, the cause-specific
cumulative incidence estimator for the execution/cancellation competing
risks, its variance, log-log confidence intervals, and the post-and-wait
variant that treats cancellation as censoring.

Curves are step functions.  Evaluation at a time ``t`` uses the events
strictly before ``t``, so ``curve.at(t_k)`` is the pre-jump value and
``curve.at(t_k + eps)`` the post-jump value.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .features import FEATURE_COLUMNS, feature_matrix

CAUSE_CENSORED = 0
CAUSE_EXECUTION = 1
CAUSE_CANCELLATION = 2


class EmptyInput(ValueError):
    pass


@dataclass(slots=True)
class Observation:
    """One possibly-censored duration: ``cause`` 0 censored, 1 execution, 2 cancellation."""

    time: float
    cause: int

    def __post_init__(self) -> None:
        if self.time <= 0:
            raise ValueError(f"duration must be positive, got {self.time}")


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def _step_at(times: np.ndarray, start: float, values: np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """The step function worth ``start`` up to ``times[0]`` and ``values[k]``
    just after ``times[k]``, at ``t`` from the events strictly before it: a
    float for a scalar ``t``, an array for an array."""
    out = np.concatenate(([start], values))[np.searchsorted(times, np.asarray(t), side="left")]
    return float(out) if np.ndim(t) == 0 else out


@dataclass
class SurvivalCurve:
    """Product-limit curve with its risk-set bookkeeping.

    ``values[k]`` is the survival just after ``times[k]``; ties aggregate
    deaths and censorings at the same time, with censorings leaving the risk
    set after the deaths are counted.
    """

    times: np.ndarray
    values: np.ndarray  # post-jump survival
    at_risk: np.ndarray  # n_k
    deaths: np.ndarray  # d_k
    censored: np.ndarray  # c_k

    def at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Survival at ``t`` using events strictly before ``t``."""
        return _step_at(self.times, 1.0, self.values, t)


@dataclass
class CIFCurve:
    """Aalen-Johansen cumulative incidence for the two competing causes."""

    times: np.ndarray
    cif: dict[int, np.ndarray]  # cause -> post-jump incidence
    survival: np.ndarray  # all-cause post-jump survival
    at_risk: np.ndarray
    deaths: dict[int, np.ndarray]  # cause -> d_k^i
    censored: np.ndarray

    @property
    def skipped_terms(self) -> int:
        """Event times whose risk set is <= 1, which the variance drops."""
        d = self.deaths[CAUSE_EXECUTION] + self.deaths[CAUSE_CANCELLATION]
        return int(np.sum((self.at_risk <= 1) & (d > 0)))

    def incidence_at(self, cause: int, t: float | np.ndarray) -> float | np.ndarray:
        return _step_at(self.times, 0.0, self.cif[cause], t)

    def survival_at(self, t: float | np.ndarray) -> float | np.ndarray:
        return _step_at(self.times, 1.0, self.survival, t)

    def variance_at(self, cause: int, t: float | np.ndarray) -> float | np.ndarray:
        return _step_at(self.times, 0.0, gray_variance(self, cause), t)

    def confidence_interval(self, cause: int, t: float, alpha: float = 0.05) -> tuple[float, float]:
        f = self.incidence_at(cause, t)
        return log_log_ci(f, self.variance_at(cause, t), alpha)


def _tabulate(obs: Sequence[Observation]):
    """The unique times, the risk set just before each and cause -> count at each, as floats."""
    if not obs:
        raise EmptyInput("no observations")
    uniq, inverse = np.unique([o.time for o in obs], return_inverse=True)
    causes = np.array([o.cause for o in obs])
    counts = {
        cause: np.bincount(inverse[causes == cause], minlength=len(uniq)).astype(float)
        for cause in (CAUSE_EXECUTION, CAUSE_CANCELLATION, CAUSE_CENSORED)
    }
    n = len(obs) - np.concatenate(([0.0], np.cumsum(sum(counts.values()))[:-1]))
    return uniq, n, counts


def _product_limit(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Post-jump survival ``prod(1 - d_k / n_k)``; an empty risk set leaves it flat."""
    with np.errstate(invalid="ignore"):
        return np.cumprod(np.where(n > 0, 1.0 - d / np.where(n > 0, n, 1.0), 1.0))


def kaplan_meier(
    obs: Sequence[Observation],
    death_causes: tuple[int, ...] = (CAUSE_EXECUTION, CAUSE_CANCELLATION),
    tie_first_causes: tuple[int, ...] = (),
) -> SurvivalCurve:
    """Product-limit estimator; causes outside ``death_causes`` censor.

    ``tie_first_causes`` name events that, at a shared timestamp, leave the
    risk set before this curve's deaths are counted.  The main lifetime
    curves never need it (their deaths go first); the censoring-survival
    curve does, because executions at the same instant precede the
    cancellations it treats as deaths.
    """
    uniq, n, counts = _tabulate(obs)
    d = np.zeros_like(n)
    first = np.zeros_like(n)
    c = np.zeros_like(n)
    for cause, count in counts.items():
        if cause in death_causes:
            d = d + count
        else:
            c = c + count
            if cause in tie_first_causes:
                first = first + count
    return SurvivalCurve(uniq, _product_limit(n - first, d), n, d, c)


def aalen_johansen(obs: Sequence[Observation]) -> CIFCurve:
    """Cause-specific cumulative incidence built on the all-cause curve."""
    uniq, n, counts = _tabulate(obs)
    d1, d2 = counts[CAUSE_EXECUTION], counts[CAUSE_CANCELLATION]
    survival = _product_limit(n, d1 + d2)
    s_prev = np.concatenate(([1.0], survival[:-1]))
    safe_n = np.where(n > 0, n, 1.0)
    cif1 = np.cumsum(s_prev * d1 / safe_n)
    cif2 = np.cumsum(s_prev * d2 / safe_n)
    return CIFCurve(
        times=uniq,
        cif={CAUSE_EXECUTION: cif1, CAUSE_CANCELLATION: cif2},
        survival=survival,
        at_risk=n,
        deaths={CAUSE_EXECUTION: d1, CAUSE_CANCELLATION: d2},
        censored=counts[CAUSE_CENSORED],
    )


def gray_variance(curve: CIFCurve, cause: int) -> np.ndarray:
    """Variance of the cumulative incidence, returned at each event time.

    ``out[j]`` estimates the variance of the incidence for horizons in
    ``(times[j], times[j+1]]``.  Terms whose risk set is <= 1 are skipped
    (the formula divides by ``n_k - 1``; ``curve.skipped_terms`` counts
    them); negative rounding residue clamps to zero.
    """
    n = curve.at_risk
    d = curve.deaths[CAUSE_EXECUTION] + curve.deaths[CAUSE_CANCELLATION]
    di = curve.deaths[cause]
    fi = curve.cif[cause]  # post-jump incidence at each event time
    s_prev = np.concatenate(([1.0], curve.survival[:-1]))
    usable = n > 1
    m = np.where(n > 0, (n - di) / np.where(n > 0, n, 1.0), 0.0)

    # expanding (F(t) - F(t_k))^2 and the cross term turns the three sums
    # into prefix sums; a risk set fully wiped at t_k (n_k = d_k) can only be
    # the final event, where F(t) - F(t_k) = 0, so zeroing its coefficient
    # reproduces the direct summation exactly
    survivors = n - d
    safe_surv = np.where(survivors > 0, survivors, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(usable & (survivors > 0), d / ((n - 1.0) * safe_surv), 0.0)
        b = np.where(usable, s_prev**2 * di * m / ((n - 1.0) * np.where(n > 0, n, 1.0)), 0.0)
        c = np.where(usable & (survivors > 0), s_prev * di * m / (safe_surv * (n - 1.0)), 0.0)
    cum_a = np.cumsum(a)
    cum_fa = np.cumsum(fi * a)
    cum_f2a = np.cumsum(fi**2 * a)
    cum_b = np.cumsum(b)
    cum_c = np.cumsum(c)
    cum_fc = np.cumsum(fi * c)
    out = (
        fi**2 * cum_a - 2.0 * fi * cum_fa + cum_f2a
        + cum_b
        - 2.0 * (fi * cum_c - cum_fc)
    )
    return np.maximum(out, 0.0)


def log_log_ci(fhat: float, var: float, alpha: float = 0.05) -> tuple[float, float]:
    """Log-log confidence interval around a cumulative incidence value.

    Degenerate values (0, 1, or zero variance) return a point interval.
    """
    if var < 0:
        raise ValueError(f"variance must be >= 0, got {var}")
    if fhat <= 0.0 or fhat >= 1.0 or var == 0.0:
        return (fhat, fhat)
    log_f = math.log(fhat)
    q = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    c = q * math.sqrt(var) / (fhat * log_f)

    def power(exponent_arg: float) -> float:
        # fhat ** exp(exponent_arg), evaluated in log space to dodge overflow
        scaled = log_f * math.exp(exponent_arg) if exponent_arg < 709.0 else -math.inf
        return math.exp(scaled) if scaled > -745.0 else 0.0

    lo, hi = power(-c), power(c)
    lo, hi = min(lo, hi), max(lo, hi)
    return (max(lo, 0.0), min(hi, 1.0))


def post_and_wait_fill(obs: Sequence[Observation]) -> SurvivalCurve:
    """Execution-only product-limit curve: cancellation counts as censoring.

    Query the fill probability at a horizon with :func:`fill_probability_at`.
    """
    return kaplan_meier(obs, death_causes=(CAUSE_EXECUTION,))


def fill_probability_at(curve: SurvivalCurve, horizon: float) -> float:
    """Fill probability within the horizon, ``1 - S(T)``."""
    return 1.0 - float(curve.at(horizon))


# ---------------------------------------------------------------------------
# Conditional (bucketed) estimation
# ---------------------------------------------------------------------------


@dataclass
class BucketReport:
    kept: dict[tuple, int]
    omitted: dict[tuple, int]
    outside: int  # records outside every bucket's edges


def observations_from_records(records: Iterable) -> list[Observation]:
    """Lifecycle records -> observations; outcome enum values match causes."""
    return [Observation(time=r.outcome_time, cause=int(r.outcome)) for r in records]


def quantile_edges(values: Sequence[float], n_buckets: int) -> list[float]:
    """Distinct quantile cut points for up to ``n_buckets`` buckets; the top
    edge is nudged up so the largest value falls inside the last bucket."""
    qs = np.quantile(values, np.linspace(0, 1, n_buckets + 1))
    edges = sorted(set(float(q) for q in qs))
    edges[-1] += 1e-9
    return edges


def conditional_curves(
    records: Sequence,
    by: Sequence[tuple[str, Sequence[float]]],
    min_count: int = 200,
) -> tuple[dict[tuple, CIFCurve], BucketReport]:
    """Independent incidence estimation on a 1-D or 2-D feature grid.

    ``by`` gives (feature column, bucket edges) pairs; a record lands in bucket
    ``i`` when its model-row value is in ``[edges[i], edges[i+1])``.  Buckets
    with fewer than ``min_count`` records are omitted and reported, as are
    the records outside every bucket.
    """
    if not 1 <= len(by) <= 2:
        raise ValueError("bucketing must use one or two features")
    columns = [FEATURE_COLUMNS.index(name) for name, _ in by]
    groups: dict[tuple, list] = {}
    outside = 0
    for rec, row in zip(records, feature_matrix(rec.features for rec in records)):
        key = []
        for col, (_, edges) in zip(columns, by):
            idx = int(np.searchsorted(edges, row[col], side="right")) - 1
            if idx < 0 or idx >= len(edges) - 1:
                outside += 1
                break
            key.append(idx)
        else:
            groups.setdefault(tuple(key), []).append(rec)
    curves: dict[tuple, CIFCurve] = {}
    kept: dict[tuple, int] = {}
    omitted: dict[tuple, int] = {}
    for key in sorted(groups):
        recs = groups[key]
        if len(recs) < min_count:
            omitted[key] = len(recs)
            continue
        curves[key] = aalen_johansen(observations_from_records(recs))
        kept[key] = len(recs)
    return curves, BucketReport(kept=kept, omitted=omitted, outside=outside)
