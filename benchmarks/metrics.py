"""Metric names, units and how each is computed from a run.

End-to-end metrics come from untraced units.  The host this benchmark was
sized on runs the same code at two speeds, about 1.4-1.8x apart, in phases
of seconds to minutes; a median lands in one mode or the other depending
on how much of a run each phase covers, and moved by 30-45% between runs.
So each end-to-end time is a high percentile of its samples, which sits in
the slower mode whenever that mode covers a tenth of the run: pass-level
times (``pipeline_s``, ``models_s``) are the 90th percentile over the run's
pipeline passes, pass-level rates the 10th percentile, and route latency
is gated at p90.  The median and p99 latency are printed, not gated: p99
rests on the ten slowest of ~1,000 decisions and moved 12-33% between
runs.  ``setup_s`` is the median over the run's set-ups.  ``fill_mae``
compares held-out predictions with the planted ``cif_exec``; the IPCW model
treats cancellation as censoring and so estimates the post-and-wait
probability, which per-layer ``fill_model.pw_fill_mae`` compares with.

Per-layer metrics come from the traced units of a ``--trace 1`` run, as
the median over those units.  Each ``*_s`` per-layer time is per unit.  ``replay.track_s``,
``fill_model.train_s``, ``cleanup.train_s``, ``backtest.run_s`` and the
``io.*`` / ``survival.*`` / ``fill_model.censoring_s`` / ``ipcw_s`` times
are whole calls; ``replay.self_s``, ``book.*_s``, ``features.assemble_s``
and ``mlp.predict_s`` are self times (children excluded), so that
``replay.self_s + book.* + features.assemble_s`` is ``replay.track_s``.
The ``layer.<module>.*`` rows are the per-layer table: self time, call
count and share of the unit's traced wall time, for each module.
"""

from __future__ import annotations

import resource
from collections import Counter, defaultdict
from statistics import median

from spans import COUNT, END, NAME, PARENT, START, layer_of, self_times

LAYERS = (
    "synth",
    "messages",
    "replay",
    "book",
    "features",
    "io",
    "survival",
    "fill_model",
    "mlp",
    "cleanup",
    "placement",
    "backtest",
)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "lifecycles_msgs_per_s": "msg/s",
    "models_s": "s",
    "route_p90_us": "us",
    "backtest_records_per_s": "records/s",
    "peak_rss_mb": "MiB",
    "fill_mae": "prob",
    "backtest_f_limit_III": "score",
}

# End-to-end figures printed with the others but kept out of the result
# line: error_rate is 0 on a correct run (the line's "failed" and
# "attempted" carry it), cif_abs_err is an estimation error whose size is
# set by the seed's sample more than by the code (per-layer
# survival.cif_abs_err carries it), and the median and p99 latency are too
# unsteady on a shared host to gate (see above).
PRINTED_ONLY = {
    "error_rate": "ratio",
    "cif_abs_err": "prob",
    "route_p50_us": "us",
    "route_p99_us": "us",
    "route_decisions": "count",
}

PER_LAYER = {
    "synth.generate_s": "s",
    "synth.messages": "count",
    "synth.subjects": "count",
    "messages.write_s": "s",
    "messages.read_s": "s",
    "replay.track_s": "s",
    "replay.self_s": "s",
    "replay.records": "count",
    "replay.gaps": "count",
    "replay.depth_excluded": "count",
    "replay.no_reference_skipped": "count",
    "replay.tracked_add_share": "ratio",
    "replay.censored_share": "ratio",
    "book.apply_calls": "count",
    "book.apply_s": "s",
    "book.query_calls": "count",
    "book.query_s": "s",
    "book.levels_mean": "count",
    "book.levels_max": "count",
    "features.assemble_calls": "count",
    "features.assemble_s": "s",
    "io.write_lifecycles_s": "s",
    "io.read_lifecycles_s": "s",
    "io.write_matrix_s": "s",
    "io.read_matrix_s": "s",
    "io.rows": "count",
    "survival.aalen_johansen_s": "s",
    "survival.gray_variance_s": "s",
    "survival.skipped_terms": "count",
    "survival.cif_abs_err": "prob",
    "fill_model.censoring_s": "s",
    "fill_model.ipcw_s": "s",
    "fill_model.ipcw_floored": "count",
    "fill_model.rows": "count",
    "fill_model.train_s": "s",
    "fill_model.pw_fill_mae": "prob",
    "mlp.train_rows_per_s": "rows/s",
    "mlp.epochs": "count",
    "mlp.predict_calls": "count",
    "mlp.predict_rows": "count",
    "mlp.rows_per_predict": "rows",
    "mlp.predict_s": "s",
    "cleanup.collect_s": "s",
    "cleanup.samples": "count",
    "cleanup.train_s": "s",
    "placement.decisions": "count",
    "placement.distances_per_decision": "count",
    "placement.predicts_per_decision": "count",
    "backtest.run_s": "s",
    "backtest.evaluated": "count",
    "backtest.excluded_ties": "count",
    "trace.overhead_pct": "%",
}
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
    PER_LAYER[f"layer.{_layer}.calls"] = "count"
    PER_LAYER[f"layer.{_layer}.share_pct"] = "%"

SETUP_LAYER = ("synth.generate_s", "synth.messages", "synth.subjects", "messages.write_s")


def layer_metrics(spans: list[list], first: int, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced unit, from its spans and counters."""
    own = self_times(spans, first)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    whole: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: Counter = Counter()
    levels: list[float] = []
    route_predicts = 0
    total = 0.0
    for span, own_s in zip(spans[first:], own):
        name, duration, parent = span[NAME], span[END] - span[START], span[PARENT]
        calls[name] += 1
        self_s[name] += own_s
        whole[name] += duration
        counts[name] += span[COUNT]
        layer_self[layer_of(name)] += own_s
        layer_calls[layer_of(name)] += 1
        if parent < first:
            total += duration
        if name == "book.apply":
            levels.append(span[COUNT])
        elif name == "mlp.predict" and parent >= first and spans[parent][NAME] == "placement.optimal_distance":
            route_predicts += 1
    decisions = calls["placement.optimal_distance"]
    c = counters.get
    out = {
        "messages.read_s": whole["messages.read_messages"],
        "replay.track_s": whole["replay.track_lifecycles"],
        "replay.self_s": layer_self["replay"],
        "book.apply_calls": calls["book.apply"],
        "book.apply_s": self_s["book.apply"],
        "book.query_calls": calls["book.level_rank"] + calls["book.priority_volume"],
        "book.query_s": self_s["book.level_rank"] + self_s["book.priority_volume"],
        "book.levels_mean": sum(levels) / len(levels) if levels else 0.0,
        "book.levels_max": max(levels, default=0.0),
        "features.assemble_calls": calls["features.assemble_features"],
        "features.assemble_s": self_s["features.assemble_features"],
        "io.write_lifecycles_s": whole["io.write_lifecycles"],
        "io.read_lifecycles_s": whole["io.read_lifecycles"],
        "io.write_matrix_s": whole["io.write_matrix"],
        "io.read_matrix_s": whole["io.read_matrix"],
        "survival.aalen_johansen_s": whole["survival.aalen_johansen"],
        "survival.gray_variance_s": whole["survival.gray_variance"],
        "fill_model.censoring_s": whole["fill_model.stratified_censoring_survival"],
        "fill_model.ipcw_s": whole["fill_model.build_training_matrix"],
        "fill_model.train_s": whole["fill_model.train_fill_model"],
        "mlp.train_rows_per_s": counts["mlp.train_mlp"] / whole["mlp.train_mlp"] if whole["mlp.train_mlp"] else 0.0,
        "mlp.predict_calls": calls["mlp.predict"],
        "mlp.predict_rows": counts["mlp.predict"],
        "mlp.rows_per_predict": counts["mlp.predict"] / calls["mlp.predict"] if calls["mlp.predict"] else 0.0,
        "mlp.predict_s": self_s["mlp.predict"],
        "cleanup.collect_s": whole["cleanup.collect_cleanup_samples"],
        "cleanup.train_s": whole["cleanup.train_cleanup_model"],
        "placement.decisions": decisions,
        "placement.distances_per_decision": c("placement.distances", 0) / decisions if decisions else 0.0,
        "placement.predicts_per_decision": route_predicts / decisions if decisions else 0.0,
        "backtest.run_s": whole["backtest.run_backtest"],
    }
    for name in (
        "replay.records",
        "replay.gaps",
        "replay.depth_excluded",
        "replay.no_reference_skipped",
        "replay.tracked_add_share",
        "replay.censored_share",
        "io.rows",
        "survival.skipped_terms",
        "fill_model.ipcw_floored",
        "fill_model.rows",
        "mlp.epochs",
        "cleanup.samples",
        "backtest.evaluated",
        "backtest.excluded_ties",
    ):
        out[name] = c(name, 0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
        out[f"layer.{layer}.calls"] = layer_calls[layer]
        out[f"layer.{layer}.share_pct"] = 100.0 * layer_self[layer] / total if total else 0.0
    out["layer.glue.self_s"] = layer_self["glue"]
    out["trace.unit_s"] = total
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median_of(rows: list[dict], name: str) -> float:
    return median(row[name] for row in rows)


def _percentile_of(rows: list[dict], name: str, q: float) -> float:
    return percentile([row[name] for row in rows], q)


def end_to_end(run) -> dict[str, float]:
    """Every end-to-end figure of a run, the printed-only ones included."""
    untraced = [u for u in run.measured_units() if not u.traced]
    figures = [u.figures for u in untraced if u.figures is not None] or [p["figures"] for p in run.setup_passes]
    latencies = [x for u in untraced for x in u.latencies_us]
    out = {
        "setup_s": median(run.setup_s),
        "pipeline_s": _percentile_of(figures, "pipeline_s", 90),
        "lifecycles_msgs_per_s": _percentile_of(figures, "lifecycles_msgs_per_s", 10),
        "models_s": _percentile_of(figures, "models_s", 90),
        "route_p50_us": percentile(latencies, 50),
        "route_p90_us": percentile(latencies, 90),
        "route_p99_us": percentile(latencies, 99),
        "backtest_records_per_s": percentile([u.backtest_rate for u in untraced], 10),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fill_mae": run.quality["fill_mae"],
        "backtest_f_limit_III": run.quality["backtest_f_limit_III"],
        "cif_abs_err": run.quality["cif_abs_err"],
        "route_decisions": len(latencies),
    }
    return out


def per_layer(run) -> dict[str, float]:
    """Median per-layer metrics over the traced units, plus set-up layers."""
    units = run.measured_units()
    traced = [u.layers for u in units if u.traced and u.layers is not None]
    out = {name: median(row[name] for row in traced) for name in traced[0]}
    for name in SETUP_LAYER:
        out[name] = _median_of(run.setup_layers, name)
    out["survival.cif_abs_err"] = run.quality["cif_abs_err"]
    out["fill_model.pw_fill_mae"] = run.quality["pw_fill_mae"]
    untraced = median(u.wall_s for u in units if not u.traced)
    traced_wall = median(u.wall_s for u in units if u.traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    return out
