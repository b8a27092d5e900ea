"""The benchmark's workloads: set-up, the units a run repeats, and checks.

A workload generates its stream with ``synth`` during set-up and writes the
message file and truth sidecar; the timed code only sees those files.

* Batch workloads (``research-600s``, ``deep-book``) repeat a unit made of
  one pipeline pass -- message file -> lifecycles -> censoring, IPCW and the
  matrix -> Aalen-Johansen and Gray variance -> fill and clean-up training
  -> toy-model fit -> backtest, in the order the CLI stages run it -- and a
  block of route decisions with the models that pass trained.  Models train
  on the subject orders of the truth sidecar inserted in the first
  ``train_share`` of the stream; the subject orders after it are scored.
* ``router-online`` runs that pipeline in set-up to train both models, then
  repeats a unit of closed-loop route decisions (one caller) followed by one
  ``run_backtest`` pass over the held-out records.  Its pipeline metrics
  come from the set-up passes.

Route decisions use snapshots built from held-out records with spreads of
1-12 ticks and the CLI's default distance range, out to the depth filter's
edge, so each decision sweeps a different number of distances.
"""

from __future__ import annotations

import csv
import io
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lobkit.backtest as lbacktest
import lobkit.cleanup as lcleanup
import lobkit.fill_model as lfill
import lobkit.placement as lplacement
import lobkit.replay as lreplay
import lobkit.survival as lsurv
from lobkit import io as lio
from lobkit import synth as lsynth
from lobkit.backtest import MODEL_I, MODEL_II, MODEL_III, EligibilityConfig, RouterModels, run_backtest, select_eligible
from lobkit.book import BookState
from lobkit.cleanup import collect_cleanup_samples, samples_to_matrix, train_cleanup_model
from lobkit.cli import PipelineConfig, lsynth_preset
from lobkit.fill_model import build_training_matrix, stratified_censoring_survival, train_fill_model
from lobkit.messages import MessageKind, read_messages, write_messages
from lobkit.mlp import MLP, TrainConfig
from lobkit.placement import FEE_TABLE, MarketSnapshot, fit_toy_model, optimal_distance
from lobkit.replay import Outcome, track_lifecycles

from checks import Check, add_accounting, identical, sha256_bytes, sha256_file, subject_lifecycles
from metrics import layer_metrics
from spans import Target, Tracer

SPECS = (MODEL_I, MODEL_II, MODEL_III)
FEES = FEE_TABLE[9]  # the CLI's default fee level
TOY_MIN_BUCKET = 30  # observations per ask-distance bucket, as the CLI's backtest
EPOCHS = 40  # fixed: patience equals epochs, so training never stops early
TRAIN_SHARE = 0.7  # of the stream's duration; later subject orders are held out
MIN_UNITS = 2  # timed units a run makes even when --seconds has run out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    duration: float  # stream length, seconds
    synth: dict = field(default_factory=dict)  # overrides on the monotone-delta preset
    depth_mode: str = "bps"
    depth_value: float = 20.0
    router: bool = False
    route_decisions: int = 80  # per unit; ~1,000 a run, so p99 has ten beyond it
    setup_reps: int = 3

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(depth_mode=self.depth_mode, depth_value=self.depth_value)


CENSORED_FEED = {"censor_rate": 0.05}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "research-600s",
            "the researcher's batch job on a shallow book; feature assembly and MLP training carry it",
            duration=600.0,
            synth=CENSORED_FEED,
        ),
        Workload(
            "deep-book",
            "the batch job on ~1,200 occupied levels; book queries dominate replay and synth's level scan set-up",
            duration=300.0,
            synth={**CENSORED_FEED, "noise_rate": 40.0, "noise_cancel_rate": 0.02, "noise_depth_range": (6, 2000)},
            depth_mode="levels",
            depth_value=10.0,
        ),
        Workload(
            "router-online",
            "closed-loop routing and backtest scoring with trained models; placement and one-row MLP predicts, no replay",
            duration=600.0,
            synth=CENSORED_FEED,
            router=True,
            route_decisions=40,
            setup_reps=5,  # set-up passes are where its pipeline metrics come from
        ),
    )
}


def trace_targets() -> list[Target]:
    """The public callables the traced run wraps, where their callers look them up."""

    def levels(args, _):
        book = args[0]
        return len(book.bids) + len(book.asks)

    def rows(args, _):
        return 1 if np.ndim(args[1]) == 1 else len(args[1])

    def rows_times_epochs(args, report):
        return len(args[1]) * len(report.train_loss)

    return [
        Target(BookState, "apply", "book.apply", levels),
        Target(BookState, "level_rank", "book.level_rank"),
        Target(BookState, "priority_volume", "book.priority_volume"),
        Target(lreplay, "assemble_features", "features.assemble_features"),
        Target(MLP, "predict", "mlp.predict", rows),
        Target(lfill, "train_mlp", "mlp.train_mlp", rows_times_epochs),
        Target(lcleanup, "train_mlp", "mlp.train_mlp", rows_times_epochs),
        Target(lplacement, "saved_cost", "placement.saved_cost"),
        Target(lbacktest, "saved_cost", "placement.saved_cost"),
        Target(lsurv, "kaplan_meier", "survival.kaplan_meier"),
        Target(lfill, "kaplan_meier", "survival.kaplan_meier"),
        Target(lsurv, "aalen_johansen", "survival.aalen_johansen"),
    ]


@dataclass
class PassOutput:
    """One pipeline pass: its timings, counters, artifacts and models."""

    figures: dict[str, float]
    counters: dict[str, float]
    digests: dict[str, str]
    checks: list[Check]
    diagnostics: object
    fill: object
    cleanup: object
    models: RouterModels
    curve: object
    report: object
    train: list
    held: list
    eligible: list


@dataclass
class Unit:
    index: int
    traced: bool
    wall_s: float
    digests: dict[str, str]
    latencies_us: list[float]
    backtest_rate: float | None
    figures: dict[str, float] | None  # the pipeline pass's, batch workloads only
    layers: dict[str, float] | None


def decisions_csv(report) -> bytes:
    """The backtest decisions artifact, as the CLI's ``--decisions-out`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("label", "decision_I", "decision_II", "decision_III"))
    for i, label in enumerate(report.labels):
        writer.writerow([label, report.decisions["I"][i], report.decisions["II"][i], report.decisions["III"][i]])
    return buf.getvalue().encode()


class Run:
    """One benchmark run of a workload: set-up, timed units, checks."""

    def __init__(self, spec: Workload, seed: int, work_dir: Path):
        self.spec = spec
        self.seed = seed
        self.cfg = spec.pipeline_config()
        self.instrument = self.cfg.instrument()
        self.tracer = Tracer()
        self.messages_path = work_dir / "messages.csv"
        self.truth_path = work_dir / "truth.csv"
        self.lifecycles_path = work_dir / "lifecycles.csv"
        self.matrix_path = work_dir / "matrix.csv"
        self.fill_path = work_dir / "fill.json"
        self.cleanup_path = work_dir / "cleanup.json"
        self.setup_s: list[float] = []
        self.setup_layers: list[dict[str, float]] = []
        self.setup_digests: list[dict[str, str]] = []
        self.setup_passes: list[dict[str, dict]] = []  # figures and digests of set-up pipelines
        self.units: list[Unit] = []
        self.checks: list[Check] = []
        self.operations = 0
        self.failed_operations = 0
        self.quality: dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        for _ in range(self.spec.setup_reps):
            self._setup_once()

    def _setup_once(self) -> None:
        t = self.tracer
        config = lsynth_preset("monotone-delta", self.seed, self.cfg)
        for key, value in self.spec.synth.items():
            setattr(config, key, value)
        t.take_stage_seconds()
        t0 = time.perf_counter()
        with t.stage("synth.generate_flow"):
            messages, truth = lsynth.generate_flow(config, self.spec.duration)
        with t.stage("messages.write_messages"):
            write_messages(self.messages_path, messages)
        with t.stage("synth.write_truth"):
            lsynth.write_truth(self.truth_path, truth)
        stages = t.take_stage_seconds()
        self.adds = sum(1 for m in messages if m.kind is MessageKind.ADD)
        self.truth = {row.order_id: row for row in truth}
        self.split_ts = config.start_ts + int(round(TRAIN_SHARE * self.spec.duration * 1e9))
        out = self._guarded(self.pipeline) if self.spec.router else None
        self.setup_s.append(time.perf_counter() - t0)
        if self.spec.router:
            if out is None:
                raise RuntimeError("set-up pipeline failed; see the traceback above")
            self.setup_passes.append({"figures": out.figures, "digests": out.digests})
            self.pipeline_done(out)
            self.router_state = (out.fill, out.cleanup, out.models, out.eligible, self.snapshots(out.held))
        self.setup_layers.append(
            {
                "synth.generate_s": stages["synth.generate_flow"],
                "synth.messages": len(messages),
                "synth.subjects": len(truth),
                "messages.write_s": stages["messages.write_messages"],
            }
        )
        self.setup_digests.append(
            {"messages": sha256_file(self.messages_path), "truth": sha256_file(self.truth_path)}
        )

    # -- the pipeline --------------------------------------------------------

    def pipeline(self) -> PassOutput:
        t, cfg = self.tracer, self.cfg
        horizon = cfg.horizon
        t0 = time.perf_counter()
        with t.stage("messages.read_messages"):
            messages = list(read_messages(self.messages_path))
        with t.stage("replay.track_lifecycles"):
            result = track_lifecycles(messages, self.instrument)
        with t.stage("io.write_lifecycles"):
            lio.write_lifecycles(self.lifecycles_path, result.records, horizon)
        t1 = time.perf_counter()
        with t.stage("io.read_lifecycles"):
            records = lio.read_lifecycles(self.lifecycles_path)
        with t.stage("synth.read_truth"):
            truth_ids = {row.order_id for row in lsynth.read_truth(self.truth_path)}
        with t.stage("glue.split"):
            subjects = [r for r in records if r.order_id in truth_ids]
            train = [r for r in subjects if r.insert_ts < self.split_ts]
            held = [r for r in subjects if r.insert_ts >= self.split_ts]
        with t.stage("fill_model.stratified_censoring_survival"):
            censoring = stratified_censoring_survival(train)
        with t.stage("fill_model.build_training_matrix"):
            _, y, w, kept, ipcw = build_training_matrix(train, horizon, censoring, floor=cfg.ipcw_floor)
        with t.stage("io.write_matrix"):
            lio.write_matrix(self.matrix_path, kept, y, w)
        with t.stage("io.read_matrix"):
            X, y, w, meta = lio.read_matrix(self.matrix_path)
        with t.stage("survival.incidence"):
            curve = lsurv.aalen_johansen(lsurv.observations_from_records(train))
        with t.stage("survival.gray_variance"):
            lsurv.gray_variance(curve, lsurv.CAUSE_EXECUTION)
        span = (min(m["insert_ts"] for m in meta), max(m["insert_ts"] for m in meta))
        train_cfg = TrainConfig(
            lr=cfg.lr,
            batch=cfg.batch,
            epochs=EPOCHS,
            seed=self.seed,
            patience=EPOCHS,
            val_fraction=cfg.val_fraction,
        )
        with t.stage("fill_model.train_fill_model"):
            fill = train_fill_model(X, y, w, train_cfg, horizon=horizon, trained_span=span)
        with t.stage("fill_model.save"):
            fill.save(self.fill_path)
        with t.stage("cleanup.collect_cleanup_samples"):
            samples, _ = collect_cleanup_samples(kept, horizon)
            Xc, targets = samples_to_matrix(samples)
        with t.stage("cleanup.train_cleanup_model"):
            cleanup = train_cleanup_model(Xc, targets, train_cfg, horizon=horizon, trained_span=span)
        with t.stage("cleanup.save"):
            cleanup.save(self.cleanup_path)
        t2 = time.perf_counter()
        with t.stage("placement.fit_toy_model"):
            constant_v = float(np.mean(targets))
            toy = self._fit_toy(kept, constant_v)
        models = RouterModels(toy=toy, fill=fill, cleanup=cleanup, constant_cleanup=constant_v, trained_span=span)
        with t.stage("backtest.select_eligible"):
            eligible = select_eligible(
                held,
                horizon,
                result.diagnostics.average_trade_size,
                EligibilityConfig(max_size_ats_multiple=cfg.max_size_ats_multiple, max_distance=cfg.max_distance),
            )
        tb = time.perf_counter()
        with t.stage("backtest.run_backtest"):
            report = run_backtest(eligible, SPECS, models, FEES, horizon, cfg.tick_size)
        t3 = time.perf_counter()

        d = result.diagnostics
        n_records = len(result.records)
        return PassOutput(
            figures={
                "pipeline_s": t3 - t0,
                "lifecycles_msgs_per_s": len(messages) / (t1 - t0),
                "models_s": t2 - t1,
                "backtest_records_per_s": report.evaluated * len(SPECS) / (t3 - tb),
            },
            counters={
                "replay.records": n_records,
                "replay.gaps": d.gaps,
                "replay.depth_excluded": d.depth_excluded,
                "replay.no_reference_skipped": d.no_reference_skipped,
                "replay.tracked_add_share": n_records / self.adds,
                "replay.censored_share": sum(r.outcome is Outcome.CENSORED for r in result.records) / max(1, n_records),
                "io.rows": len(records) + len(kept),
                "survival.skipped_terms": curve.skipped_terms,
                "fill_model.ipcw_floored": ipcw.floored,
                "fill_model.rows": len(kept),
                "mlp.epochs": len(fill.report.train_loss),
                "cleanup.samples": len(samples),
                "backtest.evaluated": report.evaluated,
                "backtest.excluded_ties": report.excluded_ties,
            },
            digests={
                "lifecycles": sha256_file(self.lifecycles_path),
                "matrix": sha256_file(self.matrix_path),
                "fill_model": sha256_file(self.fill_path),
                "cleanup_model": sha256_file(self.cleanup_path),
                "backtest_decisions": sha256_bytes(decisions_csv(report)),
            },
            checks=[
                add_accounting(self.adds, n_records, d),
                subject_lifecycles(self.truth, [r.order_id for r in result.records]),
            ],
            diagnostics=d,
            fill=fill,
            cleanup=cleanup,
            models=models,
            curve=curve,
            report=report,
            train=train,
            held=held,
            eligible=eligible,
        )

    def _fit_toy(self, kept, constant_v):
        """Model I's exponential fill curve over ask-distance buckets."""
        buckets: dict[int, list] = {}
        for r in kept:
            buckets.setdefault(int(r.features.spread + r.features.delta), []).append(
                lsurv.Observation(r.outcome_time, int(r.outcome))
            )
        distances = [d for d in sorted(buckets) if len(buckets[d]) >= TOY_MIN_BUCKET]
        probs = [lsurv.fill_probability_at(lsurv.post_and_wait_fill(buckets[d]), self.cfg.horizon) for d in distances]
        toy, _ = fit_toy_model(distances, probs, constant_v)
        return toy

    def pipeline_done(self, out: PassOutput) -> None:
        """Book-keeping after a pass, outside any timed or traced region."""
        self.operations += 1
        self.checks.extend(out.checks)
        if not self.quality:
            self.quality = self._quality(out)

    def _quality(self, out: PassOutput) -> dict[str, float]:
        horizon = self.cfg.horizon
        planted = np.array([self.truth[r.order_id].cif_exec for r in out.held])
        predicted = out.fill.predict(np.array([r.features.to_row() for r in out.held]))
        post_and_wait = np.array([self.truth[r.order_id].pw_fill for r in out.held])
        train_planted = np.mean([self.truth[r.order_id].cif_exec for r in out.train])
        return {
            "fill_mae": float(np.mean(np.abs(predicted - planted))),
            "pw_fill_mae": float(np.mean(np.abs(predicted - post_and_wait))),
            "cif_abs_err": abs(float(out.curve.incidence_at(lsurv.CAUSE_EXECUTION, horizon)) - float(train_planted)),
            "backtest_f_limit_III": out.report.per_model["III"]["limit"].f_score,
        }

    # -- routing -------------------------------------------------------------

    def delta_range(self, snapshot: MarketSnapshot) -> tuple[int, int]:
        """The ``route`` subcommand's default range, out to the depth filter's edge."""
        cfg = self.cfg
        if cfg.depth_mode == "bps":
            mid_ticks = snapshot.mid / snapshot.tick_size
            bid_ticks = snapshot.best_bid / snapshot.tick_size
            delta_max = int(bid_ticks - mid_ticks * (1.0 - cfg.depth_value / 1e4))
        else:
            delta_max = int(cfg.depth_value)
        return (-snapshot.spread_ticks + 1, max(1, delta_max))

    def snapshots(self, held: list) -> list[tuple]:
        """Seeded decision inputs from held-out subject orders (all bids)."""
        rng = np.random.default_rng(self.seed)
        tick = self.cfg.tick_size
        out = []
        for _ in range(self.spec.route_decisions):
            rec = held[int(rng.integers(len(held)))]
            spread = int(rng.integers(1, 13))
            bid = rec.price + int(rec.features.delta)
            snapshot = MarketSnapshot(
                best_bid=bid * tick, best_ask=(bid + spread) * tick, tick_size=tick, features=rec.features
            )
            out.append((snapshot, rec.size, self.delta_range(snapshot)))
        return out

    def route_block(self, fill, cleanup, snapshots) -> tuple[list[float], str, int]:
        latencies, decisions, distances = [], [], 0
        for snapshot, quantity, delta_range in snapshots:
            t0 = time.perf_counter()
            with self.tracer.stage("placement.optimal_distance"):
                decision = optimal_distance(snapshot, quantity, FEES, fill, cleanup, delta_range)
            latencies.append((time.perf_counter() - t0) * 1e6)
            decisions.append(f"{decision.action},{decision.distance}")
            distances += len(decision.curve)
        return latencies, "\n".join(decisions), distances

    # -- timed units ---------------------------------------------------------

    def _guarded(self, fn):
        """Run one operation; a raised error counts as a failed operation."""
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.operations += 1
            self.failed_operations += 1
            return None

    def unit(self, index: int, traced: bool) -> None:
        t = self.tracer
        first = t.mark()
        counters: dict[str, float] = {}
        t0 = time.perf_counter()
        with t.patched(trace_targets()) if traced else nullcontext():
            if self.spec.router:
                fill, cleanup, models, eligible, snapshots = self.router_state
                out = None
                latencies, decisions, distances = self.route_block(fill, cleanup, snapshots)
                tb = time.perf_counter()
                with t.stage("backtest.run_backtest"):
                    report = run_backtest(eligible, SPECS, models, FEES, self.cfg.horizon, self.cfg.tick_size)
                backtest_rate = report.evaluated * len(SPECS) / (time.perf_counter() - tb)
                counters.update({"backtest.evaluated": report.evaluated, "backtest.excluded_ties": report.excluded_ties})
                digests = {"backtest_decisions": sha256_bytes(decisions_csv(report))}
            else:
                out = self.pipeline()
                with t.stage("glue.snapshots"):
                    snapshots = self.snapshots(out.held)
                latencies, decisions, distances = self.route_block(out.fill, out.cleanup, snapshots)
                backtest_rate = out.figures["backtest_records_per_s"]
                counters.update(out.counters)
                digests = dict(out.digests)
        wall = time.perf_counter() - t0
        counters["placement.distances"] = distances
        digests["route_decisions"] = sha256_bytes(decisions.encode())
        self.operations += len(latencies) + (1 if self.spec.router else 0)
        if out is not None:
            self.pipeline_done(out)
        layers = layer_metrics(t.spans, first, counters) if traced else None
        figures = None if out is None else out.figures
        self.units.append(Unit(index, traced, wall, digests, latencies, backtest_rate, figures, layers))

    def run(self, seconds: float, trace: bool) -> None:
        """Set up, run one warm-up unit, then units for ``seconds``.

        The warm-up unit is checked like the others but left out of every
        metric, so first-use costs land in none of them.
        """
        self.setup()
        self._guarded(lambda: self.unit(0, False))
        start = time.perf_counter()
        index = 1
        # past --seconds, go on only to reach MIN_UNITS, and not for ever when units fail
        while time.perf_counter() - start < seconds or (len(self.units) <= MIN_UNITS and index <= 4 * MIN_UNITS):
            traced = trace and index % 2 == 0
            self._guarded(lambda: self.unit(index, traced))
            index += 1
        self.checks.extend(self.final_checks())

    def measured_units(self) -> list[Unit]:
        return [u for u in self.units if u.index > 0]

    def final_checks(self) -> list[Check]:
        checks = [
            identical("stream_identical", self.setup_digests, [f"set-up {i}" for i in range(len(self.setup_digests))])
        ]
        labels = [f"unit {u.index} ({'traced' if u.traced else 'untraced'})" for u in self.units]
        if self.spec.router:
            passes = [p["digests"] for p in self.setup_passes]
            pass_labels = [f"set-up {i}" for i in range(len(passes))]
            checks.append(identical("lifecycles_identical", [{"lifecycles": p["lifecycles"]} for p in passes], pass_labels))
            checks.append(identical("artifacts_identical", passes, pass_labels))
            checks.append(
                identical("backtest_identical", [{"backtest": u.digests["backtest_decisions"]} for u in self.units], labels)
            )
        else:
            checks.append(
                identical("lifecycles_identical", [{"lifecycles": u.digests["lifecycles"]} for u in self.units], labels)
            )
            checks.append(identical("artifacts_identical", [u.digests for u in self.units], labels))
        checks.append(
            identical("route_decisions_identical", [{"route": u.digests["route_decisions"]} for u in self.units], labels)
        )
        return checks

    def artifacts(self) -> dict[str, str]:
        """sha256 of each artifact the run produced, for provenance."""
        out = dict(self.setup_digests[0]) if self.setup_digests else {}
        if self.setup_passes:
            out.update(self.setup_passes[0]["digests"])
        if self.units:
            out.update(self.units[0].digests)
        return out
