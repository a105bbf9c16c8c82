"""The benchmark's three workloads: set-up, one timed round, and checks.

A workload object is built once per run.  ``setup`` makes the inputs
(the run repeats it and keeps the last); ``run_round`` is the timed part;
``collect`` reads what the round produced, outside the timed part; and
``check`` compares the collected outputs, and what the first round
captured, with computations made apart from flowal.

Why these three:

* ``grid``: the paper's protocol through the real entry point (``flowal
  run`` on a committed config and a CSV written by ``flowal generate``).
  Its time is mostly forest fitting and LAL's per-cell regressor training;
  it also covers CSV ingest and report writing.
* ``pool_select``: five scoring strategies over two ~6.4k-flow pools with
  small forests, so its time goes to scoring the whole pool: the quadratic
  density matrix, committee prediction and the loop's own bookkeeping.
* ``stream_drift``: selective sampling over unshuffled 9k-record streams
  with a mean shift at the midpoint.  It predicts one row per call, unlike
  the pool workloads, and skips density and LAL.  It calls the library
  directly because ``flowal stream`` shuffles the stream first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

import flowal.bench
import flowal.engine
from flowal import (
    DriftSpec,
    ForestParams,
    Oracle,
    StoppingCriteria,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    generate_synthetic,
    make_pool,
    run_pool_loop,
    run_stream_loop,
)
from flowal.cli import cli_main
from flowal.forest import ForestModel

import reference as ref
from spans import StepMarks, maybe_span

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


@dataclass
class RoundResult:
    """What one round produced, as the program reported it."""

    train_s: float
    select_s: float
    labels_used: int
    accuracies: List[float]
    steps: int
    fingerprint: object  # every output that must not change between rounds


def _read_conf(path: Path) -> Dict[str, str]:
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class Grid:
    """``flowal generate`` in set-up, then ``flowal run`` as one round."""

    name = "grid"
    conf = HERE / "grid.conf"
    data_conf = HERE / "grid_data.conf"

    def __init__(self):
        values = _read_conf(self.conf)
        data = _read_conf(self.data_conf)
        self.csv_path = Path(values["data.csv"])
        self.rows_path = OUT / "grid" / "rows.json"
        self.strategies = values["strategies"].split(",")
        self.fractions = values["fractions"].split(",")
        self.seeds = [int(s) for s in values["seeds"].split(",")]
        self.n_records = int(data["synthetic.classes"]) * int(data["synthetic.per_class"])
        self.rounds: List[list] = []

    def setup(self, seed: int, tracer) -> None:
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        code = cli_main(["generate", "--config", str(self.data_conf),
                         "--seed", str(seed), "--output", str(self.csv_path),
                         "--quiet"])
        if code != 0:
            raise RuntimeError(f"flowal generate exited {code}")

    def step_patches(self, marks: StepMarks):
        return [(flowal.engine, "fit_forest", marks.marking),
                (flowal.bench, "run_pool_loop", marks.closing)]

    def capture_patches(self):
        return []

    def run_round(self, tracer, marks: StepMarks) -> None:
        code = cli_main(["run", "--config", str(self.conf),
                         "--output", str(self.rows_path), "--format", "json",
                         "--quiet"])
        if code != 0:
            raise RuntimeError(f"flowal run exited {code}")

    def collect(self, steps: int, labels: int) -> RoundResult:
        rows = json.loads(self.rows_path.read_text(encoding="utf-8"))
        self.rounds.append(rows)
        al = [r for r in rows if r["strategy"] != "full"]
        full = [r for r in rows if r["strategy"] == "full"]
        return RoundResult(
            train_s=sum(r["train_time_s"] for r in al)
            + sum(r["full_train_time_s"] for r in full),
            select_s=sum(r["select_time_s"] for r in al),
            labels_used=labels,
            accuracies=[r["accuracy"] for r in al],
            steps=steps,
            fingerprint=[(r["strategy"], r["fraction"], r["seed"],
                          r["accuracy"], r["tar"], r["full_accuracy"])
                         for r in rows],
        )

    def expected_labels(self) -> int:
        """Oracle labels the active-learning cells should consume."""
        return len(self.strategies) * len(self.seeds) * sum(
            ref.round_half_up(f, self.n_records) for f in self.fractions)

    def check(self, results: Sequence[RoundResult]) -> List[str]:
        errors = []
        want = {(s, float(f), seed) for s in self.strategies
                for f in self.fractions for seed in self.seeds}
        want |= {("full", 1.0, seed) for seed in self.seeds}
        for rows in self.rounds:
            got = [(r["strategy"], r["fraction"], r["seed"]) for r in rows]
            if len(got) != len(want) or set(got) != want:
                errors.append(f"grid rows {sorted(got)} are not strategies x "
                              f"fractions x seeds plus the full baselines")
            for r in rows:
                errors += _grid_row_errors(r)
        if results[0].labels_used != self.expected_labels():
            errors.append(f"grid consumed {results[0].labels_used} labels, "
                          f"half-up budgets give {self.expected_labels()}")
        return errors

    def report(self) -> dict:
        return {}


def _grid_row_errors(r) -> List[str]:
    where = f"grid row {r['strategy']} {r['fraction']} seed {r['seed']}"
    errors = []
    if abs(r["tar"] - r["accuracy"] / r["full_accuracy"]) > 1e-9:
        errors.append(f"{where}: tar does not recompute")
    ttr = (r["train_time_s"] + r["select_time_s"]) / r["full_train_time_s"]
    if abs(r["ttr"] - ttr) > 1e-9:
        errors.append(f"{where}: ttr does not recompute")
    if r["time_s"] != r["train_time_s"] + r["select_time_s"]:
        errors.append(f"{where}: time_s is not train_time_s + select_time_s")
    if not 0.0 <= r["accuracy"] <= 1.0:
        errors.append(f"{where}: accuracy outside [0, 1]")
    if r["strategy"] == "full" and (r["tar"] != 1.0 or r["ttr"] != 1.0
                                    or r["accuracy"] != r["full_accuracy"]):
        errors.append(f"{where}: the baseline row is not its own reference")
    return errors


def _histories_result(histories, steps: int, labels: int) -> RoundResult:
    return RoundResult(
        train_s=sum(h.total_training_time for h in histories),
        select_s=sum(h.total_selection_time for h in histories),
        labels_used=labels,
        accuracies=[h.final_accuracy for h in histories],
        steps=steps,
        fingerprint=[[(it.n_labeled, it.queried, it.accuracy)
                      for it in h.iterations] for h in histories],
    )


POOL_STRATEGIES = ("entropy", "margin", "qbc_vote_entropy", "qbc_kl", "density")


class PoolSelect:
    """``run_pool_loop`` for each scoring strategy on two ~6.4k-flow pools.

    The median step falls among the committee steps, whose cost grows over
    a loop at a rate that depends on the pool's data.  Over twelve seeds,
    the median step over the round time spread 18% with one pool per round,
    and 12% over pairs of them.
    """

    name = "pool_select"
    pools = 2
    learner = ForestParams(n_trees=8)
    committee_size = 4
    batch = 20
    max_queries = 200
    n_seed = 24
    check_every = 5  # check every fifth selection of a strategy, first round

    def __init__(self):
        self.captured: List[tuple] = []
        self.histories: List[list] = []

    def setup(self, seed: int, tracer) -> None:
        self.inputs = []  # (dataset, pool, oracle, seed) per pool
        for k in range(self.pools):
            pool_seed = 1000 * seed + k
            with maybe_span(tracer, "dataset.generate_synthetic"):
                dataset = generate_synthetic(SyntheticSpec(
                    n_classes=12, per_class=767, n_features=12,
                    class_mean_separation=4.0, noise_stddev=1.0,
                    seed=pool_seed))
            self.inputs.append((dataset,
                                make_pool(dataset, 0.3, self.n_seed, pool_seed),
                                Oracle(dataset, 0.0, pool_seed), pool_seed))
        self.configs = [StrategyConfig(kind=k, committee_size=self.committee_size)
                        for k in POOL_STRATEGIES]

    def step_patches(self, marks: StepMarks):
        return [(flowal.engine, "fit_forest", marks.marking),
                (flowal.engine, "fit_committee", marks.marking)]

    def capture_patches(self):
        calls: Dict[str, int] = {}

        def capture(select_batch):
            def wrapper(config, state, pool, k, **kwargs):
                chosen = select_batch(config, state, pool, k, **kwargs)
                n = calls.get(config.kind, 0)
                calls[config.kind] = n + 1
                if n % self.check_every == 0:
                    self.captured.append((self._input, config, state, pool,
                                          k, chosen))
                return chosen
            return wrapper

        return [(flowal.engine, "select_batch", capture)]

    def run_round(self, tracer, marks: StepMarks) -> None:
        self._histories = []
        stop = StoppingCriteria(max_queries=self.max_queries)
        for i, (_, pool, oracle, seed) in enumerate(self.inputs):
            self._input = i  # the pool the capture records
            for config in self.configs:
                with maybe_span(tracer, "engine.run_pool_loop"):
                    history = run_pool_loop(pool, config, self.learner, oracle,
                                            self.batch, stop, seed)
                marks.close()
                self._histories.append(history)

    def collect(self, steps: int, labels: int) -> RoundResult:
        self.histories.append(self._histories)
        return _histories_result(self._histories, steps, labels)

    def check(self, results: Sequence[RoundResult]) -> List[str]:
        errors = []
        want_labels = (self.pools * len(self.configs)
                       * (self.n_seed + self.max_queries))
        got_labels = sum(h.iterations[-1].n_labeled for h in self.histories[0])
        if results[0].labels_used != want_labels or got_labels != want_labels:
            errors.append(f"pool loops consumed {results[0].labels_used} oracle "
                          f"labels and report {got_labels}; budget {want_labels}")
        self.verdicts = {k: {"exact": 0, "tie_order": 0, "wrong": 0}
                         for k in POOL_STRATEGIES}
        for which, config, state, pool, k, chosen in self.captured:
            dataset, start = self.inputs[which][:2]
            universe = set(start.labeled) | set(start.unlabeled) | set(start.test)
            lab, unl, tst = set(pool.labeled), set(pool.unlabeled), set(pool.test)
            if lab & unl or lab & tst or unl & tst or lab | unl | tst != universe:
                errors.append(f"{config.kind}: pool sets overlap or lost records")
            if set(pool.test) != set(start.test):
                errors.append(f"{config.kind}: the test set changed")
            position = {idx: i for i, idx in enumerate(pool.unlabeled)}
            if len(chosen) != k or any(c not in position for c in chosen):
                errors.append(f"{config.kind}: batch is not {k} unlabeled records")
                continue
            scores = self._reference_scores(dataset.features, config, state, pool)
            verdict = ref.compare_batch([position[c] for c in chosen], scores,
                                        minimize=config.kind == "margin")
            self.verdicts[config.kind][verdict] += 1
            if verdict == "wrong":
                errors.append(f"{config.kind}: batch {chosen} is not the "
                              f"reference's best-first batch")
        return errors

    def report(self) -> dict:
        return {"batch_verdicts": self.verdicts}

    def _reference_scores(self, X, config, state, pool) -> np.ndarray:
        XU = X[list(pool.unlabeled)]
        kind = config.kind
        if kind == "entropy":
            return ref.entropy_rows(state.predict_proba_many(XU))
        if kind == "margin":
            return ref.margin_rows(state.predict_proba_many(XU))
        if kind == "qbc_vote_entropy":
            return ref.vote_entropy_rows(state.member_probas(XU))
        if kind == "qbc_kl":
            return ref.kl_rows(state.member_probas(XU))
        if kind == "density":
            base = ref.entropy_rows(state.predict_proba_many(XU))
            fit_rows = X[list(pool.labeled) + list(pool.unlabeled)]
            factor = ref.density_factor(ref.standardize(fit_rows, XU))
            return base * factor ** config.beta
        raise ValueError(kind)


class StreamDrift:
    """``run_stream_loop`` over nine unshuffled streams with mid-stream drift.

    The labels a stream needs to reach the target, and so its refits, vary
    from stream to stream; nine streams per round average that out.
    """

    name = "stream_drift"
    streams = 9
    per_class = 3000
    n_classes = 3
    n_features = 4
    separation = 5.0
    shift = 5.0
    learner = ForestParams(n_trees=5)
    target = 0.95
    config = StreamConfig(measure="entropy", threshold=0.3, max_label_budget=900,
                          seed_fraction=0.02, retrain_every=20)

    def __init__(self):
        self.captured: List[ForestModel] = []
        self.histories: List[list] = []

    def setup(self, seed: int, tracer) -> None:
        n = self.n_classes * self.per_class
        self.seed = seed
        self.pairs = []
        for k in range(self.streams):
            with maybe_span(tracer, "dataset.generate_synthetic"):
                stream = generate_synthetic(SyntheticSpec(
                    self.n_classes, self.per_class, self.n_features,
                    self.separation, 1.0, DriftSpec(n // 2, self.shift),
                    seed=1000 * seed + k))
                test = generate_synthetic(SyntheticSpec(
                    self.n_classes, 200, self.n_features, self.separation, 1.0,
                    DriftSpec(0, self.shift), seed=10 ** 6 + 1000 * seed + k))
            self.pairs.append((stream, test, Oracle(stream, 0.0, seed)))

    def step_patches(self, marks: StepMarks):
        return [(ForestModel, "predict_proba_many", marks.marking)]

    def capture_patches(self):
        def capture(fit_forest):
            def wrapper(*args, **kwargs):
                model = fit_forest(*args, **kwargs)
                self.captured.append(model)
                return model
            return wrapper

        return [(flowal.engine, "fit_forest", capture)]

    def run_round(self, tracer, marks: StepMarks) -> None:
        self._histories = []
        stop = StoppingCriteria(accuracy_threshold=self.target)
        for k, (stream, test, oracle) in enumerate(self.pairs):
            with maybe_span(tracer, "engine.run_stream_loop"):
                history = run_stream_loop(stream, test, self.config, self.learner,
                                          oracle, stop, self.seed + k)
            marks.close()
            self._histories.append(history)

    def collect(self, steps: int, labels: int) -> RoundResult:
        self.histories.append(self._histories)
        return _histories_result(self._histories, steps, labels)

    def check(self, results: Sequence[RoundResult]) -> List[str]:
        errors = []
        got_labels = sum(h.iterations[-1].n_labeled for h in self.histories[0])
        if results[0].labels_used != got_labels:
            errors.append(f"streams consumed {results[0].labels_used} oracle "
                          f"labels and report {got_labels}")
        self.near_threshold = 0
        models = iter(self.captured)
        for (stream, test, _), history in zip(self.pairs, self.histories[0]):
            fitted = [next(models) for _ in history.iterations]
            errors += self._check_stream(stream, test, history, fitted)
        return errors

    def report(self) -> dict:
        return {"decisions_near_threshold": self.near_threshold}

    def _check_stream(self, stream, test, history, models) -> List[str]:
        cfg = self.config
        its = history.iterations
        n_seed = max(1, ref.round_half_up(cfg.seed_fraction, len(stream)))
        errors = []
        if its[0].n_labeled != n_seed or its[0].queried:
            errors.append(f"stream seed set is {its[0].n_labeled}, want {n_seed}")
        if any(len(it.queried) != cfg.retrain_every for it in its[1:]):
            errors.append("a refit did not follow exactly retrain_every queries")
        start = n_seed
        for model, it in zip(models, its[1:]):
            end = it.queried[-1] + 1
            probs = model.predict_proba_many(stream.features[start:end])
            ent = ref.entropy_rows(probs)
            near = np.abs(ent - cfg.threshold) <= 1e-12
            self.near_threshold += int(near.sum())
            want = set(start + np.nonzero(ent >= cfg.threshold)[0])
            free = set(start + np.nonzero(near)[0])
            if (set(it.queried) ^ want) - free:
                errors.append(f"stream queried {sorted(set(it.queried) ^ want)[:5]}"
                              f"... against the reference entropy threshold")
            start = end
        accs = [it.accuracy for it in its]
        if history.stop_reason.value != "accuracy_threshold":
            errors.append(f"stream stopped for {history.stop_reason.value}")
        elif max(accs[:-1], default=0.0) >= self.target or accs[-1] < self.target:
            errors.append("stream did not stop when it first reached the target")
        if its[-1].n_labeled - n_seed > cfg.max_label_budget:
            errors.append("stream queried beyond its label budget")
        votes = models[-1].vote_counts(test.features)
        if float(np.mean(votes.argmax(axis=1) == test.labels)) != accs[-1]:
            errors.append("stream final accuracy does not recompute")
        return errors


WORKLOADS = {w.name: w for w in (Grid, PoolSelect, StreamDrift)}
