"""Active-learning loops: pool-based sampling and stream-based selective sampling.

Both loops run on one core, ``_Recorder``, which labels through the oracle,
fits on the labeled set, evaluates on the held-out test set, records an
iteration and checks the stopping criteria; each loop adds only its
acquisition rule.  Every training label flows through the oracle (so
annotation noise applies to the seed set too); test labels are always
ground truth.

All timing flows through an injectable monotonic clock so that time-dependent
behavior is testable, and every random decision derives from explicit seeds,
making a run's history (minus wall-clock fields) a pure function of its inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .dataset import Dataset, _indices, holdout_split, subset_size
from .errors import (
    EmptyStream,
    EmptyTestSet,
    IndexOutOfRange,
    InvalidParams,
    InvalidPool,
    InvalidThreshold,
    NoStoppingCriterion,
    _check_finite, _check_int,
)
from .forest import (
    ForestParams,
    RegressionForestModel,
    evaluate_accuracy,
    fit_committee,
    fit_forest,
)
from .rng import derive_seed, make_rng
from .strategies import (
    UNCERTAINTY_KINDS,
    StrategyConfig,
    needs_committee,
    oriented,
    select_batch,
    train_lal_regressor,
    uncertainty_scores,
)

Clock = Callable[[], float]


@dataclass(frozen=True, eq=False)
class PoolState:
    """Partition of a dataset into labeled, unlabeled, and test index sets.

    The three sets must be pairwise disjoint; together they are the run's
    index universe.  Each is stored as a sorted, read-only int64 array, which
    also fixes the tie-break order used by batch selection; indices that are
    not integers are rejected.
    """

    dataset: Dataset
    labeled: np.ndarray
    unlabeled: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("labeled", "unlabeled", "test"):
            indices = np.sort(_indices(getattr(self, name), InvalidPool))
            indices.flags.writeable = False
            object.__setattr__(self, name, indices)
        combined = np.concatenate([self.labeled, self.unlabeled, self.test])
        if combined.size and (combined.min() < 0
                              or combined.max() >= len(self.dataset)):
            raise InvalidPool("pool index outside the dataset")
        if (np.bincount(combined) > 1).any():
            raise InvalidPool("labeled, unlabeled, and test sets overlap")


def make_pool(dataset: Dataset, test_fraction: float, n_seed: int,
              seed: int) -> PoolState:
    """Shuffle a dataset into (test, seed-labeled, unlabeled) index sets."""
    _check_int(n_seed, "seed size", InvalidPool)
    test, rest = holdout_split(len(dataset), test_fraction, seed)
    if not 0 < n_seed <= rest.size:
        raise InvalidPool(f"seed size {n_seed} does not fit the train pool")
    return PoolState(dataset, rest[:n_seed], rest[n_seed:], test)


@dataclass(frozen=True)
class Oracle:
    """Label source backed by ground truth, optionally noisy.

    With probability ``noise_rate`` the answer is a uniformly random *other*
    class; the outcome is deterministic in (seed, index), so asking twice
    returns the same answer.
    """

    dataset: Dataset
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_rate <= 1.0:
            raise InvalidThreshold("noise_rate must be in [0, 1]")
        _check_int(self.seed, "seed", InvalidThreshold)


def oracle_label(oracle: Oracle, index: int) -> int:
    """Answer a label query for one record index."""
    _check_int(index, "record index", IndexOutOfRange)
    if not 0 <= index < len(oracle.dataset):
        raise IndexOutOfRange(f"record index {index} outside the dataset")
    truth = int(oracle.dataset.labels[index])
    if oracle.noise_rate == 0.0:
        return truth
    rng = make_rng(oracle.seed, 8, index)
    if rng.random() >= oracle.noise_rate:
        return truth
    n_classes = oracle.dataset.schema.n_classes
    other = int(rng.integers(0, n_classes - 1))
    return other if other < truth else other + 1


class StopReason(str, Enum):
    ACCURACY_THRESHOLD = "accuracy_threshold"
    STABILIZATION = "stabilization"
    MAX_QUERIES = "max_queries"
    TIME_BUDGET = "time_budget"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Stabilization:
    window: int
    epsilon: float


@dataclass(frozen=True)
class StoppingCriteria:
    """When to stop querying; at least one criterion must be set.

    Criteria are checked in fixed priority order: accuracy_threshold,
    stabilization, max_queries, time_budget.
    """

    accuracy_threshold: Optional[float] = None
    max_queries: Optional[int] = None
    time_budget: Optional[float] = None
    stabilization: Optional[Stabilization] = None

    def __post_init__(self):
        if (self.accuracy_threshold is None and self.max_queries is None
                and self.time_budget is None and self.stabilization is None):
            raise NoStoppingCriterion("set at least one stopping criterion")
        if self.accuracy_threshold is not None and not 0 < self.accuracy_threshold <= 1:
            raise NoStoppingCriterion("accuracy_threshold must be in (0, 1]")
        if self.max_queries is not None:
            _check_int(self.max_queries, "max_queries", NoStoppingCriterion, 0)
        if self.time_budget is not None:
            _check_finite(self.time_budget, "time_budget", NoStoppingCriterion, 0)
        if self.stabilization is not None:
            window, epsilon = self.stabilization.window, self.stabilization.epsilon
            _check_int(window, "stabilization window", NoStoppingCriterion, 1)
            _check_finite(epsilon, "stabilization epsilon", NoStoppingCriterion, 0)


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration: state size, queried batch, accuracy, cumulative times."""

    n_labeled: int
    queried: Tuple[int, ...]
    accuracy: float
    cumulative_selection_time: float
    cumulative_training_time: float


@dataclass
class RunHistory:
    """Everything a loop did: per-iteration records plus why it stopped."""

    iterations: List[IterationRecord]
    stop_reason: StopReason

    def total_queries(self) -> int:
        """Labels queried: the labeled set's growth, the sum of every batch."""
        first, last = self.iterations[0], self.iterations[-1]
        return last.n_labeled - first.n_labeled + len(first.queried)

    @property
    def final_accuracy(self) -> float:
        return self.iterations[-1].accuracy

    @property
    def total_training_time(self) -> float:
        return self.iterations[-1].cumulative_training_time

    @property
    def total_selection_time(self) -> float:
        return self.iterations[-1].cumulative_selection_time


def cap_queries(stop: Optional[StoppingCriteria], budget: int) -> StoppingCriteria:
    """``stop`` (or None) with ``budget`` folded into max_queries; the smaller wins."""
    mq = stop and stop.max_queries
    return replace(stop or StoppingCriteria(max_queries=budget),
                   max_queries=budget if mq is None else min(budget, mq))


def check_stop(stop: StoppingCriteria, history: RunHistory,
               elapsed_seconds: float) -> Optional[StopReason]:
    """First stopping criterion that fires, or None; reads recent records only."""
    its = history.iterations
    if (stop.accuracy_threshold is not None and its
            and its[-1].accuracy >= stop.accuracy_threshold):
        return StopReason.ACCURACY_THRESHOLD
    if stop.stabilization is not None and len(its) >= stop.stabilization.window:
        tail = [it.accuracy for it in its[-stop.stabilization.window:]]
        if max(tail) - min(tail) <= stop.stabilization.epsilon:
            return StopReason.STABILIZATION
    if stop.max_queries is not None and history.total_queries() >= stop.max_queries:
        return StopReason.MAX_QUERIES
    if stop.time_budget is not None and elapsed_seconds >= stop.time_budget:
        return StopReason.TIME_BUDGET
    return None


class _Recorder:
    """The loop core: the labeled set, its oracle labels and the refit step.

    It owns the labeled indices in query order with their oracle labels, the
    history and the cumulative times.  A refit fits a committee when
    ``strategy`` needs one, else a forest, seeded ``(seed, tag, iteration)``,
    then records its accuracy on ``test`` and checks ``stop``.  The clock is
    first read after ``initial`` is labeled, then three times per refit:
    around the fit and for the elapsed-time check.
    """

    def __init__(self, dataset: Dataset, oracle: Oracle, initial,
                 test: Dataset, learner: ForestParams, stop: StoppingCriteria,
                 seed: int, tag: int, clock: Optional[Clock],
                 strategy: Optional[StrategyConfig] = None):
        if oracle.dataset is not dataset:
            raise InvalidPool("the oracle must label the loop's own dataset")
        _check_int(seed, "seed", InvalidParams)  # first drawn after the labels
        self.dataset, self.oracle, self.test = dataset, oracle, test
        self.learner, self.stop, self.seed, self.tag = learner, stop, seed, tag
        self.committee = (strategy.committee_size if strategy is not None
                          and needs_committee(strategy) else 0)
        self.labeled, self.labels = [], []  # in query order, as fits see them
        self.label(initial)
        self.clock = clock or time.perf_counter
        self.start = self.clock()
        self.train_time = self.select_time = 0.0
        self.history = RunHistory([], StopReason.EXHAUSTED)

    def label(self, indices) -> None:
        """Ask the oracle once per index; append each to the labeled set."""
        for i in map(int, indices):
            self.labels.append(oracle_label(self.oracle, i))
            self.labeled.append(i)

    def refit(self, queried: Tuple[int, ...]):
        """Fit a model, record its test accuracy; returns (model, stopped).

        When a stopping criterion fires it becomes the history's stop reason.
        """
        t0 = self.clock()
        train = Dataset(self.dataset.schema,
                        self.dataset.features[np.asarray(self.labeled, int)],
                        np.asarray(self.labels, int))
        fit_seed = derive_seed(self.seed, self.tag, len(self.history.iterations))
        if self.committee:
            model = fit_committee(train, self.committee, self.learner, fit_seed)
        else:
            model = fit_forest(train, self.learner, fit_seed)
        self.train_time += self.clock() - t0
        accuracy = evaluate_accuracy(model, self.test)
        self.history.iterations.append(IterationRecord(
            len(self.labeled), queried, accuracy, self.select_time,
            self.train_time))
        reason = check_stop(self.stop, self.history,
                            self.clock() - self.start)
        if reason is not None:
            self.history.stop_reason = reason
        return model, reason is not None


def run_pool_loop(pool: PoolState, strategy: StrategyConfig,
                  learner: ForestParams, oracle: Oracle, batch: int,
                  stop: StoppingCriteria, seed: int,
                  clock: Optional[Clock] = None,
                  lal_regressor: Optional[RegressionForestModel] = None) -> RunHistory:
    """Pool-based active learning until a criterion fires or the pool empties.

    Each iteration fits on the labeled set (a committee for QBC strategies, a
    single forest otherwise), evaluates on the test split, then moves the
    selected batch from unlabeled to labeled with oracle-provided labels.
    The first recorded iteration is the seed-model evaluation.  If the LAL
    regressor is not supplied it is trained inside the first selection and
    billed as selection time.  ``oracle`` must be over ``pool.dataset``
    itself, the same object.
    """
    _check_int(batch, "batch", InvalidPool, 1)
    if not len(pool.test):
        raise InvalidPool("pool loop needs a non-empty test set")
    if not len(pool.labeled):
        raise InvalidPool("pool loop needs a non-empty seed labeled set")
    run = _Recorder(pool.dataset, oracle, pool.labeled,
                    pool.dataset.subset(pool.test), learner, stop, seed, 9,
                    clock, strategy)
    unlabeled = pool.unlabeled
    chosen = ()
    while True:
        state, stopped = run.refit(tuple(chosen))
        if stopped or not len(unlabeled):
            return run.history
        k = min(batch, len(unlabeled))
        if stop.max_queries is not None:
            k = min(k, stop.max_queries - run.history.total_queries())
        t0 = run.clock()
        if strategy.kind == "lal" and lal_regressor is None:
            lal_regressor = train_lal_regressor(strategy.lal_params)
        current = PoolState(pool.dataset, run.labeled, unlabeled, pool.test)
        chosen = select_batch(strategy, state, current, k,
                              lal_regressor=lal_regressor)
        run.select_time += run.clock() - t0
        run.label(chosen)
        unlabeled = np.setdiff1d(unlabeled, chosen, assume_unique=True)


@dataclass(frozen=True)
class StreamConfig:
    """Selective-sampling rule for the stream scenario.

    An arriving instance is queried when its uncertainty measure reaches
    ``threshold`` (margin, which shrinks with uncertainty, is compared with
    <= instead) and the label budget, ``max_label_budget`` queries after the
    seed prefix (None: 15% of the stream, half up), has room; everything
    else is discarded permanently.  The model refits after every
    ``retrain_every`` queries.
    """

    measure: str = "entropy"
    threshold: float = 0.5
    max_label_budget: Optional[int] = None
    seed_fraction: float = 0.01
    retrain_every: int = 10

    def __post_init__(self):
        if self.measure not in UNCERTAINTY_KINDS:
            raise InvalidThreshold(f"unknown stream measure {self.measure!r}")
        _check_finite(self.threshold, "threshold", InvalidThreshold, 0)
        if self.max_label_budget is not None:
            _check_int(self.max_label_budget, "max_label_budget", InvalidThreshold, 0)
        if not 0 < self.seed_fraction < 1:
            raise InvalidThreshold("seed_fraction must be in (0, 1)")
        _check_int(self.retrain_every, "retrain_every", InvalidThreshold, 1)


def run_stream_loop(stream: Dataset, test: Dataset, config: StreamConfig,
                    learner: ForestParams, oracle: Oracle,
                    stop: Optional[StoppingCriteria], seed: int,
                    clock: Optional[Clock] = None) -> RunHistory:
    """Stream-based selective sampling over ``stream`` in its given order.

    The first seed_fraction of the stream is oracle-labeled to train the
    initial model (recorded as the first iteration).  Each later instance is
    measured once and either queried or discarded forever; the model refits
    after every ``retrain_every`` queried instances and once more at the end
    if queries are pending.  Arriving instances are scored in chunks of 64,
    128, ... rows; a refit drops the current chunk, so each instance is
    measured by the model that is current when it arrives, and a chunk's
    scoring time is billed to the instance that triggers it.  An empty
    ``test`` is rejected before the oracle is asked, and a seed prefix whose
    oracle labels hold fewer than two classes before the first fit.
    ``cap_queries`` folds the label budget into ``stop``, which may be None.  ``test`` is a
    held-out set used for the accuracy record and accuracy-based stopping;
    ``oracle`` must be over ``stream`` itself, the same object.
    """
    n = len(stream)
    if n == 0:
        raise EmptyStream("stream has no records")
    if not len(test):
        raise EmptyTestSet("stream loop needs a non-empty test set")
    budget = config.max_label_budget
    stop = cap_queries(stop, subset_size(0.15, n) if budget is None else budget)
    n_seed = max(1, subset_size(config.seed_fraction, n))
    run = _Recorder(stream, oracle, range(n_seed), test, learner, stop, seed,
                    13, clock)
    if len(set(run.labels)) < 2:
        # a one-class model scores every instance 0 and would never query
        raise InvalidThreshold(
            f"seed_fraction {config.seed_fraction} gives a {n_seed}-record seed "
            "prefix with one class; the first model needs at least two")

    model, stopped = run.refit(())
    pending: List[int] = []
    scores, start = np.empty(0), n_seed  # scores[j] measures row start + j
    bar = oriented(config.measure, config.threshold)  # turned like the scores
    for i in range(n_seed, n):
        if stopped or len(run.labeled) - n_seed >= stop.max_queries:
            break
        t0 = run.clock()
        if i - start >= len(scores):  # used up, or dropped at the last refit
            probs = model.predict_proba_many(
                stream.features[i:i + max(64, 2 * len(scores))])
            scores = oriented(config.measure, uncertainty_scores(config.measure, probs))
            start = i
        value = scores[i - start]
        run.select_time += run.clock() - t0
        if not value >= bar:
            continue  # discarded permanently, as is a NaN score
        run.label([i])
        pending.append(i)
        if len(pending) == config.retrain_every:
            model, stopped = run.refit(tuple(pending))
            pending, scores = [], np.empty(0)
    if pending:
        run.refit(tuple(pending))
    return run.history
