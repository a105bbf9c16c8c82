import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowal import (
    Dataset,
    DriftSpec,
    FeatureSchema,
    ForestParams,
    IterationRecord,
    LalParams,
    Oracle,
    PoolState,
    RunHistory,
    Stabilization,
    StopReason,
    StoppingCriteria,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    check_stop,
    evaluate_accuracy,
    fit_forest,
    generate_synthetic,
    make_pool,
    oracle_label,
    run_pool_loop,
    run_stream_loop,
    subset_size,
)
from flowal.errors import (
    EmptyStream,
    EmptyTestSet,
    IndexOutOfRange,
    InvalidPool,
    InvalidThreshold,
    NoStoppingCriterion,
)
from flowal.rng import derive_seed, make_rng
from flowal.strategies import STRATEGY_KINDS, uncertainty_scores


class FakeClock:
    """Monotonic clock that advances a fixed step per read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def seeded_split(dataset, fraction, seed):
    """Split test data into (subset, rest) by a ``make_rng(seed)`` permutation.

    The subset is the permutation's first ``subset_size(fraction, n)``
    records.  It is a fixed recipe for building test inputs, separate from
    the library's ``holdout_split``, so those inputs stay put when the
    library's split changes.
    """
    perm = np.arange(len(dataset))
    make_rng(seed).shuffle(perm)
    k = subset_size(fraction, len(perm))
    return dataset.subset(perm[:k]), dataset.subset(perm[k:])


def toy_dataset(n, n_classes=2, d=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(tuple(f"f{j}" for j in range(d)),
                           tuple(f"c{i}" for i in range(n_classes)))
    return Dataset(schema, rng.normal(size=(n, d)),
                   np.arange(n) % n_classes)


EASY12 = SyntheticSpec(n_classes=12, per_class=200, n_features=12,
                       class_mean_separation=6.0, noise_stddev=1.0, seed=11)


class TestOracle:
    def test_noiseless_returns_truth(self):
        ds = toy_dataset(30)
        oracle = Oracle(ds, 0.0, 5)
        for i in range(30):
            assert oracle_label(oracle, i) == ds.labels[i]

    def test_full_noise_two_classes_always_flips(self):
        ds = toy_dataset(30)
        oracle = Oracle(ds, 1.0, 5)
        for i in range(30):
            assert oracle_label(oracle, i) == 1 - ds.labels[i]

    def test_flip_frequency(self):
        ds = toy_dataset(10000, n_classes=4)
        oracle = Oracle(ds, 0.3, 9)
        flips = sum(oracle_label(oracle, i) != ds.labels[i] for i in range(10000))
        assert abs(flips / 10000 - 0.3) <= 0.02

    def test_deterministic_per_index(self):
        ds = toy_dataset(50, n_classes=3)
        oracle = Oracle(ds, 0.5, 2)
        first = [oracle_label(oracle, i) for i in range(50)]
        second = [oracle_label(oracle, i) for i in range(50)]
        assert first == second

    def test_flipped_label_is_valid_class(self):
        ds = toy_dataset(200, n_classes=5)
        oracle = Oracle(ds, 1.0, 3)
        for i in range(200):
            lab = oracle_label(oracle, i)
            assert 0 <= lab < 5 and lab != ds.labels[i]

    def test_index_out_of_range(self):
        oracle = Oracle(toy_dataset(5), 0.0, 0)
        with pytest.raises(IndexOutOfRange):
            oracle_label(oracle, 5)
        with pytest.raises(IndexOutOfRange):
            oracle_label(oracle, -1)

    @pytest.mark.parametrize("index", [1.5, 1.0, True])
    def test_non_integer_index_rejected(self, index):
        ds = toy_dataset(5)
        oracle = Oracle(ds, 0.0, 0)
        with pytest.raises(IndexOutOfRange, match="record index must be an int"):
            oracle_label(oracle, index)
        assert oracle_label(oracle, np.int64(1)) == ds.labels[1]

    def test_noise_rate_validated(self):
        with pytest.raises(InvalidThreshold):
            Oracle(toy_dataset(5), 1.5, 0)


def history_of(accuracies, queried_counts=None):
    queried_counts = queried_counts or [0] * len(accuracies)
    iters = [IterationRecord(10 + sum(queried_counts[:i + 1]),
                             tuple(range(queried_counts[i])), acc, 0.0, 0.0)
             for i, acc in enumerate(accuracies)]
    return RunHistory(iters, StopReason.EXHAUSTED)


class TestCheckStop:
    def test_accuracy_threshold_fires(self):
        stop = StoppingCriteria(accuracy_threshold=0.95)
        assert check_stop(stop, history_of([0.9, 0.96]), 0.0) \
            == StopReason.ACCURACY_THRESHOLD

    def test_stabilization_span(self):
        stop = StoppingCriteria(stabilization=Stabilization(3, 0.01))
        h = history_of([0.90, 0.901, 0.900])
        assert check_stop(stop, h, 0.0) == StopReason.STABILIZATION
        h2 = history_of([0.90, 0.95, 0.900])
        assert check_stop(stop, h2, 0.0) is None

    def test_nothing_fires(self):
        stop = StoppingCriteria(accuracy_threshold=0.99, max_queries=100)
        assert check_stop(stop, history_of([0.5], [3]), 1.0) is None

    def test_priority_order(self):
        both = StoppingCriteria(accuracy_threshold=0.5,
                                stabilization=Stabilization(2, 1.0))
        h = history_of([0.8, 0.8])
        assert check_stop(both, h, 0.0) == StopReason.ACCURACY_THRESHOLD
        stab_then_queries = StoppingCriteria(stabilization=Stabilization(2, 1.0),
                                             max_queries=1)
        assert check_stop(stab_then_queries, history_of([0.1, 0.2], [5, 5]), 0.0) \
            == StopReason.STABILIZATION
        queries_then_time = StoppingCriteria(max_queries=5, time_budget=0.0)
        assert check_stop(queries_then_time, history_of([0.1], [5]), 99.0) \
            == StopReason.MAX_QUERIES

    def test_time_budget(self):
        stop = StoppingCriteria(time_budget=10.0)
        assert check_stop(stop, history_of([0.5]), 9.9) is None
        assert check_stop(stop, history_of([0.5]), 10.0) == StopReason.TIME_BUDGET

    def test_at_least_one_criterion(self):
        with pytest.raises(NoStoppingCriterion):
            StoppingCriteria()


class TestPoolState:
    def test_overlap_rejected(self):
        ds = toy_dataset(10)
        with pytest.raises(InvalidPool):
            PoolState(ds, (0, 1), (1, 2), (3,))

    def test_out_of_range_rejected(self):
        ds = toy_dataset(10)
        with pytest.raises(InvalidPool):
            PoolState(ds, (0,), (1,), (10,))

    @pytest.mark.parametrize("labeled, unlabeled, test, message", [
        ((0, 1), (1, 2), (3,), "overlap"),
        ((4, 4), (1,), (3,), "overlap"),
        ((0,), (-1, 2), (3,), "outside"),
        ((0,), (1,), (3, 10), "outside"),
        ((0,), (-1,), (0,), "outside"),
    ])
    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_bad_indices_rejected(self, kind, labeled, unlabeled, test,
                                  message):
        with pytest.raises(InvalidPool, match=message):
            PoolState(toy_dataset(10), kind(labeled), kind(unlabeled),
                      kind(test))

    @pytest.mark.parametrize("kind", [
        tuple, list, np.array, lambda ix: np.array(ix, dtype=np.int32)])
    def test_sets_are_sorted_read_only_int64_arrays(self, kind):
        given = ([5, 1], [9, 0, 3], [7, 2])
        inputs = [kind(ix) for ix in given]
        pool = PoolState(toy_dataset(10), *inputs)
        for got, ix in zip((pool.labeled, pool.unlabeled, pool.test), given):
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.tolist() == sorted(ix)
            assert not got.flags.writeable
        # the caller's arrays keep their order and stay writeable
        assert [list(ix) for ix in inputs] == [list(ix) for ix in given]
        for ix in inputs:
            if isinstance(ix, np.ndarray):
                assert ix.flags.writeable

    @pytest.mark.parametrize("labeled", [[0.5, 1.0], np.arange(10) < 2],
                             ids=["floats", "mask"])
    def test_non_integer_indices_rejected(self, labeled):
        with pytest.raises(InvalidPool, match="integers"):
            PoolState(toy_dataset(10), labeled, (2,), (3,))

    def test_empty_sets_allowed(self):
        pool = PoolState(toy_dataset(10), (), [], np.array([], dtype=np.int64))
        for got in (pool.labeled, pool.unlabeled, pool.test):
            assert got.dtype == np.int64 and got.size == 0

    def test_make_pool_partition(self):
        ds = toy_dataset(100)
        pool = make_pool(ds, 0.3, 10, 4)
        assert len(pool.test) == 30
        assert len(pool.labeled) == 10
        assert len(pool.unlabeled) == 60
        universe = set(pool.labeled) | set(pool.unlabeled) | set(pool.test)
        assert universe == set(range(100))


def run_small_pool(stop, batch=5, seed=0, strategy="entropy", clock=None, n=120):
    ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=n // 3,
                                          n_features=3,
                                          class_mean_separation=5.0, seed=seed))
    pool = make_pool(ds, 0.25, 10, seed)
    oracle = Oracle(ds, 0.0, seed)
    return pool, run_pool_loop(pool, StrategyConfig(kind=strategy, seed=seed),
                               ForestParams(n_trees=8), oracle, batch, stop,
                               seed, clock=clock)


class TestPoolLoop:
    def test_zero_budget_records_seed_evaluation_only(self):
        pool, history = run_small_pool(StoppingCriteria(max_queries=0))
        assert len(history.iterations) == 1
        assert history.stop_reason == StopReason.MAX_QUERIES
        assert history.iterations[0].queried == ()
        assert history.iterations[0].n_labeled == len(pool.labeled)

    def test_budget_arithmetic(self):
        # seed 10, batch 5, budget 20: four query iterations, 30 labeled
        pool, history = run_small_pool(StoppingCriteria(max_queries=20))
        assert history.stop_reason == StopReason.MAX_QUERIES
        assert len(history.iterations) == 5
        assert history.iterations[-1].n_labeled == 30
        assert history.total_queries() == 20

    def test_budget_never_exceeded_with_ragged_batch(self):
        pool, history = run_small_pool(StoppingCriteria(max_queries=13), batch=5)
        assert history.total_queries() == 13
        assert [len(it.queried) for it in history.iterations] == [0, 5, 5, 3]

    def test_exhausts_pool_without_other_criteria(self):
        pool, history = run_small_pool(
            StoppingCriteria(max_queries=10 ** 9), batch=20)
        assert history.stop_reason == StopReason.EXHAUSTED
        assert history.iterations[-1].n_labeled \
            == len(pool.labeled) + len(pool.unlabeled)

    def test_partition_preserved_every_iteration(self):
        pool, history = run_small_pool(StoppingCriteria(max_queries=25), batch=7)
        labeled = set(pool.labeled)
        unlabeled = set(pool.unlabeled)
        test = set(pool.test)
        universe = labeled | unlabeled | test
        for it in history.iterations:
            queried = set(it.queried)
            assert queried <= unlabeled  # only unlabeled instances get queried
            labeled |= queried
            unlabeled -= queried
            assert labeled | unlabeled | test == universe
            assert not labeled & unlabeled and not labeled & test
            assert it.n_labeled == len(labeled)

    def test_monotone_labeling_and_times(self):
        pool, history = run_small_pool(StoppingCriteria(max_queries=20))
        sizes = [it.n_labeled for it in history.iterations]
        assert sizes == sorted(sizes)
        sel = [it.cumulative_selection_time for it in history.iterations]
        train = [it.cumulative_training_time for it in history.iterations]
        assert sel == sorted(sel) and train == sorted(train)

    def test_deterministic_history_with_fake_clock(self):
        a = run_small_pool(StoppingCriteria(max_queries=15), clock=FakeClock())[1]
        b = run_small_pool(StoppingCriteria(max_queries=15), clock=FakeClock())[1]
        assert a.stop_reason == b.stop_reason
        assert a.iterations == b.iterations  # includes injected-clock times

    def test_time_budget_is_exact_with_fake_clock(self):
        clock = FakeClock(step=1.0)
        stop = StoppingCriteria(time_budget=6.0)
        pool, history = run_small_pool(stop, clock=clock)
        assert history.stop_reason == StopReason.TIME_BUDGET
        # the loop must not have started another iteration after the check fired
        fired_at = len(history.iterations)
        clock2 = FakeClock(step=1.0)
        pool2, longer = run_small_pool(StoppingCriteria(time_budget=1e9),
                                       clock=clock2)
        assert len(longer.iterations) > fired_at

    def test_reaches_95_percent_before_exhaustion(self):
        # feasibility oracle first: the full-data forest clears 0.98
        ds = generate_synthetic(EASY12)
        params = ForestParams(n_trees=20)
        test, rest = seeded_split(ds, 0.3, 0)
        assert evaluate_accuracy(fit_forest(rest, params, 0), test) >= 0.98
        hits = 0
        for seed in range(10):
            pool = make_pool(ds, 0.3, 36, seed)
            history = run_pool_loop(
                pool, StrategyConfig(kind="entropy", seed=seed), params,
                Oracle(ds, 0.0, seed), 40,
                StoppingCriteria(accuracy_threshold=0.95), seed)
            if (history.stop_reason == StopReason.ACCURACY_THRESHOLD
                    and history.total_queries() < len(pool.unlabeled)):
                hits += 1
        assert hits >= 8

    def test_iteration_memory_grows_linearly_with_the_pool(self, peak_bytes):
        # the seed fit and its evaluation, one selection, one refit
        peaks = []
        for per_class in (500, 2000):
            ds = generate_synthetic(SyntheticSpec(n_classes=4, per_class=per_class,
                                                  n_features=12, seed=0))
            pool = make_pool(ds, 0.3, 20, 0)
            peaks.append(peak_bytes(lambda: run_pool_loop(
                pool, StrategyConfig(kind="entropy"), ForestParams(n_trees=4),
                Oracle(ds), 10, StoppingCriteria(max_queries=10), 0)))
        assert peaks[1] <= 4.5 * peaks[0]

    def test_invalid_inputs(self):
        ds = toy_dataset(30)
        pool = make_pool(ds, 0.3, 4, 0)
        oracle = Oracle(ds, 0.0, 0)
        stop = StoppingCriteria(max_queries=5)
        with pytest.raises(InvalidPool):
            run_pool_loop(pool, StrategyConfig(kind="entropy"),
                          ForestParams(n_trees=3), oracle, 0, stop, 0)
        no_test = PoolState(ds, pool.labeled, pool.unlabeled, ())
        with pytest.raises(InvalidPool):
            run_pool_loop(no_test, StrategyConfig(kind="entropy"),
                          ForestParams(n_trees=3), oracle, 2, stop, 0)

    def test_oracle_over_another_dataset_rejected_before_the_first_fit(
            self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("fit_forest called")

        monkeypatch.setattr("flowal.engine.fit_forest", spy)
        ds = toy_dataset(90)
        pool = make_pool(ds, 0.3, 4, 0)
        # one as large as the pool's dataset, one too small for its indices
        for other in (toy_dataset(90, seed=1), toy_dataset(20)):
            with pytest.raises(InvalidPool, match="oracle"):
                run_pool_loop(pool, StrategyConfig(kind="entropy"),
                              ForestParams(n_trees=3), Oracle(other, 0.0, 0),
                              5, StoppingCriteria(max_queries=10), 0)


def stream_pair(seed, spec=None, test_fraction=0.3):
    ds = generate_synthetic(spec or SyntheticSpec(
        n_classes=3, per_class=100, n_features=3,
        class_mean_separation=5.0, seed=seed))
    test, stream = seeded_split(ds, test_fraction, seed)
    return stream, test


class TestStreamLoop:
    def test_zero_threshold_queries_until_budget_exhausted(self):
        stream, test = stream_pair(1)
        cfg = StreamConfig(measure="entropy", threshold=0.0,
                           max_label_budget=30, seed_fraction=0.05,
                           retrain_every=10)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                  Oracle(stream, 0.0, 1),
                                  StoppingCriteria(max_queries=10 ** 9), 1)
        assert history.total_queries() == 30
        assert history.iterations[-1].n_labeled \
            == subset_size(0.05, len(stream)) + 30

    def test_threshold_above_log_n_queries_nothing(self):
        stream, test = stream_pair(2)
        cfg = StreamConfig(measure="entropy",
                           threshold=math.log(3) + 0.01,
                           max_label_budget=50, seed_fraction=0.05)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                  Oracle(stream, 0.0, 2),
                                  StoppingCriteria(max_queries=10 ** 9), 2)
        assert history.total_queries() == 0
        assert len(history.iterations) == 1
        assert history.stop_reason == StopReason.EXHAUSTED

    def test_margin_queries_at_or_below_the_threshold(self):
        # with no refit before the end every decision uses the seed model, so
        # the queried rows are exactly those it scores at or below threshold
        stream, test = stream_pair(6)
        cfg = StreamConfig(measure="margin", threshold=0.5,
                           max_label_budget=len(stream), seed_fraction=0.05,
                           retrain_every=len(stream))
        learner = ForestParams(n_trees=8)
        history = run_stream_loop(stream, test, cfg, learner,
                                  Oracle(stream, 0.0, 6),
                                  StoppingCriteria(max_queries=10 ** 9), 6)
        n_seed = subset_size(0.05, len(stream))
        seed_model = fit_forest(stream.subset(np.arange(n_seed)), learner,
                                derive_seed(6, 13, 0))
        rest = np.arange(n_seed, len(stream))
        margins = uncertainty_scores(
            "margin", seed_model.predict_proba_many(stream.features[rest]))
        expected = tuple(int(i) for i in rest[margins <= 0.5])
        assert 0 < len(expected) < len(rest)
        assert [it.queried for it in history.iterations] == [(), expected]

    def test_retrain_cadence(self):
        stream, test = stream_pair(3)
        cfg = StreamConfig(measure="entropy", threshold=0.0,
                           max_label_budget=25, seed_fraction=0.05,
                           retrain_every=10)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                  Oracle(stream, 0.0, 3),
                                  StoppingCriteria(max_queries=10 ** 9), 3)
        # 25 queries at cadence 10: two full retrains plus the trailing partial
        assert [len(it.queried) for it in history.iterations] == [0, 10, 10, 5]

    @pytest.mark.parametrize("cap,batches", [(5, [0, 5]), (15, [0, 10, 5])])
    def test_max_queries_is_a_hard_cap(self, cap, batches):
        # a cap between refits still stops querying at the cap exactly
        stream, test = stream_pair(3)
        cfg = StreamConfig(measure="entropy", threshold=0.0,
                           max_label_budget=25, seed_fraction=0.05,
                           retrain_every=10)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                  Oracle(stream, 0.0, 3),
                                  StoppingCriteria(max_queries=cap), 3)
        assert history.total_queries() == cap
        assert [len(it.queried) for it in history.iterations] == batches
        assert history.stop_reason == StopReason.MAX_QUERIES

    def test_budget_alone_stops_like_max_queries(self):
        # the budget is the loop's own max_queries criterion: no criteria and
        # the same cap as explicit criteria run identically, clock reads included
        stream, test = stream_pair(3)
        cfg = StreamConfig(measure="entropy", threshold=0.0,
                           max_label_budget=25, seed_fraction=0.05,
                           retrain_every=10)

        def run(stop):
            return run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                   Oracle(stream, 0.0, 3), stop, 3,
                                   clock=FakeClock())
        alone = run(None)
        explicit = run(StoppingCriteria(max_queries=25))
        assert alone.iterations == explicit.iterations
        assert [len(it.queried) for it in alone.iterations] == [0, 10, 10, 5]
        assert alone.stop_reason == explicit.stop_reason == StopReason.MAX_QUERIES

    @settings(max_examples=25, deadline=None)
    @given(budget=st.integers(0, 40),
           max_queries=st.none() | st.integers(0, 40),
           time_budget=st.none() | st.just(1e9))
    def test_spent_budget_stops_as_max_queries(self, budget, max_queries,
                                               time_budget):
        # threshold 0 queries every arrival, so only the smaller cap stops it
        stream, test = stream_pair(7)
        cfg = StreamConfig(measure="entropy", threshold=0.0,
                           max_label_budget=budget, seed_fraction=0.05,
                           retrain_every=10)
        stop = None
        if max_queries is not None or time_budget is not None:
            stop = StoppingCriteria(max_queries=max_queries,
                                    time_budget=time_budget)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=3),
                                  Oracle(stream, 0.0, 7), stop, 7,
                                  clock=FakeClock())
        cap = budget if max_queries is None else min(budget, max_queries)
        assert history.total_queries() == cap
        assert history.stop_reason == StopReason.MAX_QUERIES

    def test_deterministic_history(self):
        stream, test = stream_pair(4)
        cfg = StreamConfig(threshold=0.2, max_label_budget=20,
                           seed_fraction=0.05)

        def run():
            return run_stream_loop(stream, test, cfg, ForestParams(n_trees=8),
                                   Oracle(stream, 0.0, 4),
                                   StoppingCriteria(max_queries=10 ** 9), 4,
                                   clock=FakeClock())
        assert run().iterations == run().iterations

    def test_adapts_to_drift_better_than_frozen_model(self):
        # paired per seed: same stream, same seed prefix; the frozen model
        # never queries, the selective sampler does
        wins = 0
        for seed in range(10):
            n_classes, per_class, d, sep, shift = 3, 300, 4, 5.0, 5.0
            n = n_classes * per_class
            stream = generate_synthetic(SyntheticSpec(
                n_classes=n_classes, per_class=per_class, n_features=d,
                class_mean_separation=sep, noise_stddev=1.0,
                drift=DriftSpec(onset_index=n // 2, mean_shift=shift),
                seed=seed))
            test = generate_synthetic(SyntheticSpec(
                n_classes=n_classes, per_class=120, n_features=d,
                class_mean_separation=sep, noise_stddev=1.0,
                drift=DriftSpec(onset_index=0, mean_shift=shift),
                seed=1000 + seed))
            params = ForestParams(n_trees=25)
            oracle = Oracle(stream, 0.0, seed)
            n_seed = subset_size(0.05, n)
            frozen = fit_forest(stream.subset(np.arange(n_seed)), params, seed)
            frozen_acc = evaluate_accuracy(frozen, test)
            cfg = StreamConfig(measure="entropy", threshold=0.3,
                               max_label_budget=subset_size(0.2, n),
                               seed_fraction=0.05, retrain_every=20)
            history = run_stream_loop(stream, test, cfg, params, oracle,
                                      StoppingCriteria(max_queries=10 ** 9),
                                      seed)
            wins += history.final_accuracy > frozen_acc
        assert wins >= 8

    def test_default_budget_is_15_percent_of_the_stream(self):
        stream, test = stream_pair(1)
        history = run_stream_loop(stream, test,
                                  StreamConfig(threshold=0.0, seed_fraction=0.05),
                                  ForestParams(n_trees=3), Oracle(stream, 0.0, 1),
                                  None, 1)
        assert history.total_queries() == subset_size(0.15, len(stream)) == 32
        assert history.stop_reason == StopReason.MAX_QUERIES

    def test_empty_stream(self):
        schema = FeatureSchema(("a",), ("x", "y"))
        empty = Dataset(schema, np.empty((0, 1)), np.empty(0, dtype=int))
        stream, test = stream_pair(5)
        with pytest.raises(EmptyStream):
            run_stream_loop(empty, test, StreamConfig(max_label_budget=1),
                            ForestParams(n_trees=3), Oracle(stream, 0.0, 0),
                            StoppingCriteria(max_queries=1), 0)

    def test_empty_test_set_rejected_before_the_oracle(self, engine_calls):
        stream, test = stream_pair(5)
        with pytest.raises(EmptyTestSet):
            run_stream_loop(stream, test.subset([]),
                            StreamConfig(seed_fraction=0.05),
                            ForestParams(n_trees=3), Oracle(stream, 0.0, 5),
                            None, 5)
        assert not any(engine_calls.values())

    @pytest.mark.parametrize("seed_fraction", [0.004, 0.02])
    def test_one_class_seed_prefix_rejected_before_the_first_fit(
            self, monkeypatch, seed_fraction):
        stream, test = stream_pair(6)
        # class-sorted, so a 1-record or a 4-record prefix holds one class
        stream = stream.subset(np.argsort(stream.labels, kind="stable"))

        def spy(*args, **kwargs):
            raise AssertionError("fit_forest called")

        monkeypatch.setattr("flowal.engine.fit_forest", spy)
        with pytest.raises(InvalidThreshold, match="seed_fraction"):
            run_stream_loop(stream, test,
                            StreamConfig(max_label_budget=10,
                                         seed_fraction=seed_fraction),
                            ForestParams(n_trees=3), Oracle(stream, 0.0, 6),
                            None, 6)

    def test_oracle_over_another_dataset_rejected_before_the_first_fit(
            self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("fit_forest called")

        monkeypatch.setattr("flowal.engine.fit_forest", spy)
        stream, test = stream_pair(7)
        for other in (stream_pair(8)[0], test):
            with pytest.raises(InvalidPool, match="oracle"):
                run_stream_loop(stream, test, StreamConfig(seed_fraction=0.05),
                                ForestParams(n_trees=3), Oracle(other, 0.0, 7),
                                None, 7)

    def test_config_validation(self):
        with pytest.raises(InvalidThreshold):
            StreamConfig(threshold=-0.1)
        with pytest.raises(InvalidThreshold):
            StreamConfig(seed_fraction=0.0)
        with pytest.raises(InvalidThreshold):
            StreamConfig(measure="bogus")
        with pytest.raises(InvalidThreshold):
            StreamConfig(max_label_budget=-1)


class TestBenchmarkCountedCalls:
    """One fit per recorded iteration and one oracle call per labeled index."""

    @pytest.mark.parametrize("strategy, fit", [("entropy", "fit_forest"),
                                               ("qbc_kl", "fit_committee")])
    def test_pool_loop(self, engine_calls, strategy, fit):
        _, history = run_small_pool(StoppingCriteria(max_queries=13),
                                    strategy=strategy)
        expected = dict(fit_forest=0, fit_committee=0,
                        oracle_label=history.iterations[-1].n_labeled)
        expected[fit] = len(history.iterations)
        assert engine_calls == expected

    def test_stream_loop(self, engine_calls):
        stream, test = stream_pair(1)
        history = run_stream_loop(
            stream, test, StreamConfig(threshold=0.0, max_label_budget=25,
                                       seed_fraction=0.05),
            ForestParams(n_trees=8), Oracle(stream, 0.0, 1), None, 1)
        assert len(history.iterations) == 4  # seed, two full batches, the rest
        assert engine_calls == dict(
            fit_forest=4, fit_committee=0,
            oracle_label=history.iterations[-1].n_labeled)


def batch_sum(history):
    """The reference count: every record's batch, summed."""
    return sum(len(it.queried) for it in history.iterations)


class TestTotalQueries:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_pool_loop_histories(self, kind):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=40,
                                              n_features=3, seed=0))
        pool = make_pool(ds, 0.25, 10, 0)
        lal = LalParams(mc_rounds=2, trees=4)
        strategy = StrategyConfig(kind=kind, committee_size=3, lal_params=lal)
        # a ragged last batch under a cap, then one that empties the pool
        for stop, batch in [(StoppingCriteria(max_queries=23), 5),
                            (StoppingCriteria(max_queries=10 ** 9), 30)]:
            history = run_pool_loop(pool, strategy, ForestParams(n_trees=4),
                                    Oracle(ds, 0.0, 0), batch, stop, 0)
            assert history.total_queries() == batch_sum(history) > 0

    @pytest.mark.parametrize("cfg", [
        StreamConfig(threshold=0.0, seed_fraction=0.05),
        StreamConfig(threshold=0.3, seed_fraction=0.05, retrain_every=7),
        StreamConfig(measure="margin", threshold=0.5, max_label_budget=50,
                     seed_fraction=0.05, retrain_every=4),
    ])
    def test_stream_loop_histories(self, cfg):
        stream, test = stream_pair(2)
        history = run_stream_loop(stream, test, cfg, ForestParams(n_trees=4),
                                  Oracle(stream, 0.0, 2), None, 2)
        assert history.total_queries() == batch_sum(history) > 0

    @pytest.mark.parametrize("accuracies, counts", [
        ([0.9, 0.96], None), ([0.5], [3]), ([0.1, 0.2], [5, 5]), ([0.1], [5]),
        ([0.4, 0.5, 0.6, 0.7], [0, 10, 10, 3]),
    ])
    def test_hand_built_histories(self, accuracies, counts):
        history = history_of(accuracies, counts)
        assert history.total_queries() == batch_sum(history)

    def test_stop_checks_read_only_the_newest_records(self):
        class NoFullScan(list):
            def __iter__(self):
                raise AssertionError("the whole history was read")

        history = history_of([0.5, 0.6] * 50, [1] * 100)
        history.iterations = NoFullScan(history.iterations)
        stop = StoppingCriteria(accuracy_threshold=0.99, max_queries=1000,
                                stabilization=Stabilization(4, 0.01))
        assert check_stop(stop, history, 0.0) is None
        assert history.total_queries() == 100
