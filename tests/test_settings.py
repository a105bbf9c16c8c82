"""Library settings reject non-integers, non-finite and negative numbers up front.

The CLI's parsers already refuse such values; these are the same rules for
code that builds the settings itself, or passes seeds and sizes to the
entry points.  Settings objects check at construction, the loops at entry,
and ``make_rng`` checks every seed before it draws.  A rejected setting
must fail before anything runs, so every random draw is made to fail the
test.
"""

import math

import numpy as np
import pytest

import flowal.bench
import flowal.dataset
import flowal.engine
import flowal.forest
import flowal.rng
import flowal.strategies
from flowal import (
    Dataset,
    DriftSpec,
    FeatureSchema,
    ForestParams,
    LalParams,
    Oracle,
    PoolState,
    Stabilization,
    StoppingCriteria,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    TimingRecord,
    fit_committee,
    fit_forest,
    holdout_split,
    information_density,
    make_pool,
    run_pool_loop,
    run_stream_loop,
    select_batch,
)
from flowal.errors import (
    InvalidCommitteeSize,
    InvalidParams,
    InvalidPool,
    InvalidSpec,
    InvalidThreshold,
    NoStoppingCriterion,
)
from flowal.forest import fit_regression_forest
from flowal.rng import make_rng

DATASET = Dataset(FeatureSchema(("f0",), ("a", "b")),
                  np.arange(20, dtype=float)[:, None], np.arange(20) % 2)


LEARNER = ForestParams(n_trees=2)
POOL = PoolState(DATASET, np.arange(4), np.arange(4, 14), np.arange(14, 20))


def spec(**fields):
    return SyntheticSpec(**{"n_classes": 2, "per_class": 5, "n_features": 2,
                            **fields})


def pool_loop(batch=2, seed=0):
    return run_pool_loop(POOL, StrategyConfig(kind="entropy"), LEARNER,
                         Oracle(DATASET), batch, StoppingCriteria(max_queries=2),
                         seed)


def stream_loop(seed):
    return run_stream_loop(DATASET, DATASET.subset(POOL.test),
                           StreamConfig(seed_fraction=0.1, max_label_budget=2),
                           LEARNER, Oracle(DATASET), None, seed)


# setting -> (build with the setting at a value, the error a bad value raises)
BUILDERS = {
    "StreamConfig.retrain_every":
        (lambda v: StreamConfig(retrain_every=v), InvalidThreshold),
    "StreamConfig.max_label_budget":
        (lambda v: StreamConfig(max_label_budget=v), InvalidThreshold),
    "StreamConfig.threshold":
        (lambda v: StreamConfig(threshold=v), InvalidThreshold),
    "StreamConfig.seed_fraction":
        (lambda v: StreamConfig(seed_fraction=v), InvalidThreshold),
    "Oracle.seed": (lambda v: Oracle(DATASET, 0.0, v), InvalidThreshold),
    "Oracle.noise_rate": (lambda v: Oracle(DATASET, v), InvalidThreshold),
    "StoppingCriteria.max_queries":
        (lambda v: StoppingCriteria(max_queries=v), NoStoppingCriterion),
    "StoppingCriteria.time_budget":
        (lambda v: StoppingCriteria(time_budget=v), NoStoppingCriterion),
    "StoppingCriteria.accuracy_threshold":
        (lambda v: StoppingCriteria(accuracy_threshold=v), NoStoppingCriterion),
    "Stabilization.window":
        (lambda v: StoppingCriteria(stabilization=Stabilization(v, 0.0)),
         NoStoppingCriterion),
    "Stabilization.epsilon":
        (lambda v: StoppingCriteria(stabilization=Stabilization(2, v)),
         NoStoppingCriterion),
    "make_pool.n_seed": (lambda v: make_pool(DATASET, 0.3, v, 0), InvalidPool),
    "StrategyConfig.seed":
        (lambda v: StrategyConfig(kind="random", seed=v), InvalidParams),
    "StrategyConfig.beta":
        (lambda v: StrategyConfig(kind="density", beta=v), InvalidParams),
    "LalParams.seed": (lambda v: LalParams(seed=v), InvalidParams),
    "SyntheticSpec.n_classes": (lambda v: spec(n_classes=v), InvalidSpec),
    "SyntheticSpec.per_class": (lambda v: spec(per_class=v), InvalidSpec),
    "SyntheticSpec.n_features": (lambda v: spec(n_features=v), InvalidSpec),
    "SyntheticSpec.seed": (lambda v: spec(seed=v), InvalidSpec),
    "SyntheticSpec.noise_stddev": (lambda v: spec(noise_stddev=v), InvalidSpec),
    "SyntheticSpec.class_mean_separation":
        (lambda v: spec(class_mean_separation=v), InvalidSpec),
    "DriftSpec.onset_index":
        (lambda v: spec(drift=DriftSpec(v, 1.0)), InvalidSpec),
    "DriftSpec.mean_shift": (lambda v: spec(drift=DriftSpec(4, v)), InvalidSpec),
    "DriftSpec.mean_shift[1]":
        (lambda v: spec(drift=DriftSpec(4, [0.0, v])), InvalidSpec),
    # entry points: the loops check at entry, make_rng every other seed
    "run_pool_loop.seed": (lambda v: pool_loop(seed=v), InvalidParams),
    "run_pool_loop.batch": (lambda v: pool_loop(batch=v), InvalidPool),
    "run_stream_loop.seed": (stream_loop, InvalidParams),
    "make_pool.seed": (lambda v: make_pool(DATASET, 0.3, 2, v), InvalidParams),
    "holdout_split.seed": (lambda v: holdout_split(20, 0.3, v), InvalidParams),
    "fit_forest.seed": (lambda v: fit_forest(DATASET, LEARNER, v), InvalidParams),
    "fit_committee.seed":
        (lambda v: fit_committee(DATASET, 2, LEARNER, v), InvalidParams),
    "fit_committee.size":
        (lambda v: fit_committee(DATASET, v, LEARNER, 0), InvalidCommitteeSize),
    "fit_regression_forest.seed":
        (lambda v: fit_regression_forest(DATASET.features, DATASET.labels,
                                         LEARNER, v), InvalidParams),
    "select_batch.k":
        (lambda v: select_batch(StrategyConfig(kind="random"), None, POOL, v),
         InvalidParams),
    "information_density.beta":
        (lambda v: information_density(np.ones(3), np.eye(3), v), InvalidParams),
    "TimingRecord.subset_train_time":
        (lambda v: TimingRecord(v, 0.0, 1.0), InvalidParams),
    "TimingRecord.subset_selection_time":
        (lambda v: TimingRecord(0.0, v, 1.0), InvalidParams),
    "TimingRecord.full_train_time":
        (lambda v: TimingRecord(0.0, 0.0, v), InvalidParams),
}

INTEGER_SETTINGS = ("StreamConfig.retrain_every", "StreamConfig.max_label_budget",
                    "Oracle.seed", "StoppingCriteria.max_queries",
                    "Stabilization.window", "make_pool.n_seed",
                    "StrategyConfig.seed", "LalParams.seed",
                    "SyntheticSpec.n_classes", "SyntheticSpec.per_class",
                    "SyntheticSpec.n_features", "SyntheticSpec.seed",
                    "DriftSpec.onset_index", "run_pool_loop.seed",
                    "run_pool_loop.batch", "run_stream_loop.seed",
                    "make_pool.seed", "holdout_split.seed", "fit_forest.seed",
                    "fit_committee.seed", "fit_committee.size",
                    "fit_regression_forest.seed", "select_batch.k")
FLOAT_SETTINGS = ("StreamConfig.threshold", "StreamConfig.seed_fraction",
                  "Oracle.noise_rate", "StoppingCriteria.time_budget",
                  "StoppingCriteria.accuracy_threshold", "Stabilization.epsilon",
                  "StrategyConfig.beta", "SyntheticSpec.noise_stddev",
                  "SyntheticSpec.class_mean_separation", "DriftSpec.mean_shift",
                  "DriftSpec.mean_shift[1]", "information_density.beta")
NONNEGATIVE_SETTINGS = ("StreamConfig.threshold", "StoppingCriteria.time_budget",
                        "Stabilization.epsilon", "StrategyConfig.beta",
                        "SyntheticSpec.noise_stddev", "information_density.beta",
                        "TimingRecord.subset_train_time",
                        "TimingRecord.subset_selection_time",
                        "TimingRecord.full_train_time")

CASES = ([(name, value) for name in INTEGER_SETTINGS
          for value in (10.5, 2.0, True)]
         + [(name, value) for name in FLOAT_SETTINGS
            for value in (math.nan, math.inf, -math.inf)])


@pytest.fixture
def nothing_draws(monkeypatch):
    """Fail on any random draw: a rejected setting must stop all work.

    A draw's parts still pass through the real ``make_rng`` first, as it is
    the check that rejects a bad seed.
    """
    def draw(*parts):
        make_rng(*parts)
        raise AssertionError(f"a random draw ran with {parts}")
    for module in (flowal.bench, flowal.dataset, flowal.engine, flowal.forest,
                   flowal.rng, flowal.strategies):
        monkeypatch.setattr(module, "make_rng", draw)


@pytest.mark.parametrize("name, value", CASES)
def test_bad_setting_is_rejected_at_construction(nothing_draws, engine_calls,
                                                 name, value):
    build, error = BUILDERS[name]
    with pytest.raises(error):
        build(value)
    assert not any(engine_calls.values())


@pytest.mark.parametrize("name", NONNEGATIVE_SETTINGS)
def test_negative_real_is_rejected(nothing_draws, engine_calls, name):
    build, error = BUILDERS[name]
    with pytest.raises(error, match=" must be >= 0$"):
        build(-1.0)
    assert not any(engine_calls.values())


@pytest.mark.parametrize("name", INTEGER_SETTINGS)
def test_numpy_integers_are_accepted(name):
    value = np.int64(4 if name == "SyntheticSpec.n_classes" else 2)
    BUILDERS[name][0](value)
