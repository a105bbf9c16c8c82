"""Golden fingerprint: fixed inputs whose outputs must not drift.

``tests/golden.json`` pins the tree arrays of a classification and a
regression forest, the accuracy and TAR columns of a small experiment grid,
the queried indices of a pool run for every strategy kind, and one pool and
one stream history under a fake clock (time fields included, so the
sequence of clock reads is pinned too).  A change that alters any entry
must say which one and why.

Regenerate the file from the current code with

    PYTHONPATH=src python3 -m tests.test_golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from flowal import (
    DriftSpec,
    ExperimentConfig,
    ForestParams,
    LalParams,
    Oracle,
    StoppingCriteria,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    fit_forest,
    generate_synthetic,
    make_pool,
    run_experiment,
    run_pool_loop,
    run_stream_loop,
)
from flowal.forest import fit_regression_forest
from flowal.strategies import STRATEGY_KINDS
from tests.test_engine import FakeClock

GOLDEN = Path(__file__).with_name("golden.json")

SMALL_LAL = LalParams(mc_rounds=3, trees=5, seed=2)


def _tree_digest(trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        for name in ("feature", "threshold", "left", "right", "value"):
            arr = getattr(tree, name)
            h.update(f"{name}:{arr.dtype.str}:{arr.size}:".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _forests() -> dict:
    ds = generate_synthetic(SyntheticSpec(
        n_classes=4, per_class=40, n_features=5, class_mean_separation=2.0,
        seed=3))
    classifier = fit_forest(ds, ForestParams(n_trees=6), 17)
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(90, 6)), 1)  # rounding leaves ties to break
    t = np.round(X[:, 0] - 2.0 * X[:, 3] + rng.normal(scale=0.3, size=90), 2)
    regressor = fit_regression_forest(X, t, ForestParams(n_trees=6), 23)
    return {"classification": _tree_digest(classifier.trees),
            "regression": _tree_digest(regressor.trees)}


def _grid() -> list:
    strategies = tuple(
        StrategyConfig(kind=kind, committee_size=3, lal_params=SMALL_LAL)
        for kind in ("entropy", "random", "density", "qbc_kl", "lal"))
    config = ExperimentConfig(
        source=SyntheticSpec(n_classes=3, per_class=50, n_features=4,
                             class_mean_separation=2.5, seed=9),
        strategies=strategies, seeds=(0, 1), learner=ForestParams(n_trees=6),
        fractions=(0.1, 0.2), batch=4)
    return [[r.strategy, r.fraction, r.seed, r.accuracy, r.tar]
            for r in run_experiment(config, clock=FakeClock(0.25))]


def _pool_inputs():
    ds = generate_synthetic(SyntheticSpec(
        n_classes=3, per_class=40, n_features=4, class_mean_separation=2.5,
        seed=12))
    return ds, make_pool(ds, 0.25, 9, 5)


def _queried_per_kind() -> dict:
    ds, pool = _pool_inputs()
    out = {}
    for kind in STRATEGY_KINDS:
        history = run_pool_loop(
            pool, StrategyConfig(kind=kind, committee_size=3,
                                 lal_params=SMALL_LAL, seed=1),
            ForestParams(n_trees=6), Oracle(ds, 0.0, 5), 4,
            StoppingCriteria(max_queries=12), 6)
        out[kind] = [list(it.queried) for it in history.iterations]
    return out


def _history(history) -> dict:
    return {"stop_reason": history.stop_reason.value,
            "iterations": [[it.n_labeled, list(it.queried), it.accuracy,
                            it.cumulative_selection_time,
                            it.cumulative_training_time]
                           for it in history.iterations]}


def _pool_history() -> dict:
    ds, pool = _pool_inputs()
    history = run_pool_loop(
        pool, StrategyConfig(kind="margin"), ForestParams(n_trees=5),
        Oracle(ds, 0.1, 5), 6, StoppingCriteria(accuracy_threshold=0.99,
                                                max_queries=30),
        8, clock=FakeClock(0.25))
    return _history(history)


def _stream_history() -> dict:
    stream = generate_synthetic(SyntheticSpec(
        n_classes=3, per_class=80, n_features=3, class_mean_separation=3.0,
        drift=DriftSpec(120, 2.0), seed=21))
    test = generate_synthetic(SyntheticSpec(
        n_classes=3, per_class=20, n_features=3, class_mean_separation=3.0,
        drift=DriftSpec(0, 2.0), seed=22))
    config = StreamConfig(measure="entropy", threshold=0.4,
                          max_label_budget=40, seed_fraction=0.05,
                          retrain_every=7)
    history = run_stream_loop(stream, test, config, ForestParams(n_trees=5),
                              Oracle(stream, 0.0, 3),
                              StoppingCriteria(max_queries=40), 4,
                              clock=FakeClock(0.25))
    return _history(history)


def fingerprint() -> dict:
    return {
        "forests": _forests(),
        "grid": _grid(),
        "queried": _queried_per_kind(),
        "pool_history": _pool_history(),
        "stream_history": _stream_history(),
    }


def _dump(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_matches_golden_fingerprint():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(_dump(fingerprint()))
    for key in want:
        assert got[key] == want[key], f"golden entry {key!r} changed"
    assert got.keys() == want.keys()


if __name__ == "__main__":
    GOLDEN.write_text(_dump(fingerprint()), encoding="utf-8")
