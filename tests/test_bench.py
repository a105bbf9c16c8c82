import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import flowal.bench
import flowal.cli
from flowal import (
    ExperimentConfig,
    ExperimentRow,
    ForestParams,
    LalParams,
    StoppingCriteria,
    StrategyConfig,
    SyntheticSpec,
    emit_report,
    load_rows,
    run_experiment,
    subset_size,
)
from flowal.bench import rows_to_csv, rows_to_json, rows_to_md
from flowal.cli import cli_main
from flowal.engine import IterationRecord, RunHistory, StopReason
from flowal.errors import ConfigError, EmptyReport, InvalidParams
from tests.test_engine import FakeClock

SOURCE = SyntheticSpec(n_classes=3, per_class=200, n_features=4,
                       class_mean_separation=5.0, seed=3)

FAST_LEARNER = ForestParams(n_trees=5)


def small_config(**overrides):
    base = dict(
        source=SOURCE,
        strategies=(StrategyConfig(kind="entropy"),
                    StrategyConfig(kind="random")),
        seeds=(0, 1, 2),
        learner=FAST_LEARNER,
        fractions=(0.01, 0.02, 0.04, 0.08, 0.12, 0.2, 0.3, 0.5),
        batch=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_only_the_cells_label_through_the_engine(engine_calls):
    # the full-pool baseline labels through bench's own oracle_label
    config = small_config(fractions=(0.01, 0.05))
    run_experiment(config)
    budgets = [subset_size(f, 3 * 200) for f in config.fractions]
    assert engine_calls["oracle_label"] \
        == sum(budgets) * len(config.strategies) * len(config.seeds)


def sample_row(**overrides):
    base = dict(strategy="entropy", fraction=0.02, seed=1, time_s=1.5,
                accuracy=0.74, tar=0.74 / 0.99, ttr=3.4 / 139.8,
                full_accuracy=0.99, train_time_s=1.0, select_time_s=0.5,
                full_train_time_s=139.8)
    base.update(overrides)
    return ExperimentRow(**base)


# a fixed three-iteration stream history
HISTORY = RunHistory([IterationRecord(4, (), 0.5, 0.0, 0.125),
                      IterationRecord(6, (7, 2), 0.75, 0.0625, 0.25),
                      IterationRecord(7, (9,), 0.875, 0.09375, 0.375)],
                     StopReason.MAX_QUERIES)


class TestRunExperiment:
    def test_row_count_two_strategies_eight_fractions_three_seeds(self):
        rows = run_experiment(small_config())
        assert len(rows) == 2 * 8 * 3 + 3

    def test_baselines_only_when_fractions_empty(self):
        rows = run_experiment(small_config(fractions=()))
        assert len(rows) == 3
        assert all(r.strategy == "full" for r in rows)
        assert all(r.tar == 1.0 and r.ttr == 1.0 for r in rows)

    def test_ratios_recompute_from_raw_fields(self):
        for r in run_experiment(small_config(seeds=(0,))):
            assert abs(r.tar - r.accuracy / r.full_accuracy) <= 1e-9
            expected_ttr = (r.train_time_s + r.select_time_s) / r.full_train_time_s
            assert abs(r.ttr - expected_ttr) <= 1e-9
            assert abs(r.time_s - (r.train_time_s + r.select_time_s)) <= 1e-9

    def test_results_independent_of_strategy_order(self):
        cfg_a = small_config(seeds=(0,), fractions=(0.02, 0.1))
        cfg_b = small_config(seeds=(0,), fractions=(0.02, 0.1),
                             strategies=(StrategyConfig(kind="random"),
                                         StrategyConfig(kind="entropy")))
        key = lambda r: (r.strategy, r.fraction, r.seed)
        a = {key(r): (r.accuracy, r.tar) for r in run_experiment(cfg_a)}
        b = {key(r): (r.accuracy, r.tar) for r in run_experiment(cfg_b)}
        assert a == b

    def test_rerun_is_deterministic_on_non_time_fields(self):
        cfg = small_config(seeds=(1,), fractions=(0.05,))
        key = lambda r: (r.strategy, r.fraction, r.seed)
        a = {key(r): (r.accuracy, r.tar, r.full_accuracy)
             for r in run_experiment(cfg)}
        b = {key(r): (r.accuracy, r.tar, r.full_accuracy)
             for r in run_experiment(cfg)}
        assert a == b

    def test_rows_sorted(self):
        rows = run_experiment(small_config(seeds=(0, 1), fractions=(0.02, 0.1)))
        keys = [(r.strategy, r.fraction, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_random_budget_equals_passive_subset_size(self):
        # with the random strategy the loop is passive training on a
        # uniform subset whose size is exactly the fraction of the dataset
        cfg = small_config(seeds=(0,), fractions=(0.05,),
                           strategies=(StrategyConfig(kind="random"),))
        rows = [r for r in run_experiment(cfg) if r.strategy == "random"]
        assert len(rows) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(fractions=(0.2, 0.1))
        with pytest.raises(ConfigError):
            small_config(fractions=(0.5, 1.0))
        with pytest.raises(ConfigError):
            small_config(seeds=())
        with pytest.raises(ConfigError):
            small_config(batch=0)
        with pytest.raises(ConfigError):
            small_config(test_fraction=1.2)
        with pytest.raises(ConfigError):
            small_config(strategies=(StrategyConfig(kind="entropy"),
                                     StrategyConfig(kind="entropy")))

    @pytest.mark.parametrize("build, error", [
        (lambda v: LalParams(mc_rounds=v), InvalidParams),
        (lambda v: LalParams(trees=v), InvalidParams),
        (lambda v: StrategyConfig(kind="qbc_kl", committee_size=v), InvalidParams),
        (lambda v: small_config(seeds=(v,)), ConfigError),
        (lambda v: small_config(batch=v), ConfigError),
        (lambda v: small_config(seed_size=v), ConfigError),
    ], ids=["mc_rounds", "trees", "committee_size", "seeds", "batch",
            "seed_size"])
    def test_integer_settings_reject_floats_and_bools(self, build, error):
        build(np.int64(3))  # a numpy integer is an integer
        for value in (2.5, True):
            with pytest.raises(error):
                build(value)

    def test_budget_larger_than_pool_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(fractions=(0.9,), seeds=(0,)))

    @pytest.mark.parametrize("fractions, message", [
        ((0.0005, 0.1), "fraction 0.0005 yields an empty label budget"),
        ((0.05, 0.1, 0.9), r"budget 540 exceeds the train pool \(420 records\)"),
    ])
    def test_budgets_checked_before_the_first_fit(self, monkeypatch,
                                                  fractions, message):
        def spy(*args, **kwargs):
            raise AssertionError("a fit or a pool loop ran")

        monkeypatch.setattr(flowal.bench, "fit_forest", spy)
        monkeypatch.setattr(flowal.bench, "run_pool_loop", spy)
        with pytest.raises(ConfigError, match=message):
            run_experiment(small_config(fractions=fractions))

    def test_full_train_time_excludes_labeling(self, monkeypatch):
        clock = FakeClock()
        real = flowal.bench.oracle_label

        def slow_oracle(oracle, index):
            clock.now += 1000.0  # each answer takes time on the run's clock
            return real(oracle, index)

        monkeypatch.setattr(flowal.bench, "oracle_label", slow_oracle)
        rows = run_experiment(small_config(seeds=(0,), fractions=(0.05,)),
                              clock=clock)
        # the baseline's two clock reads bracket the fit alone
        assert [r.full_train_time_s for r in rows] == [1.0] * len(rows)

    @pytest.mark.parametrize("extra, max_queries", [
        (StoppingCriteria(accuracy_threshold=0.99, max_queries=25), [10, 25]),
        (StoppingCriteria(time_budget=1e9), [10, 40]),
    ])
    def test_extra_stop_criteria_merge_with_the_budget(self, monkeypatch,
                                                       extra, max_queries):
        # budgets 30 and 60 less a 20-record seed set leave 10 and 40 queries
        seen = []
        real = flowal.bench.run_pool_loop

        def capture(pool, strategy, learner, oracle, batch, stop, *args,
                    **kwargs):
            seen.append(stop)
            return real(pool, strategy, learner, oracle, batch, stop, *args,
                        **kwargs)

        monkeypatch.setattr(flowal.bench, "run_pool_loop", capture)
        run_experiment(small_config(
            seeds=(0,), fractions=(0.05, 0.1), stop=extra,
            strategies=(StrategyConfig(kind="random"),)))
        assert seen == [replace(extra, max_queries=mq) for mq in max_queries]


def tiny_lal(seed=0):
    return LalParams(mc_rounds=1, trees=3, seed=seed)


def lal_strategies(*params):
    return tuple(StrategyConfig(kind="lal", lal_params=p, name=f"lal{i}")
                 for i, p in enumerate(params))


class TestLalTraining:
    @pytest.fixture
    def trainings(self, monkeypatch):
        calls = []
        real = flowal.bench.train_lal_regressor

        def counting(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(flowal.bench, "train_lal_regressor", counting)
        return calls

    def test_equal_params_train_once_per_experiment(self, trainings):
        # two separately built but equal params: one training for 2 seeds
        # x 2 fractions x 2 strategies
        cfg = small_config(strategies=lal_strategies(tiny_lal(), tiny_lal()),
                           seeds=(0, 1), fractions=(0.05, 0.1))
        rows = run_experiment(cfg)
        assert trainings == [tiny_lal()]
        assert len([r for r in rows if r.strategy != "full"]) == 8

    def test_distinct_params_train_once_each(self, trainings):
        cfg = small_config(strategies=lal_strategies(tiny_lal(0), tiny_lal(1)),
                           seeds=(0, 1), fractions=(0.05, 0.1))
        run_experiment(cfg)
        assert trainings == [tiny_lal(0), tiny_lal(1)]

    def test_training_time_is_kept_out_of_ttr(self):
        strategies = (StrategyConfig(kind="entropy"),) + lal_strategies(tiny_lal())
        cfg = small_config(strategies=strategies, seeds=(0, 1),
                           fractions=(0.05, 0.1))
        rows = run_experiment(cfg, clock=FakeClock(0.25))
        lal_rows = [r for r in rows if r.strategy == "lal0"]
        assert len(lal_rows) == 4
        # every cell that used the one regressor carries its training time
        assert len({r.lal_train_time_s for r in lal_rows}) == 1
        assert lal_rows[0].lal_train_time_s > 0
        assert all(r.lal_train_time_s == 0.0 for r in rows
                   if r.strategy != "lal0")
        for r in rows:
            assert r.time_s == r.train_time_s + r.select_time_s
            expected = (r.train_time_s + r.select_time_s) / r.full_train_time_s
            assert abs(r.ttr - expected) <= 1e-9

    def test_shared_regressor_selects_as_a_per_cell_one(self, monkeypatch):
        # the rows equal those of cells whose loop trains its own copy
        cfg = small_config(strategies=lal_strategies(tiny_lal()), seeds=(0,),
                           fractions=(0.05, 0.1))
        shared = run_experiment(cfg)
        real = flowal.bench.run_pool_loop

        def without_regressor(*args, lal_regressor=None, **kwargs):
            return real(*args, **kwargs)

        monkeypatch.setattr(flowal.bench, "run_pool_loop", without_regressor)
        own = run_experiment(cfg)
        key = lambda r: (r.strategy, r.fraction, r.seed, r.accuracy, r.tar)
        assert [key(r) for r in shared] == [key(r) for r in own]


class TestEmitReport:
    def test_csv_round_trip(self, tmp_path):
        row = sample_row()
        path = tmp_path / "report.csv"
        emit_report([row], "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        got = records[0]
        assert got["strategy"] == "entropy"
        assert float(got["fraction"]) == pytest.approx(row.fraction, abs=5e-5)
        assert float(got["accuracy"]) == pytest.approx(row.accuracy, abs=5e-5)
        assert float(got["tar"]) == pytest.approx(row.tar, abs=5e-5)
        assert float(got["ttr"]) == pytest.approx(row.ttr, abs=5e-5)
        assert int(got["seed"]) == 1

    def test_csv_header_and_rounding(self):
        text = rows_to_csv([sample_row(tar=0.747474747)])
        lines = text.strip().split("\n")
        assert lines[0] == "strategy,fraction,seed,time_s,accuracy,tar,ttr"
        assert ",0.7475," in lines[1]

    def test_json_full_precision_round_trip(self, tmp_path):
        rows = [sample_row(), sample_row(strategy="random", seed=2)]
        path = tmp_path / "rows.json"
        emit_report(rows, "json", path)
        assert load_rows(path) == rows

    def test_json_without_lal_train_time_still_loads(self, tmp_path):
        # reports written before the field existed
        rows = [sample_row(), sample_row(strategy="random", seed=2)]
        payload = json.loads(rows_to_json(rows))
        for entry in payload:
            del entry["lal_train_time_s"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_rows(path)
        assert loaded == rows
        assert all(r.lal_train_time_s == 0.0 for r in loaded)

    def test_md_structure(self):
        rows = [sample_row(fraction=0.01), sample_row(fraction=0.04)]
        text = rows_to_md(rows)
        assert text.count("## ") == 1  # one table per strategy
        header = [l for l in text.splitlines() if l.startswith("| metric")][0]
        assert header.count("|") == 4  # metric column plus two fraction columns
        for label in ("Accuracy", "Time (s)", "TAR", "TTR"):
            assert f"| {label} |" in text

    def test_md_is_deterministic(self):
        rows = [sample_row(), sample_row(strategy="random")]
        assert rows_to_md(rows) == rows_to_md(rows)

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(EmptyReport):
            emit_report([], "csv", tmp_path / "nothing.csv")

    @pytest.mark.parametrize("emit, value", [("emit_report", [sample_row()]),
                                             ("emit_history", HISTORY)])
    def test_unknown_format_rejected(self, tmp_path, emit, value):
        path = tmp_path / "out.xml"
        with pytest.raises(ConfigError, match="unknown report format 'xml'"):
            getattr(flowal.bench, emit)(value, "xml", path)
        assert not path.exists()

    def test_json_has_raw_fields(self):
        payload = json.loads(rows_to_json([sample_row()]))
        for key in ("full_accuracy", "train_time_s", "select_time_s",
                    "full_train_time_s", "lal_train_time_s", "tar", "ttr"):
            assert key in payload[0]

    @pytest.mark.parametrize("payload, message", [
        ("[]", "no report rows"), ("[1]", "malformed report row")])
    def test_load_rows_rejects_no_rows_and_a_row_that_is_no_object(
            self, tmp_path, payload, message):
        path = tmp_path / "rows.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{path}: {message}"):
            load_rows(path)


ROWS_CSV = """\
strategy,fraction,seed,time_s,accuracy,tar,ttr
full,1.0000,0,2.5000,0.9375,1.0000,1.0000
lal,0.0500,0,0.7500,0.8125,0.8667,0.3000
"""

ROWS_JSON = """\
[
  {
    "accuracy": 0.9375,
    "fraction": 1.0,
    "full_accuracy": 0.9375,
    "full_train_time_s": 2.5,
    "lal_train_time_s": 0.0,
    "seed": 0,
    "select_time_s": 0.0,
    "strategy": "full",
    "tar": 1.0,
    "time_s": 2.5,
    "train_time_s": 2.5,
    "ttr": 1.0
  },
  {
    "accuracy": 0.8125,
    "fraction": 0.05,
    "full_accuracy": 0.9375,
    "full_train_time_s": 2.5,
    "lal_train_time_s": 1.125,
    "seed": 0,
    "select_time_s": 0.25,
    "strategy": "lal",
    "tar": 0.8666666666666667,
    "time_s": 0.75,
    "train_time_s": 0.5,
    "ttr": 0.3
  }
]
"""

ROWS_MD = """\
## full

| metric | 1.0000 |
|---|---|
| Accuracy | 0.9375 |
| Time (s) | 2.5000 |
| TAR | 1.0000 |
| TTR | 1.0000 |

## lal

| metric | 0.0500 |
|---|---|
| Accuracy | 0.8125 |
| Time (s) | 0.7500 |
| TAR | 0.8667 |
| TTR | 0.3000 |
"""

HISTORY_CSV = """\
iteration,n_labeled,n_queried,accuracy,cumulative_selection_s,\
cumulative_training_s,stop_reason
0,4,0,0.5,0.0,0.125,max_queries
1,6,2,0.75,0.0625,0.25,max_queries
2,7,1,0.875,0.09375,0.375,max_queries
"""

HISTORY_JSON = """\
{
  "iterations": [
    {
      "accuracy": 0.5,
      "cumulative_selection_s": 0.0,
      "cumulative_training_s": 0.125,
      "iteration": 0,
      "n_labeled": 4,
      "n_queried": 0,
      "stop_reason": "max_queries"
    },
    {
      "accuracy": 0.75,
      "cumulative_selection_s": 0.0625,
      "cumulative_training_s": 0.25,
      "iteration": 1,
      "n_labeled": 6,
      "n_queried": 2,
      "stop_reason": "max_queries"
    },
    {
      "accuracy": 0.875,
      "cumulative_selection_s": 0.09375,
      "cumulative_training_s": 0.375,
      "iteration": 2,
      "n_labeled": 7,
      "n_queried": 1,
      "stop_reason": "max_queries"
    }
  ],
  "stop_reason": "max_queries"
}
"""

HISTORY_MD = """\
| iteration | n_labeled | n_queried | accuracy |
|---|---|---|---|
| 0 | 4 | 0 | 0.5000 |
| 1 | 6 | 2 | 0.7500 |
| 2 | 7 | 1 | 0.8750 |

Stop reason: max_queries
"""

GENERATED_CSV = """\
f0,f1,label
5.198068574746553,-1.324358995628145,class_0
-0.24836162209524854,6.420445238065522,class_1
7.136046532489643,0.10970639932180819,class_0
-0.5526473205362324,5.215219644655722,class_1
"""


def test_writers_emit_pinned_bytes(tmp_path, monkeypatch):
    """Every writer's exact output, so a refactor cannot move one byte."""
    rows = [
        ExperimentRow("full", 1.0, 0, 2.5, 0.9375, 1.0, 1.0, 0.9375, 2.5,
                      0.0, 2.5),
        ExperimentRow("lal", 0.05, 0, 0.75, 0.8125, 0.8125 / 0.9375,
                      0.75 / 2.5, 0.9375, 0.5, 0.25, 2.5,
                      lal_train_time_s=1.125),
    ]
    assert rows_to_csv(rows) == ROWS_CSV
    assert rows_to_json(rows) == ROWS_JSON
    assert rows_to_md(rows) == ROWS_MD

    # the stream history goes through ``flowal stream`` with the loop
    # replaced by a fixed one
    monkeypatch.setattr(flowal.cli, "run_stream_loop",
                        lambda *args, **kwargs: HISTORY)
    config = tmp_path / "tiny.conf"
    config.write_text("synthetic.classes = 2\nsynthetic.per_class = 2\n"
                      "synthetic.features = 2\nsynthetic.seed = 5\nseeds = 0\n",
                      encoding="utf-8")
    for fmt, expected in (("csv", HISTORY_CSV), ("json", HISTORY_JSON),
                          ("md", HISTORY_MD)):
        out = tmp_path / f"history.{fmt}"
        assert cli_main(["stream", "--config", str(config), "--format", fmt,
                         "--output", str(out), "--quiet"]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    out = tmp_path / "flows.csv"
    assert cli_main(["generate", "--config", str(config), "--output", str(out),
                     "--quiet"]) == 0
    assert out.read_bytes() == GENERATED_CSV.encode("utf-8")
