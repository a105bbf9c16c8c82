"""Experiment orchestration and every output format flowal writes.

``run_experiment`` reproduces the benchmark protocol: per seed it shuffles
off a test split, trains the full-pool baseline, then runs one pool-based AL
loop per (strategy, fraction) cell where the fraction of the whole dataset is
the cell's total label budget.  Each cell yields one row carrying the final
accuracy, elapsed training + selection time, TAR, TTR, and the raw fields
they derive from, so every ratio is recomputable from the emitted report.

The LAL regressor does not depend on the dataset, so each distinct
``LalParams`` is trained once per experiment and shared by every LAL cell
that uses it.  Its training time is reported in its own raw field and kept
out of ``time_s`` and TTR, as for an offline-trained regressor.

For the random strategy a budget of f*N reduces exactly to passive training
on a uniform f*N-record subset, which is the passive baseline the query
strategies are compared against.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dataset import (
    Dataset,
    IngestionConfig,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_csv,
    subset_size,
)
from .engine import (
    Clock,
    Oracle,
    PoolState,
    RunHistory,
    StoppingCriteria,
    cap_queries,
    oracle_label,
    run_pool_loop,
)
from .errors import ConfigError, EmptyReport, _check_int
from .forest import (
    ForestParams,
    RegressionForestModel,
    evaluate_accuracy,
    fit_forest,
)
from .metrics import TimingRecord, tar, ttr
from .rng import derive_seed, make_rng
from .strategies import LalParams, StrategyConfig, train_lal_regressor

DEFAULT_FRACTIONS = (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64)

FULL_BASELINE_NAME = "full"

REPORT_FIELDS = ("strategy", "fraction", "seed", "time_s", "accuracy", "tar", "ttr")
HISTORY_FIELDS = ("iteration", "n_labeled", "n_queried", "accuracy",
                  "cumulative_selection_s", "cumulative_training_s", "stop_reason")
# the json types a report row's fields may hold, by ExperimentRow annotation
_FIELD_KINDS = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number")}


@dataclass(frozen=True)
class CsvSource:
    path: str
    ingestion: IngestionConfig


@dataclass(frozen=True)
class ExperimentRow:
    """One benchmark cell: a strategy at a fraction under one seed.

    ``lal_train_time_s`` is the one-off training time of the LAL regressor
    the cell used (0.0 for other strategies); it is not part of ``time_s``.
    """

    strategy: str
    fraction: float
    seed: int
    time_s: float
    accuracy: float
    tar: float
    ttr: float
    full_accuracy: float
    train_time_s: float
    select_time_s: float
    full_train_time_s: float
    lal_train_time_s: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a benchmark run.

    ``fractions`` are taken of the whole dataset and become label budgets for
    the pool loop; they must be strictly increasing and fit inside the train
    pool left after the test split.  ``stop`` adds extra criteria on top of
    the per-cell budget (the budget itself is always enforced).
    """

    source: Union[CsvSource, SyntheticSpec]
    strategies: Tuple[StrategyConfig, ...]
    seeds: Tuple[int, ...]
    learner: ForestParams = ForestParams(n_trees=50)
    test_fraction: float = 0.3
    fractions: Tuple[float, ...] = DEFAULT_FRACTIONS
    include_full_baseline: bool = True
    stop: Optional[StoppingCriteria] = None
    batch: int = 10
    seed_size: Optional[int] = None
    oracle_noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        seeds = tuple(self.seeds)
        for seed in seeds:
            _check_int(seed, "each seed", ConfigError)
        # int() turns numpy integer seeds into plain ones
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        for f in self.fractions:
            if not 0 < f < 1:
                raise ConfigError(f"fractions must lie in (0, 1), got {f}")
        if any(b <= a for a, b in zip(self.fractions, self.fractions[1:])):
            raise ConfigError("fractions must be strictly increasing")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")
        _check_int(self.batch, "batch", ConfigError, 1)
        if self.seed_size is not None:
            _check_int(self.seed_size, "seed_size", ConfigError, 1)
        if not 0 <= self.oracle_noise <= 1:
            raise ConfigError("oracle_noise must be in [0, 1]")
        names = [s.display_name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ConfigError("strategy names collide; set distinct names")
        if FULL_BASELINE_NAME in names:
            raise ConfigError(f"{FULL_BASELINE_NAME!r} is reserved for the baseline")


def load_source(source: Union[CsvSource, SyntheticSpec]) -> Dataset:
    """Read a CSV source or generate a synthetic one."""
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return load_csv(source.path, source.ingestion)


def run_experiment(config: ExperimentConfig,
                   clock: Optional[Clock] = None) -> List[ExperimentRow]:
    """Run every (strategy, fraction, seed) cell plus per-seed full baselines.

    Rows come back sorted by (strategy, fraction, seed).  Accuracy, TAR, and
    the raw fields are independent of cell execution order; only the time
    fields depend on the machine.
    """
    clock = clock or time.perf_counter
    dataset = load_source(config.source)
    n = len(dataset)
    n_classes = dataset.schema.n_classes
    rows: List[ExperimentRow] = []
    # trained on first use; LalParams is frozen, so equal params share one
    lal: Dict[LalParams, Tuple[RegressionForestModel, float]] = {}
    # the train pool's size does not depend on the seed, so every budget is
    # checked once, before the first fit
    pool_size = len(holdout_split(n, config.test_fraction, config.seeds[0])[1])
    budgets = [subset_size(fraction, n) for fraction in config.fractions]
    for fraction, budget in zip(config.fractions, budgets):
        if budget < 1:
            raise ConfigError(f"fraction {fraction} yields an empty label budget")
        if budget > pool_size:
            raise ConfigError(f"budget {budget} exceeds the train pool "
                              f"({pool_size} records)")
    for seed in config.seeds:
        test_idx, pool_idx = holdout_split(n, config.test_fraction, seed)
        oracle = Oracle(dataset, noise_rate=config.oracle_noise, seed=seed)

        # labeling is not training: the clock starts after the oracle answers
        full_labels = [oracle_label(oracle, int(i)) for i in pool_idx]
        t0 = clock()
        full_model = fit_forest(
            Dataset(dataset.schema, dataset.features[pool_idx], full_labels),
            config.learner, derive_seed(seed, 14))
        full_train_time = clock() - t0
        full_acc = evaluate_accuracy(full_model, dataset.subset(test_idx))

        if config.include_full_baseline:
            rows.append(ExperimentRow(
                strategy=FULL_BASELINE_NAME, fraction=1.0, seed=seed,
                time_s=full_train_time, accuracy=full_acc, tar=1.0, ttr=1.0,
                full_accuracy=full_acc, train_time_s=full_train_time,
                select_time_s=0.0, full_train_time_s=full_train_time))

        # a cell's seed set, pool and budget depend only on (seed, budget), so
        # every strategy starts from the same ones
        cells = []
        for fraction, budget in zip(config.fractions, budgets):
            n_seed_set = min(budget,
                             config.seed_size or max(n_classes, config.batch))
            picks = make_rng(seed, 11, budget).choice(
                len(pool_idx), size=n_seed_set, replace=False)
            pool = PoolState(dataset, pool_idx[picks],
                             np.delete(pool_idx, picks), test_idx)
            cells.append((fraction, budget, pool,
                          cap_queries(config.stop, budget - n_seed_set)))
        for strategy in config.strategies:
            # cell seeds derive from content, not list position, so cells are
            # identical however the config orders them or the runner schedules them
            name_tag = zlib.crc32(strategy.display_name.encode("utf-8"))
            for fraction, budget, pool, stop in cells:
                regressor, lal_train_time = None, 0.0
                if strategy.kind == "lal":
                    params = strategy.lal_params
                    if params not in lal:
                        t0 = clock()
                        trained = train_lal_regressor(params)
                        lal[params] = (trained, clock() - t0)
                    regressor, lal_train_time = lal[params]
                history = run_pool_loop(
                    pool, strategy, config.learner, oracle, config.batch,
                    stop, derive_seed(seed, 12, name_tag, budget), clock=clock,
                    lal_regressor=regressor)
                train_t = history.total_training_time
                select_t = history.total_selection_time
                acc = history.final_accuracy
                rows.append(ExperimentRow(
                    strategy=strategy.display_name, fraction=fraction,
                    seed=seed, time_s=train_t + select_t, accuracy=acc,
                    tar=tar(acc, full_acc),
                    ttr=ttr(TimingRecord(train_t, select_t, full_train_time)),
                    full_accuracy=full_acc, train_time_s=train_t,
                    select_time_s=select_t,
                    full_train_time_s=full_train_time,
                    lal_train_time_s=lal_train_time))
    rows.sort(key=lambda r: (r.strategy, r.fraction, r.seed))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def write_csv(fh, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` then each of ``rows`` to ``fh`` as it is drawn."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def md_table(header: Sequence, rows: Iterable[Sequence]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(lines)


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    return _csv_text(REPORT_FIELDS, (
        [r.strategy, _fmt(r.fraction), r.seed, _fmt(r.time_s),
         _fmt(r.accuracy), _fmt(r.tar), _fmt(r.ttr)] for r in rows))


def rows_to_json(rows: Sequence[ExperimentRow]) -> str:
    return json_text([asdict(r) for r in rows])


def rows_to_md(rows: Sequence[ExperimentRow]) -> str:
    """One table per strategy; numeric rows labeled explicitly, never paired.

    Cells average over seeds when a cell was run under several seeds.
    """
    lines = []
    for name in sorted({r.strategy for r in rows}):
        subset = [r for r in rows if r.strategy == name]
        fractions = sorted({r.fraction for r in subset})
        header = ["metric"] + [_fmt(f) for f in fractions]
        table = []
        for label, attr in (("Accuracy", "accuracy"), ("Time (s)", "time_s"),
                            ("TAR", "tar"), ("TTR", "ttr")):
            cells = []
            for f in fractions:
                vals = [getattr(r, attr) for r in subset if r.fraction == f]
                cells.append(_fmt(sum(vals) / len(vals)))
            table.append([label] + cells)
        lines += [f"## {name}", "", md_table(header, table), ""]
    return "\n".join(lines)


def check_format(format: str) -> str:
    """``format`` if the writers know it; otherwise a ConfigError."""
    if format not in ("csv", "json", "md"):
        raise ConfigError(f"unknown report format {format!r}")
    return format


def emit_report(rows: Sequence[ExperimentRow], format: str, path) -> None:
    """Write rows to ``path`` as csv, json, or md (UTF-8)."""
    if not rows:
        raise EmptyReport("no rows to report")
    render = {"csv": rows_to_csv, "json": rows_to_json, "md": rows_to_md}
    write_text(path, render[check_format(format)](rows))


def emit_history(history: RunHistory, format: str, path) -> None:
    """Write a stream history to ``path`` as csv, json, or md (UTF-8)."""
    stop = history.stop_reason.value
    records = [(i, it.n_labeled, len(it.queried), it.accuracy,
                it.cumulative_selection_time, it.cumulative_training_time, stop)
               for i, it in enumerate(history.iterations)]
    if check_format(format) == "csv":
        text = _csv_text(HISTORY_FIELDS, records)
    elif format == "json":
        text = json_text({"stop_reason": stop, "iterations":
                          [dict(zip(HISTORY_FIELDS, r)) for r in records]})
    else:
        text = (md_table(HISTORY_FIELDS[:4], [(*r[:3], _fmt(r[3])) for r in records])
                + f"\n\nStop reason: {stop}\n")
    write_text(path, text)


def load_rows(path) -> List[ExperimentRow]:
    """Read rows back from a json report, skipping a leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise EmptyReport(f"{path}: not a json report: {exc}") from None
    if not isinstance(payload, list) or not payload:
        raise EmptyReport(f"{path}: no report rows")
    rows = []
    for entry in payload:
        try:
            row = ExperimentRow(**{f.name: entry[f.name]
                                   for f in fields(ExperimentRow) if f.name in entry})
        except TypeError as exc:  # a missing field, or a row that is no object
            raise ConfigError(f"{path}: malformed report row: {exc}") from exc
        for field in fields(ExperimentRow):
            value = getattr(row, field.name)
            kinds, what = _FIELD_KINDS[field.type]
            # bool is an int subclass, but true is neither a seed nor a number
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{path}: report field {field.name!r} must be "
                                  f"{what}, got {value!r}")
            # json reads NaN, Infinity and -Infinity as floats
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path}: report field {field.name!r} must be "
                                  f"finite, got {value!r}")
        rows.append(row)
    return rows
