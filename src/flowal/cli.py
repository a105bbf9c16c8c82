"""Benchmark harness CLI.

Subcommands:

  run       pool-based experiment from a config file, emit a report
  stream    stream-based selective-sampling scenario, emit its history
  generate  write a synthetic flow CSV described by the config
  report    re-render saved json rows into csv / json / md

Config files are flat ``key = value`` text; ``#`` starts a comment.  Every
recognized key is listed in KEY_DEFAULTS (README documents them); unknown
keys are rejected so a typo can never silently change an experiment.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional, Sequence

from .bench import (
    CsvSource,
    ExperimentConfig,
    emit_report,
    load_rows,
    load_source,
    run_experiment,
)
from .dataset import (
    DriftSpec,
    IngestionConfig,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    subset_size,
)
from .engine import (
    Oracle,
    Stabilization,
    StoppingCriteria,
    StreamConfig,
    run_stream_loop,
)
from .errors import (
    BenchError,
    ConfigError,
    DatasetError,
    FlowalError,
    InvalidParams,
)
from .forest import ForestParams
from .strategies import LalParams, StrategyConfig

KEY_DEFAULTS = {
    # data source: csv
    "data.csv": None,
    "data.label_column": None,
    "data.features": None,
    "data.strict": "true",
    # data source: synthetic
    "synthetic.classes": None,
    "synthetic.per_class": None,
    "synthetic.features": None,
    "synthetic.separation": "6.0",
    "synthetic.noise": "1.0",
    "synthetic.seed": "0",
    "synthetic.drift_onset": None,
    "synthetic.drift_shift": None,
    # experiment
    "test_fraction": "0.3",
    "fractions": "0.005,0.01,0.02,0.04,0.08,0.16,0.32,0.64",
    "seeds": "0",
    "batch": "10",
    "seed_size": None,
    "include_full_baseline": "true",
    "oracle_noise": "0.0",
    "strategies": "entropy,random",
    "strategy.seed": "0",
    "qbc.committee_size": "5",
    "density.beta": "1.0",
    "density.base": "entropy",
    "lal.mc_rounds": "40",
    "lal.trees": "40",
    "lal.seed": "0",
    # learner
    "learner.trees": "50",
    "learner.max_depth": None,
    "learner.min_samples_split": "2",
    "learner.features_per_split": "sqrt",
    "learner.bootstrap": "true",
    # stopping
    "stop.accuracy": None,
    "stop.max_queries": None,
    "stop.time_budget": None,
    "stop.window": None,
    "stop.epsilon": None,
    # stream
    "stream.measure": "entropy",
    "stream.threshold": "0.5",
    "stream.budget": None,
    "stream.seed_fraction": "0.01",
    "stream.retrain_every": "10",
    # output
    "output": None,
    "format": "csv",
}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise _Usage(f"{message}\n{self.format_usage()}")


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines; unknown keys and bad lines are errors."""
    values = dict()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class _Config:
    """Typed access over parsed key/value pairs with defaults."""

    def __init__(self, values: dict):
        self.values = values

    def get(self, key: str) -> Optional[str]:
        if key in self.values:
            return self.values[key]
        return KEY_DEFAULTS[key]

    def has(self, key: str) -> bool:
        return self.get(key) is not None

    def _typed(self, key, cast, what):
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None

    def int_(self, key):
        return self._typed(key, int, "an integer")

    def float_(self, key):
        return self._typed(key, float, "a number")

    def bool_(self, key):
        raw = self.get(key)
        if raw is None:
            return None
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")

    def list_(self, key):
        raw = self.get(key)
        if raw is None:
            return None
        return [item.strip() for item in raw.split(",") if item.strip()]

    def float_list(self, key):
        items = self.list_(key)
        if items is None:
            return None
        try:
            return [float(x) for x in items]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers") from None

    def int_list(self, key):
        items = self.list_(key)
        if items is None:
            return None
        try:
            return [int(x) for x in items]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated integers") from None


def _load_config(path: Optional[str]) -> _Config:
    if path is None:
        raise _Usage("--config is required for this subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _Config(parse_config_text(fh.read()))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _synthetic_spec(cfg: _Config, seed_override: Optional[int]) -> SyntheticSpec:
    for key in ("synthetic.classes", "synthetic.per_class", "synthetic.features"):
        if not cfg.has(key):
            raise ConfigError(f"synthetic source needs {key}")
    drift = None
    if cfg.has("synthetic.drift_onset"):
        if not cfg.has("synthetic.drift_shift"):
            raise ConfigError("synthetic.drift_onset needs synthetic.drift_shift")
        shift = cfg.float_list("synthetic.drift_shift")
        drift = DriftSpec(onset_index=cfg.int_("synthetic.drift_onset"),
                          mean_shift=shift[0] if len(shift) == 1 else shift)
    seed = seed_override if seed_override is not None else cfg.int_("synthetic.seed")
    return SyntheticSpec(
        n_classes=cfg.int_("synthetic.classes"),
        per_class=cfg.int_("synthetic.per_class"),
        n_features=cfg.int_("synthetic.features"),
        class_mean_separation=cfg.float_("synthetic.separation"),
        noise_stddev=cfg.float_("synthetic.noise"),
        drift=drift,
        seed=seed,
    )


def _source(cfg: _Config, seed_override: Optional[int]):
    has_csv = cfg.has("data.csv")
    has_synth = cfg.has("synthetic.classes")
    if has_csv == has_synth:
        raise ConfigError("set exactly one of data.csv or synthetic.*")
    if has_csv:
        if not cfg.has("data.label_column"):
            raise ConfigError("data.csv needs data.label_column")
        ingestion = IngestionConfig(
            label_column=cfg.get("data.label_column"),
            feature_columns=cfg.list_("data.features"),
            strict=cfg.bool_("data.strict"),
        )
        return CsvSource(cfg.get("data.csv"), ingestion)
    return _synthetic_spec(cfg, seed_override)


def _learner(cfg: _Config) -> ForestParams:
    fps = cfg.get("learner.features_per_split")
    if fps != "sqrt":
        try:
            fps = int(fps)
        except ValueError:
            raise ConfigError(
                "learner.features_per_split: expected 'sqrt' or an integer"
            ) from None
    try:
        return ForestParams(
            n_trees=cfg.int_("learner.trees"),
            max_depth=cfg.int_("learner.max_depth"),
            min_samples_split=cfg.int_("learner.min_samples_split"),
            features_per_split=fps,
            bootstrap=cfg.bool_("learner.bootstrap"),
        )
    except ValueError as exc:
        raise ConfigError(f"learner: {exc}") from exc


def _strategies(cfg: _Config) -> List[StrategyConfig]:
    kinds = cfg.list_("strategies")
    if not kinds:
        raise ConfigError("strategies must name at least one strategy")
    try:
        lal = LalParams(
            mc_rounds=cfg.int_("lal.mc_rounds"),
            regressor=ForestParams(n_trees=cfg.int_("lal.trees")),
            seed=cfg.int_("lal.seed"),
        )
    except (ValueError, InvalidParams) as exc:
        raise ConfigError(f"lal: {exc}") from exc
    out = []
    for kind in kinds:
        try:
            out.append(StrategyConfig(
                kind=kind,
                beta=cfg.float_("density.beta"),
                base_informativeness=cfg.get("density.base"),
                committee_size=cfg.int_("qbc.committee_size"),
                lal_params=lal,
                seed=cfg.int_("strategy.seed"),
            ))
        except FlowalError as exc:
            raise ConfigError(f"strategy {kind!r}: {exc}") from exc
    return out


def _stopping(cfg: _Config, default_none=True) -> Optional[StoppingCriteria]:
    acc = cfg.float_("stop.accuracy")
    mq = cfg.int_("stop.max_queries")
    tb = cfg.float_("stop.time_budget")
    window = cfg.int_("stop.window")
    eps = cfg.float_("stop.epsilon")
    stab = None
    if window is not None or eps is not None:
        if window is None or eps is None:
            raise ConfigError("stabilization needs both stop.window and stop.epsilon")
        stab = Stabilization(window=window, epsilon=eps)
    if acc is None and mq is None and tb is None and stab is None:
        return None
    try:
        return StoppingCriteria(accuracy_threshold=acc, max_queries=mq,
                                time_budget=tb, stabilization=stab)
    except FlowalError as exc:
        raise ConfigError(f"stop: {exc}") from exc


def _experiment_config(cfg: _Config, args) -> ExperimentConfig:
    seeds = [args.seed] if args.seed is not None else cfg.int_list("seeds")
    output = args.output or cfg.get("output")
    fmt = args.format or cfg.get("format")
    if output is None:
        raise ConfigError("run needs an output path (config 'output' or --output)")
    return ExperimentConfig(
        source=_source(cfg, args.seed),
        strategies=tuple(_strategies(cfg)),
        seeds=tuple(seeds),
        learner=_learner(cfg),
        test_fraction=cfg.float_("test_fraction"),
        fractions=tuple(cfg.float_list("fractions")),
        include_full_baseline=cfg.bool_("include_full_baseline"),
        stop=_stopping(cfg),
        batch=cfg.int_("batch"),
        seed_size=cfg.int_("seed_size"),
        oracle_noise=cfg.float_("oracle_noise"),
        output=output,
        format=fmt,
    )


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(cfg, args)
    rows = run_experiment(config)
    emit_report(rows, config.format, config.output)
    _info(args, f"wrote {len(rows)} rows to {config.output}")
    return 0


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    spec = _synthetic_spec(cfg, args.seed)
    output = args.output or cfg.get("output")
    if output is None:
        raise ConfigError("generate needs an output path")
    dataset = generate_synthetic(spec)
    with open(output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.schema.feature_names) + ["label"])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(dataset.schema.class_names[dataset.labels[i]])
            writer.writerow(row)
    _info(args, f"wrote {len(dataset)} records to {output}")
    return 0


def _cmd_stream(args) -> int:
    cfg = _load_config(args.config)
    seeds = [args.seed] if args.seed is not None else cfg.int_list("seeds")
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    seed = seeds[0]
    dataset = load_source(_source(cfg, args.seed))
    test_idx, rest = holdout_split(len(dataset), cfg.float_("test_fraction"),
                                   seed)
    # the stream keeps dataset order, so a drift onset stays a stream position
    test, stream = dataset.subset(test_idx), dataset.subset(sorted(rest))
    budget = cfg.int_("stream.budget")
    if budget is None:
        budget = subset_size(0.15, len(stream))
    stream_cfg = StreamConfig(
        measure=cfg.get("stream.measure"),
        threshold=cfg.float_("stream.threshold"),
        max_label_budget=budget,
        seed_fraction=cfg.float_("stream.seed_fraction"),
        retrain_every=cfg.int_("stream.retrain_every"),
    )
    stop = _stopping(cfg) or StoppingCriteria(max_queries=budget)
    oracle = Oracle(dataset=stream, noise_rate=cfg.float_("oracle_noise"), seed=seed)
    history = run_stream_loop(stream, test, stream_cfg, _learner(cfg), oracle,
                              stop, seed)
    output = args.output or cfg.get("output")
    if output is None:
        raise ConfigError("stream needs an output path")
    fmt = args.format or cfg.get("format")
    _write_history(history, fmt, output)
    _info(args, f"stream stopped: {history.stop_reason.value}; "
                f"final accuracy {history.final_accuracy:.4f}; "
                f"wrote {output}")
    return 0


def _write_history(history, fmt: str, path) -> None:
    records = [
        {
            "iteration": i,
            "n_labeled": it.n_labeled,
            "n_queried": len(it.queried),
            "accuracy": it.accuracy,
            "cumulative_selection_s": it.cumulative_selection_time,
            "cumulative_training_s": it.cumulative_training_time,
            "stop_reason": history.stop_reason.value,
        }
        for i, it in enumerate(history.iterations)
    ]
    if fmt == "json":
        text = json.dumps({"stop_reason": history.stop_reason.value,
                           "iterations": records}, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buf.getvalue()
    elif fmt == "md":
        lines = ["| iteration | n_labeled | n_queried | accuracy |",
                 "|---|---|---|---|"]
        lines += [f"| {r['iteration']} | {r['n_labeled']} | {r['n_queried']} "
                  f"| {r['accuracy']:.4f} |" for r in records]
        lines.append("")
        lines.append(f"Stop reason: {history.stop_reason.value}")
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_report(args) -> int:
    rows = load_rows(args.input)
    fmt = args.format or "md"
    output = args.output
    if output is None:
        raise ConfigError("report needs --output")
    emit_report(rows, fmt, output)
    _info(args, f"re-rendered {len(rows)} rows to {output}")
    return 0


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="path to a flat key=value config file")
        p.add_argument("--seed", type=int,
                       help="override the config seeds with a single seed")
        p.add_argument("--output", help="output file path")
        p.add_argument("--format", choices=("csv", "json", "md"),
                       help="report format")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress messages")

    common(sub.add_parser("run", help="pool-based benchmark experiment"))
    common(sub.add_parser("stream", help="stream-based selective sampling"))
    common(sub.add_parser("generate", help="write a synthetic flow CSV"))
    report = sub.add_parser("report", help="re-render saved json rows")
    report.add_argument("input", help="json report produced by 'run --format json'")
    common(report)
    return parser


def cli_main(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise _Usage(parser.format_usage())
        handler = {
            "run": _cmd_run,
            "stream": _cmd_stream,
            "generate": _cmd_generate,
            "report": _cmd_report,
        }[args.command]
        return handler(args)
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, BenchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (FlowalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
