"""Benchmark harness CLI.

Subcommands:

  run       pool-based experiment from a config file, emit a report
  stream    stream-based selective-sampling scenario, emit its history
  generate  write a synthetic flow CSV described by the config
  report    re-render saved json rows into csv / json / md

Config files are flat ``key = value`` text; ``#`` starts a comment.  KEYS
gives every recognized key its parser, its default (README documents them)
and the library field that takes its value; unknown keys are rejected so a
typo can never silently change an experiment.  Command-line flags are
written into the config before any key is read, and a value is parsed when
a command reads it.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Sequence

from .bench import (
    CsvSource,
    ExperimentConfig,
    check_format,
    emit_history,
    emit_report,
    load_rows,
    load_source,
    run_experiment,
    write_csv,
)
from .dataset import (
    DriftSpec,
    IngestionConfig,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
)
from .engine import (
    Oracle,
    Stabilization,
    StoppingCriteria,
    StreamConfig,
    run_stream_loop,
)
from .errors import (
    ConfigError,
    FlowalError,
    InvalidParams,
    InvalidSpec,
    InvalidThreshold,
    NoStoppingCriterion,
)
from .forest import ForestParams
from .strategies import LalParams, StrategyConfig


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _items(raw: str) -> List[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):  # float() reads 'nan' and 'inf'
        raise ValueError(raw)
    return value


# (parser, what a value must be); a parser raises ValueError on a bad value
_TEXT = (str, "text")
_INT = (int, "an integer")
_NUMBER = (_finite, "a finite number")
_BOOL = (_bool, "true/false")
_NAMES = (_items, "a comma list")
_INTS = (lambda raw: [int(x) for x in _items(raw)], "comma-separated integers")
_NUMBERS = (lambda raw: [_finite(x) for x in _items(raw)],
            "comma-separated finite numbers")
_SQRT_OR_INT = (lambda raw: raw if raw == "sqrt" else int(raw),
                "'sqrt' or an integer")

# key: (parser, default text, library field).  A None default means unset;
# a None field means a builder reads the key itself, because its value does
# not go as is into one field of its section's library object
KEYS = {
    # data source: csv
    "data.csv": (_TEXT, None, None),
    "data.label_column": (_TEXT, None, "label_column"),
    "data.features": (_NAMES, None, "feature_columns"),
    "data.strict": (_BOOL, "true", "strict"),
    # data source: synthetic
    "synthetic.classes": (_INT, None, "n_classes"),
    "synthetic.per_class": (_INT, None, "per_class"),
    "synthetic.features": (_INT, None, "n_features"),
    "synthetic.separation": (_NUMBER, "6.0", "class_mean_separation"),
    "synthetic.noise": (_NUMBER, "1.0", "noise_stddev"),
    "synthetic.seed": (_INT, "0", "seed"),
    "synthetic.drift_onset": (_INT, None, None),
    "synthetic.drift_shift": (_NUMBERS, None, None),
    # experiment
    "test_fraction": (_NUMBER, "0.3", "test_fraction"),
    "fractions": (_NUMBERS, "0.005,0.01,0.02,0.04,0.08,0.16,0.32,0.64", "fractions"),
    "seeds": (_INTS, "0", "seeds"),
    "batch": (_INT, "10", "batch"),
    "seed_size": (_INT, None, "seed_size"),
    "include_full_baseline": (_BOOL, "true", "include_full_baseline"),
    "oracle_noise": (_NUMBER, "0.0", "oracle_noise"),
    "strategies": (_NAMES, "entropy,random", None),
    "strategy.seed": (_INT, "0", "seed"),
    "qbc.committee_size": (_INT, "5", "committee_size"),
    "density.beta": (_NUMBER, "1.0", "beta"),
    "density.base": (_TEXT, "entropy", "base_informativeness"),
    "lal.mc_rounds": (_INT, "40", "mc_rounds"),
    "lal.trees": (_INT, "40", "trees"),
    "lal.seed": (_INT, "0", "seed"),
    # learner
    "learner.trees": (_INT, "50", "n_trees"),
    "learner.max_depth": (_INT, None, "max_depth"),
    "learner.min_samples_split": (_INT, "2", "min_samples_split"),
    "learner.features_per_split": (_SQRT_OR_INT, "sqrt", "features_per_split"),
    "learner.bootstrap": (_BOOL, "true", "bootstrap"),
    # stopping
    "stop.accuracy": (_NUMBER, None, "accuracy_threshold"),
    "stop.max_queries": (_INT, None, "max_queries"),
    "stop.time_budget": (_NUMBER, None, "time_budget"),
    "stop.window": (_INT, None, None),
    "stop.epsilon": (_NUMBER, None, None),
    # stream
    "stream.measure": (_TEXT, "entropy", "measure"),
    "stream.threshold": (_NUMBER, "0.5", "threshold"),
    "stream.budget": (_INT, None, "max_label_budget"),
    "stream.seed_fraction": (_NUMBER, "0.01", "seed_fraction"),
    "stream.retrain_every": (_INT, "10", "retrain_every"),
    # output
    "output": (_TEXT, None, None),
    "format": (_TEXT, "csv", None),
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
        if key not in KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class _Config:
    """Parsed access over config key/value pairs, falling back to KEYS."""

    def __init__(self, values: dict):
        self.values = values

    def get(self, key: str):
        """``key``'s value through its KEYS parser, or None when unset."""
        (parse, what), default, _ = KEYS[key]
        raw = self.values.get(key, default)
        if raw is None:
            return None
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None

    def has(self, key: str) -> bool:
        return self.values.get(key, KEYS[key][1]) is not None

    def fields(self, section: str) -> dict:
        """Parsed values of ``section``'s keys, keyed by their library field.

        Keys without a field are left out; section "" holds undotted keys.
        """
        return {field: self.get(key) for key, (_, _, field) in KEYS.items()
                if field is not None and key.rpartition(".")[0] == section}


def _load_config(path: Optional[str]) -> _Config:
    if path is None:
        raise _Usage("--config is required for this subcommand")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return _Config(parse_config_text(fh.read()))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _resolve(args) -> _Config:
    """Load a command's config, write its flags into it, check its output.

    Runs before any key is read, so a flag beats its config key, which
    beats the KEYS default; an empty flag counts as unset.  ``--seed S``
    sets both ``seeds`` and ``synthetic.seed``.  ``report`` reads no config;
    its format defaults to md, not the ``format`` key's csv.
    """
    cfg = (_load_config(args.config) if "config" in args
           else _Config({"format": "md"}))
    if getattr(args, "seed", None) is not None:
        cfg.values["seeds"] = cfg.values["synthetic.seed"] = str(args.seed)
    for key in ("output", "format"):
        if getattr(args, key, None):
            cfg.values[key] = getattr(args, key)
    if not cfg.has("output"):
        raise ConfigError(f"{args.command} needs an output path "
                          f"(--output or config 'output')")
    if "format" in args:
        check_format(cfg.get("format"))
    return cfg


@contextmanager
def _naming(section: str, errors):
    """Re-raise ``errors`` as a ConfigError whose message names ``section``.

    ``errors`` are the library's own rejections; a value that does not
    parse is a plain ConfigError that already names its key and passes.
    """
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _synthetic_spec(cfg: _Config) -> SyntheticSpec:
    for key in ("synthetic.classes", "synthetic.per_class", "synthetic.features"):
        if not cfg.has(key):
            raise ConfigError(f"synthetic source needs {key}")
    onset = cfg.get("synthetic.drift_onset")
    shift = cfg.get("synthetic.drift_shift")
    drift = None
    if onset is not None or shift is not None:
        if onset is None or shift is None:
            raise ConfigError(
                "drift needs both synthetic.drift_onset and synthetic.drift_shift")
        drift = DriftSpec(onset_index=onset,
                          mean_shift=shift[0] if len(shift) == 1 else shift)
    with _naming("synthetic", InvalidSpec):
        return SyntheticSpec(drift=drift, **cfg.fields("synthetic"))


def _source(cfg: _Config):
    has_csv = cfg.has("data.csv")
    has_synth = cfg.has("synthetic.classes")
    if has_csv == has_synth:
        raise ConfigError("set exactly one of data.csv or synthetic.*")
    if has_csv:
        if not cfg.has("data.label_column"):
            raise ConfigError("data.csv needs data.label_column")
        return CsvSource(cfg.get("data.csv"), IngestionConfig(**cfg.fields("data")))
    return _synthetic_spec(cfg)


def _learner(cfg: _Config) -> ForestParams:
    with _naming("learner", InvalidParams):
        return ForestParams(**cfg.fields("learner"))


def _strategies(cfg: _Config) -> List[StrategyConfig]:
    kinds = cfg.get("strategies")
    if not kinds:
        raise ConfigError("strategies must name at least one strategy")
    with _naming("lal", InvalidParams):
        lal = LalParams(**cfg.fields("lal"))
    configs = []
    for kind in kinds:
        # each step sets one section's values on a config the steps before
        # accepted, so a rejection is that section's
        with _naming("strategies", InvalidParams):
            config = StrategyConfig(kind=kind, lal_params=lal,
                                    **cfg.fields("strategy"))
        with _naming("density", InvalidParams):
            config = replace(config, **cfg.fields("density"))
        with _naming("qbc", InvalidParams):
            configs.append(replace(config, **cfg.fields("qbc")))
    return configs


def _stopping(cfg: _Config) -> Optional[StoppingCriteria]:
    criteria = cfg.fields("stop")
    window = cfg.get("stop.window")
    eps = cfg.get("stop.epsilon")
    stab = None
    if window is not None or eps is not None:
        if window is None or eps is None:
            raise ConfigError("stabilization needs both stop.window and stop.epsilon")
        stab = Stabilization(window=window, epsilon=eps)
    if stab is None and all(value is None for value in criteria.values()):
        return None
    with _naming("stop", NoStoppingCriterion):
        return StoppingCriteria(stabilization=stab, **criteria)


def _experiment_config(cfg: _Config) -> ExperimentConfig:
    return ExperimentConfig(source=_source(cfg), strategies=_strategies(cfg),
                            learner=_learner(cfg), stop=_stopping(cfg),
                            **cfg.fields(""))


def _cmd_run(args) -> int:
    cfg = _resolve(args)
    rows = run_experiment(_experiment_config(cfg))
    output = cfg.get("output")
    emit_report(rows, cfg.get("format"), output)
    _info(args, f"wrote {len(rows)} rows to {output}")
    return 0


def _cmd_generate(args) -> int:
    cfg = _resolve(args)
    dataset = generate_synthetic(_synthetic_spec(cfg))
    output = cfg.get("output")
    with open(output, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, [*dataset.schema.feature_names, "label"],
                  ([*x.tolist(), dataset.schema.class_names[y]]
                   for x, y in zip(dataset.features, dataset.labels)))
    _info(args, f"wrote {len(dataset)} records to {output}")
    return 0


def _cmd_stream(args) -> int:
    cfg = _resolve(args)
    seeds = cfg.get("seeds")
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    if len(seeds) > 1:
        raise ConfigError(f"stream takes exactly one seed, got seeds = "
                          f"{','.join(map(str, seeds))}")
    seed = seeds[0]
    learner, stop, source = _learner(cfg), _stopping(cfg), _source(cfg)
    test_fraction = cfg.get("test_fraction")
    with _naming("stream", InvalidThreshold):
        stream_cfg = StreamConfig(**cfg.fields("stream"))
    dataset = load_source(source)
    test_idx, rest = holdout_split(len(dataset), test_fraction, seed)
    # the stream keeps dataset order, so a drift onset stays a stream position
    test, stream = dataset.subset(test_idx), dataset.subset(sorted(rest))
    with _naming("oracle_noise", InvalidThreshold):
        oracle = Oracle(dataset=stream, noise_rate=cfg.get("oracle_noise"),
                        seed=seed)
    history = run_stream_loop(stream, test, stream_cfg, learner, oracle,
                              stop, seed)
    output = cfg.get("output")
    emit_history(history, cfg.get("format"), output)
    _info(args, f"stream stopped: {history.stop_reason.value}; "
                f"final accuracy {history.final_accuracy:.4f}; "
                f"wrote {output}")
    return 0


def _cmd_report(args) -> int:
    cfg = _resolve(args)
    rows = load_rows(args.input)
    output = cfg.get("output")
    emit_report(rows, cfg.get("format"), output)
    _info(args, f"re-rendered {len(rows)} rows to {output}")
    return 0


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="pool-based benchmark experiment")
    stream = sub.add_parser("stream", help="stream-based selective sampling")
    generate = sub.add_parser("generate", help="write a synthetic flow CSV")
    report = sub.add_parser("report", help="re-render saved json rows")
    report.add_argument("input", help="json report produced by 'run --format json'")
    for p in (run, stream, generate):
        p.add_argument("--config", help="path to a flat key=value config file")
        p.add_argument("--seed", type=int,
                       help="set seeds and synthetic.seed to this one seed")
        p.add_argument("--output", help="output file path (config 'output')")
    for p in (run, stream):
        p.add_argument("--format", help="csv, json or md (config 'format')")
    report.add_argument("--output", required=True, help="output file path")
    report.add_argument("--format", help="csv, json or md (default md)")
    for p in (run, stream, generate, report):
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress messages")
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
    except FlowalError as exc:  # the error's class decides its exit code
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
