import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

import flowal.cli
from flowal import (
    DriftSpec,
    ExperimentConfig,
    ExperimentRow,
    ForestParams,
    IngestionConfig,
    LalParams,
    Stabilization,
    StoppingCriteria,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    generate_synthetic,
)
from flowal.bench import rows_to_json
from flowal.cli import KEYS, cli_main, parse_config_text
from flowal.errors import ConfigError, EmptyPool, InvalidPool, MissingColumn

SYNTH_CONFIG = """
# three-class synthetic source
synthetic.classes = 3
synthetic.per_class = 120
synthetic.features = 4
synthetic.separation = 5.0
synthetic.noise = 1.0
synthetic.seed = 7

strategies = entropy,random
fractions = 0.05,0.1,0.2
seeds = 0,1
batch = 15
learner.trees = 6
"""


def write_config(tmp_path, text, name="bench.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def with_settings(text, settings):
    """``text`` with each ``key = value`` line of ``settings`` set in it."""
    for line in settings.splitlines():
        key = line.split("=")[0].strip()
        text = re.sub(rf"(?m)^{re.escape(key)} =.*\n", "", text) + line + "\n"
    return text


SYNTHETIC_SETTINGS = ["synthetic.noise = -1", "synthetic.classes = 1",
                      "synthetic.drift_onset = 10\nsynthetic.drift_shift = 1,2"]
STREAM_SETTINGS = ["stream.measure = bogus", "stream.threshold = -1",
                   "stream.seed_fraction = 0", "stream.retrain_every = 0",
                   "stream.budget = -1"]


class TestConfigParsing:
    def test_flat_key_values_with_comments(self):
        values = parse_config_text(
            "batch = 5   # trailing comment\n\n# full-line comment\nseeds = 1,2\n")
        assert values == {"batch": "5", "seeds": "1,2"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not.a.key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("batch = 1\nbatch = 2\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_text("\ufeff" + SYNTH_CONFIG.lstrip(), encoding="utf-8")
        assert cli_main(["generate", "--config", str(path), "--quiet",
                         "--output", str(tmp_path / "flows.csv")]) == 0


def test_key_defaults_are_the_library_defaults():
    def defaults(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}

    experiment = defaults(ExperimentConfig)
    strategy = defaults(StrategyConfig)
    library = {"data": defaults(IngestionConfig),
               "synthetic": defaults(SyntheticSpec), "": experiment,
               "strategy": strategy, "qbc": strategy, "density": strategy,
               "lal": defaults(LalParams), "learner": defaults(ForestParams),
               "stop": defaults(StoppingCriteria),
               "stream": defaults(StreamConfig)}
    # the experiment's learner, not a bare ForestParams(), is the default
    library["learner"]["n_trees"] = experiment["learner"].n_trees
    config = flowal.cli._Config({})
    fields = {section: config.fields(section) for section in library}
    parsed, expected = {}, {}
    for key, (_, _, field) in KEYS.items():
        section = key.rpartition(".")[0]
        if field in library[section]:
            parsed[key] = fields[section][field]
            expected[key] = library[section][field]
    parsed["fractions"] = tuple(parsed["fractions"])
    assert parsed == expected
    # keys that feed a required field, or no library field at all
    assert set(KEYS) - set(parsed) == {
        "data.csv", "data.label_column", "synthetic.classes",
        "synthetic.per_class", "synthetic.features", "synthetic.drift_onset",
        "synthetic.drift_shift", "seeds", "strategies", "stop.window",
        "stop.epsilon", "output", "format"}


class TestUsageErrors:
    def test_run_without_config_exits_1(self, capsys):
        assert cli_main(["run"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err

    @pytest.mark.parametrize("argv, code", [
        (["report", "rows.json"], 0),
        (["report", "missing.json"], 3),
        (["run"], 1),
        ([], 1),
    ])
    def test_entry_point_exits_with_the_cli_code(self, tmp_path, monkeypatch,
                                                 capsys, argv, code):
        row = ExperimentRow("entropy", 0.1, 0, 1.0, 0.9, 0.95, 0.5, 0.95,
                            0.8, 0.2, 2.0)
        (tmp_path / "rows.json").write_text(rows_to_json([row]),
                                            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        if argv:
            argv = argv + ["--output", "t.md", "--quiet"]
        monkeypatch.setattr("sys.argv", ["flowal", *argv])
        with pytest.raises(SystemExit) as exit_info:
            flowal.cli.main()
        assert exit_info.value.code == cli_main(argv) == code

    def test_no_subcommand_prints_usage(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_key_in_config_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus.key = 1\n")
        assert cli_main(["run", "--config", cfg]) == 1

    def test_missing_source_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, "batch = 5\n")
        assert cli_main(["run", "--config", cfg,
                         "--output", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize("setting", ["lal.trees = 0", "lal.mc_rounds = 0",
                                         "learner.max_depth = -2"])
    def test_bad_learner_setting_exits_1(self, tmp_path, capsys, setting):
        cfg = write_config(tmp_path, SYNTH_CONFIG + setting + "\n")
        assert cli_main(["run", "--config", cfg,
                         "--output", str(tmp_path / "r.csv"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and setting.split(" ")[0].split(".")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, setting", [
        *[(command, setting) for setting in SYNTHETIC_SETTINGS
          for command in ("run", "stream", "generate")],
        *[("stream", setting) for setting in STREAM_SETTINGS],
        ("stream", "oracle_noise = 2"),
        ("stream", "test_fraction = 0.001"),
        ("run", "test_fraction = 0.001"),
        ("run", "strategies = entropy,bogus"),
        ("run", "density.beta = -1"),
        ("run", "density.base = bogus"),
        ("run", "qbc.committee_size = 1\nstrategies = qbc_kl"),
        ("run", "stop.max_queries = -1"),
        # float() reads these; a config number must be finite
        ("stream", "test_fraction = nan"),
        ("stream", "test_fraction = inf"),
        ("run", "stop.time_budget = nan"),
        ("generate", "synthetic.noise = nan"),
        ("generate", "synthetic.drift_onset = 10\nsynthetic.drift_shift = inf"),
        ("run", "density.beta = inf"),
        ("stream", "stream.threshold = nan"),
    ])
    def test_bad_setting_exits_1(self, tmp_path, capsys, command, setting):
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG,
                                                   "seeds = 0\n" + setting))
        assert cli_main([command, "--config", cfg, "--quiet",
                         "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        # the message names the key, or its section for a dotted key
        section = setting.split(" ")[0].split(".")[0]
        assert err.startswith(f"config error: {section}"), err
        assert "Traceback" not in err

    def test_lal_trees_checked_before_any_data_is_read(self, tmp_path, capsys,
                                                       monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(flowal.cli, "run_experiment", spy)
        cfg = write_config(tmp_path, "data.csv = missing.csv\n"
                           "data.label_column = label\nlal.trees = 0\n")
        assert cli_main(["run", "--config", cfg, "--quiet",
                         "--output", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == \
            "config error: lal: trees must be an int >= 1\n"

    def test_non_finite_number_names_its_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG + "density.beta = inf\n")
        assert cli_main(["run", "--config", cfg, "--quiet",
                         "--output", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == \
            "config error: density.beta: expected a finite number, got 'inf'\n"

    @pytest.mark.parametrize("command", ["run", "stream"])
    def test_empty_seed_list_exits_1(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path,
                           SYNTH_CONFIG.replace("seeds = 0,1", "seeds = ,"))
        assert cli_main([command, "--config", cfg,
                         "--output", str(tmp_path / "r.csv"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config error: seeds must be non-empty" in err
        assert "Traceback" not in err

    def test_repeated_seeds_exit_1_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(flowal.cli, "run_experiment", spy)
        cfg = write_config(tmp_path,
                           SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 0,0,1"))
        assert cli_main(["run", "--config", cfg,
                         "--output", str(tmp_path / "r.csv"), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            "config error: seeds must be distinct\n"

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "g.conf", "--output", "o.csv", "--format", "md"],
        ["report", "rows.json", "--output", "o.md", "--config", "x"],
        ["report", "rows.json", "--output", "o.md", "--seed", "9"],
    ])
    def test_flag_the_command_does_not_read_exits_1(self, capsys, argv):
        assert cli_main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, where", [
        ("run", "flag"), ("run", "config"), ("stream", "flag"),
        ("stream", "config"), ("report", "flag")])
    def test_unknown_format_exits_1(self, tmp_path, capsys, command, where):
        text = SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 0")
        argv = [command, "--output", str(tmp_path / "r.out"), "--quiet"]
        if where == "flag":
            argv += ["--format", "xml"]
        else:
            text += "format = xml\n"
        if command == "report":
            argv.insert(1, str(tmp_path / "rows.json"))
        else:
            argv += ["--config", write_config(tmp_path, text)]
        assert cli_main(argv) == 1
        assert "config error: unknown report format 'xml'" in \
            capsys.readouterr().err

    def test_drift_shift_without_onset_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG + "synthetic.drift_shift = 2.0\n")
        assert cli_main(["generate", "--config", cfg,
                         "--output", str(tmp_path / "d.csv"), "--quiet"]) == 1
        assert "synthetic.drift_onset" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_report_on_non_json_exits_1(self, tmp_path, capsys):
        rows = tmp_path / "rows.json"
        rows.write_text("strategy,fraction\nentropy,0.1\n", encoding="utf-8")
        assert cli_main(["report", str(rows), "--output",
                         str(tmp_path / "t.md"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {rows}: not a json report" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, message", [
        ("accuracy", "0.9", "'accuracy' must be a number, got '0.9'"),
        ("tar", None, "'tar' must be a number, got None"),
        ("time_s", True, "'time_s' must be a number, got True"),
        ("seed", 1.0, "'seed' must be an integer, got 1.0"),
        # json reads NaN, Infinity and -Infinity as floats
        ("accuracy", math.nan, "'accuracy' must be finite, got nan"),
        ("ttr", math.inf, "'ttr' must be finite, got inf"),
        ("time_s", -math.inf, "'time_s' must be finite, got -inf"),
    ])
    def test_report_field_of_wrong_type_exits_1(self, tmp_path, capsys,
                                                 field, value, message):
        row = ExperimentRow("entropy", 0.1, 0, 1.0, 0.9, 0.95, 0.5, 0.95,
                            0.8, 0.2, 2.0)
        payload = json.loads(rows_to_json([row]))
        payload[0][field] = value
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["report", str(rows), "--output",
                         str(tmp_path / "t.md"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {rows}: report field {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("error, code, message", [
        (InvalidPool("x"), 1, "config error: x"),
        (MissingColumn("x"), 2, "data error: x"),
        (EmptyPool("x"), 3, "error: x"),
        (OSError("x"), 3, "error: x"),
    ])
    def test_error_class_decides_exit_code(self, tmp_path, capsys, monkeypatch,
                                           error, code, message):
        def fail(path):
            raise error

        monkeypatch.setattr(flowal.cli, "load_rows", fail)
        assert cli_main(["report", "rows.json", "--quiet",
                         "--output", str(tmp_path / "t.md")]) == code
        assert capsys.readouterr().err == message + "\n"

    def test_bad_csv_data_exits_2(self, tmp_path):
        data = tmp_path / "flows.csv"
        data.write_text("a,label\n1,x\nbad,y\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"""
data.csv = {data}
data.label_column = label
fractions = 0.2
seeds = 0
""")
        assert cli_main(["run", "--config", cfg,
                         "--output", str(tmp_path / "r.csv"), "--quiet"]) == 2


class TestPipeline:
    def test_generate_run_report(self, tmp_path):
        gen_cfg = write_config(tmp_path, """
synthetic.classes = 3
synthetic.per_class = 100
synthetic.features = 4
synthetic.separation = 5.0
synthetic.seed = 3
""", name="gen.conf")
        data = tmp_path / "flows.csv"
        assert cli_main(["generate", "--config", gen_cfg,
                         "--output", str(data), "--quiet"]) == 0

        run_cfg = write_config(tmp_path, f"""
data.csv = {data}
data.label_column = label
strategies = entropy,random
fractions = 0.05,0.15
seeds = 0
batch = 10
learner.trees = 6
""", name="run.conf")
        rows_json = tmp_path / "rows.json"
        assert cli_main(["run", "--config", run_cfg, "--output", str(rows_json),
                         "--format", "json", "--quiet"]) == 0
        payload = json.loads(rows_json.read_text(encoding="utf-8"))
        assert len(payload) == 2 * 2 + 1
        for row in payload:
            assert abs(row["tar"] - row["accuracy"] / row["full_accuracy"]) <= 1e-9

        report_md = tmp_path / "tables.md"
        assert cli_main(["report", str(rows_json), "--format", "md",
                         "--output", str(report_md), "--quiet"]) == 0
        text = report_md.read_text(encoding="utf-8")
        assert text.count("## ") == 3  # entropy, random, full

    def test_report_rerender_is_byte_identical(self, tmp_path):
        gen_cfg = write_config(tmp_path, """
synthetic.classes = 2
synthetic.per_class = 80
synthetic.features = 3
""", name="g.conf")
        data = tmp_path / "d.csv"
        assert cli_main(["generate", "--config", gen_cfg, "--output",
                         str(data), "--quiet"]) == 0
        run_cfg = write_config(tmp_path, f"""
data.csv = {data}
data.label_column = label
strategies = entropy
fractions = 0.1
seeds = 0
learner.trees = 5
""", name="r.conf")
        rows_json = tmp_path / "rows.json"
        assert cli_main(["run", "--config", run_cfg, "--output",
                         str(rows_json), "--format", "json", "--quiet"]) == 0
        out1, out2 = tmp_path / "a.md", tmp_path / "b.md"
        assert cli_main(["report", str(rows_json), "--format", "md",
                         "--output", str(out1), "--quiet"]) == 0
        assert cli_main(["report", str(rows_json), "--format", "md",
                         "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_skips_a_byte_order_mark(self, tmp_path):
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG, """seeds = 0
strategies = entropy
fractions = 0.1"""))
        rows_json, bom_json = tmp_path / "rows.json", tmp_path / "bom.json"
        assert cli_main(["run", "--config", cfg, "--output", str(rows_json),
                         "--format", "json", "--quiet"]) == 0
        bom_json.write_bytes(b"\xef\xbb\xbf" + rows_json.read_bytes())
        for path in (rows_json, bom_json):
            assert cli_main(["report", str(path), "--format", "md", "--output",
                             str(path.with_suffix(".md")), "--quiet"]) == 0
        assert (tmp_path / "bom.md").read_bytes() \
            == (tmp_path / "rows.md").read_bytes()

    def test_generated_csv_round_trips(self, tmp_path):
        gen_cfg = write_config(tmp_path, """
synthetic.classes = 4
synthetic.per_class = 25
synthetic.features = 3
synthetic.seed = 9
""")
        data = tmp_path / "synth.csv"
        assert cli_main(["generate", "--config", gen_cfg, "--output",
                         str(data), "--quiet"]) == 0
        with open(data, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f0", "f1", "f2", "label"]
        assert len(rows) == 1 + 100

    def test_stream_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, """
synthetic.classes = 3
synthetic.per_class = 100
synthetic.features = 3
synthetic.separation = 5.0
seeds = 2
learner.trees = 6
stream.threshold = 0.2
stream.budget = 40
stream.seed_fraction = 0.05
stream.retrain_every = 10
""")
        out = tmp_path / "history.csv"
        assert cli_main(["stream", "--config", cfg, "--output", str(out),
                         "--quiet"]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) >= 1
        assert records[0]["n_queried"] == "0"
        assert "stop_reason" in records[0]

    # the defaults give a 1-record seed prefix; 0.1 gives 8 records, 3 classes
    @pytest.mark.parametrize("seed_fraction, code", [("", 1), (
        "stream.seed_fraction = 0.1", 0)])
    def test_one_class_stream_seed_prefix_exits_1(self, tmp_path, capsys,
                                                  seed_fraction, code):
        cfg = write_config(tmp_path, f"""
synthetic.classes = 3
synthetic.per_class = 40
synthetic.features = 3
seeds = 0
learner.trees = 4
stream.budget = 10
{seed_fraction}
""")
        assert cli_main(["stream", "--config", cfg, "--quiet", "--output",
                         str(tmp_path / "h.json"), "--format", "json"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("config error: seed_fraction 0.01 gives a "
                                  "1-record seed prefix with one class")
        else:
            assert (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("seeds, output, message", [
        ("seeds = 0,1", "h.csv", "stream takes exactly one seed, got seeds = 0,1"),
        ("seeds = 0\nformat = xml", "h.csv", "unknown report format 'xml'"),
        ("seeds = 0", None, "stream needs an output path"),
    ])
    def test_stream_settings_checked_before_the_loop(self, tmp_path, capsys,
                                                     monkeypatch, seeds,
                                                     output, message):
        def spy(*args, **kwargs):
            raise AssertionError("run_stream_loop called")

        monkeypatch.setattr(flowal.cli, "run_stream_loop", spy)
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seeds = 0,1", seeds))
        argv = ["stream", "--config", cfg, "--quiet"]
        if output:
            argv += ["--output", str(tmp_path / output)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", STREAM_SETTINGS + ["test_fraction = nan"])
    def test_stream_settings_checked_before_the_load(self, tmp_path, capsys,
                                                     monkeypatch, setting):
        def spy(*args, **kwargs):
            raise AssertionError("load_source called")

        monkeypatch.setattr(flowal.cli, "load_source", spy)
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG,
                                                   "seeds = 0\n" + setting))
        assert cli_main(["stream", "--config", cfg, "--quiet",
                         "--output", str(tmp_path / "h.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_stream_defaults_reach_the_loop(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, with_settings(
            SYNTH_CONFIG, "seeds = 0\nlearner.bootstrap = false"))
        run_stream_loop = flowal.cli.run_stream_loop
        seen = {}

        def capture(stream, test, config, learner, oracle, stop, seed):
            seen.update(config=config, learner=learner, stop=stop)
            return run_stream_loop(stream, test, config, learner, oracle,
                                   stop, seed)

        monkeypatch.setattr(flowal.cli, "run_stream_loop", capture)
        assert cli_main(["stream", "--config", cfg, "--quiet",
                         "--output", str(tmp_path / "h.csv")]) == 0
        # the loop gets the user's criteria (none are set) and the unset
        # budget, and fills in and folds in the budget itself
        assert seen["config"].max_label_budget is None
        assert seen["stop"] is None
        assert seen["learner"] == ForestParams(n_trees=6, bootstrap=False)

    @pytest.mark.parametrize("setting, reached", [pytest.param(
        setting, reached, id=setting.split(" =")[0]) for setting, reached in [
        ("data.strict = false", lambda c: c.source.ingestion.strict is False),
        ("seed_size = 7", lambda c: c.seed_size == 7),
        ("strategy.seed = 3", lambda c: [s.seed for s in c.strategies] == [3, 3]),
        ("lal.seed = 4",
         lambda c: [s.lal_params.seed for s in c.strategies] == [4, 4]),
        ("lal.trees = 7",
         lambda c: [s.lal_params.trees for s in c.strategies] == [7, 7]),
        ("learner.min_samples_split = 5",
         lambda c: c.learner.min_samples_split == 5),
        ("learner.features_per_split = 2",
         lambda c: c.learner.features_per_split == 2),
        ("stop.window = 3\nstop.epsilon = 0.01",
         lambda c: c.stop == StoppingCriteria(stabilization=Stabilization(3, 0.01))),
        ("output = report.csv", None),
    ]])
    def test_config_key_reaches_its_field(self, tmp_path, monkeypatch, setting,
                                          reached):
        # the csv is never read: run_experiment is replaced by a capture
        cfg = write_config(tmp_path, "data.csv = flows.csv\n"
                           "data.label_column = label\n" + setting + "\n")
        seen = {}

        def capture(config):
            seen["config"] = config
            return [ExperimentRow("entropy", 0.1, 0, 1.0, 0.9, 0.95, 0.5,
                                  0.95, 0.8, 0.2, 2.0)]

        monkeypatch.setattr(flowal.cli, "run_experiment", capture)
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--config", cfg, "--quiet"]
        if reached is None:  # the output key alone places the report
            assert cli_main(argv) == 0
            assert (tmp_path / "report.csv").read_text(encoding="utf-8") \
                .startswith("strategy,")
        else:
            assert cli_main(argv + ["--output", "r.csv"]) == 0
            assert reached(seen["config"])

    @pytest.mark.parametrize("stop", ["", "stop.accuracy = 0.9999",
                                      "stop.time_budget = 1000"])
    def test_spent_stream_budget_stops_as_max_queries(self, tmp_path, stop):
        # threshold 0 queries every arrival, and on these overlapping classes
        # accuracy stays far below 0.9999, so only the budget can stop it
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG, f"""seeds = 0
synthetic.separation = 1.0
stream.budget = 30
stream.threshold = 0
{stop}""".strip()))
        out = tmp_path / "h.json"
        assert cli_main(["stream", "--config", cfg, "--format", "json",
                         "--output", str(out), "--quiet"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert sum(it["n_queried"] for it in payload["iterations"]) == 30
        assert payload["stop_reason"] == "max_queries"

    def test_stream_formats_hold_the_same_history(self, tmp_path):
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG, """seeds = 0
stream.measure = margin
stream.threshold = 0.4
stream.budget = 30
stream.seed_fraction = 0.05"""))
        for fmt in ("csv", "json", "md"):
            assert cli_main(["stream", "--config", cfg, "--format", fmt,
                             "--output", str(tmp_path / f"h.{fmt}"),
                             "--quiet"]) == 0
        with open(tmp_path / "h.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        payload = json.loads((tmp_path / "h.json").read_text(encoding="utf-8"))
        md = (tmp_path / "h.md").read_text(encoding="utf-8").splitlines()
        table = [line.strip("| ").split(" | ") for line in md[2:-2]]
        assert len(records) > 1
        assert [r["n_labeled"] for r in records] \
            == [str(it["n_labeled"]) for it in payload["iterations"]] \
            == [row[1] for row in table]
        assert [r["n_queried"] for r in records] \
            == [str(it["n_queried"]) for it in payload["iterations"]] \
            == [row[2] for row in table]
        assert payload["stop_reason"] == records[0]["stop_reason"]
        assert md[-1] == f"Stop reason: {payload['stop_reason']}"

    def test_stream_keeps_dataset_order(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, """
synthetic.classes = 3
synthetic.per_class = 60
synthetic.features = 3
synthetic.seed = 4
synthetic.drift_onset = 90
synthetic.drift_shift = 3.0
seeds = 5
learner.trees = 3
stream.budget = 10
stream.seed_fraction = 0.05
""")
        run_stream_loop = flowal.cli.run_stream_loop
        seen = {}

        def capture(stream, test, *args, **kwargs):
            seen["stream"], seen["test"] = stream, test
            return run_stream_loop(stream, test, *args, **kwargs)

        monkeypatch.setattr(flowal.cli, "run_stream_loop", capture)
        assert cli_main(["stream", "--config", cfg, "--output",
                         str(tmp_path / "h.csv"), "--quiet"]) == 0
        data = generate_synthetic(SyntheticSpec(
            n_classes=3, per_class=60, n_features=3,
            drift=DriftSpec(90, 3.0), seed=4))

        def positions(part):
            return [int(np.flatnonzero((data.features == row).all(axis=1))[0])
                    for row in part.features]

        stream = positions(seen["stream"])
        test = positions(seen["test"])
        assert stream == sorted(stream) and len(set(stream)) == len(stream)
        assert sorted(stream + test) == list(range(len(data)))


class TestFlags:
    @pytest.mark.parametrize("flag", [[], ["--seed", "5"]])
    def test_generate_reads_no_seeds_key(self, tmp_path, flag):
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG, "seeds = ,"))
        out = tmp_path / "flows.csv"
        assert cli_main(["generate", "--config", cfg, "--output", str(out),
                         "--quiet", *flag]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 360

    def test_seed_flag_sets_the_synthetic_seed(self, tmp_path):
        flagged, keyed = tmp_path / "flagged.csv", tmp_path / "keyed.csv"
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        assert cli_main(["generate", "--config", cfg, "--seed", "5",
                         "--output", str(flagged), "--quiet"]) == 0
        cfg = write_config(tmp_path, with_settings(SYNTH_CONFIG,
                                                   "synthetic.seed = 5"))
        assert cli_main(["generate", "--config", cfg, "--output", str(keyed),
                         "--quiet"]) == 0
        assert flagged.read_bytes() == keyed.read_bytes()

    @pytest.mark.parametrize("settings, name, start", [
        ("output = report.json\nformat = json", "report.json", "[\n"),
        ("output = report.csv", "report.csv", "strategy,"),
    ])
    def test_empty_output_and_format_flags_are_unset(self, tmp_path,
                                                     monkeypatch, settings,
                                                     name, start):
        cfg = write_config(tmp_path, "data.csv = flows.csv\n"
                           "data.label_column = label\n" + settings + "\n")
        monkeypatch.setattr(flowal.cli, "run_experiment", lambda config: [
            ExperimentRow("entropy", 0.1, 0, 1.0, 0.9, 0.95, 0.5, 0.95, 0.8,
                          0.2, 2.0)])
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "--config", cfg, "--output", "",
                         "--format", "", "--quiet"]) == 0
        assert (tmp_path / name).read_text(encoding="utf-8").startswith(start)

    @pytest.mark.parametrize("flag", [[], ["--format", ""]])
    def test_report_renders_md_without_a_format(self, tmp_path, flag):
        rows = tmp_path / "rows.json"
        rows.write_text(rows_to_json([ExperimentRow(
            "entropy", 0.1, 0, 1.0, 0.9, 0.95, 0.5, 0.95, 0.8, 0.2, 2.0)]),
            encoding="utf-8")
        out = tmp_path / "tables.md"
        assert cli_main(["report", str(rows), "--output", str(out), "--quiet",
                         *flag]) == 0
        assert out.read_text(encoding="utf-8").startswith("## ")

    def test_progress_line_without_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "synthetic.classes = 2\n"
                           "synthetic.per_class = 5\nsynthetic.features = 2\n")
        out = tmp_path / "flows.csv"
        assert cli_main(["generate", "--config", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote 10 records to {out}\n"
