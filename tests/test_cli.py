import csv
import json

import numpy as np
import pytest

import flowal.cli
from flowal import DriftSpec, SyntheticSpec, generate_synthetic
from flowal.cli import cli_main, parse_config_text
from flowal.errors import ConfigError

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


class TestUsageErrors:
    def test_run_without_config_exits_1(self, capsys):
        assert cli_main(["run"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err

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
