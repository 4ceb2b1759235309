import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsvalue import cli, errors, series
from tsvalue.cli import _oracle_scores, main
from tsvalue.config import RunConfig
from tsvalue.errors import ConfigError
from tsvalue.experiments import _bench_instances
from tsvalue.forecaster import Forecaster, ModelSpec
from tsvalue.oracles import build_hessian, exact_influence
from tsvalue.synthetic import SyntheticSpec
from tsvalue.valuation import ValuationConfig, grad_inner_influence

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = {
        "dataset": {"synthetic": {"generator": "sine_mix", "length": 300,
                                  "noise_std": 0.05, "seed": 1}},
        "valuation": {"block_length": 20, "stride": 4, "k_folds": 3,
                      "learning_rate": 0.01},
        "model": {"architecture": "linear_ar", "horizon": 2},
        "pretrain": {"epochs": 5, "batch_size": 16, "learning_rate": 0.02},
        "finetune": {"epochs": 2, "batch_size": 8},
        "selection": {"ratio": 0.5},
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in (overrides or {}).items():
        if key != "dataset" and isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# the spec that write_config's model and blocks ask for: P = (18 + 1) * 2
CHECKPOINT_SPEC = {"architecture": "linear_ar", "lookback": 18, "horizon": 2, "channels": 1,
                   "hidden": 0, "activation": "tanh", "bias": True, "init_seed": 0}


def checkpoint_text(spec=CHECKPOINT_SPEC, params=(0.0,) * 38, drop=None):
    """A checkpoint for write_config's model, with ``spec``/``params`` swapped in or ``drop`` left out."""
    doc = {"format": "tsvalue-model-v1", "spec": spec, "params": list(params)}
    doc.pop(drop, None)
    return json.dumps(doc)


COMMANDS = ("synth", "value", "oracle-compare", "select-eval", "ablate", "bench", "generalize")

# values of the wrong JSON type for each scalar annotation
_WRONG_SCALARS = {
    int: ["3", 2.5, True, [1], {}, None],
    float: ["0.5", False, [0.5], None],
    bool: ["yes", 1, [True], None],
    str: [1, 0.5, False, ["a"], None],
}


def _wrong_values(typ) -> list:
    """JSON values that the annotation ``typ`` does not admit."""
    args = typing.get_args(typ)
    if type(None) in args:  # X | None admits null
        return [v for v in _wrong_values(args[0]) if v is not None]
    if dataclasses.is_dataclass(typ):
        return [[1, 2], "x", 3, None]
    if typing.get_origin(typ) is tuple:
        return ["x", 3, None, {}] + [[v] for v in _WRONG_SCALARS[args[0]] if v is not None]
    return _WRONG_SCALARS[typ]


def _wrong_type_cases(cls, path=()) -> list:
    """(key path, wrong value) for every key a config file may set, sections included."""
    cases = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if not f.metadata.get("in_file", True):
            continue
        typ, key_path = hints[f.name], path + (f.name,)
        cases += [(key_path, v) for v in _wrong_values(typ)]
        inner = typing.get_args(typ)[0] if type(None) in typing.get_args(typ) else typ
        if dataclasses.is_dataclass(inner):
            cases += _wrong_type_cases(inner, key_path)
    return cases


WRONG_TYPE_CASES = _wrong_type_cases(RunConfig)


class TestConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"surprise": 1})
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"valuation": {"blok_length": 10}})
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_dataset_requires_exactly_one_source(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {}})
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_hash_changes_with_content(self, tmp_path):
        a = RunConfig.load(write_config(tmp_path, name="a.json"))
        b = RunConfig.load(write_config(tmp_path, {"seed": 4}, name="b.json"))
        assert a.config_hash != b.config_hash

    def test_overrides_feed_hash(self, tmp_path):
        path = write_config(tmp_path)
        a = RunConfig.load(path)
        b = RunConfig.load(path, seed=99)
        assert a.config_hash != b.config_hash

    def test_deprecated_workers_key_warns_and_is_ignored(self, tmp_path, capsys):
        plain = RunConfig.load(write_config(tmp_path, name="plain.json"))
        assert capsys.readouterr().err == ""
        legacy = RunConfig.load(write_config(tmp_path, {"workers": 4}, name="legacy.json"))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'workers'" in err[0] and "deprecated" in err[0]
        assert legacy.config_hash == plain.config_hash

    @pytest.mark.parametrize("key, value", [
        ("k_folds", 1), ("block_length", 1), ("learning_rate", -0.1), ("stride", 0),
        ("sample_length", 0), ("k_folds", "3"), ("block_length", 20.5),
        ("optimizer_kind", "rmsprop"), ("context_cap", 0),
    ])
    def test_bad_valuation_value_exits_1(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {"valuation": {key: value}})
        assert main(["value", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("tsvalue: exit=1 kind=")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # section None: value holds the top-level overrides and key only names the case
    @pytest.mark.parametrize("command, section, key, value", [
        ("select-eval", "selection", "ratio", 0),
        ("select-eval", "selection", "ratio", 1.5),
        ("select-eval", "selection", "strategies", ["top", "best"]),
        ("ablate", "ablation", "ratio", -0.2),
        ("ablate", "ablation", "strategies", ["worst"]),
        ("generalize", "generalize", "ratios", [0.2, 0]),
        ("generalize", "generalize", "strategies", ["top", "middle"]),
        ("generalize", "generalize", "ratios", 0.2),
        ("ablate", "ablation", "block_lengths", []),
        ("select-eval", "corruption", "kind", "spike"),
        ("select-eval", None, "test_fraction", {"test_fraction": 1.5}),
        ("select-eval", None, "test_fraction", {"test_fraction": 0}),
        ("select-eval", None, "valuation_not_object", {"valuation": [1, 2]}),
        ("select-eval", "pretrain", "batch_size", 0),
        ("select-eval", "pretrain", "instance_stride", 0),
        ("select-eval", "pretrain", "epochs", "1"),
        ("select-eval", None, "seed", {"seed": "x"}),
        ("oracle-compare", "oracle_compare", "methods", ["bogus"]),
        ("oracle-compare", None, "loo_with_mlp",
         {"oracle_compare": {"methods": ["loo"]},
          "model": {"architecture": "mlp", "horizon": 2, "hidden": 4}}),
        ("select-eval", "pretrain", "optimizer_kind", "rmsprop"),
        ("oracle-compare", "oracle_compare", "shapley_mode", "bogus"),
        ("select-eval", "finetune", "epochs", -1),
        ("select-eval", None, "normalize", {"normalize": "no"}),
        ("bench", "bench", "methods", ["bogus"]),
        ("bench", "bench", "repeats", 0),
        ("oracle-compare", "oracle_compare", "stride", 0),
        ("value", "corruption", "magnitude", -1),
        ("value", "model", "horizon", 20),  # leaves no lookback in a 20-step block
        ("value", "model", "architecture", "mlp"),  # with hidden 0
    ])
    def test_bad_experiment_setting_exits_1_at_load(self, tmp_path, capsys,
                                                     command, section, key, value):
        path = write_config(tmp_path, {section: {key: value}} if section else value)
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        kind = re.match(r'tsvalue: exit=1 kind=(\w+) detail=".*"$', err[0]).group(1)
        assert issubclass(getattr(errors, kind), ConfigError)
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, args", [
        ({"seed": -1}, []),
        ({}, ["--seed", "-1"]),
        ({"dataset": {"synthetic": {"length": 300, "seed": -1}}}, []),
        ({"model": {"init_seed": -1}}, []),
        ({"downstream_model": {"init_seed": -1}}, []),
        ({"corruption": {"fraction": 0.2, "seed": -1}}, []),
    ], ids=["seed", "--seed", "synthetic.seed", "model.init_seed",
            "downstream_model.init_seed", "corruption.seed"])
    def test_negative_seed_exits_1_at_load(self, tmp_path, capsys, overrides, args):
        path = write_config(tmp_path, overrides)
        assert main(["select-eval", "--config", str(path), *args]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("tsvalue: exit=1 kind=")
        assert "must be >= 0, got -1" in err[0]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_library_specs_reject_negative_seeds(self):
        with pytest.raises(errors.InvalidSpec):
            ModelSpec("linear_ar", 2, 1, 1, init_seed=-1)
        with pytest.raises(errors.InvalidSpec):
            SyntheticSpec(seed=-1)
        with pytest.raises(ConfigError):
            ValuationConfig(seed=-1)

    def test_defaults_pinned_by_hash(self):
        # the README's minimal config restates the defaults; a moved default
        # or a README example that drifts from them changes this hash
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"Minimal config:\n\n```json\n(.*?)```", readme, re.S).group(1)
        for raw in ({"dataset": {"synthetic": {}}}, json.loads(block)):
            assert RunConfig.from_dict(raw).config_hash == "8a9c917b58492354"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(WRONG_TYPE_CASES), command=st.sampled_from(COMMANDS))
    def test_wrong_json_type_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      case, command):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "fit_value_model", no_fit)
        capsys.readouterr()  # examples share the fixtures: start each one clean
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        path, wrong = case
        raw = json.loads(write_config(tmp_path).read_text(encoding="utf-8"))
        section = raw
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = wrong
        cfg = tmp_path / "wrong.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and re.match(r'^tsvalue: exit=1 kind=\w+ detail=".*"$', err[0])
        assert captured.out == ""
        assert not (tmp_path / "out" / "value_model.json").exists()


class TestSynth:
    def test_writes_csv_with_header(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["synth", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
        assert lines[0].startswith("# version=")
        assert lines[1] == "ch0"
        assert len(lines) == 302

    def test_output_loads_back_through_ingestion(self, tmp_path):
        path = write_config(tmp_path)
        main(["synth", "--config", str(path)])
        csv_path = tmp_path / "out" / "dataset.csv"
        reloaded_cfg = write_config(tmp_path, {"dataset": {"path": str(csv_path)}},
                                    name="fromfile.json")
        out2 = tmp_path / "out2"
        assert main(["value", "--config", str(reloaded_cfg),
                     "--out", str(out2)]) == 0

    def test_deterministic(self, tmp_path):
        path = write_config(tmp_path)
        main(["synth", "--config", str(path)])
        first = (tmp_path / "out" / "dataset.csv").read_bytes()
        main(["synth", "--config", str(path)])
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == first


class TestValue:
    def test_writes_three_score_files(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["value", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for name in ("blocks.json", "points.json", "samples.json"):
            doc = json.loads((out / name).read_text())
            assert doc["version"] and doc["config_hash"]

    def test_block_count_arithmetic(self, tmp_path):
        # T=300, test_fraction 0.3 -> target 210; L=20 stride 4 -> 48 blocks
        path = write_config(tmp_path)
        main(["value", "--config", str(path)])
        doc = json.loads((tmp_path / "out" / "blocks.json").read_text())
        assert len(doc["blocks"]) == (210 - 20) // 4 + 1

    def test_default_pipeline_block_count(self, tmp_path):
        # T=800 with the stock 30% holdout and L=100 stride 1:
        # target ceil(800*0.7)=560, blocks 560-100+1=461
        cfg = {
            "dataset": {"synthetic": {"generator": "sine_mix", "length": 800,
                                      "noise_std": 0.1, "seed": 0}},
            "pretrain": {"epochs": 3, "batch_size": 32, "learning_rate": 0.02},
            "output_dir": str(tmp_path / "out800"),
        }
        path = tmp_path / "default.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["value", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out800" / "blocks.json").read_text())
        assert len(doc["blocks"]) == 461
        points = json.loads((tmp_path / "out800" / "points.json").read_text())
        assert len(points["points"]) == 560
        samples = json.loads((tmp_path / "out800" / "samples.json").read_text())
        assert len(samples["samples"]) == 5  # 560 // 100

    def test_diverging_training_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "pretrain": {"epochs": 50, "batch_size": 8, "learning_rate": 1e9,
                         "optimizer_kind": "sgd"}})
        assert main(["value", "--config", str(path)]) == 3
        assert "exit=3" in capsys.readouterr().err

    def test_non_finite_scores_exit_3_before_any_score_file(self, tmp_path):
        path = write_config(tmp_path, {"valuation": {"learning_rate": 1e200}})
        proc = subprocess.run([sys.executable, "-m", "tsvalue.cli", "value", "--config", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [proc.stderr.strip()]  # no RuntimeWarning
        assert proc.stderr.startswith("tsvalue: exit=3 kind=NonFiniteLoss")
        assert not list((tmp_path / "out").glob("*s.json"))  # blocks, points, samples

    @pytest.mark.parametrize("rows, kind, where", [
        ("2020-01-01T00:00:00,1\n2020-01-01T00:01:00Z,2\n", "NonMonotonicTimestamps", "row 2"),
        ("2020-01-01T00:00:00,1\n2020-01-01T00:01:00,-inf\n", "NaNEncountered",
         "row 2, column 1 (infinite)"),
    ])
    def test_bad_timestamps_and_infinite_cells_exit_2(self, tmp_path, capsys, rows, kind, where):
        data = tmp_path / "data.csv"
        data.write_text("timestamp,x\n" + rows, encoding="utf-8")
        path = write_config(tmp_path, {"dataset": {"path": str(data)}})
        assert main(["value", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"kind={kind}" in err[0] and where in err[0]

    # a lone Latin-1 byte where each of the three reads first decodes it: the
    # header read's first buffer, the np.loadtxt pass, and the re-scan that
    # names a bad cell (here "x", which np.loadtxt meets before the byte)
    @pytest.mark.parametrize("content, line, loadtxt_calls, rescans", [
        (b"x,y\xe9\n1,2\n", 1, 0, 0),
        (b"x,y\n" + b"1,2\n" * 5000 + b"3,\xe9\n", 5002, 1, 0),
        (b"x,y\n1,2\n3,x\n" + b"1,2\n" * 50000 + b"3,\xe9\n", 50004, 1, 1),
    ], ids=["header-read", "loadtxt-pass", "fault-rescan"])
    def test_non_utf8_csv_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                  content, line, loadtxt_calls, rescans):
        calls = {"loadtxt": 0, "rescan": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(series.np, "loadtxt", counted("loadtxt", series.np.loadtxt))
        monkeypatch.setattr(series, "_raise_first_fault",
                            counted("rescan", series._raise_first_fault))
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        path = write_config(tmp_path, {"dataset": {"path": str(data)}})
        assert main(["value", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith('tsvalue: exit=2 kind=NotUtf8 detail="')
        assert str(data) in err[0] and f"byte 0xe9 on line {line}" in err[0]
        assert calls == {"loadtxt": loadtxt_calls, "rescan": rescans}
        assert "training" not in captured.out
        assert not (tmp_path / "out" / "value_model.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        main(["value", "--config", str(path)])
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["value", "--config", str(path)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_block_longer_than_target_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"valuation": {"block_length": 500}})
        assert main(["value", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "exit=2" in err and "kind=" in err

    def test_unscored_sample_exits_2_before_training(self, tmp_path, capsys):
        # target 420 steps: blocks [0, 50) and [200, 250) leave the sample
        # [50, 100) with no scored point, which the config alone determines
        path = write_config(tmp_path, {
            "dataset": {"synthetic": {"generator": "sine_mix", "length": 600,
                                      "noise_std": 0.05, "seed": 1}},
            "valuation": {"block_length": 50, "stride": 200}})
        assert main(["value", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("tsvalue: exit=2 kind=WhollyUnscoredSample")
        assert "training" not in captured.out
        assert not (tmp_path / "out" / "value_model.json").exists()

    def test_loads_checkpoint_instead_of_training(self, tmp_path):
        path = write_config(tmp_path)
        main(["value", "--config", str(path)])
        ckpt = tmp_path / "out" / "value_model.json"
        path2 = write_config(tmp_path, {"model": {"architecture": "linear_ar",
                                                  "horizon": 2,
                                                  "checkpoint": str(ckpt)}},
                             name="cfg2.json")
        out2 = tmp_path / "out2"
        assert main(["value", "--config", str(path2), "--out", str(out2)]) == 0
        a = json.loads((tmp_path / "out" / "blocks.json").read_text())["blocks"]
        b = json.loads((out2 / "blocks.json").read_text())["blocks"]
        assert a == b

    @pytest.mark.parametrize("command", ["value", "select-eval"])
    @pytest.mark.parametrize("content, code, kind", [
        (None, 2, "MissingFile"),
        ("{not json", 1, "InvalidSpec"),
        ("[1]", 1, "InvalidSpec"),  # JSON, but not a checkpoint object
        *(pytest.param(checkpoint_text(**body), 1, kind, id=name) for name, body, kind in [
            ("no-spec", {"drop": "spec"}, "InvalidSpec"),
            ("no-params", {"drop": "params"}, "InvalidSpec"),
            ("unknown-spec-key", {"spec": {**CHECKPOINT_SPEC, "depth": 2}}, "InvalidSpec"),
            ("spec-list", {"spec": [18, 2]}, "InvalidSpec"),
            ("string-lookback", {"spec": {**CHECKPOINT_SPEC, "lookback": "18"}}, "InvalidSpec"),
            ("int-bias", {"spec": {**CHECKPOINT_SPEC, "bias": 1}}, "InvalidSpec"),
            ("negative-init-seed", {"spec": {**CHECKPOINT_SPEC, "init_seed": -1}}, "InvalidSpec"),
            ("string-params", {"params": ["0.5"] * 38}, "InvalidSpec"),
            ("nan-param", {"params": [float("nan")] + [0.0] * 37}, "InvalidSpec"),
            ("huge-int-param", {"params": [10**400] + [0.0] * 37}, "InvalidSpec"),
            ("too-few-params", {"params": [0.0] * 37}, "ShapeMismatch"),
        ]),
    ])
    def test_bad_checkpoint_file_fails_with_one_line(self, tmp_path, capsys, command,
                                                     content, code, kind):
        ckpt = tmp_path / "ckpt.json"
        if content is not None:
            ckpt.write_text(content, encoding="utf-8")
        path = write_config(tmp_path, {"model": {"checkpoint": str(ckpt)}})
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"tsvalue: exit={code} kind={kind} ")
        assert not (tmp_path / "out" / "value_model.json").exists()

    def test_detection_report_when_corrupted(self, tmp_path):
        path = write_config(tmp_path, {
            "corruption": {"fraction": 0.2, "magnitude": 0.2, "seed": 5},
            "valuation": {"block_length": 20, "stride": 20, "k_folds": 3,
                          "learning_rate": 0.05},
        })
        assert main(["value", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "detection.json").read_text())
        assert 0.0 <= doc["auroc"] <= 1.0


class TestSelectEval:
    def test_four_row_report(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["select-eval", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "select_eval.csv").read_text().splitlines()
        assert lines[0].startswith("# version=")
        assert lines[1].split(",")[0] == "strategy"
        strategies = [line.split(",")[0] for line in lines[2:]]
        assert strategies == ["top", "bottom", "random", "full"]

    def test_wall_time_only_in_sidecar(self, tmp_path):
        path = write_config(tmp_path)
        main(["select-eval", "--config", str(path)])
        main_csv = (tmp_path / "out" / "select_eval.csv").read_text()
        assert "wall_time" not in main_csv
        sidecar = (tmp_path / "out" / "select_eval_timings.csv").read_text()
        assert "wall_time_s" in sidecar

    def test_main_report_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path)
        main(["select-eval", "--config", str(path)])
        first = (tmp_path / "out" / "select_eval.csv").read_bytes()
        main(["select-eval", "--config", str(path)])
        assert (tmp_path / "out" / "select_eval.csv").read_bytes() == first


class TestOracleCompare:
    def test_single_method_gives_unit_matrix(self, tmp_path):
        path = write_config(tmp_path, {
            "oracle_compare": {"methods": ["one_step"], "max_blocks": 10,
                               "context_cap": 10}})
        assert main(["oracle-compare", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
        assert doc["methods"] == ["one_step"]
        assert doc["spearman"]["one_step"]["one_step"] == 1.0

    # the block sets depend only on the target length and the config, so a
    # bad set fails before the value model is trained
    def _fails_before_training(self, tmp_path, capsys, monkeypatch, overrides, code, kind):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "fit_value_model", no_fit)
        path = write_config(tmp_path, overrides)
        assert main(["oracle-compare", "--config", str(path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"tsvalue: exit={code} kind={kind}")

    def test_enumeration_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        self._fails_before_training(tmp_path, capsys, monkeypatch, {
            "oracle_compare": {"methods": ["one_step", "shapley"], "max_blocks": 10,
                               "context_cap": 10, "shapley_mode": "enumerate"}},
            1, "PTooLarge")

    def test_too_short_target_exits_2(self, tmp_path, capsys, monkeypatch):
        # the 210-step target holds a single 210-step block: no context set
        self._fails_before_training(tmp_path, capsys, monkeypatch,
                                    {"valuation": {"block_length": 210}}, 2, "DataError")

    def test_indefinite_hessian_exits_3_naming_the_method(self, tmp_path, capsys):
        # the trained mlp's empirical Hessian stays indefinite after the default damping
        path = write_config(tmp_path, {
            "model": {"architecture": "mlp", "hidden": 5},
            "oracle_compare": {"methods": ["one_step", "exact_influence"]}})
        assert main(["oracle-compare", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith('tsvalue: exit=3 kind=IndefiniteAfterDamping '
                                 'detail="method=exact_influence: Hessian indefinite')

    def test_matrix_covers_all_methods(self, tmp_path):
        path = write_config(tmp_path, {
            "oracle_compare": {"methods": ["one_step", "grad_inner",
                                           "exact_influence"],
                               "max_blocks": 8, "context_cap": 8}})
        assert main(["oracle-compare", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
        for a in doc["methods"]:
            for b in doc["methods"]:
                assert -1.0 <= doc["spearman"][a][b] <= 1.0

    @pytest.mark.parametrize("architecture, hidden", [("linear_ar", 0), ("mlp", 5)])
    def test_batched_gradient_oracles_match_per_block_references(self, architecture,
                                                                 hidden):
        cfg = RunConfig.from_dict({"dataset": {"synthetic": {}},
                                   "valuation": {"learning_rate": 0.05}})
        model = Forecaster(ModelSpec(architecture, lookback=6, horizon=2, channels=2,
                                     hidden=hidden))
        rng = np.random.default_rng(0)
        params = 0.3 * rng.normal(size=model.spec.n_params)
        train, scored, context = (_bench_instances(model, params, n, rng, jitter=0.01)
                                  for n in (200, 9, 7))
        mode = "analytic" if architecture == "linear_ar" else "finite_diff"
        hess = build_hessian(model, params, train, mode=mode)
        references = {
            "grad_inner": [grad_inner_influence(model, params, z, context, 0.05)
                           for z in scored],
            "exact_influence": [exact_influence(model, params, z, context, hess)
                                for z in scored],
        }
        for method, ref in references.items():
            got = _oracle_scores(method, cfg, model, params, scored, context, train)
            ref = np.asarray(ref)
            assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOtherCommands:
    def test_ablate_table_shape(self, tmp_path):
        path = write_config(tmp_path, {
            "ablation": {"block_lengths": [16, 20], "ratio": 0.25,
                         "strategies": ["top", "bottom"]}})
        assert main(["ablate", "--config", str(path)]) == 0
        table = (tmp_path / "out" / "ablation_table.csv").read_text().splitlines()
        header = table[1].split(",")
        assert header == ["strategy", "mse@L16", "mae@L16", "mse@L20", "mae@L20"]
        assert [r.split(",")[0] for r in table[2:]] == ["top", "bottom"]

    @pytest.mark.parametrize("block_lengths, stride, code, kind", [
        ([20, 2], 4, 1, "ConfigError"),            # L=2 leaves no lookback for horizon 2
        ([16, 20], 40, 2, "WhollyUnscoredSample"),  # stride 40 skips whole 16-step samples
    ])
    def test_bad_ablation_length_fails_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                      block_lengths, stride, code, kind):
        fits = []
        monkeypatch.setattr(cli, "fit_value_model",
                            lambda *args, **kw: fits.append(args))
        path = write_config(tmp_path, {
            "valuation": {"stride": stride},
            "ablation": {"block_lengths": block_lengths, "strategies": ["top"]}})
        assert main(["ablate", "--config", str(path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"tsvalue: exit={code} kind={kind}")
        assert fits == []

    def test_generalize_rows(self, tmp_path):
        path = write_config(tmp_path, {
            "downstream_model": {"architecture": "mlp", "horizon": 2,
                                 "hidden": 6},
            "generalize": {"ratios": [0.5], "strategies": ["top", "bottom"]}})
        assert main(["generalize", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "generalize.csv").read_text().splitlines()
        assert len(lines) == 4  # comment + header + 2 rows

    @pytest.mark.parametrize("command, overrides", [
        ("ablate", {"model": {"checkpoint": "no_such_model.json"}}),
        ("generalize", {"model": {"checkpoint": "no_such_model.json"}}),
        ("generalize", {"downstream_model": {"checkpoint": "no_such_model.json"}}),
        ("select-eval", {"downstream_model": {"checkpoint": "no_such_model.json"}}),
    ])
    def test_unread_checkpoint_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command, overrides):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "fit_value_model", no_fit)
        path = write_config(tmp_path, overrides)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tsvalue: exit=1 kind=ConfigError ")
        assert "checkpoint" in err[0]
        assert not (tmp_path / "out").exists()

    def test_select_eval_ablate_and_generalize_share_one_path(self, tmp_path):
        strategies = ["top", "bottom", "random", "full"]
        path = write_config(tmp_path, {
            "selection": {"ratio": 0.5, "strategies": strategies},
            "ablation": {"block_lengths": [20], "ratio": 0.5, "strategies": strategies},
            "generalize": {"ratios": [0.5], "strategies": strategies},
            "downstream_model": {"architecture": "linear_ar", "horizon": 2}})
        columns = ["strategy", "ratio", "mse", "mae", "n_selected", "n_train_instances"]
        tables = []
        for command, name in [("select-eval", "select_eval"), ("ablate", "ablation"),
                              ("generalize", "generalize")]:
            assert main([command, "--config", str(path)]) == 0
            with (tmp_path / "out" / f"{name}.csv").open(encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            tables.append([[row[c] for c in columns] for row in rows])
        assert [row[0] for row in tables[0]] == strategies
        assert tables[1] == tables[0] and tables[2] == tables[0]

    def test_bench_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "bench": {"p_list": [300], "methods": ["one_step"], "n_blocks": 8,
                      "n_context": 8, "repeats": 1}})
        assert main(["bench", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "bench_slopes.json").read_text())
        assert doc["rows"][0]["method"] == "one_step"

    def test_missing_dataset_file_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"dataset": {"path": str(tmp_path / "no.csv")}})
        assert main(["value", "--config", str(path)]) == 2

    def test_bad_config_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["value", "--config", str(bad)]) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("TSVALUE_OUT", str(env_out))
        assert main(["synth", "--config", str(path)]) == 0
        assert (env_out / "dataset.csv").exists()


class TestColdStart:
    """The CLI imports no scipy; only the oracle and bench factorisations load scipy.linalg."""

    @staticmethod
    def scipy_modules_after(code: str) -> list[str]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", code + "\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"],
            env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        assert self.scipy_modules_after("import tsvalue.cli") == []

    def test_value_run_loads_no_scipy(self, tmp_path):
        # value factorises nothing, so neither scipy.stats nor scipy.linalg loads
        path = write_config(tmp_path)
        assert self.scipy_modules_after(
            "from tsvalue.cli import main\n"
            f"assert main(['value', '--config', {str(path)!r}]) == 0") == []
