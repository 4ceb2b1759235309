"""The pipeline benchmark's contract with the program, run as a tier-1 test.

``pipebench/trace_child.py`` wraps named functions of ``tsvalue.cli``,
``tsvalue.pipeline``, ``tsvalue.selection`` and ``tsvalue.forecaster`` and
counts the calls it sees. A refactor that renames a wrapped function or
changes a counted call pattern breaks the benchmark; these runs catch it
here first, against the same count formulas the benchmark checks.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "pipebench"))

from checks import expected_counts  # noqa: E402
from run import counts_of  # noqa: E402
from workloads import Workload  # noqa: E402

LENGTH = 300
STRATEGIES = ["top", "bottom", "random", "full"]
CONFIGS = {
    "select-eval": {
        "test_fraction": 0.25,  # the workloads' split, which expected_counts assumes
        "valuation": {"block_length": 20, "stride": 4, "k_folds": 3, "learning_rate": 0.01,
                      "sample_length": 40},
        "model": {"architecture": "mlp", "horizon": 2, "hidden": 4},
        "pretrain": {"epochs": 5, "batch_size": 16, "learning_rate": 0.02,
                     "instance_stride": 1},
        "finetune": {"epochs": 2, "batch_size": 8, "instance_stride": 1},
        "selection": {"strategies": STRATEGIES, "ratio": 0.5},
    },
    "value": {
        "test_fraction": 0.25,
        "valuation": {"block_length": 20, "stride": 3, "k_folds": 3, "learning_rate": 0.01},
        "model": {"architecture": "linear_ar", "horizon": 1},
        "pretrain": {"epochs": 3, "batch_size": 16, "learning_rate": 0.02,
                     "instance_stride": 2},
    },
}


def run_traced(tmp_path, command):
    rng = np.random.default_rng(0)
    values = np.sin(np.arange(LENGTH) / 7.0) + 0.1 * rng.normal(size=LENGTH)
    csv_path = tmp_path / "input.csv"
    csv_path.write_text("x\n" + "\n".join(format(v, ".17g") for v in values) + "\n",
                        encoding="utf-8")
    config = {**CONFIGS[command], "dataset": {"path": str(csv_path)}, "seed": 5}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pipebench" / "trace_child.py"), str(result), "spans",
         command, "--config", str(config_path), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    workload = Workload(name="contract", index=0, command=command, length=LENGTH,
                        channels=1, timestamps=False, config=config)
    return workload, json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["select-eval", "value"])
def test_traced_counts_match_the_benchmark_formulas(tmp_path, command):
    workload, trace = run_traced(tmp_path, command)
    assert trace["exit_code"] == 0
    pre = workload.config["pretrain"]
    n_fit = (workload.target - workload.block_length) // pre["instance_stride"] + 1
    counts = counts_of(trace)
    assert counts["forecaster.fit_batches"] == pre["epochs"] * math.ceil(n_fit / pre["batch_size"])
    assert {name: counts[name] for name in expected_counts(workload)} == expected_counts(workload)
    if command == "select-eval":
        assert sorted(trace["selections"]) == sorted(STRATEGIES)
