"""The benchmark's workloads: seeded input series and the configs that run them.

Each workload is one `tsvalue` command on one CSV written by this module.
The series is a mix of three sines per channel plus AR(1) noise, drawn
from ``numpy.random.default_rng([seed, workload index])``, and written
with 17 significant digits so the CSV parses back to the same float64
values the checks start from.

All configs use ``test_fraction`` 0.25, which is exact in binary, so the
target length is ceil(3T/4) with no rounding question.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TEST_FRACTION = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    index: int              # mixed into the seed so workloads never share a series
    command: str            # tsvalue subcommand
    length: int             # T, rows of the CSV
    channels: int           # M
    timestamps: bool        # leading ISO-8601 column
    config: dict = field(repr=False)
    main_outputs: tuple[str, ...] = ()

    # --- sizes the checks derive from the config alone ----------------------

    @property
    def target(self) -> int:
        """ceil(T * (1 - 0.25)) in integer arithmetic."""
        return -(-3 * self.length // 4)

    @property
    def block_length(self) -> int:
        return self.config["valuation"]["block_length"]

    @property
    def stride(self) -> int:
        return self.config["valuation"]["stride"]

    @property
    def sample_length(self) -> int:
        return self.config["valuation"].get("sample_length") or self.block_length

    @property
    def n_blocks(self) -> int:
        return (self.target - self.block_length) // self.stride + 1

    @property
    def n_samples(self) -> int:
        return self.target // self.sample_length

    def series(self, seed: int) -> np.ndarray:
        """T x M raw values for this workload and seed."""
        rng = np.random.default_rng([seed, self.index])
        t = np.arange(self.length, dtype=np.float64)
        out = np.empty((self.length, self.channels))
        for c in range(self.channels):
            x = np.zeros(self.length)
            for _ in range(3):
                period = rng.uniform(16.0, 160.0)
                x += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * t / period
                                                    + rng.uniform(0.0, 2 * np.pi))
            noise = rng.normal(0.0, 0.1, self.length)
            ar = np.empty(self.length)
            prev = 0.0
            for i, e in enumerate(noise.tolist()):
                prev = 0.7 * prev + e
                ar[i] = prev
            out[:, c] = x + ar
        return out

    def write_inputs(self, seed: int, directory: Path) -> tuple[Path, np.ndarray]:
        """Write the CSV and the config; return the config path and the raw series."""
        values = self.series(seed)
        csv_path = directory / "input.csv"
        header = [f"ch{c}" for c in range(self.channels)]
        lines = []
        if self.timestamps:
            header = ["timestamp"] + header
            base = datetime.datetime(2020, 1, 1)
            step = datetime.timedelta(minutes=1)
        lines.append(",".join(header))
        for i, row in enumerate(values.tolist()):
            cells = [format(v, ".17g") for v in row]
            if self.timestamps:
                cells.insert(0, (base + i * step).isoformat())
            lines.append(",".join(cells))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        config = json.loads(json.dumps(self.config))
        config["dataset"] = {"path": str(csv_path)}
        config["seed"] = seed
        if "corruption" in config:
            config["corruption"]["seed"] = seed
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")
        return config_path, values


_VALUE_OUTPUTS = ("blocks.json", "points.json", "samples.json", "value_model.json")

WORKLOADS = {w.name: w for w in [
    # Dense overlapping blocks: every block is scored against ~720 context
    # rows, so scoring dominates and grows with blocks x context.
    Workload(
        name="value_dense", index=0, command="value", length=1333, channels=1,
        timestamps=False, main_outputs=_VALUE_OUTPUTS,
        config={
            "test_fraction": TEST_FRACTION,
            "valuation": {"block_length": 100, "stride": 1, "learning_rate": 1e-5,
                          "optimizer_kind": "sgd", "k_folds": 5},
            "model": {"architecture": "linear_ar", "horizon": 1},
            "pretrain": {"epochs": 30, "batch_size": 16, "learning_rate": 0.01,
                         "optimizer_kind": "adam", "instance_stride": 1},
        }),
    # Long multichannel CSV with timestamps and non-overlapping blocks:
    # ingestion, instance building, aggregation and report writing dominate.
    Workload(
        name="value_long", index=1, command="value", length=80100, channels=3,
        timestamps=True, main_outputs=_VALUE_OUTPUTS,
        config={
            "test_fraction": TEST_FRACTION,
            "valuation": {"block_length": 200, "stride": 200, "learning_rate": 1e-5,
                          "optimizer_kind": "sgd", "k_folds": 5},
            "model": {"architecture": "linear_ar", "horizon": 1},
            "pretrain": {"epochs": 2, "batch_size": 64, "learning_rate": 0.01,
                         "optimizer_kind": "adam", "instance_stride": 25},
        }),
    # mlp value model, corrupted input, four finetunes: training dominates.
    Workload(
        name="select_eval_mlp", index=2, command="select-eval", length=3000, channels=1,
        timestamps=False, main_outputs=("select_eval.csv",),
        config={
            "test_fraction": TEST_FRACTION,
            "valuation": {"block_length": 50, "stride": 5, "learning_rate": 1e-4,
                          "optimizer_kind": "sgd", "k_folds": 5, "sample_length": 150},
            "model": {"architecture": "mlp", "horizon": 1, "hidden": 64},
            "pretrain": {"epochs": 20, "batch_size": 16, "learning_rate": 0.01,
                         "optimizer_kind": "adam", "instance_stride": 1},
            "finetune": {"epochs": 30, "batch_size": 16, "learning_rate": 0.01,
                         "optimizer_kind": "adam", "instance_stride": 1},
            "selection": {"strategies": ["top", "bottom", "random", "full"], "ratio": 0.5},
            "corruption": {"fraction": 0.2, "kind": "gaussian_burst", "magnitude": 1.0,
                           "seed": 0},
        }),
]}
