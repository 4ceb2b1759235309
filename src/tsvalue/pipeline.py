"""End-to-end valuation runs, shared by every CLI command that scores data.

A run trains (or receives) the valuation model on the target split, scores
every block from those fixed parameters, and aggregates block values down
to points and samples; it keeps the model and parameters for finetuning.
Only the target split ever reaches this module; the test split stays with
the evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import require, require_at_least
from .forecaster import (
    Forecaster,
    ModelSpec,
    OptimizerConfig,
    sliding_instances,
    train,
)
from .series import SampleWindow, TimeSeries, enumerate_samples
from .valuation import (
    BlockScores,
    PointScores,
    SampleScores,
    ValuationConfig,
    aggregate_points,
    aggregate_samples,
    value_all_blocks,
)


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 30
    batch_size: int = 16
    optimizer_kind: str = "adam"
    learning_rate: float = 0.01
    instance_stride: int = 1

    def __post_init__(self):
        require_at_least(self, 0, "epochs")
        require_at_least(self, 1, "batch_size", "instance_stride")
        self.optimizer()  # rejects an unknown optimizer kind or a negative learning rate

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(self.optimizer_kind, self.learning_rate)


@dataclass(frozen=True)
class ValuationRun:
    model: Forecaster
    params: np.ndarray
    block_scores: BlockScores
    point_scores: PointScores
    sample_scores: SampleScores

    @property
    def samples(self) -> tuple[SampleWindow, ...]:
        return self.sample_scores.windows


def spec_for_block_length(template: ModelSpec, block_length: int) -> ModelSpec:
    """Derive the lookback so one block splits into (lookback -> horizon)."""
    lookback = block_length - template.horizon
    require(lookback >= 1, f"block length {block_length} leaves no lookback "
                           f"for horizon {template.horizon}")
    return replace(template, lookback=lookback)


def fit_value_model(target: TimeSeries, spec: ModelSpec,
                    settings: TrainSettings, seed: int) -> tuple[Forecaster, np.ndarray]:
    """Train the valuation model on the target split."""
    model = Forecaster(spec)
    instances = sliding_instances(target.values, spec.lookback, spec.horizon,
                                  stride=settings.instance_stride)
    result = train(model, instances, settings.epochs, settings.batch_size,
                   settings.optimizer(), seed)
    return model, result.params


def run_valuation(target: TimeSeries, config: ValuationConfig,
                  model: Forecaster, params: np.ndarray) -> ValuationRun:
    """Score all blocks of the target split and aggregate to points and samples."""
    block_scores = value_all_blocks(target, model, params, config)
    point_scores = aggregate_points(block_scores, target.length)
    samples = enumerate_samples((0, target.length), config.effective_sample_length)
    sample_scores = aggregate_samples(point_scores, samples)
    return ValuationRun(model=model, params=params, block_scores=block_scores,
                        point_scores=point_scores, sample_scores=sample_scores)
