"""Block, point, and sample scores from one-step finetuning.

A block's value is the drop in mean context loss after a single optimizer
step on that block's forecast instance:

    v(block) = L(context; theta) - L(context; theta - lr * grad L(block; theta))

Positive means the block helped the context. Block values are averaged into
per-time-point values over all covering blocks, and point values are
averaged into per-sample values. Scoring is organized in k folds: each
block is scored against context instances drawn from the other folds, and
every block starts from the same parameters -- finetuning never accumulates
across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyContext,
    HorizonTooLong,
    NonFiniteLoss,
    ShapeMismatch,
    WhollyUnscoredSample,
    require_at_least,
)
from .forecaster import (
    ForecastInstance,
    Forecaster,
    OptimizerConfig,
    OptimizerState,
    optimizer_step,
    sliding_instances,
)
from .series import (
    SampleWindow,
    TimeSeries,
    enumerate_samples,
    make_folds,
    segment_blocks,
)


@dataclass(frozen=True)
class ValuationConfig:
    block_length: int = 100
    stride: int = 1
    learning_rate: float = 1e-5
    optimizer_kind: str = "sgd"  # plain SGD keeps the first-order analysis exact
    k_folds: int = 5
    context_cap: int | None = None  # max context instances per fold
    sample_length: int | None = None  # selection-unit length; defaults to block_length
    seed: int = field(default=0, metadata={"in_file": False})  # the run's top-level seed

    def __post_init__(self):
        require_at_least(self, 2, "block_length", "k_folds")
        require_at_least(self, 1, "stride", "context_cap", "sample_length")
        require_at_least(self, 0, "seed")
        self.optimizer()  # an unknown kind or a negative rate fails; zero scores every block 0

    @property
    def effective_sample_length(self) -> int:
        return self.sample_length if self.sample_length is not None else self.block_length

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(self.optimizer_kind, self.learning_rate)


@dataclass(frozen=True)
class BlockScores:
    """Scored blocks: block i is [starts[i], starts[i] + length)."""

    starts: np.ndarray  # int64; value_all_blocks gives them ascending
    values: np.ndarray
    folds: np.ndarray  # fold id per block
    length: int

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class PointScores:
    """Per-time-index values; indices with coverage 0 hold NaN, never 0."""

    values: np.ndarray
    coverage: np.ndarray


@dataclass(frozen=True)
class SampleScores:
    windows: tuple[SampleWindow, ...]
    values: np.ndarray
    coverage_fraction: np.ndarray | None = None


def block_instances(series: TimeSeries, starts: np.ndarray, length: int,
                    horizon: int) -> ForecastInstance:
    """Each block [start, start + length) split into (first L-H steps -> last H
    steps), stacked in the order of ``starts``."""
    if horizon >= length:
        raise HorizonTooLong(f"horizon {horizon} must be < block length {length}")
    return sliding_instances(series.values, length - horizon, horizon, starts=starts)


def grad_inner_influence(model: Forecaster, params: np.ndarray,
                         blocks: ForecastInstance, context: ForecastInstance,
                         learning_rate: float) -> np.ndarray:
    """First-order prediction of each block's context loss drop: lr * <g_block, g_context>.

    One value per row of ``blocks``; the sign convention matches
    :func:`score_blocks_batch`: positive = beneficial.
    """
    if not context:
        raise EmptyContext("grad_inner_influence needs at least one context instance")
    g_context = model.batch_grad(params, context).grad
    return learning_rate * (model.grad_per_instance(params, blocks) @ g_context)


def value_all_blocks(series: TimeSeries, model: Forecaster, params: np.ndarray,
                     config: ValuationConfig) -> BlockScores:
    """Score every block of the (target-split) series under the fold protocol.

    Samples are folded with the config seed; a block belongs to the fold of
    the sample containing its start index (blocks past the last full sample
    adopt the last sample's fold). Context for a fold is the block instances
    of all other folds, optionally subsampled to ``context_cap``. Each fold's
    blocks are scored by one :func:`score_blocks_batch` call, every block
    from the same starting params; output is ordered by block start.
    """
    horizon = model.spec.horizon
    if model.spec.lookback + horizon != config.block_length:
        raise ShapeMismatch(
            f"model lookback {model.spec.lookback} + horizon {horizon} "
            f"must equal block length {config.block_length}"
        )
    t = series.length
    starts = segment_blocks((0, t), config.block_length, config.stride)
    sample_len = config.effective_sample_length
    samples = enumerate_samples((0, t), sample_len)
    folds = make_folds(len(samples), config.k_folds, config.seed)

    # the blocks are the stride-th windows from 0, so one view holds them all
    instances = sliding_instances(series.values, model.spec.lookback, horizon,
                                  stride=config.stride)
    block_folds = folds.assignment[np.minimum(starts // sample_len, len(samples) - 1)]

    values = np.empty(len(starts))
    for fold_id in range(config.k_folds):
        in_fold = block_folds == fold_id
        ctx_idx = np.flatnonzero(~in_fold)
        if ctx_idx.size == 0:
            raise EmptyContext(f"fold {fold_id} has no out-of-fold context blocks")
        if config.context_cap is not None and ctx_idx.size > config.context_cap:
            rng = np.random.default_rng([config.seed, fold_id])
            ctx_idx = np.sort(rng.choice(ctx_idx, size=config.context_cap, replace=False))
        values[in_fold] = score_blocks_batch(model, params, instances[in_fold],
                                             instances[ctx_idx], config)
    return BlockScores(starts=starts, values=values, folds=block_folds,
                       length=config.block_length)


# Blocks per scoring chunk: the most (at least 1) whose c x (n_context x
# width + P) floats fit in this many float64 values (512 KiB). It sizes the
# workspace score_blocks_batch allocates once per call and reuses in every
# chunk, and so bounds the peak memory of scoring, whatever the block count.
# That workspace holds the larger of the forward pass and the step: c x P
# gradients plus the optimizer state, (1 + 1) x c x P floats for SGD and
# (1 + 4) x c x P for Adam.
SCORE_CHUNK_FLOATS = 2**16


def score_blocks_batch(model: Forecaster, params: np.ndarray,
                       blocks: ForecastInstance,
                       context: ForecastInstance,
                       config: ValuationConfig) -> np.ndarray:
    """One-step score of every block against one context set, in chunks.

    Block i's score is L(context; params) - L(context; params after one
    optimizer step on block i alone). The context is stacked, and its
    pre-step loss taken, once per call. A chunk's gradients step the rows
    of a chunk-high copy of ``params`` in one :func:`optimizer_step` call
    (SGD or Adam, fresh state), and the context loss is taken for all its
    tuned rows at once. A chunk of c blocks counts c x (n_context x width +
    P) floats, width being the mlp's hidden size or the linear output size;
    c is the largest count (at least 1) that fits in ``SCORE_CHUNK_FLOATS``.
    The tuned rows and one flat workspace are allocated once per call and
    reused by every chunk: the workspace holds a chunk's gradients and
    optimizer state, then, once the step has spent them, its forward pass.
    A non-finite score, from a step that overflows the loss, raises
    NonFiniteLoss: no caller gets an inf or a NaN.
    """
    if not context:
        raise EmptyContext("score_blocks_batch needs at least one context instance")
    spec, p = model.spec, model.spec.n_params
    width = spec.hidden if spec.architecture == "mlp" else spec.out_dim
    chunk = max(1, min(SCORE_CHUNK_FLOATS // (len(context) * width + p), len(blocks)))
    optimizer = config.optimizer()
    a, y = model.design_matrix(context)
    rows = np.empty((chunk, p))
    step_floats = (1 + OptimizerState.arrays(optimizer)) * chunk * p
    work = np.empty(max(step_floats, model.forward_floats(chunk, len(context))))
    values = np.empty(len(blocks))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, once
        before = model.loss_many_params(np.asarray(params)[None], a, y, work)[0]
        for lo in range(0, len(blocks), chunk):
            b = min(chunk, len(blocks) - lo)
            grads = model.grad_per_instance(params, blocks[lo:lo + b],
                                            out=work[:b * p].reshape(b, p))
            tuned = rows[:b]
            tuned[:] = params
            optimizer_step(tuned, grads, OptimizerState.fresh(optimizer, (b, p), work[b * p:]))
            values[lo:lo + b] = before - model.loss_many_params(tuned, a, y, work)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NonFiniteLoss(f"{bad} of {len(values)} block scores are non-finite; "
                            f"learning_rate {config.learning_rate:g} overflows the one-step update")
    return values


def aggregate_points(blocks: BlockScores, t_target: int) -> PointScores:
    """Per-index mean of the values of all covering blocks."""
    total = np.zeros(t_target)
    coverage = np.zeros(t_target, dtype=np.int64)
    for start, value in zip(blocks.starts.tolist(), blocks.values.tolist()):
        total[start:start + blocks.length] += value
        coverage[start:start + blocks.length] += 1
    values = np.full(t_target, np.nan)
    scored = coverage > 0
    values[scored] = total[scored] / coverage[scored]
    return PointScores(values=values, coverage=coverage)


def check_coverage(length: int, config: ValuationConfig) -> None:
    """Raise WhollyUnscoredSample, before any training, if a sample would get no scored point."""
    starts = segment_blocks((0, length), config.block_length, config.stride)
    unscored = BlockScores(starts, np.zeros(len(starts)), np.zeros_like(starts),
                           config.block_length)
    points = aggregate_points(unscored, length)
    aggregate_samples(points, enumerate_samples((0, length), config.effective_sample_length))


def aggregate_samples(point_scores: PointScores,
                      samples: list[SampleWindow]) -> SampleScores:
    """Mean point value per sample window; unscored points drop out of the mean."""
    values = np.empty(len(samples))
    covered = np.empty(len(samples))
    for i, s in enumerate(samples):
        window = point_scores.values[s.start:s.stop]
        mask = point_scores.coverage[s.start:s.stop] > 0
        if not mask.any():
            raise WhollyUnscoredSample(f"sample [{s.start}, {s.stop}) has no scored points")
        values[i] = float(np.mean(window[mask]))
        covered[i] = float(np.mean(mask))
    return SampleScores(windows=tuple(samples), values=values, coverage_fraction=covered)
