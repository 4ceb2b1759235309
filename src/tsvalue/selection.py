"""Score-driven data selection, finetune-and-evaluate, and corruption tools.

Selections are rank-based over sample scores, so they are invariant under
any strictly increasing transform of the scores. Evaluation always trains
on target-range instances and measures on test-range instances; neither
side sees the other's values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllOneClass,
    EmptyBatch,
    EmptyScores,
    FractionTooLarge,
    LengthMismatch,
    TestRangeTooShort,
)
from .forecaster import ForecastInstance, Forecaster, ModelSpec, sliding_instances, train
from .oracles import average_ranks
from .pipeline import TrainSettings
from .series import HoldoutSplit, SampleWindow, TimeSeries
from .valuation import SampleScores

STRATEGIES = ("top", "bottom", "random", "full")
CORRUPTION_KINDS = ("gaussian_burst", "level_shift", "constant_hold")


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    ratio: float
    chosen: tuple[int, ...]  # sample indices, ascending
    seed: int


@dataclass(frozen=True)
class EvalReport:
    mse: float
    mae: float
    strategy: str
    ratio: float
    model_spec: ModelSpec
    dataset_id: str
    wall_time: float
    seed: int
    n_selected: int
    n_train_instances: int


@dataclass(frozen=True)
class CorruptionLabels:
    """Which block-aligned tiles of the series were corrupted."""

    kind: str
    magnitude: float
    block_length: int
    tile_starts: tuple[int, ...]   # every tile in the corrupted range
    corrupted: np.ndarray          # bool per tile
    seed: int

    @property
    def regions(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, self.block_length)
                     for s, c in zip(self.tile_starts, self.corrupted) if c)

    def for_blocks(self, starts: np.ndarray, length: int,
                   min_overlap: float = 0.5) -> np.ndarray:
        """Label blocks [start, start + length): corrupted when >= min_overlap
        of their indices fall inside corrupted regions."""
        starts = np.asarray(starts, dtype=np.int64)
        stops = starts + length
        in_region = np.zeros(stops.max(initial=0), dtype=np.int64)
        for start, tile_length in self.regions:  # disjoint tiles: each index counts once
            in_region[start:start + tile_length] = 1
        covered = np.concatenate(([0], np.cumsum(in_region)))
        return covered[stops] - covered[starts] >= min_overlap * length


def select(scores: SampleScores, strategy: str, ratio: float, seed: int = 0) -> SelectionResult:
    """Pick sample indices by rank (top/bottom), uniformly (random), or all (full)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    n = len(scores.values)
    if n == 0:
        raise EmptyScores("no sample scores to select from")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if strategy == "full":
        chosen = np.arange(n)
    else:
        # nearest count, half-integers rounded down so top and bottom stay
        # disjoint at ratio 0.5
        k = max(1, int(np.ceil(ratio * n - 0.5)))
        if strategy == "random":
            chosen = np.random.default_rng(seed).choice(n, size=k, replace=False)
        else:
            starts = np.array([w.start for w in scores.windows])
            keys = -scores.values if strategy == "top" else scores.values
            order = np.lexsort((starts, keys))  # primary: value rank, ties: start
            chosen = order[:k]
    return SelectionResult(strategy=strategy, ratio=ratio,
                           chosen=tuple(int(i) for i in np.sort(chosen)), seed=seed)


def training_instances(series: TimeSeries, windows: list[SampleWindow],
                       chosen: tuple[int, ...], lookback: int, horizon: int,
                       stride: int = 1) -> ForecastInstance:
    """All (lookback+horizon)-windows lying fully inside the chosen samples, sample by sample."""
    span = lookback + horizon
    starts = [np.arange(windows[i].start, windows[i].stop - span + 1, stride) for i in chosen]
    return sliding_instances(series.values, lookback, horizon,
                             starts=np.concatenate([np.arange(0), *starts]))


def finetune_and_eval(model: Forecaster, base_params: np.ndarray,
                      selection: SelectionResult, samples: list[SampleWindow],
                      series: TimeSeries, split: HoldoutSplit,
                      settings: TrainSettings, seed: int = 0) -> EvalReport:
    """Finetune a copy of base_params on the selected samples, score on the test range."""
    spec = model.spec
    start = time.perf_counter()
    span = spec.lookback + spec.horizon
    test_lo, test_hi = split.test_range
    if test_hi - test_lo < span:
        raise TestRangeTooShort(
            f"test range of {test_hi - test_lo} steps cannot fit a {span}-step instance"
        )
    train_insts = training_instances(series, samples, selection.chosen,
                                     spec.lookback, spec.horizon,
                                     stride=settings.instance_stride)
    if not train_insts:
        raise EmptyBatch("selected samples are too short to yield any training instance")
    if settings.epochs > 0:
        result = train(model, train_insts, settings.epochs, settings.batch_size,
                       settings.optimizer(), seed, init_params=base_params)
        params = result.params
    else:
        params = np.array(base_params)
    test_insts = sliding_instances(series.values[test_lo:test_hi],
                                   spec.lookback, spec.horizon, stride=1)
    mse, mae = model.batch_metrics(params, test_insts)
    return EvalReport(mse=mse, mae=mae, strategy=selection.strategy,
                      ratio=selection.ratio, model_spec=spec,
                      dataset_id=series.origin,
                      wall_time=time.perf_counter() - start, seed=seed,
                      n_selected=len(selection.chosen),
                      n_train_instances=len(train_insts))


def inject_corruption(series: TimeSeries, fraction: float, kind: str,
                      magnitude: float, seed: int, block_length: int,
                      range_: tuple[int, int] | None = None
                      ) -> tuple[TimeSeries, CorruptionLabels]:
    """Corrupt a seeded choice of disjoint block-length tiles.

    ``gaussian_burst`` adds noise with the given std, ``level_shift`` adds a
    constant offset, ``constant_hold`` freezes each tile at its first row.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; pick one of {CORRUPTION_KINDS}")
    if not (0.0 <= fraction < 1.0):
        raise FractionTooLarge(f"fraction must lie in [0, 1), got {fraction}")
    lo, hi = range_ if range_ is not None else (0, series.length)
    n_tiles = (hi - lo) // block_length
    if n_tiles == 0:
        raise FractionTooLarge(f"range [{lo}, {hi}) holds no {block_length}-step tile")
    tile_starts = tuple(lo + i * block_length for i in range(n_tiles))
    n_corrupt = round(fraction * n_tiles)

    rng = np.random.default_rng(seed)
    corrupted = np.zeros(n_tiles, dtype=bool)
    if n_corrupt:
        corrupted[rng.choice(n_tiles, size=n_corrupt, replace=False)] = True

    values = series.values.copy()
    for i in np.flatnonzero(corrupted):
        s = tile_starts[i]
        tile = slice(s, s + block_length)
        if kind == "gaussian_burst":
            values[tile] += rng.normal(0.0, magnitude, size=values[tile].shape)
        elif kind == "level_shift":
            values[tile] += magnitude
        else:  # constant_hold
            values[tile] = values[s]
    labels = CorruptionLabels(kind=kind, magnitude=magnitude,
                              block_length=block_length,
                              tile_starts=tile_starts, corrupted=corrupted,
                              seed=seed)
    return TimeSeries(values, series.channel_names, series.origin + "+corrupted"), labels


def detection_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUROC of (-value) as a corruption detector (low value => corrupted).

    Rank statistic with average-rank tie correction.
    """
    values = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if values.shape != y.shape:
        raise LengthMismatch(f"{values.shape[0]} scores vs {y.shape[0]} labels")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise AllOneClass("need both corrupted and clean blocks to compute AUROC")
    ranks = average_ranks(-values)  # high rank = low score = flagged corrupted
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
