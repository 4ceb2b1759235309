"""Data valuation for time series forecasting.

Scores blocks, points, and samples of a series by the context-loss change
after one-step finetuning of a small differentiable forecaster, validates
the scores against influence/leave-one-out/Shapley oracles, and turns them
into data selections and experiment grids.
"""

from .errors import ConfigError, DataError, NumericError, TsvalueError
from .forecaster import (
    ForecastInstance,
    Forecaster,
    GradientResult,
    ModelSpec,
    OptimizerConfig,
    OptimizerState,
    TrainResult,
    load_model,
    optimizer_step,
    save_model,
    sliding_instances,
    train,
)
from .oracles import (
    HessianMatrix,
    ShapleyEstimate,
    brute_force_retrain,
    build_hessian,
    exact_influence,
    loo_linear_oracle,
    mc_shapley,
    rank_agreement,
)
from .pipeline import TrainSettings, ValuationRun, fit_value_model, run_valuation
from .selection import (
    CorruptionLabels,
    EvalReport,
    SelectionResult,
    detection_auroc,
    finetune_and_eval,
    inject_corruption,
    select,
)
from .series import (
    FoldPlan,
    HoldoutSplit,
    NormStats,
    SampleWindow,
    TimeSeries,
    compute_norm_stats,
    enumerate_samples,
    load_csv,
    make_folds,
    normalize,
    segment_blocks,
    split_holdout,
)
from .synthetic import SyntheticSpec, generate
from .valuation import (
    BlockScores,
    PointScores,
    SampleScores,
    ValuationConfig,
    aggregate_points,
    aggregate_samples,
    block_instances,
    grad_inner_influence,
    value_all_blocks,
)

__version__ = "0.1.0"
