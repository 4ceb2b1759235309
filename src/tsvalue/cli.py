"""Command-line surface: synth | value | oracle-compare | select-eval | ablate | bench | generalize.

All parameters come from a JSON config file; --seed and --out override the
matching scalar fields. Exit codes: 1 config error, 2 data error, 3 numerical
failure, each with one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, DataError, NumericError, TsvalueError
from .experiments import bench_scaling
from .forecaster import Forecaster, ModelSpec, load_model, save_model, sliding_instances
from .oracles import (
    build_hessian,
    check_enumerable,
    default_ridge,
    exact_influence,
    loo_linear_oracle,
    mc_shapley,
    rank_agreement,
)
from .pipeline import TrainSettings, ValuationRun, fit_value_model, run_valuation, spec_for_block_length
from .reports import (
    write_ablation,
    write_bench,
    write_csv,
    write_eval_reports,
    write_generalization,
    write_json,
    write_scores,
)
from .selection import (
    CorruptionLabels,
    EvalReport,
    check_test_range,
    detection_auroc,
    finetune_and_eval,
    inject_corruption,
    select,
)
from .series import (
    HoldoutSplit,
    TimeSeries,
    compute_norm_stats,
    load_csv,
    normalize,
    segment_blocks,
    split_holdout,
)
from .synthetic import generate
from .valuation import (
    ValuationConfig,
    block_instances,
    check_coverage,
    grad_inner_influence,
    score_blocks_batch,
)

OUTPUT_DIR_ENV = "TSVALUE_OUT"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        cfg = RunConfig.load(args.config, seed=args.seed, output_dir=_resolve_out(args))
        if args.command in ("ablate", "generalize") and cfg.model.checkpoint is not None:
            raise ConfigError(f"{args.command} trains its own value models and reads no "
                              f"model.checkpoint; remove it")
        if args.command == "ablate":  # other commands accept any grid: they never read it
            for length in cfg.ablation.block_lengths:
                cfg.model.spec(length, channels=1)
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out_dir)
        return 0
    except ConfigError as exc:
        return _fail(1, exc)
    except DataError as exc:
        return _fail(2, exc)
    except NumericError as exc:
        return _fail(3, exc)


def _fail(code: int, exc: TsvalueError) -> int:
    detail = str(exc).replace('"', "'").replace("\n", " ")
    print(f'tsvalue: exit={code} kind={type(exc).__name__} detail="{detail}"',
          file=sys.stderr)
    return code


def _resolve_out(args) -> str | None:
    if args.out is not None:
        return args.out
    return os.environ.get(OUTPUT_DIR_ENV)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvalue",
        description="Time series data valuation via one-step finetuning, "
                    "with oracle validation and selection experiments.")
    parser.add_argument("--version", action="version", version=f"tsvalue {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("synth", "write a synthetic dataset CSV"),
        ("value", "score blocks, points, and samples"),
        ("oracle-compare", "rank-agreement matrix of valuation methods"),
        ("select-eval", "select by score, finetune, evaluate on the test split"),
        ("ablate", "repeat the pipeline over a block-length grid"),
        ("bench", "wall-clock scaling of valuation methods vs model size"),
        ("generalize", "value with one model, train another on the selection"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (or ${OUTPUT_DIR_ENV}; else config)")
    return parser


# --- shared preparation -------------------------------------------------------

@dataclass(frozen=True)
class PreparedData:
    series: TimeSeries          # post-corruption, post-normalization
    split: HoldoutSplit
    target: TimeSeries
    labels: CorruptionLabels | None


def _prepare(cfg: RunConfig, block_length: int | None = None) -> PreparedData:
    if cfg.dataset.path is not None:
        series = load_csv(cfg.dataset.path)
    else:
        series = generate(cfg.dataset.synthetic)
    length = block_length if block_length is not None else cfg.valuation.block_length
    split = split_holdout(series, cfg.test_fraction, min_target_length=length)
    labels = None
    if cfg.corruption.active:
        series, labels = inject_corruption(
            series, cfg.corruption.fraction, cfg.corruption.kind,
            cfg.corruption.magnitude, cfg.corruption.seed,
            block_length=length, range_=(0, split.target_end))
    if cfg.normalize:
        stats = compute_norm_stats(series, split.target_end)
        series = normalize(series, stats)
    return PreparedData(series=series, split=split,
                        target=series.slice(0, split.target_end), labels=labels)


def _value_model(cfg: RunConfig, target: TimeSeries) -> tuple[Forecaster, np.ndarray]:
    spec = cfg.model.spec(cfg.valuation.block_length, target.n_channels)
    if cfg.model.checkpoint:
        loaded_spec, params = load_model(cfg.model.checkpoint)
        if loaded_spec != spec:
            raise ConfigError(
                f"checkpoint spec {loaded_spec} does not match configured spec {spec}")
        return Forecaster(spec), params
    print(f"tsvalue: training value model ({spec.architecture}, P={spec.n_params})")
    return fit_value_model(target, spec, cfg.pretrain, cfg.seed)


# --- the select-and-evaluate path ---------------------------------------------

def select_and_evaluate(run: ValuationRun, series: TimeSeries, split: HoldoutSplit,
                        strategies: tuple[str, ...], ratios: tuple[float, ...],
                        finetune: TrainSettings, seed: int,
                        downstream: tuple[Forecaster, np.ndarray] | None = None
                        ) -> list[EvalReport]:
    """Select samples by ``run``'s scores, finetune, evaluate: one report per ratio x strategy.

    Every selection finetunes the same starting point: the value model
    ``run.model``/``run.params``, or the ``(model, params)`` downstream pair.
    """
    model, params = downstream if downstream is not None else (run.model, run.params)
    return [finetune_and_eval(model, params, select(run.sample_scores, strategy, ratio, seed=seed),
                              list(run.samples), series, split, finetune, seed=seed)
            for ratio in ratios for strategy in strategies]


def ablate_block_length(series: TimeSeries, split: HoldoutSplit,
                        block_lengths: list[int], model_template: ModelSpec,
                        config: ValuationConfig, pretrain: TrainSettings,
                        finetune: TrainSettings, ratio: float = 0.2,
                        strategies: tuple[str, ...] = ("top", "bottom", "random"),
                        seed: int = 0) -> list[EvalReport]:
    """Fit, value, select and evaluate at each block length.

    Every length is checked (model spec, sample coverage and test range)
    before the first model is fitted, so a bad grid fails with its typed
    error at once.
    """
    target = series.slice(0, split.target_end)
    configs = [replace(config, block_length=length, seed=seed) for length in block_lengths]
    specs = [spec_for_block_length(model_template, length) for length in block_lengths]
    for vcfg in configs:
        check_coverage(target.length, vcfg)
    check_test_range(split, max(block_lengths))  # a block is one finetuning instance
    reports = []
    for vcfg, spec in zip(configs, specs):
        run = run_valuation(target, vcfg, *fit_value_model(target, spec, pretrain, seed))
        reports += select_and_evaluate(run, series, split, strategies, (ratio,), finetune, seed)
    return reports


def cross_model_generalization(series: TimeSeries, split: HoldoutSplit,
                               value_spec: ModelSpec, downstream_spec: ModelSpec,
                               ratios: list[float], config: ValuationConfig,
                               pretrain: TrainSettings, finetune: TrainSettings,
                               strategies: tuple[str, ...] = ("top", "bottom", "random"),
                               seed: int = 0) -> list[EvalReport]:
    """Score with one model, finetune another on the selections.

    The downstream model is pretrained on the full target split first; with
    identical specs this reduces to the single-model pipeline.
    """
    target = series.slice(0, split.target_end)
    run = run_valuation(target, config, *fit_value_model(target, value_spec, pretrain, seed))
    downstream = fit_value_model(target, downstream_spec, pretrain, seed)
    return select_and_evaluate(run, series, split, strategies, ratios, finetune, seed,
                               downstream=downstream)


# --- commands -----------------------------------------------------------------

def cmd_synth(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.dataset.synthetic is None:
        raise ConfigError("synth needs a dataset.synthetic section")
    series = generate(cfg.dataset.synthetic)
    path = out_dir / "dataset.csv"
    write_csv(path, cfg.config_hash, list(series.channel_names), series.values.tolist())
    print(f"tsvalue: wrote {path} ({series.length} rows x {series.n_channels} channels)")


def cmd_value(cfg: RunConfig, out_dir: Path) -> None:
    prep = _prepare(cfg)
    check_coverage(prep.target.length, cfg.valuation)
    model, params = _value_model(cfg, prep.target)
    save_model(out_dir / "value_model.json", model.spec, params,
               meta={"version": __version__, "config_hash": cfg.config_hash})
    run = run_valuation(prep.target, cfg.valuation, model, params)
    paths = write_scores(out_dir, cfg.config_hash, cfg.normalized(),
                         run.block_scores, run.point_scores, run.sample_scores)
    if prep.labels is not None:
        blocks = run.block_scores
        flags = prep.labels.for_blocks(blocks.starts, blocks.length)
        doc = {"n_blocks": len(blocks), "n_corrupted": int(flags.sum())}
        if 0 < flags.sum() < len(blocks):
            doc["auroc"] = detection_auroc(blocks.values, flags)
        write_json(out_dir / "detection.json", cfg.config_hash, doc)
    for p in paths:
        print(f"tsvalue: wrote {p}")


def cmd_select_eval(cfg: RunConfig, out_dir: Path) -> None:
    prep = _prepare(cfg)
    check_coverage(prep.target.length, cfg.valuation)
    check_test_range(prep.split, cfg.valuation.block_length)
    model, params = _value_model(cfg, prep.target)
    run = run_valuation(prep.target, cfg.valuation, model, params)
    reports = select_and_evaluate(run, prep.series, prep.split, cfg.selection.strategies,
                                  (cfg.selection.ratio,), cfg.finetune, cfg.seed)
    for r in reports:
        print(f"tsvalue: {r.strategy:<7} mse={r.mse:.6g} mae={r.mae:.6g}")
    path = write_eval_reports(out_dir, "select_eval", cfg.config_hash, reports)
    print(f"tsvalue: wrote {path}")


def cmd_oracle_compare(cfg: RunConfig, out_dir: Path) -> None:
    prep = _prepare(cfg)
    oc = cfg.oracle_compare
    scored, context = _oracle_blocks(cfg, prep.target.length)
    model, params = _value_model(cfg, prep.target)
    horizon = model.spec.horizon
    length = cfg.valuation.block_length
    scored_insts = block_instances(prep.target, scored, length, horizon)
    context_insts = block_instances(prep.target, context, length, horizon)

    train_insts = sliding_instances(prep.target.values, model.spec.lookback,
                                    horizon, stride=1)
    scores: dict[str, list[float]] = {}
    for method in oc.methods:
        try:
            scores[method] = _oracle_scores(method, cfg, model, params,
                                            scored_insts, context_insts, train_insts)
        except NumericError as exc:  # keep the class and its data, name the method
            exc.args = (f"method={method}: {exc}",)
            raise
        print(f"tsvalue: scored {len(scored_insts)} blocks with {method}")

    methods = list(scores)

    def matrix(kind):
        return {a: {b: 1.0 if a == b else rank_agreement(scores[a], scores[b], kind)
                    for b in methods} for a in methods}

    spearman = matrix("spearman")
    sign = matrix("sign_match")
    write_json(out_dir / "oracle_compare.json", cfg.config_hash, {
        "config": cfg.normalized(),
        "methods": methods,
        "n_blocks": len(scored_insts),
        "spearman": spearman,
        "sign_match": sign,
        "scores": scores,
    })
    print(f"tsvalue: wrote {out_dir / 'oracle_compare.json'}")


def _oracle_blocks(cfg: RunConfig, t_target: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts of the scored and context blocks (alternate blocks of the target),
    checked before training."""
    oc = cfg.oracle_compare
    length = cfg.valuation.block_length
    stride = oc.stride
    if stride is None:
        stride = max(1, (t_target - length) // max(1, 2 * oc.max_blocks - 1))
    starts = segment_blocks((0, t_target), length, stride)
    scored = starts[0::2][:oc.max_blocks]
    context = starts[1::2][:oc.context_cap]
    if len(scored) < oc.min_blocks or not len(context):
        raise DataError(f"target split too short: {len(scored)} scored and {len(context)} "
                        f"context blocks, need {oc.min_blocks} and 1")
    if "shapley" in oc.methods and oc.shapley_mode == "enumerate":
        check_enumerable(len(scored))
    return scored, context


def _oracle_scores(method: str, cfg: RunConfig, model, params,
                   scored_insts, context_insts, train_insts) -> list[float]:
    vcfg = cfg.valuation
    oc = cfg.oracle_compare
    if method == "one_step":
        return score_blocks_batch(model, params, scored_insts, context_insts, vcfg).tolist()
    if method == "grad_inner":
        return grad_inner_influence(model, params, scored_insts, context_insts,
                                    vcfg.learning_rate).tolist()
    if method == "exact_influence":
        # empirical-loss Hessian over the model's whole training window set
        mode = "analytic" if model.spec.architecture == "linear_ar" else "finite_diff"
        hess = build_hessian(model, params, train_insts, mode=mode)
        return exact_influence(model, params, scored_insts, context_insts, hess).tolist()
    if method == "loo":  # the config admits it only for the linear model
        # the loo oracle refits a ridge system over the scored instances
        x, y = model.design_matrix(scored_insts)
        x_ctx, y_ctx = model.design_matrix(context_insts)
        return loo_linear_oracle(x, y, default_ridge(x, model.spec.n_params),
                                 x_ctx, y_ctx).tolist()
    if method == "shapley":
        from .forecaster import train as train_fn

        def utility(subset: tuple[int, ...]) -> float:
            if not subset:
                return -model.batch_loss(params, context_insts)
            result = train_fn(model, scored_insts[list(subset)], oc.shapley_epochs, 8,
                              cfg.finetune.optimizer(), cfg.seed,
                              init_params=params)
            return -model.batch_loss(result.params, context_insts)

        est = mc_shapley(len(scored_insts), utility,
                         n_permutations=oc.shapley_permutations, seed=cfg.seed,
                         mode=oc.shapley_mode)
        return [float(v) for v in est.values]
    raise ConfigError(f"unknown oracle-compare method {method!r}")


def cmd_ablate(cfg: RunConfig, out_dir: Path) -> None:
    prep = _prepare(cfg, block_length=max(cfg.ablation.block_lengths))
    template = cfg.model.spec(cfg.ablation.block_lengths[0], prep.series.n_channels)
    reports = ablate_block_length(prep.series, prep.split,
                                  list(cfg.ablation.block_lengths), template,
                                  cfg.valuation, cfg.pretrain, cfg.finetune,
                                  ratio=cfg.ablation.ratio,
                                  strategies=cfg.ablation.strategies,
                                  seed=cfg.seed)
    path = write_ablation(out_dir, cfg.config_hash, reports)
    print(f"tsvalue: wrote {path} and {out_dir / 'ablation_table.csv'}")


def cmd_bench(cfg: RunConfig, out_dir: Path) -> None:
    report = bench_scaling(list(cfg.bench.p_list), methods=cfg.bench.methods,
                           n_blocks=cfg.bench.n_blocks, repeats=cfg.bench.repeats,
                           n_context=cfg.bench.n_context, seed=cfg.seed,
                           exact_limit=cfg.bench.exact_limit)
    for method, slope in report.slopes.items():
        print(f"tsvalue: {method} log-log slope {slope:.3f}")
    path = write_bench(out_dir, cfg.config_hash, report)
    print(f"tsvalue: wrote {path}")


def cmd_generalize(cfg: RunConfig, out_dir: Path) -> None:
    prep = _prepare(cfg)
    check_coverage(prep.target.length, cfg.valuation)
    check_test_range(prep.split, cfg.valuation.block_length)
    value_spec = cfg.model.spec(cfg.valuation.block_length, prep.series.n_channels)
    downstream_spec = cfg.downstream_model.spec(cfg.valuation.block_length,
                                                prep.series.n_channels)
    reports = cross_model_generalization(prep.series, prep.split, value_spec,
                                         downstream_spec, list(cfg.generalize.ratios),
                                         cfg.valuation, cfg.pretrain, cfg.finetune,
                                         strategies=cfg.generalize.strategies,
                                         seed=cfg.seed)
    path = write_generalization(out_dir, cfg.config_hash, reports)
    print(f"tsvalue: wrote {path}")


_COMMANDS = {
    "synth": cmd_synth,
    "value": cmd_value,
    "oracle-compare": cmd_oracle_compare,
    "select-eval": cmd_select_eval,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
    "generalize": cmd_generalize,
}


if __name__ == "__main__":
    sys.exit(main())
