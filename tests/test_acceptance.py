"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines; each
test also enforces its wall-clock budget.
"""

import time

import numpy as np
import pytest

import tsvalue as tv
from tsvalue.experiments import ablate_block_length, bench_scaling, cross_model_generalization
from tsvalue.forecaster import ForecastInstance, Forecaster, ModelSpec, sliding_instances
from tsvalue.oracles import build_hessian, exact_influence, loo_linear_oracle, mc_shapley, rank_agreement
from tsvalue.pipeline import TrainSettings, fit_value_model, run_valuation
from tsvalue.selection import detection_auroc, finetune_and_eval, inject_corruption, select
from tsvalue.series import segment_blocks
from tsvalue.valuation import (
    ValuationConfig,
    aggregate_points,
    aggregate_samples,
    block_instances,
    block_value,
    grad_inner_influence,
)

from instance_sets import stack


@pytest.fixture
def report(request):
    """One printed line per criterion; re-emitted in the terminal summary."""
    def _report(number, description, detail, elapsed, budget):
        line = (f"PASS criterion {number}: {description} "
                f"[{detail}; {elapsed:.1f}s of {budget:.0f}s budget]")
        print(f"\n{line}")
        lines = getattr(request.config, "_acceptance_lines", [])
        request.config._acceptance_lines = lines + [line]
        assert elapsed < budget, f"runtime budget exceeded: {line}"
    return _report


# --- shared corrupted-corpus pipeline (criteria 4 and 5) ----------------------

CORPUS = dict(length=3600, noise_std=0.1, block_length=50, horizon=10,
              fraction=0.2, magnitude=0.3)


def corrupted_pipeline(seed):
    c = CORPUS
    series = tv.generate(tv.SyntheticSpec(generator="sine_mix", length=c["length"],
                                          channels=1, noise_std=c["noise_std"],
                                          seed=seed))
    split = tv.split_holdout(series, 0.3, min_target_length=c["block_length"])
    series, labels = inject_corruption(series, c["fraction"], "gaussian_burst",
                                       c["magnitude"], seed + 1000,
                                       block_length=c["block_length"],
                                       range_=(0, split.target_end))
    series = tv.normalize(series, tv.compute_norm_stats(series, split.target_end))
    target = series.slice(0, split.target_end)
    spec = ModelSpec("linear_ar", c["block_length"] - c["horizon"], c["horizon"], 1)
    model, params = fit_value_model(
        target, spec, TrainSettings(epochs=40, batch_size=32, learning_rate=0.01), seed)
    config = ValuationConfig(block_length=c["block_length"], stride=c["block_length"],
                             learning_rate=0.1, k_folds=5, seed=seed)
    run = run_valuation(target, config, model, params)
    return series, split, labels, model, params, run


@pytest.fixture(scope="module")
def corrupted_runs():
    return {seed: corrupted_pipeline(seed) for seed in range(5)}


# --- criteria -----------------------------------------------------------------

def test_criterion_1_first_order_check(report):
    start = time.perf_counter()
    spec = ModelSpec("linear_ar", 9, 1, 1)  # P = 10
    model = Forecaster(spec)
    assert spec.n_params <= 100
    rng = np.random.default_rng(0)
    passing = 0
    for _ in range(100):
        params = rng.normal(size=spec.n_params) * 0.5
        block = ForecastInstance(rng.normal(size=(9, 1)), rng.normal(size=(1, 1)))
        ctx = stack(ForecastInstance(rng.normal(size=(9, 1)), rng.normal(size=(1, 1)))
                    for _ in range(4))
        errs = {}
        for eta in (1e-2, 1e-3, 1e-4):
            config = ValuationConfig(block_length=10, learning_rate=eta)
            v = block_value(model, params, block, ctx, config)
            fo = grad_inner_influence(model, params, block, ctx, eta)
            errs[eta] = abs(v - fo)
        c = errs[1e-2] / 1e-4
        if c < 1e-14:
            passing += 1  # flat pair: both sides zero to machine precision
            continue
        ok = all(c * eta**2 / 3 <= errs[eta] <= 3 * c * eta**2
                 for eta in (1e-3, 1e-4))
        passing += ok
    assert passing >= 95
    report(1, "one-step loss change matches lr*<g_ctx,g_block> to O(lr^2)",
           f"{passing}/100 pairs obey the quadratic-shrink ratio test",
           time.perf_counter() - start, 10)


def test_criterion_2_oracle_fidelity(report):
    start = time.perf_counter()
    length, horizon, seed = 12, 1, 0
    series = tv.generate(tv.SyntheticSpec(generator="ar_process", length=700,
                                          channels=1, noise_std=0.5,
                                          ar_coeffs=(0.3,), seed=seed))
    split = tv.split_holdout(series, 0.3)
    series = tv.normalize(series, tv.compute_norm_stats(series, split.target_end))
    target = series.slice(0, split.target_end)
    spec = ModelSpec("linear_ar", length - horizon, horizon, 1)
    model, params = fit_value_model(
        target, spec, TrainSettings(epochs=150, batch_size=32, learning_rate=0.01), seed)
    stride = max(1, (target.length - length) // 99)
    blocks = segment_blocks((0, target.length), length, stride)
    scored = block_instances(target, blocks[0::2][:50], horizon)
    assert len(scored) == 50
    ctx = block_instances(target, blocks[1::2][:50], horizon)
    config = ValuationConfig(block_length=length, learning_rate=1e-5)
    one_step = [block_value(model, params, b, ctx, config) for b in scored]
    grad_inner = [grad_inner_influence(model, params, b, ctx, 1e-5) for b in scored]
    train_windows = sliding_instances(target.values, spec.lookback, horizon)
    hessian = build_hessian(model, params, train_windows, mode="analytic")
    exact = [exact_influence(model, params, b, ctx, hessian) for b in scored]
    sp_one = rank_agreement(one_step, exact)
    sp_grad = rank_agreement(grad_inner, exact)
    assert sp_one >= 0.8
    assert abs(sp_one - sp_grad) <= 0.05
    report(2, "loss-difference scores track the damped-Hessian influence oracle",
           f"Spearman(score, oracle) = {sp_one:.3f}, "
           f"|delta vs first-order| = {abs(sp_one - sp_grad):.4f}",
           time.perf_counter() - start, 60)


def _ridge_problem(seed, n=60, d=8, m=30, cond=30.0, noise=0.3, ridge=1.0):
    r = np.random.default_rng(seed)
    u, _ = np.linalg.qr(r.normal(size=(n, d)))
    v, _ = np.linalg.qr(r.normal(size=(d, d)))
    svals = np.geomspace(1.0, 1.0 / np.sqrt(cond), d) * np.sqrt(n)
    x = u @ np.diag(svals) @ v.T
    w = r.normal(size=d)
    y = x @ w + noise * r.normal(size=n)
    x_ctx = r.normal(size=(m, d)) @ v.T
    y_ctx = x_ctx @ w + noise * r.normal(size=m)
    return x, y, x_ctx, y_ctx, ridge


def test_criterion_3_loo_ground_truth(report):
    start = time.perf_counter()

    def fit(x, y, ridge):
        return np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ y)

    worst = 0.0
    for seed in range(20):
        x, y, x_ctx, y_ctx, ridge = _ridge_problem(seed)
        i = seed % len(y)
        closed = loo_linear_oracle(x, y, ridge, i, x_ctx, y_ctx)
        keep = np.arange(len(y)) != i
        b_full, b_red = fit(x, y, ridge), fit(x[keep], y[keep], ridge)
        brute = float(np.mean((x_ctx @ b_red - y_ctx) ** 2)
                      - np.mean((x_ctx @ b_full - y_ctx) ** 2))
        worst = max(worst, abs(closed - brute))
    assert worst <= 1e-8

    agree = total = 0
    for seed in range(10):
        x, y, x_ctx, y_ctx, ridge = _ridge_problem(seed)
        n, d = x.shape
        assert np.linalg.cond(x.T @ x + ridge * np.eye(d)) <= 1e3
        beta = fit(x, y, ridge)
        spec = ModelSpec("linear_ar", d, 1, 1, bias=False)
        model = Forecaster(spec)
        insts = stack(ForecastInstance(x[i][:, None], [[y[i]]]) for i in range(n))
        ctx = stack(ForecastInstance(x_ctx[i][:, None], [[y_ctx[i]]])
                    for i in range(len(y_ctx)))
        hessian = build_hessian(model, beta, insts, mode="analytic",
                                damping=2.0 * ridge / n)
        for i in range(n):
            loo = loo_linear_oracle(x, y, ridge, i, x_ctx, y_ctx)
            infl = exact_influence(model, beta, insts[i], ctx, hessian)
            agree += np.sign(loo) == np.sign(infl)
            total += 1
    fraction = agree / total
    assert fraction >= 0.9
    report(3, "closed-form LOO equals refit; influence sign matches LOO sign",
           f"refit gap {worst:.2e} <= 1e-8, sign agreement {fraction:.3f}",
           time.perf_counter() - start, 30)


def test_criterion_4_corruption_detection(corrupted_runs, report):
    start = time.perf_counter()
    aurocs = []
    for seed, (series, split, labels, model, params, run) in corrupted_runs.items():
        flags = labels.for_blocks([s.block for s in run.block_scores])
        aurocs.append(detection_auroc(run.block_scores, flags))
    mean_auroc = float(np.mean(aurocs))
    assert mean_auroc >= 0.8
    report(4, "corrupted blocks rank below clean blocks",
           f"AUROC per seed {[f'{a:.2f}' for a in aurocs]}, mean {mean_auroc:.3f}",
           time.perf_counter() - start, 300)


def test_criterion_5_selection_trend(corrupted_runs, report):
    start = time.perf_counter()
    finetune = TrainSettings(epochs=15, batch_size=16, learning_rate=0.01)
    same_wins = 0
    for seed, (series, split, labels, model, params, run) in corrupted_runs.items():
        mse = {}
        for strategy in ("top", "bottom"):
            sel = select(run.sample_scores, strategy, 0.5, seed=seed)
            rep = finetune_and_eval(model, params, sel, list(run.samples),
                                    series, split, finetune, seed=seed)
            mse[strategy] = rep.mse
        same_wins += mse["top"] < mse["bottom"]
    assert same_wins >= 4

    cross_wins = 0
    c = CORPUS
    for seed in range(5):
        series, split, labels, model, params, run = corrupted_runs[seed]
        value_spec = model.spec
        mlp_spec = ModelSpec("mlp", value_spec.lookback, value_spec.horizon, 1,
                             hidden=16, init_seed=seed)
        cells = cross_model_generalization(
            series, split, value_spec, mlp_spec, [0.2],
            ValuationConfig(block_length=c["block_length"],
                            stride=c["block_length"], learning_rate=0.1,
                            k_folds=5, seed=seed),
            TrainSettings(epochs=40, batch_size=32, learning_rate=0.01),
            finetune, strategies=("top", "bottom"), seed=seed)
        mse = {cell.strategy: cell.report.mse for cell in cells}
        cross_wins += mse["top"] < mse["bottom"]
    assert cross_wins >= 4
    report(5, "top-valued samples train better models than bottom-valued ones",
           f"same-model wins {same_wins}/5 at ratio 0.5, "
           f"cross-model wins {cross_wins}/5 at ratio 0.2",
           time.perf_counter() - start, 600)


def test_criterion_6_scaling(report):
    start = time.perf_counter()
    bench = bench_scaling([300, 1000, 3000, 10000, 30000],
                          methods=("one_step", "exact_influence"),
                          n_blocks=256, repeats=5, n_context=64, seed=0,
                          exact_limit=3000)
    one_step_slope = bench.slopes["one_step"]
    exact_slope = bench.slopes["exact_influence"]
    assert 0.7 <= one_step_slope <= 1.3
    assert exact_slope >= 2.0
    report(6, "one-step valuation scales ~linearly, dense influence >= quadratically",
           f"one-step slope {one_step_slope:.2f} in [0.7, 1.3], "
           f"exact slope {exact_slope:.2f} >= 2.0",
           time.perf_counter() - start, 900)


def test_criterion_7_shapley_axioms(report):
    start = time.perf_counter()
    spec = ModelSpec("linear_ar", 4, 1, 1)
    model = Forecaster(spec)
    rng = np.random.default_rng(0)
    w = rng.normal(size=4)
    insts = []
    for _ in range(6):
        x = rng.normal(size=4)
        insts.append(ForecastInstance(x[:, None], [[float(w @ x + 0.2 * rng.normal())]]))
    insts[5] = insts[4]  # symmetric pair
    insts = stack(insts)
    ctx = []
    for _ in range(8):
        x = rng.normal(size=4)
        ctx.append(ForecastInstance(x[:, None], [[float(w @ x)]]))
    ctx = stack(ctx)
    opt = tv.OptimizerConfig.default_for("adam", 0.05)

    def utility(subset):
        if not subset:
            return -model.batch_loss(np.zeros(spec.n_params), ctx)
        result = tv.train(model, insts[list(subset)], 10, 4, opt, seed=0)
        return -model.batch_loss(result.params, ctx)

    exact = mc_shapley(6, utility, mode="enumerate")
    efficiency_gap = abs(exact.total - (utility(tuple(range(6))) - utility(())))
    symmetry_gap = abs(exact.values[4] - exact.values[5])
    assert efficiency_gap <= 1e-12
    assert symmetry_gap <= 1e-12
    mc = mc_shapley(6, utility, n_permutations=300, seed=3)
    stderr = np.maximum(mc.stderr, 1e-12)
    z = np.abs(mc.values - exact.values) / stderr
    assert (z <= 2.0).all()
    report(7, "Shapley enumeration satisfies efficiency and symmetry; MC converges",
           f"efficiency gap {efficiency_gap:.1e}, symmetry gap {symmetry_gap:.1e}, "
           f"max MC z-score {z.max():.2f} <= 2",
           time.perf_counter() - start, 300)


def test_criterion_8_determinism_and_invariants(tmp_path, report):
    start = time.perf_counter()
    # byte-identical reruns of the score-writing command
    import json

    from tsvalue.cli import main
    cfg = {
        "dataset": {"synthetic": {"generator": "sine_mix", "length": 400,
                                  "noise_std": 0.1, "seed": 2}},
        "valuation": {"block_length": 20, "stride": 2, "k_folds": 3,
                      "learning_rate": 0.01},
        "model": {"architecture": "linear_ar", "horizon": 2},
        "pretrain": {"epochs": 8, "batch_size": 16, "learning_rate": 0.02},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["value", "--config", str(cfg_path)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(["value", "--config", str(cfg_path)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert first == second

    # affine invariance of top/bottom selections
    from tsvalue.series import SampleWindow
    from tsvalue.valuation import SampleScores
    rng = np.random.default_rng(0)
    values = rng.normal(size=21)
    windows = tuple(SampleWindow(i * 10, 10) for i in range(21))
    for strategy in ("top", "bottom"):
        base = select(SampleScores(windows=windows, values=values), strategy, 0.3)
        warped = select(SampleScores(windows=windows, values=2.5 * values + 7.0),
                        strategy, 0.3)
        assert base.chosen == warped.chosen

    # constant-score aggregation fixpoint
    from tsvalue.series import Block
    from tsvalue.valuation import BlockScore
    scores = [BlockScore(Block(s, 5), 0.42, 0) for s in range(16)]
    points = aggregate_points(scores, 20)
    np.testing.assert_allclose(points.values[points.scored_mask()], 0.42)
    samples = aggregate_samples(points, [SampleWindow(0, 10), SampleWindow(10, 10)])
    np.testing.assert_allclose(samples.values, 0.42)

    # analytic gradient vs central finite differences
    spec = ModelSpec("mlp", 5, 2, 2, hidden=6, init_seed=4)
    model = Forecaster(spec)
    params = model.init_params() + 0.2 * rng.normal(size=spec.n_params)
    inst = ForecastInstance(rng.normal(size=(5, 2)), rng.normal(size=(2, 2)))
    g = model.batch_grad(params, inst).grad
    eps = 1e-5
    fd = np.empty_like(g)
    for j in range(spec.n_params):
        up, down = params.copy(), params.copy()
        up[j] += eps
        down[j] -= eps
        fd[j] = (model.batch_loss(up, inst) - model.batch_loss(down, inst)) / (2 * eps)
    rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-3 * np.abs(g).max())
    assert rel.max() <= 1e-5
    report(8, "byte-identical reruns; affine/rank invariants; gradient oracle",
           f"score files identical, max grad rel err {rel.max():.1e} <= 1e-5",
           time.perf_counter() - start, 120)


def test_criterion_9_block_length_ablation(report):
    start = time.perf_counter()
    lengths = [50, 75, 100, 125]
    mse = {(length, strat): [] for length in lengths for strat in ("top", "bottom")}
    for seed in range(3):
        series = tv.generate(tv.SyntheticSpec(generator="sine_mix", length=3600,
                                              channels=1, noise_std=0.1, seed=seed))
        split = tv.split_holdout(series, 0.3, min_target_length=max(lengths))
        series, _ = inject_corruption(series, 0.2, "gaussian_burst", 0.3,
                                      seed + 1000, block_length=50,
                                      range_=(0, split.target_end))
        series = tv.normalize(series, tv.compute_norm_stats(series, split.target_end))
        template = ModelSpec("linear_ar", 40, 10, 1)
        cells = ablate_block_length(
            series, split, lengths, template,
            ValuationConfig(block_length=50, stride=1, learning_rate=0.1,
                            k_folds=5, context_cap=256, seed=seed),
            TrainSettings(epochs=40, batch_size=32, learning_rate=0.01),
            TrainSettings(epochs=15, batch_size=16, learning_rate=0.01),
            ratio=0.2, strategies=("top", "bottom"), seed=seed)
        for cell in cells:
            mse[(cell.block_length, cell.strategy)].append(cell.report.mse)
    wins = sum(np.mean(mse[(length, "top")]) < np.mean(mse[(length, "bottom")])
               for length in lengths)
    assert wins >= 3
    report(9, "top selection beats bottom across the block-length grid",
           f"seed-mean top<bottom in {wins}/4 columns over 3 seeds",
           time.perf_counter() - start, 900)
