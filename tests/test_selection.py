from dataclasses import replace

import numpy as np
import pytest

from tsvalue import errors
from tsvalue.cli import ablate_block_length, cross_model_generalization, select_and_evaluate
from tsvalue.experiments import (
    _openblas_thread_controls,
    _single_threaded_blas,
    bench_scaling,
    mlp_spec_for_params,
)
from tsvalue.forecaster import Forecaster, ModelSpec
from tsvalue.pipeline import TrainSettings, fit_value_model, run_valuation
from tsvalue.selection import (
    detection_auroc,
    finetune_and_eval,
    inject_corruption,
    select,
    training_instances,
)
from tsvalue.series import (
    SampleWindow,
    TimeSeries,
    enumerate_samples,
    segment_blocks,
    split_holdout,
)
from tsvalue.synthetic import SyntheticSpec, generate
from tsvalue.valuation import SampleScores, ValuationConfig


def scores_of(values, length=4):
    windows = tuple(SampleWindow(i * length, length) for i in range(len(values)))
    return SampleScores(windows=windows, values=np.asarray(values, dtype=float))


class TestSelect:
    def test_top_is_argmax(self):
        sel = select(scores_of([0.5, 0.1, 0.9]), "top", 1 / 3)
        assert sel.chosen == (2,)

    def test_bottom_is_argmin(self):
        sel = select(scores_of([0.5, 0.1, 0.9]), "bottom", 1 / 3)
        assert sel.chosen == (1,)

    def test_half_ratio_takes_half(self):
        sel = select(scores_of(np.arange(10)), "top", 0.5)
        assert len(sel.chosen) == 5
        assert sel.chosen == (5, 6, 7, 8, 9)

    def test_ties_break_by_ascending_start(self):
        sel = select(scores_of([1.0, 1.0, 1.0, 0.0]), "top", 0.5)
        assert sel.chosen == (0, 1)

    def test_random_deterministic_under_seed(self):
        a = select(scores_of(np.arange(20)), "random", 0.3, seed=5)
        b = select(scores_of(np.arange(20)), "random", 0.3, seed=5)
        assert a.chosen == b.chosen and len(a.chosen) == 6

    def test_full_ignores_ratio(self):
        sel = select(scores_of(np.arange(7)), "full", 0.1)
        assert sel.chosen == tuple(range(7))

    def test_clamps_to_at_least_one(self):
        sel = select(scores_of(np.arange(5)), "top", 0.01)
        assert len(sel.chosen) == 1

    def test_empty_scores(self):
        with pytest.raises(errors.EmptyScores):
            select(scores_of([]), "top", 0.5)

    def test_top_bottom_disjoint_at_half(self):
        values = np.random.default_rng(0).normal(size=11)
        top = select(scores_of(values), "top", 0.5)
        bottom = select(scores_of(values), "bottom", 0.5)
        assert not (set(top.chosen) & set(bottom.chosen))

    def test_invariant_under_increasing_transform(self):
        values = np.random.default_rng(1).normal(size=15)
        for strategy in ("top", "bottom"):
            base = select(scores_of(values), strategy, 0.4)
            warped = select(scores_of(np.exp(3 * values)), strategy, 0.4)
            assert base.chosen == warped.chosen


def tiny_pipeline(seed=0, t=240, L=12, corrupted=False):
    series = generate(SyntheticSpec(generator="sine_mix", length=t, channels=1,
                                    noise_std=0.05, seed=seed))
    split = split_holdout(series, 0.3, min_target_length=L)
    labels = None
    if corrupted:
        series, labels = inject_corruption(series, 0.25, "gaussian_burst", 0.15,
                                           seed + 99, block_length=L,
                                           range_=(0, split.target_end))
    target = series.slice(0, split.target_end)
    spec = ModelSpec("linear_ar", L - 2, 2, 1)
    model, params = fit_value_model(
        target, spec, TrainSettings(epochs=10, batch_size=16, learning_rate=0.02), seed)
    config = ValuationConfig(block_length=L, stride=L, learning_rate=0.05,
                             k_folds=3, seed=seed)
    run = run_valuation(target, config, model, params)
    return series, split, model, params, run, labels


class TestFinetuneAndEval:
    def test_deterministic(self):
        series, split, model, params, run, _ = tiny_pipeline()
        sel = select(run.sample_scores, "full", 1.0)
        settings = TrainSettings(epochs=3, batch_size=8, learning_rate=0.01)
        a = finetune_and_eval(model, params, sel, list(run.samples), series,
                              split, settings, seed=1)
        b = finetune_and_eval(model, params, sel, list(run.samples), series,
                              split, settings, seed=1)
        assert a.mse == b.mse and a.mae == b.mae

    def test_zero_epochs_is_pretrained_baseline(self):
        series, split, model, params, run, _ = tiny_pipeline()
        sel = select(run.sample_scores, "full", 1.0)
        settings = TrainSettings(epochs=0, batch_size=8, learning_rate=0.01)
        rep = finetune_and_eval(model, params, sel, list(run.samples), series,
                                split, settings, seed=0)
        from tsvalue.forecaster import sliding_instances
        lo, hi = split.test_range
        test_insts = sliding_instances(series.values[lo:hi], model.spec.lookback,
                                       model.spec.horizon)
        mse, mae = model.batch_metrics(params, test_insts)
        assert rep.mse == mse and rep.mae == mae

    def test_constant_series_is_exactly_learnable(self):
        values = np.full((60, 1), 3.7)
        series = TimeSeries(values, ("a",))
        split = split_holdout(series, 0.3)
        spec = ModelSpec("linear_ar", 4, 1, 1, bias=True)
        model = Forecaster(spec)
        samples = [SampleWindow(0, 14), SampleWindow(14, 14)]
        sel = select(SampleScores(windows=tuple(samples),
                                  values=np.zeros(2)), "full", 1.0)
        settings = TrainSettings(epochs=100, batch_size=4, learning_rate=0.01,
                                 optimizer_kind="sgd")
        rep = finetune_and_eval(model, model.init_params(), sel, samples,
                                series, split, settings, seed=0)
        assert rep.mse <= 1e-12 and rep.mae <= 1e-6

    def test_test_range_too_short(self):
        series, split, model, params, run, _ = tiny_pipeline()
        short = type(split)(target_end=series.length - 2, total=series.length)
        sel = select(run.sample_scores, "full", 1.0)
        with pytest.raises(errors.TestRangeTooShort):
            finetune_and_eval(model, params, sel, list(run.samples), series,
                              short, TrainSettings(epochs=1), seed=0)

    def test_training_never_reads_test_range(self):
        series, split, model, params, run, _ = tiny_pipeline()
        sel = select(run.sample_scores, "top", 0.5)
        settings = TrainSettings(epochs=3, batch_size=8, learning_rate=0.01)
        doctored = series.values.copy()
        doctored[split.target_end:] += 123.0  # poison the test range
        poisoned = TimeSeries(doctored, series.channel_names)
        from tsvalue.forecaster import train
        from tsvalue.selection import training_instances
        for data in (series, poisoned):
            insts = training_instances(data, list(run.samples), sel.chosen,
                                       model.spec.lookback, model.spec.horizon)
            result = train(model, insts, 3, 8, settings.optimizer(), seed=0,
                           init_params=params)
            if data is series:
                reference = result.params
        np.testing.assert_array_equal(result.params, reference)

    def test_metrics_never_read_target_range(self):
        series, split, model, params, run, _ = tiny_pipeline()
        doctored = series.values.copy()
        doctored[:split.target_end] -= 55.0  # poison the target range
        poisoned = TimeSeries(doctored, series.channel_names)
        from tsvalue.forecaster import sliding_instances
        lo, hi = split.test_range
        for data in (series, poisoned):
            insts = sliding_instances(data.values[lo:hi], model.spec.lookback,
                                      model.spec.horizon)
            metrics = model.batch_metrics(params, insts)
            if data is series:
                reference = metrics
        assert metrics == reference


class TestTrainingInstances:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_stays_inside_chosen_samples(self, stride):
        # values equal their time index, so each window shows where it was cut
        series = TimeSeries(np.arange(100, dtype=float)[:, None], ("t",))
        samples = enumerate_samples((0, 100), 20)
        chosen = (0, 2, 3)
        lookback, horizon = 5, 2
        insts = training_instances(series, samples, chosen, lookback, horizon, stride=stride)
        per_sample = (20 - (lookback + horizon)) // stride + 1
        assert len(insts) == len(chosen) * per_sample
        windows = np.concatenate([insts.input, insts.target], axis=1)[:, :, 0]
        np.testing.assert_array_equal(np.diff(windows, axis=1), 1.0)  # contiguous windows
        starts = windows[:, 0].astype(int)
        expected = [s for i in chosen
                    for s in range(samples[i].start, samples[i].stop - 6, stride)]
        np.testing.assert_array_equal(starts, expected)
        sample_of = starts // 20
        assert np.all((windows[:, -1] // 20) == sample_of)  # never crosses a boundary
        assert set(sample_of) == set(chosen)


class TestInjectCorruption:
    def series(self, t=200, seed=0):
        rng = np.random.default_rng(seed)
        return TimeSeries(rng.normal(size=(t, 2)), ("a", "b"))

    def test_fraction_zero_is_noop(self):
        ts = self.series()
        out, labels = inject_corruption(ts, 0.0, "gaussian_burst", 1.0, 0, 20)
        np.testing.assert_array_equal(out.values, ts.values)
        assert not labels.corrupted.any()

    def test_exact_count(self):
        ts = self.series(t=1000)
        _, labels = inject_corruption(ts, 0.2, "gaussian_burst", 1.0, 0, 10)
        assert labels.corrupted.sum() == 20
        assert len(labels.tile_starts) == 100

    def test_zero_magnitude_labels_still_set(self):
        ts = self.series()
        out, labels = inject_corruption(ts, 0.3, "gaussian_burst", 0.0, 1, 20)
        np.testing.assert_array_equal(out.values, ts.values)
        assert labels.corrupted.sum() == 3

    def test_level_shift_adds_offset(self):
        ts = self.series()
        out, labels = inject_corruption(ts, 0.1, "level_shift", 5.0, 2, 20)
        (start, length), = labels.regions
        np.testing.assert_allclose(out.values[start:start + length],
                                   ts.values[start:start + length] + 5.0)

    def test_constant_hold_freezes(self):
        ts = self.series()
        out, labels = inject_corruption(ts, 0.1, "constant_hold", 0.0, 3, 20)
        (start, length), = labels.regions
        np.testing.assert_array_equal(
            out.values[start:start + length],
            np.tile(ts.values[start], (length, 1)))

    def test_fraction_too_large(self):
        ts = self.series()
        with pytest.raises(errors.FractionTooLarge):
            inject_corruption(ts, 1.0, "gaussian_burst", 1.0, 0, 20)

    def test_deterministic(self):
        ts = self.series()
        a, la = inject_corruption(ts, 0.2, "gaussian_burst", 1.0, 7, 20)
        b, lb = inject_corruption(ts, 0.2, "gaussian_burst", 1.0, 7, 20)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(la.corrupted, lb.corrupted)

    def test_range_restricts_tiles(self):
        ts = self.series()
        out, labels = inject_corruption(ts, 0.5, "level_shift", 9.0, 5, 20,
                                        range_=(0, 100))
        assert all(s + l <= 100 for s, l in labels.regions)
        np.testing.assert_array_equal(out.values[100:], ts.values[100:])


class TestDetectionAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([True, True, False, False])
        assert detection_auroc(scores, labels) == 1.0

    def test_reversed_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([True, True, False, False])
        assert detection_auroc(scores, labels) == 0.0

    def test_null_is_half_within_three_sigma(self):
        rng = np.random.default_rng(0)
        n = 600
        scores = rng.normal(size=n)
        labels = np.zeros(n, dtype=bool)
        labels[rng.choice(n, size=120, replace=False)] = True
        n_pos, n_neg = 120, 480
        sigma = np.sqrt((n_pos + n_neg + 1) / (12 * n_pos * n_neg))
        assert abs(detection_auroc(scores, labels) - 0.5) <= 3 * sigma

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = rng.random(50) < 0.3
        a = detection_auroc(scores, labels)
        b = detection_auroc(np.tanh(scores) * 7 + 2, labels)
        assert a == b

    def test_all_one_class(self):
        with pytest.raises(errors.AllOneClass):
            detection_auroc(np.ones(4), np.ones(4, dtype=bool))

    def test_tie_correction(self):
        scores = np.zeros(6)
        labels = np.array([True, True, False, False, False, True])
        assert detection_auroc(scores, labels) == 0.5


def overlap_reference(labels, starts, length):
    """Corrupted indices of each block, one block and one corrupted region at a time."""
    return np.array([sum(max(0, min(s + length, r + n) - max(s, r)) for r, n in labels.regions)
                     for s in starts], dtype=np.int64)


def corruption_labels(t, tile, fraction, seed, range_):
    ts = TimeSeries(np.arange(float(t))[:, None], ("a",))
    return inject_corruption(ts, fraction, "level_shift", 1.0, seed, tile, range_=range_)[1]


class TestLabelsForBlocks:
    def test_overlap_threshold(self):
        labels = corruption_labels(100, 50, 0.5, 0, (0, 100))
        (tile, _), = labels.regions
        starts = np.arange(51)
        overlap = overlap_reference(labels, starts, 50)
        flags = labels.for_blocks(starts, 50)
        np.testing.assert_array_equal(flags, overlap >= 25)
        # exactly min_overlap * L is corrupted; one step less is clean
        assert flags[overlap == 25].tolist() == [True]
        assert flags[overlap == 24].tolist() == [False]
        assert flags[starts == tile].tolist() == [True]

    @pytest.mark.parametrize("min_overlap", [0.25, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("length", [3, 7, 20, 33])
    def test_matches_the_per_block_reference(self, length, min_overlap):
        # tiles in [10, 150) only; blocks run over the whole series
        labels = corruption_labels(200, 20, 0.4, 3, (10, 150))
        starts = segment_blocks((0, 200), length, 1)
        want = overlap_reference(labels, starts, length) >= min_overlap * length
        got = labels.for_blocks(starts, length, min_overlap)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)
        assert got.any() and not got.all()

    def test_no_blocks(self):
        labels = corruption_labels(100, 50, 0.5, 0, (0, 100))
        assert labels.for_blocks(np.arange(0), 10).shape == (0,)


class TestExperimentHarnesses:
    def test_ablation_singleton_grid(self):
        series = generate(SyntheticSpec(generator="sine_mix", length=260,
                                        channels=1, noise_std=0.05, seed=3))
        split = split_holdout(series, 0.3, min_target_length=12)
        template = ModelSpec("linear_ar", 10, 2, 1)
        reports = ablate_block_length(
            series, split, [12], template,
            ValuationConfig(block_length=12, stride=12, learning_rate=0.05, k_folds=3),
            TrainSettings(epochs=5, batch_size=16, learning_rate=0.02),
            TrainSettings(epochs=2, batch_size=8, learning_rate=0.01),
            ratio=0.5, strategies=("top", "bottom"), seed=0)
        assert [(r.model_spec.lookback + r.model_spec.horizon, r.strategy)
                for r in reports] == [(12, "top"), (12, "bottom")]

    def test_generalization_identical_specs_reduce_to_pipeline(self):
        series, split, model, params, run, _ = tiny_pipeline(seed=2)
        config = ValuationConfig(block_length=12, stride=12, learning_rate=0.05,
                                 k_folds=3, seed=2)
        pretrain = TrainSettings(epochs=10, batch_size=16, learning_rate=0.02)
        finetune = TrainSettings(epochs=3, batch_size=8, learning_rate=0.01)
        reports = cross_model_generalization(
            series, split, model.spec, model.spec, [0.5], config,
            pretrain, finetune, strategies=("top",), seed=2)
        sel = select(run.sample_scores, "top", 0.5, seed=2)
        direct = finetune_and_eval(model, params, sel, list(run.samples),
                                   series, split, finetune, seed=2)
        assert reports[0].mse == direct.mse
        assert reports[0].mae == direct.mae

    def test_select_and_evaluate_reruns_identically(self):
        # every finetune starts from run.params, which training must leave as it was
        series, split, model, params, run, _ = tiny_pipeline(seed=3)
        before = run.params.copy()
        finetune = TrainSettings(epochs=3, batch_size=8, learning_rate=0.01)
        first, second = (select_and_evaluate(run, series, split, ("top", "bottom", "random"),
                                             (0.5,), finetune, seed=3) for _ in range(2))
        assert [replace(r, wall_time=0.0) for r in first] == [replace(r, wall_time=0.0)
                                                              for r in second]
        assert run.params.tobytes() == before.tobytes()

    def test_bench_rows_and_param_matching(self):
        report = bench_scaling([300, 1000], methods=("one_step",), n_blocks=16,
                               repeats=2, n_context=8, seed=0)
        assert [r.p_target for r in report.rows] == [300, 1000]
        for r in report.rows:
            assert abs(r.p_actual - r.p_target) / r.p_target < 0.1
            assert len(r.times) == 2
        assert "one_step" in report.slopes

    def test_bench_exact_respects_limit(self):
        report = bench_scaling([300, 1000], methods=("exact_influence",),
                               n_blocks=8, repeats=1, n_context=8, seed=0,
                               exact_limit=500)
        assert [r.p_target for r in report.rows] == [300]

    def test_bench_timing_pins_blas_to_one_thread_and_restores(self):
        controls = _openblas_thread_controls()
        if "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]:
            assert controls  # numpy's own OpenBLAS is found
        before = [get() for get, _ in controls]
        with _single_threaded_blas():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_mlp_spec_for_params_accuracy(self):
        for target in (300, 3000, 30000):
            spec = mlp_spec_for_params(target)
            assert abs(spec.n_params - target) / target < 0.1
        # the benchmark's sizes; 2,845 stays under the default exact_limit of 3,000
        assert [mlp_spec_for_params(p).n_params for p in (300, 1000, 3000, 10000, 30000)] \
            == [289, 955, 2845, 9469, 28423]
