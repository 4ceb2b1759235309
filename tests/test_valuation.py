from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvalue import errors, valuation
from tsvalue.forecaster import (
    ForecastInstance,
    Forecaster,
    ModelSpec,
    OptimizerConfig,
    sliding_instances,
)
from tsvalue.pipeline import TrainSettings, fit_value_model
from tsvalue.series import SampleWindow, TimeSeries, segment_blocks
from tsvalue.synthetic import SyntheticSpec, generate
from tsvalue.valuation import (
    BlockScores,
    PointScores,
    ValuationConfig,
    aggregate_points,
    aggregate_samples,
    block_instances,
    grad_inner_influence,
    score_blocks_batch,
    value_all_blocks,
)

from instance_sets import stack
from per_block_reference import block_value, finetune_one_step
from train_reference import score_blocks_batch_reference


def scalar_model():
    return Forecaster(ModelSpec("linear_ar", 1, 1, 1, bias=False))


def scalar_instance(x, y):
    return ForecastInstance([[float(x)]], [[float(y)]])


def cfg(lr=0.1, **kw):
    kw.setdefault("block_length", 2)
    return ValuationConfig(learning_rate=lr, **kw)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("owner", [ValuationConfig, TrainSettings], ids=lambda c: c.__name__)
def test_settings_build_the_packages_optimizer(owner, kind):
    # the config's kind and rate are all there is to choose; the rest is the package's
    assert owner(optimizer_kind=kind, learning_rate=0.02).optimizer() == OptimizerConfig(kind, 0.02)


class TestBlockInstances:
    def test_split_rule(self):
        ts = TimeSeries(np.array([[1.0], [2.0], [3.0]]), ("a",))
        inst = block_instances(ts, np.array([0]), 3, horizon=1)
        np.testing.assert_array_equal(inst.input[0, :, 0], [1, 2])
        np.testing.assert_array_equal(inst.target[0, :, 0], [3])

    def test_horizon_too_long(self):
        ts = TimeSeries(np.zeros((5, 1)), ("a",))
        with pytest.raises(errors.HorizonTooLong):
            block_instances(ts, np.array([0]), 3, horizon=3)

    def test_multivariate_shapes(self):
        ts = TimeSeries(np.arange(10, dtype=float).reshape(5, 2), ("a", "b"))
        inst = block_instances(ts, np.array([0]), 5, horizon=2)
        assert inst.input.shape == (1, 3, 2)
        assert inst.target.shape == (1, 2, 2)


class TestFinetuneOneStep:
    """The step that ``block_value``, score_blocks_batch's per-block reference, takes."""

    def test_zero_learning_rate_degenerate(self):
        m = scalar_model()
        result = finetune_one_step(m, np.zeros(1), scalar_instance(1, 2), cfg(lr=0.0))
        np.testing.assert_array_equal(result.params_after, np.zeros(1))
        assert result.delta_norm == 0.0

    def test_scalar_hand_value(self):
        m = scalar_model()
        result = finetune_one_step(m, np.zeros(1), scalar_instance(1, 2), cfg(lr=0.1))
        np.testing.assert_allclose(result.params_after, [0.4])
        assert abs(result.delta_norm - 0.4) < 1e-15

    def test_stationary_instance(self):
        m = scalar_model()
        params = np.array([2.0])  # w=2 predicts y=2 for x=1 exactly
        result = finetune_one_step(m, params, scalar_instance(1, 2), cfg(lr=0.1))
        np.testing.assert_array_equal(result.params_after, params)

    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    def test_leaves_params_unchanged(self, optimizer_kind):
        m = scalar_model()
        params = np.array([0.5])
        result = finetune_one_step(m, params, scalar_instance(1, 2),
                                   cfg(lr=0.1, optimizer_kind=optimizer_kind))
        np.testing.assert_array_equal(params, [0.5])
        assert result.params_after[0] != 0.5

    def test_delta_norm_is_lr_times_grad_norm_for_sgd(self):
        spec = ModelSpec("linear_ar", 3, 1, 1)
        m = Forecaster(spec)
        rng = np.random.default_rng(0)
        params = rng.normal(size=spec.n_params)
        inst = ForecastInstance(rng.normal(size=(3, 1)), rng.normal(size=(1, 1)))
        result = finetune_one_step(m, params, inst, cfg(lr=0.05, block_length=4))
        g = m.batch_grad(params, inst).grad
        assert abs(result.delta_norm - 0.05 * np.linalg.norm(g)) < 1e-12


class TestBlockValue:
    """Hand values of the one-step score, through the engine."""

    def test_zero_learning_rate(self):
        m = scalar_model()
        v = score_blocks_batch(m, np.zeros(1), scalar_instance(1, 2),
                               scalar_instance(1, 1), cfg(lr=0.0))
        assert v.tolist() == [0.0]

    def test_scalar_hand_chain(self):
        # context loss 1 -> 0.36 after the step to w=0.4, so v = 0.64
        m = scalar_model()
        v = score_blocks_batch(m, np.zeros(1), scalar_instance(1, 2),
                               scalar_instance(1, 1), cfg(lr=0.1))
        assert v.shape == (1,) and abs(v[0] - 0.64) < 1e-12

    def test_self_context_positive_for_small_lr(self):
        m = scalar_model()
        inst = scalar_instance(1, 2)
        assert score_blocks_batch(m, np.zeros(1), inst, inst, cfg(lr=1e-4))[0] > 0

    def test_empty_context(self):
        m = scalar_model()
        with pytest.raises(errors.EmptyContext):
            score_blocks_batch(m, np.zeros(1), scalar_instance(1, 2),
                               scalar_instance(1, 2)[:0], cfg())


class TestGradInnerInfluence:
    def test_scalar_hand_value_and_gap(self):
        m = scalar_model()
        fo = grad_inner_influence(m, np.zeros(1), scalar_instance(1, 2),
                                  scalar_instance(1, 1), 0.1)
        assert fo.shape == (1,) and abs(fo[0] - 0.8) < 1e-12
        v = score_blocks_batch(m, np.zeros(1), scalar_instance(1, 2),
                               scalar_instance(1, 1), cfg(lr=0.1))
        # exact quadratic gap: eta^2/2 * g' H g = 0.01/2 * (-4)*2*(-4) = 0.16
        assert abs((fo[0] - v[0]) - 0.16) < 1e-12

    def test_orthogonal_gradients(self):
        spec = ModelSpec("linear_ar", 2, 1, 1, bias=False)
        m = Forecaster(spec)
        params = np.zeros(2)
        blk = ForecastInstance([[1.0], [0.0]], [[1.0]])   # gradient along w0
        ctx = ForecastInstance([[0.0], [1.0]], [[1.0]])   # gradient along w1
        assert grad_inner_influence(m, params, blk, ctx, 0.1).tolist() == [0.0]

    def test_context_at_minimum(self):
        m = scalar_model()
        params = np.array([1.0])
        blk = scalar_instance(1, 5)
        ctx = scalar_instance(1, 1)  # w=1 fits it exactly
        assert grad_inner_influence(m, params, blk, ctx, 0.1).tolist() == [0.0]

    def test_empty_context(self):
        with pytest.raises(errors.EmptyContext):
            grad_inner_influence(scalar_model(), np.zeros(1), scalar_instance(1, 2),
                                 scalar_instance(1, 2)[:0], 0.1)


def make_series(t=60, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.normal(size=(t, channels)),
                      tuple(f"c{i}" for i in range(channels)))


def small_setup(t=60, L=6, seed=0):
    series = make_series(t, seed)
    spec = ModelSpec("linear_ar", L - 1, 1, 1)
    model = Forecaster(spec)
    params = np.random.default_rng(seed + 1).normal(size=spec.n_params) * 0.1
    config = ValuationConfig(block_length=L, stride=1, learning_rate=1e-3,
                             k_folds=3, seed=seed)
    return series, model, params, config


class TestValueAllBlocks:
    def test_ordered_by_start_and_deterministic(self):
        series, model, params, config = small_setup()
        a = value_all_blocks(series, model, params, config)
        b = value_all_blocks(series, model, params, config)
        assert a.starts.tolist() == list(range(series.length - 6 + 1))
        assert len(a) == len(a.values) == len(a.folds) == series.length - 6 + 1
        assert a.length == 6
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("context_cap", [None, 5])
    def test_every_score_matches_reference(self, context_cap):
        # rebuild each block's fold context by the documented rule and score
        # the block alone with the single-block reference
        series, model, params, config = small_setup()
        config = replace(config, context_cap=context_cap)
        scores = value_all_blocks(series, model, params, config)
        insts = block_instances(series, scores.starts, scores.length, 1)
        for i, (value, fold) in enumerate(zip(scores.values, scores.folds)):
            ctx_idx = np.flatnonzero(scores.folds != fold)
            if context_cap is not None:
                rng = np.random.default_rng([config.seed, fold])
                ctx_idx = np.sort(rng.choice(ctx_idx, size=context_cap, replace=False))
            ctx = insts[ctx_idx]
            assert abs(value - block_value(model, params, insts[i], ctx, config)) <= 1e-12

    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    def test_zero_learning_rate_scores_exactly_zero(self, optimizer_kind):
        series, model, params, config = small_setup()
        config = replace(config, learning_rate=0.0, optimizer_kind=optimizer_kind)
        assert (value_all_blocks(series, model, params, config).values == 0.0).all()

    def test_context_excludes_own_fold(self):
        series, model, params, config = small_setup()
        scores = value_all_blocks(series, model, params, config)
        # reproduce the fold assignment and check against the scorer's output
        sample_len = config.effective_sample_length
        from tsvalue.series import enumerate_samples, make_folds
        samples = enumerate_samples((0, series.length), sample_len)
        folds = make_folds(len(samples), config.k_folds, config.seed)
        for start, fold in zip(scores.starts.tolist(), scores.folds.tolist()):
            expected = folds[min(start // sample_len, len(samples) - 1)]
            assert fold == expected

    def test_duplicate_fold_data_scores_symmetric(self):
        # two identical halves, two folds; stride = L so no block spans the
        # seam and the two folds' context sets carry identical data
        rng = np.random.default_rng(4)
        half = rng.normal(size=(30, 1))
        series = TimeSeries(np.vstack([half, half]), ("a",))
        spec = ModelSpec("linear_ar", 5, 1, 1)
        model = Forecaster(spec)
        params = np.random.default_rng(5).normal(size=spec.n_params) * 0.1
        config = ValuationConfig(block_length=6, stride=6, learning_rate=1e-3,
                                 k_folds=2, sample_length=30, seed=1)
        scores = value_all_blocks(series, model, params, config)
        by_start = {s: i for i, s in enumerate(scores.starts.tolist())}
        checked = 0
        for start in range(0, 30, 6):
            i, twin = by_start[start], by_start[start + 30]
            assert scores.folds[i] != scores.folds[twin]
            assert abs(scores.values[i] - scores.values[twin]) < 1e-15
            checked += 1
        assert checked == 5

    def test_shape_mismatch_guard(self):
        series, model, params, config = small_setup()
        bad = ValuationConfig(block_length=9, learning_rate=1e-3, k_folds=3)
        with pytest.raises(errors.ShapeMismatch):
            value_all_blocks(series, model, params, bad)

    def test_context_cap_subsamples_deterministically(self):
        series, model, params, config = small_setup()
        capped = ValuationConfig(block_length=6, stride=1, learning_rate=1e-3,
                                 k_folds=3, context_cap=5, seed=config.seed)
        a = value_all_blocks(series, model, params, capped)
        b = value_all_blocks(series, model, params, capped)
        assert a.values.tobytes() == b.values.tobytes()

    def test_valuation_never_reads_test_range(self):
        # the target slice is all the scorer receives, so altering anything
        # past the split cannot change a single score
        rng = np.random.default_rng(9)
        full = rng.normal(size=(80, 1))
        altered = full.copy()
        altered[60:] += 1e6
        spec = ModelSpec("linear_ar", 5, 1, 1)
        model = Forecaster(spec)
        params = rng.normal(size=spec.n_params) * 0.1
        config = ValuationConfig(block_length=6, stride=2, learning_rate=1e-3,
                                 k_folds=3, seed=0)
        score_a = value_all_blocks(TimeSeries(full, ("a",)).slice(0, 60),
                                   model, params, config)
        score_b = value_all_blocks(TimeSeries(altered, ("a",)).slice(0, 60),
                                   model, params, config)
        assert score_a.values.tobytes() == score_b.values.tobytes()

    def test_starting_point_isolation(self):
        # scoring must not mutate params or leak a finetuned state forward
        series, model, params, config = small_setup()
        before = params.copy()
        scores_once = value_all_blocks(series, model, params, config)
        np.testing.assert_array_equal(params, before)
        one, length = 10, scores_once.length
        ctx_starts = scores_once.starts[scores_once.folds != scores_once.folds[one]]
        # rescoring the same block alone reproduces its value
        ctx = block_instances(series, ctx_starts, length, 1)
        block = block_instances(series, scores_once.starts[[one]], length, 1)
        alone = block_value(model, params, block, ctx, config)
        assert abs(alone - scores_once.values[one]) < 1e-15


class TestScoreBlocksBatch:
    # chunk_floats=200 gives the mlp (P = 43, 7 context rows x 6 hidden)
    # chunks of 200 // (42 + 43) = 2 blocks: six chunks, the last one partial
    @pytest.mark.parametrize("architecture, optimizer_kind, chunk_floats", [
        ("linear_ar", "sgd", None),
        ("linear_ar", "adam", None),
        ("mlp", "sgd", None),
        ("mlp", "adam", None),
        ("mlp", "adam", 200),
    ], ids=["linear_ar-sgd", "linear_ar-adam", "mlp-sgd", "mlp-adam",
            "mlp-adam-chunked"])
    def test_matches_reference_loop(self, monkeypatch, architecture,
                                    optimizer_kind, chunk_floats):
        if chunk_floats is not None:
            monkeypatch.setattr(valuation, "SCORE_CHUNK_FLOATS", chunk_floats)
        spec = ModelSpec(architecture, 5, 1, 1, hidden=6, init_seed=0)
        m = Forecaster(spec)
        rng = np.random.default_rng(8)
        params = m.init_params() + 0.1 * rng.normal(size=spec.n_params)
        # large inputs push some gradient norms past Adam's clip of 1
        blocks = stack(ForecastInstance(3 * rng.normal(size=(5, 1)), rng.normal(size=(1, 1)))
                       for _ in range(11))
        ctx = stack(ForecastInstance(rng.normal(size=(5, 1)), rng.normal(size=(1, 1)))
                    for _ in range(7))
        config = ValuationConfig(block_length=6, learning_rate=1e-3,
                                 optimizer_kind=optimizer_kind)
        fast = score_blocks_batch(m, params, blocks, ctx, config)
        slow = [block_value(m, params, b, ctx, config) for b in blocks]
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    @pytest.mark.parametrize("architecture", ["linear_ar", "mlp"])
    def test_bitwise_equal_to_the_functional_step_and_params_untouched(
            self, monkeypatch, architecture, optimizer_kind):
        monkeypatch.setattr(valuation, "SCORE_CHUNK_FLOATS", 200)  # several chunks, one partial
        spec = ModelSpec(architecture, 5, 1, 1, hidden=6, init_seed=0)
        m = Forecaster(spec)
        rng = np.random.default_rng(9)
        params = m.init_params() + 0.1 * rng.normal(size=spec.n_params)
        before = params.copy()
        blocks = stack(ForecastInstance(3 * rng.normal(size=(5, 1)), rng.normal(size=(1, 1)))
                       for _ in range(11))
        ctx = stack(ForecastInstance(rng.normal(size=(5, 1)), rng.normal(size=(1, 1)))
                    for _ in range(7))
        config = ValuationConfig(block_length=6, learning_rate=1e-3,
                                 optimizer_kind=optimizer_kind)
        got = score_blocks_batch(m, params, blocks, ctx, config)
        assert params.tobytes() == before.tobytes()
        want = score_blocks_batch_reference(m, params, blocks, ctx, config)
        assert got.tobytes() == want.tobytes()

    # Benchmark-scale shapes under the real SCORE_CHUNK_FLOATS, where BLAS
    # takes other kernel paths than at the toy sizes above: the select-eval
    # mlp (hidden 64, P = 3,265) on 353 context rows, whose chunks hold
    # 65536 // (353 * 64 + 3265) = 2 blocks, and the 3-channel linear_ar of
    # long-series scoring (P = 1,794) on 240 rows, 26 blocks a chunk. Both
    # block counts leave the last chunk partial.
    @staticmethod
    def scale_setup(architecture, n_blocks, n_context, optimizer_kind="sgd",
                    learning_rate=1e-3):
        if architecture == "mlp":
            spec, channels = ModelSpec("mlp", 49, 1, 1, hidden=64, init_seed=3), 1
        else:
            spec, channels = ModelSpec("linear_ar", 199, 1, 3), 3
        m = Forecaster(spec)
        rng = np.random.default_rng(21)
        params = m.init_params() + 0.05 * rng.normal(size=spec.n_params)
        series = rng.normal(size=(n_blocks + n_context + spec.lookback, channels))
        insts = sliding_instances(series, spec.lookback, spec.horizon)
        config = ValuationConfig(block_length=spec.lookback + 1, learning_rate=learning_rate,
                                 optimizer_kind=optimizer_kind)
        return m, params, insts[:n_blocks], insts[n_blocks:n_blocks + n_context], config

    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    @pytest.mark.parametrize("architecture, n_blocks, n_context, chunk", [
        ("mlp", 7, 353, 2),
        ("linear_ar", 60, 240, 26),
    ], ids=["mlp", "linear_ar"])
    def test_bitwise_equal_to_the_functional_step_at_benchmark_scale(
            self, architecture, n_blocks, n_context, chunk, optimizer_kind):
        m, params, blocks, ctx, config = self.scale_setup(
            architecture, n_blocks, n_context, optimizer_kind)
        spec = m.spec
        width = spec.hidden if architecture == "mlp" else spec.out_dim
        assert valuation.SCORE_CHUNK_FLOATS // (n_context * width + spec.n_params) == chunk
        assert n_blocks % chunk != 0
        got = score_blocks_batch(m, params, blocks, ctx, config)
        want = score_blocks_batch_reference(m, params, blocks, ctx, config)
        assert (got != 0.0).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    def test_zero_learning_rate_scores_exactly_zero_for_the_mlp(self, optimizer_kind):
        # the pre-step loss is taken once per call, the tuned rows' losses in
        # 2-block chunks: a zero step must still give each block exactly 0.0
        m, params, blocks, ctx, config = self.scale_setup(
            "mlp", 7, 353, optimizer_kind, learning_rate=0.0)
        assert (score_blocks_batch(m, params, blocks, ctx, config) == 0.0).all()

    def test_peak_memory_does_not_grow_with_the_block_count(self):
        import tracemalloc

        n = 60  # 26-block chunks: n and 10 n blocks both fill the workspace
        m, params, blocks, ctx, config = self.scale_setup("linear_ar", 10 * n, 240)
        peaks = []
        tracemalloc.start()
        try:
            for count in (n, 10 * n):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                score_blocks_batch(m, params, blocks[:count], ctx, config)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 10 * n * 8 + 16 * 1024


def block_scores(starts, length, values):
    """A BlockScores of the given starts and values, every block in fold 0."""
    starts = np.asarray(starts, dtype=np.int64)
    values = np.broadcast_to(np.asarray(values, dtype=np.float64), starts.shape).copy()
    return BlockScores(starts=starts, values=values, folds=np.zeros_like(starts),
                       length=length)


def aggregate_points_reference(blocks, t_target):
    """aggregate_points point by point: each index sums its covering blocks in block order."""
    starts, values, length = blocks.starts.tolist(), blocks.values.tolist(), blocks.length
    total = np.zeros(t_target)
    coverage = np.zeros(t_target, dtype=np.int64)
    for i in range(t_target):
        acc = 0.0
        for start, value in zip(starts, values):
            if start <= i < start + length:
                acc += value
                coverage[i] += 1
        total[i] = acc
    point_values = np.full(t_target, np.nan)
    scored = coverage > 0
    point_values[scored] = total[scored] / coverage[scored]
    return PointScores(values=point_values, coverage=coverage)


class TestAggregatePoints:
    def test_mean_of_covering_blocks(self):
        points = aggregate_points(block_scores([0, 2], 4, [0.2, 0.4]), 6)
        assert points.values[2] == pytest.approx(0.3)
        assert points.coverage[2] == 2

    def test_constant_scores_fixpoint(self):
        points = aggregate_points(block_scores(range(5), 3, 0.7), 7)
        np.testing.assert_allclose(points.values[points.coverage > 0], 0.7)

    def test_interior_coverage_is_block_length(self):
        points = aggregate_points(block_scores(range(7), 4, 1.0), 10)  # stride 1, len 10
        assert (points.coverage[3:7] == 4).all()

    def test_uncovered_points_are_nan_not_zero(self):
        points = aggregate_points(block_scores([0], 2, 1.0), 5)
        assert np.isnan(points.values[3])
        assert points.coverage[3] == 0

    def test_no_blocks_leaves_every_point_unscored(self):
        points = aggregate_points(block_scores([], 3, 0.0), 4)
        assert points.coverage.tolist() == [0, 0, 0, 0]
        assert np.isnan(points.values).all()

    @given(t=st.integers(2, 120), length=st.integers(2, 30), stride=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_point_sums(self, t, length, stride, seed, shuffle):
        # stride > length leaves uncovered gaps; t off the stride grid leaves a
        # tail that no block reaches; shuffled starts need no ordering
        if length > t:
            return
        starts = segment_blocks((0, t), length, stride)
        rng = np.random.default_rng(seed)
        if shuffle:
            starts = rng.permutation(starts)
        # mixed magnitudes, so any other summation order changes low bits
        values = rng.normal(size=len(starts)) * 10.0 ** rng.integers(-8, 9, size=len(starts))
        blocks = block_scores(starts, length, values)
        got, want = aggregate_points(blocks, t), aggregate_points_reference(blocks, t)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.coverage.dtype == want.coverage.dtype
        assert got.coverage.tolist() == want.coverage.tolist()


class TestAggregateSamples:
    def test_mean(self):
        points = PointScores(values=np.array([1.0, 2.0, 3.0]),
                             coverage=np.ones(3, dtype=int))
        out = aggregate_samples(points, [SampleWindow(0, 3)])
        assert out.values[0] == pytest.approx(2.0)

    def test_constant_fixpoint_and_translation(self):
        values = np.full(8, 0.5)
        points = PointScores(values=values, coverage=np.ones(8, dtype=int))
        out = aggregate_samples(points, [SampleWindow(0, 4), SampleWindow(4, 4)])
        assert out.values[0] == out.values[1] == pytest.approx(0.5)

    def test_identical_patterns_equal_values(self):
        pattern = np.array([1.0, -2.0, 0.5, 3.0])
        points = PointScores(values=np.concatenate([pattern, pattern]),
                             coverage=np.ones(8, dtype=int))
        out = aggregate_samples(points, [SampleWindow(0, 4), SampleWindow(4, 4)])
        assert out.values[0] == out.values[1]

    def test_unscored_points_drop_out(self):
        values = np.array([1.0, np.nan, 3.0])
        points = PointScores(values=values, coverage=np.array([1, 0, 1]))
        out = aggregate_samples(points, [SampleWindow(0, 3)])
        assert out.values[0] == pytest.approx(2.0)
        assert out.coverage_fraction[0] == pytest.approx(2 / 3)

    def test_wholly_unscored_sample(self):
        points = PointScores(values=np.full(4, np.nan),
                             coverage=np.zeros(4, dtype=int))
        with pytest.raises(errors.WhollyUnscoredSample):
            aggregate_samples(points, [SampleWindow(0, 4)])


class TestAggregationLinearity:
    @given(alpha=st.floats(0.1, 10.0), const=st.floats(-5.0, 5.0),
           seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_affine_block_scores_propagate(self, alpha, const, seed):
        rng = np.random.default_rng(seed)
        scores = block_scores(range(9), 4, rng.normal(size=9))
        scaled = block_scores(scores.starts, scores.length, alpha * scores.values + const)
        t = 12
        base_pts = aggregate_points(scores, t)
        new_pts = aggregate_points(scaled, t)
        mask = base_pts.coverage > 0
        np.testing.assert_allclose(new_pts.values[mask],
                                   alpha * base_pts.values[mask] + const,
                                   atol=1e-10)
        samples = [SampleWindow(0, 6), SampleWindow(6, 6)]
        base_s = aggregate_samples(base_pts, samples)
        new_s = aggregate_samples(new_pts, samples)
        np.testing.assert_allclose(new_s.values, alpha * base_s.values + const,
                                   atol=1e-10)


class TestFirstOrderConsistency:
    def test_eta_ratio_squared_error_shrink(self):
        # for the quadratic linear model the gap is exactly C * eta^2
        spec = ModelSpec("linear_ar", 4, 1, 1)
        m = Forecaster(spec)
        rng = np.random.default_rng(3)
        params = rng.normal(size=spec.n_params) * 0.5
        block = ForecastInstance(rng.normal(size=(4, 1)), rng.normal(size=(1, 1)))
        ctx = stack(ForecastInstance(rng.normal(size=(4, 1)), rng.normal(size=(1, 1)))
                    for _ in range(5))
        errs = {}
        for eta in (1e-2, 1e-3, 1e-4):
            config = ValuationConfig(block_length=5, learning_rate=eta)
            v = score_blocks_batch(m, params, block, ctx, config)
            fo = grad_inner_influence(m, params, block, ctx, eta)
            errs[eta] = abs(v[0] - fo[0])
        c = errs[1e-2] / 1e-4
        for eta in (1e-3, 1e-4):
            assert errs[eta] <= 3 * c * eta**2
            assert errs[eta] >= c * eta**2 / 3

    @pytest.mark.parametrize("eta", [1e-1, 1e-5, 1e-8, 1e-12])
    def test_linear_sgd_scores_match_closed_form_at_small_eta(self, eta):
        """For linear_ar with SGD a score is exactly v = eta*a - eta^2*b.

        Here a = G_B . g_ctx and b = mean((A_ctx dTheta_B)^2), dTheta_B being
        the block gradient as an in_dim x out_dim matrix. The engine forms v
        as L(before) - L(after), so its absolute error stays at a few ulps of
        max(L_ctx, |v|) at every eta, while the relative error grows as eta
        shrinks. On this trained model the worst block's relative error is
        about 1e-14 at eta = 0.1, 3e-7 at 1e-8, 9e-4 at 1e-11 and 7e-3 at
        1e-12: it passes 1e-3 between eta = 1e-11 and 1e-12.
        """
        series = generate(SyntheticSpec(generator="sine_mix", length=400, seed=0))
        spec = ModelSpec("linear_ar", 9, 1, 1)
        model, params = fit_value_model(series, spec, TrainSettings(epochs=3), seed=0)
        insts = block_instances(series, segment_blocks((0, 400), 10, 5), 10, 1)
        blocks, context = insts[0::2], insts[1::2]
        v = score_blocks_batch(model, params, blocks, context,
                               ValuationConfig(block_length=10, learning_rate=eta))

        a_ctx, _ = model.design_matrix(context)
        grads = model.grad_per_instance(params, blocks)
        a = grads @ model.batch_grad(params, context).grad
        b = np.array([np.mean((a_ctx @ g.reshape(spec.in_dim, spec.out_dim)) ** 2)
                      for g in grads])
        closed = eta * a - eta**2 * b
        l_ctx = model.batch_loss(params, context)
        bound = 16 * np.finfo(float).eps * np.maximum(l_ctx, np.abs(closed))
        assert np.all(np.abs(v - closed) <= bound)


class TestSignSemantics:
    def test_copy_of_context_beats_noise_block(self):
        # self-influence eta*||g_ctx||^2 should beat a random block's
        # cross-alignment in nearly every draw
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = ModelSpec("linear_ar", 8, 1, 1)
            m = Forecaster(spec)
            params = rng.normal(size=spec.n_params) * 0.5
            x_ctx = rng.normal(size=(8, 1))
            ctx_inst = ForecastInstance(x_ctx, m.predict(params, x_ctx) + 1.0)
            x_noise = rng.normal(size=(8, 1))
            noise_inst = ForecastInstance(x_noise, m.predict(params, x_noise) + 1.0)
            config = ValuationConfig(block_length=9, learning_rate=1e-4)
            v_copy, v_noise = score_blocks_batch(m, params, stack([ctx_inst, noise_inst]),
                                                 ctx_inst, config)
            wins += v_copy > v_noise
        assert wins >= 18
