import json
from dataclasses import fields

import numpy as np
import pytest

from tsvalue import errors
from tsvalue.forecaster import (
    ForecastInstance,
    Forecaster,
    ModelSpec,
    OptimizerConfig,
    OptimizerState,
    load_model,
    optimizer_step,
    save_model,
    sliding_instances,
    train,
)

from instance_sets import stack
from train_reference import (
    ReferenceState,
    batch_grad_reference,
    batch_loss_reference,
    batch_metrics_reference,
    grad_many_params_reference,
    grad_per_instance_reference,
    loss_many_params_reference,
    optimizer_step_reference,
    predict_reference,
    train_reference,
)

# SGD and Adam, clipping off and on, weight decay off and on
OPTIMIZER_GRID = [
    OptimizerConfig(kind=kind, learning_rate=0.05 if kind == "sgd" else 0.01,
                    clip_norm=clip, weight_decay=decay)
    for kind in ("sgd", "adam") for clip in (None, 0.5) for decay in (0.0, 0.1)
]


def optimizer_id(cfg):
    return f"{cfg.kind}-clip{cfg.clip_norm}-decay{cfg.weight_decay}"


# both architectures, bias on and off, M in {1, 3}, H in {1, 2}
MODEL_GRID = [
    ModelSpec(arch, 4, horizon, channels, hidden=5 if arch == "mlp" else 0,
              bias=bias, init_seed=2)
    for arch in ("linear_ar", "mlp") for bias in (True, False)
    for channels in (1, 3) for horizon in (1, 2)
]


def spec_id(spec):
    return f"{spec.architecture}-bias{int(spec.bias)}-M{spec.channels}-H{spec.horizon}"


def scalar_model(bias=False):
    return Forecaster(ModelSpec("linear_ar", 1, 1, 1, bias=bias))


def scalar_instance(x, y):
    return ForecastInstance([[float(x)]], [[float(y)]])


def rand_instances(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    return stack(
        ForecastInstance(rng.normal(size=(spec.lookback, spec.channels)),
                         rng.normal(size=(spec.horizon, spec.channels)))
        for _ in range(n)
    )


class TestModelSpec:
    def test_linear_param_count_and_zero_init(self):
        spec = ModelSpec("linear_ar", 2, 1, 1)
        assert spec.n_params == 3
        np.testing.assert_array_equal(Forecaster(spec).init_params(), np.zeros(3))

    def test_mlp_param_count(self):
        spec = ModelSpec("mlp", 3, 2, 2, hidden=4)
        assert spec.n_params == (3 * 2 + 1) * 4 + (4 + 1) * (2 * 2)

    def test_mlp_init_deterministic(self):
        spec = ModelSpec("mlp", 3, 1, 1, hidden=5, init_seed=7)
        a = Forecaster(spec).init_params()
        b = Forecaster(spec).init_params()
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() <= 1.0 / np.sqrt(3)

    def test_mlp_needs_hidden(self):
        with pytest.raises(errors.InvalidSpec):
            ModelSpec("mlp", 3, 1, 1, hidden=0)

    def test_unknown_architecture(self):
        with pytest.raises(errors.InvalidSpec):
            ModelSpec("transformer", 3, 1, 1)


class TestLoss:
    def test_zero_params_zero_target(self):
        m = scalar_model()
        assert m.batch_loss(np.zeros(1), scalar_instance(1.0, 0.0)) == 0.0

    def test_zero_params_target_two(self):
        m = scalar_model()
        assert m.batch_loss(np.zeros(1), scalar_instance(1.0, 2.0)) == 4.0

    def test_zero_at_perfect_prediction(self):
        spec = ModelSpec("linear_ar", 2, 1, 1)
        m = Forecaster(spec)
        rng = np.random.default_rng(3)
        params = rng.normal(size=spec.n_params)
        x = rng.normal(size=(2, 1))
        y = m.predict(params, x)
        assert m.batch_loss(params, ForecastInstance(x, y)) == 0.0

    def test_shape_mismatch(self):
        m = scalar_model()
        with pytest.raises(errors.ShapeMismatch):
            m.batch_loss(np.zeros(1), ForecastInstance([[1.0], [2.0]], [[1.0]]))


class TestGrad:
    def test_scalar_no_bias_hand_value(self):
        # d/dw (y - w*x)^2 at w=0, x=1, y=2 is -2*x*(y-0) = -4
        m = scalar_model(bias=False)
        g = m.batch_grad(np.zeros(1), scalar_instance(1.0, 2.0))
        assert g.loss == 4.0
        np.testing.assert_allclose(g.grad, [-4.0])

    def test_zero_at_minimum(self):
        spec = ModelSpec("linear_ar", 2, 1, 1)
        m = Forecaster(spec)
        rng = np.random.default_rng(5)
        params = rng.normal(size=spec.n_params)
        x = rng.normal(size=(2, 1))
        inst = ForecastInstance(x, m.predict(params, x))
        np.testing.assert_allclose(m.batch_grad(params, inst).grad, 0.0, atol=1e-15)

    @pytest.mark.parametrize("arch,hidden", [("linear_ar", 0), ("mlp", 6)])
    def test_matches_central_differences(self, arch, hidden):
        spec = ModelSpec(arch, 4, 2, 2, hidden=hidden, init_seed=2)
        m = Forecaster(spec)
        rng = np.random.default_rng(9)
        params = m.init_params() + 0.3 * rng.normal(size=spec.n_params)
        inst = rand_instances(spec, 1, seed=11)[0]
        g = m.batch_grad(params, inst).grad
        eps = 1e-5
        fd = np.empty_like(g)
        for j in range(spec.n_params):
            up, down = params.copy(), params.copy()
            up[j] += eps
            down[j] -= eps
            fd[j] = (m.batch_loss(up, inst) - m.batch_loss(down, inst)) / (2 * eps)
        denom = np.maximum(np.abs(g), 1e-3 * np.abs(g).max())
        assert (np.abs(fd - g) / denom).max() <= 1e-5

    def test_loss_field_matches_loss_op(self):
        spec = ModelSpec("mlp", 3, 1, 2, hidden=4)
        m = Forecaster(spec)
        params = m.init_params()
        inst = rand_instances(spec, 1, seed=1)[0]
        assert abs(m.batch_grad(params, inst).loss - m.batch_loss(params, inst)) <= 1e-12


class TestBatchLoss:
    def setup_method(self):
        self.spec = ModelSpec("linear_ar", 3, 1, 1)
        self.m = Forecaster(self.spec)
        self.params = np.random.default_rng(0).normal(size=self.spec.n_params)
        self.insts = rand_instances(self.spec, 5, seed=4)

    def test_mean_of_two(self):
        # construct instances with losses 1 and 3 under zero params
        m = scalar_model()
        batch = stack([scalar_instance(0.0, 1.0), scalar_instance(0.0, np.sqrt(3.0))])
        assert abs(m.batch_loss(np.zeros(1), batch) - 2.0) < 1e-12

    def test_permutation_invariant(self):
        a = self.m.batch_loss(self.params, self.insts)
        b = self.m.batch_loss(self.params, self.insts[::-1])
        assert abs(a - b) < 1e-12

    def test_empty_batch(self):
        with pytest.raises(errors.EmptyBatch):
            self.m.batch_loss(self.params, self.insts[:0])


class TestOptimizerStep:
    def test_sgd_hand_value(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        state = OptimizerState.fresh(cfg, 1)
        params = np.zeros(1)
        optimizer_step(params, np.array([-4.0]), state)
        np.testing.assert_allclose(params, [0.4])
        assert state.step == 1

    def test_adam_first_step_is_signed_lr(self):
        cfg = OptimizerConfig.default_for("adam", 0.1)
        state = OptimizerState.fresh(cfg, 1)
        params = np.zeros(1)
        optimizer_step(params, np.array([-4.0]), state)
        np.testing.assert_allclose(params, [0.1], rtol=1e-6)

    def test_zero_gradient_keeps_params(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        state = OptimizerState.fresh(cfg, 3)
        params = np.array([1.0, 2.0, 3.0])
        optimizer_step(params, np.zeros(3), state)
        np.testing.assert_array_equal(params, [1.0, 2.0, 3.0])
        assert state.step == 1

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient(self, kind, clip_norm, bad):
        cfg = OptimizerConfig(kind=kind, learning_rate=0.1, clip_norm=clip_norm,
                              weight_decay=0.1)
        state = OptimizerState.fresh(cfg, 3)
        params = np.array([1.0, -2.0, 3.0])
        optimizer_step(params, np.array([0.5, 0.25, -1.0]), state)
        before = (params.copy(), state.step,
                  None if state.m is None else state.m.copy(),
                  None if state.v is None else state.v.copy())
        with pytest.raises(errors.NonFiniteGradient):
            optimizer_step(params, np.array([0.5, bad, -1.0]), state)
        assert params.tobytes() == before[0].tobytes() and state.step == before[1] == 1
        if kind == "adam":
            assert state.m.tobytes() == before[2].tobytes()
            assert state.v.tobytes() == before[3].tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_overflowing_norm_takes_the_zero_gradient_step(self, kind):
        # a finite gradient whose squared norm overflows clips to zero, as it always has
        cfg = OptimizerConfig(kind=kind, learning_rate=0.1, clip_norm=1.0, weight_decay=0.1)
        params = np.array([1.0, -2.0, 3.0])
        grad = np.array([1e200, -1e200, 1.0])
        state = OptimizerState.fresh(cfg, 3)
        with np.errstate(over="ignore"):
            optimizer_step(params, grad, state)
            want, _ = optimizer_step_reference(np.array([1.0, -2.0, 3.0]), grad,
                                               ReferenceState.fresh(cfg, 3))
        assert params.tobytes() == want.tobytes()
        zero_step = np.array([1.0, -2.0, 3.0])
        optimizer_step(zero_step, np.zeros(3), OptimizerState.fresh(cfg, 3))
        assert params.tobytes() == zero_step.tobytes()

    @pytest.mark.parametrize("cfg", OPTIMIZER_GRID, ids=optimizer_id)
    def test_rows_step_like_single_vectors(self, cfg):
        rng = np.random.default_rng(4)
        params = rng.normal(size=(5, 7))
        grads = rng.normal(size=(5, 7)) * np.array([[0.01], [0.1], [1.0], [3.0], [30.0]])
        grads_before = grads.copy()
        rows = params.copy()
        state = OptimizerState.fresh(cfg, rows.shape)
        for _ in range(3):
            optimizer_step(rows, grads, state)
        assert grads.tobytes() == grads_before.tobytes()  # grad is only read
        for i in range(5):
            row = params[i].copy()
            row_state = OptimizerState.fresh(cfg, 7)
            for _ in range(3):
                optimizer_step(row, grads[i], row_state)
            assert rows[i].tobytes() == row.tobytes()

    @pytest.mark.parametrize("cfg", OPTIMIZER_GRID, ids=optimizer_id)
    def test_matches_the_functional_reference(self, cfg):
        rng = np.random.default_rng(5)
        params = rng.normal(size=9)
        want, ref_state = params.copy(), ReferenceState.fresh(cfg, 9)
        state = OptimizerState.fresh(cfg, 9)
        for scale in (0.01, 1.0, 50.0, 0.0, 2.0):
            g = scale * rng.normal(size=9)
            optimizer_step(params, g, state)
            want, ref_state = optimizer_step_reference(want, g, ref_state)
            assert params.tobytes() == want.tobytes()
        assert state.step == ref_state.step == 5

    def test_clipping_respects_global_norm(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=1.0, clip_norm=1.0)
        state = OptimizerState.fresh(cfg, 2)
        params = np.zeros(2)
        g = np.array([3.0, 4.0])  # norm 5 -> clipped to 1
        optimizer_step(params, g, state)
        np.testing.assert_allclose(np.linalg.norm(params), 1.0)
        np.testing.assert_array_equal(g, [3.0, 4.0])


class TestTrain:
    def test_zero_epochs_returns_init(self):
        spec = ModelSpec("mlp", 3, 1, 1, hidden=4, init_seed=1)
        m = Forecaster(spec)
        result = train(m, rand_instances(spec, 4), 0, 2,
                       OptimizerConfig(kind="sgd", learning_rate=0.01), seed=0)
        np.testing.assert_array_equal(result.params, m.init_params())
        assert result.epoch_losses == ()

    def test_fits_exactly_linear_data(self):
        spec = ModelSpec("linear_ar", 3, 1, 1)
        m = Forecaster(spec)
        rng = np.random.default_rng(2)
        w = rng.normal(size=3)
        insts = []
        for _ in range(40):
            x = rng.normal(size=3)
            insts.append(ForecastInstance(x[:, None], [[float(w @ x)]]))
        insts = stack(insts)
        result = train(m, insts, 200, 8,
                       OptimizerConfig.default_for("adam", 0.05), seed=0)
        assert m.batch_loss(result.params, insts) <= 1e-4

    def test_bitwise_deterministic(self):
        spec = ModelSpec("mlp", 3, 1, 1, hidden=4, init_seed=3)
        m = Forecaster(spec)
        insts = rand_instances(spec, 10, seed=5)
        cfg = OptimizerConfig.default_for("adam", 0.01)
        a = train(m, insts, 5, 3, cfg, seed=9)
        b = train(m, insts, 5, 3, cfg, seed=9)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.epoch_losses == b.epoch_losses

    def test_records_epoch_losses(self):
        spec = ModelSpec("linear_ar", 2, 1, 1)
        m = Forecaster(spec)
        result = train(m, rand_instances(spec, 6, seed=1), 4, 2,
                       OptimizerConfig(kind="sgd", learning_rate=0.01), seed=0)
        assert len(result.epoch_losses) == 4


class TestTrainMatchesReference:
    """train, batch_grad and the in-place step against the functional reference."""

    @pytest.mark.parametrize("spec", MODEL_GRID, ids=spec_id)
    def test_batch_grad_bitwise(self, spec):
        m = Forecaster(spec)
        insts = rand_instances(spec, 7, seed=3)
        params = m.init_params() + 0.3 * np.random.default_rng(1).normal(size=spec.n_params)
        got = m.batch_grad(params, insts)
        loss, grad = batch_grad_reference(m, params, insts)
        assert got.loss == loss and got.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("spec", MODEL_GRID, ids=spec_id)
    def test_params_and_epoch_losses_bitwise(self, spec):
        m = Forecaster(spec)
        insts = rand_instances(spec, 11, seed=3)  # batches of 4: the last holds 3
        init = m.init_params() + 0.3 * np.random.default_rng(1).normal(size=spec.n_params)
        for cfg in OPTIMIZER_GRID:
            for init_params in (None, init):
                got = train(m, insts, 3, 4, cfg, seed=7, init_params=init_params)
                want = train_reference(m, insts, 3, 4, cfg, seed=7, init_params=init_params)
                assert got.params.tobytes() == want.params.tobytes(), optimizer_id(cfg)
                assert (np.array(got.epoch_losses).tobytes()
                        == np.array(want.epoch_losses).tobytes()), optimizer_id(cfg)

    def test_zero_epochs_returns_a_copy_of_init_params(self):
        spec = MODEL_GRID[-1]
        m = Forecaster(spec)
        init = np.random.default_rng(1).normal(size=spec.n_params)
        got = train(m, rand_instances(spec, 5), 0, 2, OPTIMIZER_GRID[-1], seed=0,
                    init_params=init)
        assert got.params.tobytes() == init.tobytes() and got.params is not init
        assert got.epoch_losses == ()

    @pytest.mark.parametrize("cfg", OPTIMIZER_GRID[1::2], ids=optimizer_id)
    def test_leaves_init_params_and_instances_unchanged(self, cfg):
        spec = MODEL_GRID[-1]
        m = Forecaster(spec)
        insts = rand_instances(spec, 9, seed=4)
        x, y = insts.input.copy(), insts.target.copy()
        init = np.random.default_rng(1).normal(size=spec.n_params)
        before = init.copy()
        result = train(m, insts, 2, 4, cfg, seed=0, init_params=init)
        assert init.tobytes() == before.tobytes()
        assert insts.input.tobytes() == x.tobytes() and insts.target.tobytes() == y.tobytes()
        assert result.params.tobytes() != before.tobytes()


class TestDescentProperty:
    def test_small_step_never_increases_loss(self):
        spec = ModelSpec("mlp", 3, 1, 1, hidden=5, init_seed=0)
        m = Forecaster(spec)
        rng = np.random.default_rng(12)
        for trial in range(100):
            params = m.init_params() + 0.2 * rng.normal(size=spec.n_params)
            inst = ForecastInstance(rng.normal(size=(3, 1)), rng.normal(size=(1, 1)))
            g = m.batch_grad(params, inst)
            if g.loss == 0.0:
                continue
            eta = 1e-6 / max(1.0, np.linalg.norm(g.grad))
            after = m.batch_loss(params - eta * g.grad, inst)
            assert after <= g.loss + 1e-15


class TestVectorizedKernels:
    @pytest.mark.parametrize("arch,hidden", [("linear_ar", 0), ("mlp", 6)])
    def test_many_params_matches_reference(self, arch, hidden):
        spec = ModelSpec(arch, 4, 2, 2, hidden=hidden, init_seed=8)
        m = Forecaster(spec)
        rng = np.random.default_rng(21)
        insts = rand_instances(spec, 7, seed=6)
        rows = np.stack([m.init_params() + 0.1 * rng.normal(size=spec.n_params)
                         for _ in range(9)])
        losses = m.loss_many_params(rows, *m.design_matrix(insts))
        grads = m.grad_many_params(rows, insts, chunk=4)
        for i, row in enumerate(rows):
            assert abs(losses[i] - m.batch_loss(row, insts)) <= 1e-12
            np.testing.assert_allclose(grads[i], m.batch_grad(row, insts).grad,
                                       atol=1e-12)

    def test_grad_per_instance_mean_is_batch_grad(self):
        spec = ModelSpec("mlp", 3, 2, 1, hidden=4, init_seed=2)
        m = Forecaster(spec)
        insts = rand_instances(spec, 6, seed=13)
        params = m.init_params()
        per = m.grad_per_instance(params, insts)
        np.testing.assert_allclose(per.mean(axis=0),
                                   m.batch_grad(params, insts).grad, atol=1e-13)


class TestKernelsMatchFrozenReference:
    """Every kernel is bitwise equal to its frozen copy in ``train_reference``."""

    @pytest.fixture(params=MODEL_GRID, ids=spec_id)
    def case(self, request):
        spec = request.param
        m = Forecaster(spec)
        rng = np.random.default_rng(31)
        params = m.init_params() + 0.3 * rng.normal(size=spec.n_params)
        rows = params + 0.1 * rng.normal(size=(7, spec.n_params))
        return m, params, rows, rand_instances(spec, 11, seed=17)

    def test_predict(self, case):
        m, params, _, insts = case
        for x in insts.input[:3]:
            assert m.predict(params, x).tobytes() == predict_reference(m, params, x).tobytes()

    def test_batch_loss_and_metrics(self, case):
        m, params, _, insts = case
        assert m.batch_loss(params, insts) == batch_loss_reference(m, params, insts)
        assert m.batch_metrics(params, insts) == batch_metrics_reference(m, params, insts)

    def test_grad_per_instance(self, case):
        m, params, _, insts = case
        got = m.grad_per_instance(params, insts)
        assert got.tobytes() == grad_per_instance_reference(m, params, insts).tobytes()

    def test_loss_many_params(self, case):
        m, _, rows, insts = case
        a, y = m.design_matrix(insts)
        assert (m.loss_many_params(rows, a, y).tobytes()
                == loss_many_params_reference(m, rows, a, y).tobytes())

    @pytest.mark.parametrize("chunk", [3, 32])  # 7 rows in three chunks, and in one
    def test_grad_many_params(self, case, chunk):
        m, _, rows, insts = case
        got = m.grad_many_params(rows, insts, chunk=chunk)
        assert got.tobytes() == grad_many_params_reference(m, rows, insts, chunk).tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec("mlp", 4, 2, 3, hidden=5, init_seed=11)
        params = Forecaster(spec).init_params()
        path = tmp_path / "model.json"
        save_model(path, spec, params)
        spec2, params2 = load_model(path)
        assert spec2 == spec
        np.testing.assert_array_equal(params2, params)

    def test_spec_keys_are_the_model_spec_fields(self, tmp_path):
        spec = ModelSpec("mlp", 4, 2, 3, hidden=5, init_seed=11)
        path = tmp_path / "model.json"
        save_model(path, spec, Forecaster(spec).init_params())
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc["spec"]) == {f.name for f in fields(ModelSpec)}

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other", "spec": {}, "params": []}')
        with pytest.raises(errors.InvalidSpec):
            load_model(path)


class TestSlidingInstances:
    def test_count_and_contents(self):
        values = np.arange(6, dtype=float)[:, None]
        insts = sliding_instances(values, 2, 1)
        assert len(insts) == 4
        np.testing.assert_array_equal(insts[0].input[0, :, 0], [0, 1])
        np.testing.assert_array_equal(insts[0].target[0, :, 0], [2])
        np.testing.assert_array_equal(insts[-1].input[0, :, 0], [3, 4])

    def test_stride(self):
        values = np.arange(10, dtype=float)[:, None]
        assert len(sliding_instances(values, 3, 1, stride=4)) == 2

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("stride", [1, 4])
    def test_equals_per_window_slices_as_a_view(self, channels, stride):
        values = np.random.default_rng(channels).normal(size=(23, channels))
        insts = sliding_instances(values, 5, 2, stride=stride)
        starts = range(0, 23 - 7 + 1, stride)
        assert len(insts) == len(starts)
        np.testing.assert_array_equal(insts.input, [values[s:s + 5] for s in starts])
        np.testing.assert_array_equal(insts.target, [values[s + 5:s + 7] for s in starts])
        assert np.shares_memory(insts.input, values) and np.shares_memory(insts.target, values)

    def test_chosen_starts_in_order(self):
        values = np.arange(12, dtype=float)[:, None]
        insts = sliding_instances(values, 2, 1, starts=np.array([7, 0, 9]))
        np.testing.assert_array_equal(insts.input[:, :, 0], [[7, 8], [0, 1], [9, 10]])
        np.testing.assert_array_equal(insts.target[:, 0, 0], [9, 2, 11])

    def test_series_shorter_than_a_window_gives_empty_set(self):
        insts = sliding_instances(np.zeros((2, 3)), 2, 1)
        assert len(insts) == 0
        assert insts.input.shape == (0, 2, 3) and insts.target.shape == (0, 1, 3)


class TestForecastInstance:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(6, 3, 2))
        self.y = rng.normal(size=(6, 1, 2))
        self.insts = ForecastInstance(self.x, self.y)

    def test_single_pair_is_one_row(self):
        inst = ForecastInstance(self.x[0], self.y[0])
        assert len(inst) == 1
        assert inst.input.shape == (1, 3, 2) and inst.target.shape == (1, 1, 2)

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            self.insts.input[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            self.insts[1:3].target[0, 0, 0] = 1.0

    @pytest.mark.parametrize("index, rows", [
        (2, [2]),
        (-1, [5]),
        (slice(1, 5, 2), [1, 3]),
        (np.array([4, 0, 4]), [4, 0, 4]),
        (np.array([True, False, False, True, False, True]), [0, 3, 5]),
    ], ids=["int", "negative-int", "slice", "index-array", "bool-mask"])
    def test_indexing_gives_a_set_of_those_rows(self, index, rows):
        part = self.insts[index]
        assert isinstance(part, ForecastInstance) and len(part) == len(rows)
        np.testing.assert_array_equal(part.input, self.x[rows])
        np.testing.assert_array_equal(part.target, self.y[rows])
        assert not (part.input.flags.writeable or part.target.flags.writeable)

    def test_row_subsets_are_not_scanned_again(self, monkeypatch):
        built = []
        monkeypatch.setattr(ForecastInstance, "__post_init__", lambda inst: built.append(inst))
        parts = [self.insts[1:4], self.insts[np.array([5, 0])], self.insts[self.x[:, 0, 0] > 0]]
        assert built == [] and [len(p) for p in parts] == [3, 2, int((self.x[:, 0, 0] > 0).sum())]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, bad):
        x = self.x.copy()
        x[3, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ForecastInstance(x, self.y)
        y = self.y.copy()
        y[0, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ForecastInstance(self.x, y)

    def test_different_row_counts_raise(self):
        with pytest.raises(errors.ShapeMismatch):
            ForecastInstance(self.x, self.y[:5])
