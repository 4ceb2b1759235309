"""Test-side reference for training and scoring: the kernels the package replaced.

``optimizer_step`` here returns new params and a new state and leaves its
inputs untouched; ``batch_grad`` builds the gradient from separate layer
arrays; ``train`` and ``score_blocks_batch`` drive them as the package did
before its optimizer stepped in place. The forward passes and the
``grad_per_instance``, ``loss_many_params`` and ``grad_many_params`` kernels
are frozen copies of the package's before its forward passes became one;
each slices the flat parameter layout itself. The package must match all of
these bitwise.
"""

from dataclasses import dataclass, replace

import numpy as np

from tsvalue import valuation
from tsvalue.errors import EmptyBatch, EmptyContext, NonFiniteGradient, NonFiniteLoss
from tsvalue.forecaster import ForecastInstance, Forecaster, OptimizerConfig, TrainResult


@dataclass(frozen=True)
class ReferenceState:
    config: OptimizerConfig
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def fresh(cls, config: OptimizerConfig, n_params: int) -> "ReferenceState":
        if config.kind == "adam":
            return cls(config=config, step=0, m=np.zeros(n_params), v=np.zeros(n_params))
        return cls(config=config, step=0)


def optimizer_step_reference(params, grad, state: ReferenceState):
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")
    cfg = state.config
    g = grad
    if cfg.clip_norm is not None:
        norm = np.sqrt(g[..., None, :] @ g[..., :, None])[..., 0]
        g = g * (cfg.clip_norm / np.maximum(norm, cfg.clip_norm))
    if cfg.kind == "sgd":
        if cfg.weight_decay:
            g = g + cfg.weight_decay * params
        return params - cfg.learning_rate * g, replace(state, step=state.step + 1)
    step = state.step + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g**2
    m_hat = m / (1.0 - cfg.beta1**step)
    v_hat = v / (1.0 - cfg.beta2**step)
    update = m_hat / (np.sqrt(v_hat) + cfg.eps)
    if cfg.weight_decay:
        update = update + cfg.weight_decay * params
    return params - cfg.learning_rate * update, replace(state, step=step, m=m, v=v)


def _layers(model: Forecaster, params2d):
    s = model.spec
    split = s.in_dim * s.hidden
    theta1 = params2d[:, :split].reshape(-1, s.in_dim, s.hidden)
    theta2 = params2d[:, split:].reshape(-1, s.hidden + (1 if s.bias else 0), s.out_dim)
    return theta1, theta2


def _forward_flat(model: Forecaster, params, a):
    s = model.spec
    if s.architecture == "linear_ar":
        return a @ params.reshape(s.in_dim, s.out_dim), None
    split = s.in_dim * s.hidden
    theta1 = params[:split].reshape(s.in_dim, s.hidden)
    theta2 = params[split:].reshape(s.hidden + (1 if s.bias else 0), s.out_dim)
    hidden = np.tanh(a @ theta1)
    pred = hidden @ theta2[: s.hidden]
    if s.bias:
        pred = pred + theta2[s.hidden]
    return pred, hidden


def _fold_forward(a, theta1):
    b, d, h = theta1.shape
    folded = theta1.transpose(1, 0, 2).reshape(d, b * h)
    z = (a @ folded).reshape(a.shape[0], b, h)
    return np.tanh(z.transpose(1, 0, 2))


def _forward_many(model: Forecaster, params2d, a):
    s = model.spec
    if s.architecture == "linear_ar":
        return np.matmul(a[None, :, :], params2d.reshape(-1, s.in_dim, s.out_dim))
    theta1, theta2 = _layers(model, params2d)
    pred = np.matmul(_fold_forward(a, theta1), theta2[:, : s.hidden])
    if s.bias:
        pred = pred + theta2[:, s.hidden][:, None, :]
    return pred


def predict_reference(model: Forecaster, params, x):
    s = model.spec
    a, _ = model.design_matrix(ForecastInstance(x, np.zeros((s.horizon, s.channels))))
    return _forward_flat(model, params, a)[0][0].reshape(s.horizon, s.channels)


def batch_loss_reference(model: Forecaster, params, instances: ForecastInstance) -> float:
    a, y = model.design_matrix(instances)
    return float(np.mean((_forward_flat(model, params, a)[0] - y) ** 2))


def batch_metrics_reference(model: Forecaster, params, instances: ForecastInstance):
    a, y = model.design_matrix(instances)
    err = _forward_flat(model, params, a)[0] - y
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))


def grad_per_instance_reference(model: Forecaster, params, instances: ForecastInstance):
    s = model.spec
    a, y = model.design_matrix(instances)
    pred, hidden = _forward_flat(model, params, a)
    dpred = (2.0 / s.out_dim) * (pred - y)
    n = len(instances)
    if s.architecture == "linear_ar":
        return np.einsum("nd,no->ndo", a, dpred).reshape(n, -1)
    w2 = params[s.in_dim * s.hidden:].reshape(-1, s.out_dim)[: s.hidden]
    dz = (dpred @ w2.T) * (1.0 - hidden**2)
    parts = [np.einsum("nd,nh->ndh", a, dz).reshape(n, -1),
             np.einsum("nh,no->nho", hidden, dpred).reshape(n, -1)]
    if s.bias:
        parts.append(dpred)
    return np.concatenate(parts, axis=1)


def loss_many_params_reference(model: Forecaster, params2d, a, y):
    return np.mean((_forward_many(model, params2d, a) - y) ** 2, axis=(1, 2))


def grad_many_params_reference(model: Forecaster, params2d, instances: ForecastInstance,
                               chunk: int = 32):
    a, y = model.design_matrix(instances)
    n = len(instances)
    s = model.spec
    out = np.empty_like(params2d)
    at = np.ascontiguousarray(a.T)
    for lo in range(0, params2d.shape[0], chunk):
        block = params2d[lo:lo + chunk]
        b = block.shape[0]
        if s.architecture == "linear_ar":
            r = np.matmul(a[None, :, :], block.reshape(-1, s.in_dim, s.out_dim)) - y
            out[lo:lo + chunk] = ((2.0 / (n * s.out_dim)) * np.matmul(at[None, :, :], r)).reshape(b, -1)
            continue
        theta1, theta2 = _layers(model, block)
        w2 = theta2[:, : s.hidden]
        hid = _fold_forward(a, theta1)
        pred = np.matmul(hid, w2)
        if s.bias:
            pred = pred + theta2[:, s.hidden][:, None, :]
        dpred = (2.0 / (n * s.out_dim)) * (pred - y)
        dz = np.matmul(dpred, w2.transpose(0, 2, 1)) * (1.0 - hid**2)
        dz_flat = dz.transpose(1, 0, 2).reshape(a.shape[0], b * s.hidden)
        parts = [(at @ dz_flat).reshape(s.in_dim, b, s.hidden).transpose(1, 0, 2).reshape(b, -1),
                 np.matmul(hid.transpose(0, 2, 1), dpred).reshape(b, -1)]
        if s.bias:
            parts.append(dpred.sum(axis=1))
        out[lo:lo + chunk] = np.concatenate(parts, axis=1)
    return out


def batch_grad_reference(model: Forecaster, params, instances: ForecastInstance):
    """(loss, grad) of the mean loss over a batch."""
    s = model.spec
    a, y = model.design_matrix(instances)
    pred, hidden = _forward_flat(model, params, a)
    r = pred - y
    loss = float(np.mean(r**2))
    dpred = (2.0 / (len(instances) * s.out_dim)) * r
    if s.architecture == "linear_ar":
        return loss, (a.T @ dpred).ravel()
    w2 = params[s.in_dim * s.hidden:].reshape(-1, s.out_dim)[: s.hidden]
    dz = (dpred @ w2.T) * (1.0 - hidden**2)
    parts = [(a.T @ dz).ravel(), (hidden.T @ dpred).ravel()]
    if s.bias:
        parts.append(dpred.sum(axis=0))
    return loss, np.concatenate(parts)


def train_reference(model: Forecaster, instances: ForecastInstance, epochs: int,
                    batch_size: int, optimizer: OptimizerConfig, seed: int,
                    init_params=None) -> TrainResult:
    if not instances:
        raise EmptyBatch("cannot train on an empty instance set")
    params = model.init_params() if init_params is None else np.array(init_params, dtype=np.float64)
    state = ReferenceState.fresh(optimizer, model.spec.n_params)
    rng = np.random.default_rng(seed)
    epoch_losses = []
    n = len(instances)
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            loss, grad = batch_grad_reference(model, params, instances[order[lo:lo + batch_size]])
            if not np.isfinite(loss) or loss > 1e12:
                raise NonFiniteLoss(f"training diverged: batch loss {loss}")
            losses.append(loss)
            params, state = optimizer_step_reference(params, grad, state)
        epoch_losses.append(float(np.mean(losses)))
    return TrainResult(params=params, epoch_losses=tuple(epoch_losses))


def score_blocks_batch_reference(model: Forecaster, params, blocks: ForecastInstance,
                                 context: ForecastInstance,
                                 config: valuation.ValuationConfig) -> np.ndarray:
    if not context:
        raise EmptyContext("score_blocks_batch needs at least one context instance")
    spec = model.spec
    width = spec.hidden if spec.architecture == "mlp" else spec.out_dim
    chunk = max(1, valuation.SCORE_CHUNK_FLOATS // (len(context) * width + spec.n_params))
    state = ReferenceState.fresh(config.optimizer(), spec.n_params)
    a, y = model.design_matrix(context)
    values = np.empty(len(blocks))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(blocks), chunk):
            grads = grad_per_instance_reference(model, params, blocks[lo:lo + chunk])
            tuned, _ = optimizer_step_reference(params, grads, state)
            losses = loss_many_params_reference(model, np.vstack([params, tuned]), a, y)
            values[lo:lo + chunk] = losses[0] - losses[1:]
    return values
