"""Test-side reference for training: the functional optimizer it replaced.

``optimizer_step`` here returns new params and a new state and leaves its
inputs untouched; ``batch_grad`` builds the gradient from separate layer
arrays; ``train`` and ``score_blocks_batch`` drive them as the package did
before its optimizer stepped in place. The package must match these bitwise.
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
            grads = model.grad_per_instance(params, blocks[lo:lo + chunk])
            tuned, _ = optimizer_step_reference(params, grads, state)
            losses = model.loss_many_params(np.vstack([params, tuned]), a, y)
            values[lo:lo + chunk] = losses[0] - losses[1:]
    return values
