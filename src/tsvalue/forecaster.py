"""Differentiable forecasting models with exact gradients.

Two small architectures stand in for a large pretrained forecaster:

* ``linear_ar`` -- one affine map from the flattened lookback window to the
  flattened horizon, P = (W*M + bias) * (H*M), zero-initialized.
* ``mlp`` -- a single tanh hidden layer, P = (W*M + bias) * hidden
  + (hidden + bias) * (H*M), fan-in uniform init.

Parameters live in one flat float64 vector so inner products and dense
Hessians are index-aligned by construction. Loss is mean squared error
over all H*M target entries. All operations are pure functions of their
inputs (plus explicit seeds) and safe to run concurrently on shared
parameter vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyBatch,
    InvalidSpec,
    MissingFile,
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    require,
)

CHECKPOINT_FORMAT = "tsvalue-model-v1"


@dataclass(frozen=True)
class ForecastInstance:
    """N stacked (lookback, horizon) pairs: input N x W x M, target N x H x M.

    A single W x M / H x M pair is promoted to N = 1. Indexing with an int,
    a slice, an index array or a bool mask gives another set; a slice of a
    sliding-window set stays a view of the series.
    """

    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.input, dtype=np.float64)
        y = np.asarray(self.target, dtype=np.float64)
        if x.ndim < 3 and y.ndim < 3:
            x, y = np.atleast_2d(x)[None], np.atleast_2d(y)[None]
        if x.ndim != 3 or y.ndim != 3 or x.shape[0] != y.shape[0]:
            raise ShapeMismatch(f"input {x.shape} and target {y.shape} are not N stacked pairs")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("forecast instance contains non-finite values")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "input", x)
        object.__setattr__(self, "target", y)

    def __len__(self) -> int:
        return self.input.shape[0]

    def __getitem__(self, index) -> "ForecastInstance":
        return ForecastInstance(self.input[index], self.target[index])


@dataclass(frozen=True)
class ModelSpec:
    architecture: str  # "linear_ar" | "mlp"
    lookback: int      # W
    horizon: int       # H
    channels: int      # M
    hidden: int = 0    # mlp only
    activation: str = "tanh"
    bias: bool = True
    init_seed: int = 0

    def __post_init__(self):
        require(self.architecture in ("linear_ar", "mlp"),
                f"unknown architecture {self.architecture!r}", InvalidSpec)
        require(min(self.lookback, self.horizon, self.channels) >= 1,
                "lookback, horizon, and channels must all be >= 1", InvalidSpec)
        if self.architecture == "mlp":
            require(self.hidden >= 1, "mlp requires hidden >= 1", InvalidSpec)
            require(self.activation == "tanh",
                    f"unsupported activation {self.activation!r}", InvalidSpec)

    @property
    def in_dim(self) -> int:
        return self.lookback * self.channels + (1 if self.bias else 0)

    @property
    def out_dim(self) -> int:
        return self.horizon * self.channels

    @property
    def n_params(self) -> int:
        if self.architecture == "linear_ar":
            return self.in_dim * self.out_dim
        return self.in_dim * self.hidden + (self.hidden + (1 if self.bias else 0)) * self.out_dim


@dataclass(frozen=True)
class GradientResult:
    loss: float
    grad: np.ndarray


class Forecaster:
    """Stateless evaluator for a :class:`ModelSpec`; params are passed in flat."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec

    # --- parameter handling -------------------------------------------------

    def init_params(self) -> np.ndarray:
        """Zeros for linear_ar; per-layer uniform [-1/sqrt(fan_in), +] for mlp."""
        s = self.spec
        if s.architecture == "linear_ar":
            return np.zeros(s.n_params)
        rng = np.random.default_rng(s.init_seed)
        fan1 = s.lookback * s.channels
        w1 = rng.uniform(-1.0, 1.0, size=s.in_dim * s.hidden) / np.sqrt(fan1)
        w2 = rng.uniform(-1.0, 1.0, size=(s.hidden + (1 if s.bias else 0)) * s.out_dim)
        w2 /= np.sqrt(s.hidden)
        return np.concatenate([w1, w2])

    def _unpack(self, params: np.ndarray):
        s = self.spec
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (s.n_params,):
            raise ShapeMismatch(f"expected {s.n_params} params, got shape {params.shape}")
        if s.architecture == "linear_ar":
            return (params.reshape(s.in_dim, s.out_dim),)
        split = s.in_dim * s.hidden
        theta1 = params[:split].reshape(s.in_dim, s.hidden)
        theta2 = params[split:].reshape(s.hidden + (1 if s.bias else 0), s.out_dim)
        return theta1, theta2

    # --- instance handling --------------------------------------------------

    def design_matrix(self, instances: ForecastInstance):
        """(N x D design rows, N x O flattened targets); D includes the bias column."""
        s = self.spec
        x, y = instances.input, instances.target
        if x.shape[1:] != (s.lookback, s.channels) or y.shape[1:] != (s.horizon, s.channels):
            raise ShapeMismatch(
                f"instance shapes {x.shape[1:]} -> {y.shape[1:]} do not match "
                f"spec ({s.lookback}, {s.channels}) -> ({s.horizon}, {s.channels})"
            )
        n = len(instances)
        a = x.reshape(n, s.lookback * s.channels)
        if s.bias:
            a = np.concatenate([a, np.ones((n, 1))], axis=1)
        return a, y.reshape(n, s.out_dim)

    # --- forward / loss -----------------------------------------------------

    def _forward_flat(self, params: np.ndarray, a: np.ndarray):
        """Prediction (and hidden activations for mlp) for design rows a (N x D)."""
        if self.spec.architecture == "linear_ar":
            (theta,) = self._unpack(params)
            return a @ theta, None
        theta1, theta2 = self._unpack(params)
        hidden = np.tanh(a @ theta1)
        pred = hidden @ theta2[: self.spec.hidden]
        if self.spec.bias:
            pred = pred + theta2[self.spec.hidden]
        return pred, hidden

    def predict(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Forecast an H x M horizon from a W x M lookback window."""
        s = self.spec
        a, _ = self.design_matrix(ForecastInstance(x, np.zeros((s.horizon, s.channels))))
        pred, _ = self._forward_flat(params, a)
        return pred[0].reshape(s.horizon, s.channels)

    def batch_loss(self, params: np.ndarray, instances: ForecastInstance) -> float:
        """Arithmetic mean of per-instance losses."""
        if not instances:
            raise EmptyBatch("batch_loss needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, _ = self._forward_flat(params, a)
        return float(np.mean((pred - y) ** 2))

    def batch_metrics(self, params: np.ndarray,
                      instances: ForecastInstance) -> tuple[float, float]:
        """(MSE, MAE) over all instances and target entries."""
        if not instances:
            raise EmptyBatch("batch_metrics needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, _ = self._forward_flat(params, a)
        err = pred - y
        return float(np.mean(err**2)), float(np.mean(np.abs(err)))

    # --- gradients ----------------------------------------------------------

    def batch_grad(self, params: np.ndarray, instances: ForecastInstance) -> GradientResult:
        """Gradient of the mean loss over a batch."""
        if not instances:
            raise EmptyBatch("batch_grad needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, hidden = self._forward_flat(params, a)
        r = pred - y
        loss = float(np.mean(r**2))
        n = len(instances)
        dpred = (2.0 / (n * self.spec.out_dim)) * r
        if self.spec.architecture == "linear_ar":
            g = (a.T @ dpred).ravel()
        else:
            g = self._mlp_backward(params, a, hidden, dpred, reduce=True)
        return GradientResult(loss=loss, grad=g)

    def grad_per_instance(self, params: np.ndarray,
                          instances: ForecastInstance) -> np.ndarray:
        """N x P matrix of per-instance loss gradients."""
        if not instances:
            raise EmptyBatch("grad_per_instance needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, hidden = self._forward_flat(params, a)
        dpred = (2.0 / self.spec.out_dim) * (pred - y)
        if self.spec.architecture == "linear_ar":
            return np.einsum("nd,no->ndo", a, dpred).reshape(len(instances), -1)
        return self._mlp_backward(params, a, hidden, dpred)

    def _mlp_backward(self, params, a, hidden, dpred, reduce=False):
        s = self.spec
        _, theta2 = self._unpack(params)
        w2 = theta2[: s.hidden]
        dhidden = dpred @ w2.T
        dz = dhidden * (1.0 - hidden**2)
        if reduce:
            dtheta1 = (a.T @ dz).ravel()
            dtheta2 = (hidden.T @ dpred).ravel()
            if s.bias:
                return np.concatenate([dtheta1, dtheta2, dpred.sum(axis=0)])
            return np.concatenate([dtheta1, dtheta2])
        n = a.shape[0]
        dtheta1 = np.einsum("nd,nh->ndh", a, dz).reshape(n, -1)
        dtheta2 = np.einsum("nh,no->nho", hidden, dpred).reshape(n, -1)
        if s.bias:
            return np.concatenate([dtheta1, dtheta2, dpred], axis=1)
        return np.concatenate([dtheta1, dtheta2], axis=1)

    # --- vectorized multi-parameter kernels ----------------------------------
    # Used by block scoring and dense Hessian assembly, where looping over
    # parameter variants in Python would spend the time on interpreter overhead
    # instead of arithmetic. Must agree with the reference paths to ~1e-12.

    def loss_many_params(self, params2d: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean loss on design rows ``(a, y)`` for each row of a B x P parameter matrix."""
        return np.mean((self._forward_many(params2d, a) - y) ** 2, axis=(1, 2))

    def grad_many_params(self, params2d: np.ndarray,
                         instances: ForecastInstance,
                         chunk: int = 32) -> np.ndarray:
        """Mean-loss gradient for each row of a B x P parameter matrix."""
        a, y = self.design_matrix(instances)
        n = len(instances)
        s = self.spec
        out = np.empty_like(params2d)
        at = np.ascontiguousarray(a.T)
        for lo in range(0, params2d.shape[0], chunk):
            block = params2d[lo:lo + chunk]
            if s.architecture == "linear_ar":
                theta = block.reshape(-1, s.in_dim, s.out_dim)
                r = np.matmul(a[None, :, :], theta) - y
                g = (2.0 / (n * s.out_dim)) * np.matmul(at[None, :, :], r)
                out[lo:lo + chunk] = g.reshape(block.shape[0], -1)
            else:
                split = s.in_dim * s.hidden
                b = block.shape[0]
                theta1 = block[:, :split].reshape(b, s.in_dim, s.hidden)
                theta2 = block[:, split:].reshape(b, s.hidden + (1 if s.bias else 0), s.out_dim)
                w2 = theta2[:, : s.hidden]
                hid = self._fold_forward(a, theta1)
                pred = np.matmul(hid, w2)
                if s.bias:
                    pred = pred + theta2[:, s.hidden][:, None, :]
                dpred = (2.0 / (n * s.out_dim)) * (pred - y)
                dhid = np.matmul(dpred, w2.transpose(0, 2, 1))
                dz = dhid * (1.0 - hid**2)
                # fold the variant axis into columns: one wide matmul instead
                # of b skinny ones
                dz_flat = dz.transpose(1, 0, 2).reshape(a.shape[0], b * s.hidden)
                dtheta1 = (at @ dz_flat).reshape(s.in_dim, b, s.hidden)
                dtheta1 = dtheta1.transpose(1, 0, 2).reshape(b, -1)
                dtheta2 = np.matmul(hid.transpose(0, 2, 1), dpred).reshape(b, -1)
                if s.bias:
                    dbias = dpred.sum(axis=1)
                    out[lo:lo + chunk] = np.concatenate([dtheta1, dtheta2, dbias], axis=1)
                else:
                    out[lo:lo + chunk] = np.concatenate([dtheta1, dtheta2], axis=1)
        return out

    def _fold_forward(self, a: np.ndarray, theta1: np.ndarray) -> np.ndarray:
        """tanh(a @ theta1) for B parameter variants via one wide matmul."""
        b, d, h = theta1.shape
        folded = theta1.transpose(1, 0, 2).reshape(d, b * h)
        z = (a @ folded).reshape(a.shape[0], b, h)
        return np.tanh(z.transpose(1, 0, 2))

    def _forward_many(self, params2d: np.ndarray, a: np.ndarray) -> np.ndarray:
        s = self.spec
        if s.architecture == "linear_ar":
            theta = params2d.reshape(-1, s.in_dim, s.out_dim)
            return np.matmul(a[None, :, :], theta)
        split = s.in_dim * s.hidden
        theta1 = params2d[:, :split].reshape(-1, s.in_dim, s.hidden)
        theta2 = params2d[:, split:].reshape(-1, s.hidden + (1 if s.bias else 0), s.out_dim)
        hid = self._fold_forward(a, theta1)
        pred = np.matmul(hid, theta2[:, : s.hidden])
        if s.bias:
            pred = pred + theta2[:, s.hidden][:, None, :]
        return pred


def sliding_instances(values: np.ndarray, lookback: int, horizon: int,
                      stride: int = 1, starts: np.ndarray | None = None) -> ForecastInstance:
    """The (lookback + horizon)-windows of a T x M array that start every
    ``stride`` rows, or at the rows ``starts`` in that order.

    All are cut from one ``sliding_window_view``: every-stride windows stay
    views of ``values``; chosen starts are copied out before the set is
    built, so only their values are checked, not every window's.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    span = lookback + horizon
    if values.shape[0] < span:
        windows = np.empty((0, span, values.shape[1]))
    else:  # sliding_window_view puts the window axis last
        windows = sliding_window_view(values, span, axis=0).transpose(0, 2, 1)
    windows = windows[::stride] if starts is None else windows[starts]
    return ForecastInstance(windows[:, :lookback], windows[:, lookback:])


# --- optimizers --------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """SGD is plain theta - lr*g; Adam is bias-corrected with optional
    global-norm gradient clipping and decoupled weight decay."""

    kind: str = "sgd"  # "sgd" | "adam"
    learning_rate: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = None
    weight_decay: float = 0.0

    def __post_init__(self):
        require(self.kind in ("sgd", "adam"), f"unknown optimizer kind {self.kind!r}", InvalidSpec)
        require(self.learning_rate >= 0, "learning rate must be >= 0", InvalidSpec)

    @classmethod
    def default_for(cls, kind: str, learning_rate: float) -> "OptimizerConfig":
        """Package defaults: bare SGD; Adam with clip 1.0 and weight decay 0.1."""
        if kind == "adam":
            return cls(kind="adam", learning_rate=learning_rate,
                       clip_norm=1.0, weight_decay=0.1)
        return cls(kind=kind, learning_rate=learning_rate)


@dataclass(frozen=True)
class OptimizerState:
    config: OptimizerConfig
    step: int = 0
    m: np.ndarray | None = None  # Adam first moment
    v: np.ndarray | None = None  # Adam second moment

    @classmethod
    def fresh(cls, config: OptimizerConfig, n_params: int) -> "OptimizerState":
        if config.kind == "adam":
            return cls(config=config, step=0, m=np.zeros(n_params), v=np.zeros(n_params))
        return cls(config=config, step=0)


def optimizer_step(params: np.ndarray, grad: np.ndarray,
                   state: OptimizerState) -> tuple[np.ndarray, OptimizerState]:
    """One update (per row for B x P grads); returns new params and state, inputs untouched."""
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")
    cfg = state.config
    g = grad
    if cfg.clip_norm is not None:
        # the same dot product as np.linalg.norm, so 1-D steps are bitwise unchanged
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


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    params: np.ndarray
    epoch_losses: tuple[float, ...] = field(default=())


def train(model: Forecaster, instances: ForecastInstance, epochs: int,
          batch_size: int, optimizer: OptimizerConfig, seed: int,
          init_params: np.ndarray | None = None) -> TrainResult:
    """Shuffled mini-batch training, deterministic under seed.

    Starts from ``init_params`` when given (finetuning), otherwise from the
    model's deterministic init. Aborts with NonFiniteLoss if any batch loss
    exceeds 1e12.
    """
    if not instances:
        raise EmptyBatch("cannot train on an empty instance set")
    params = model.init_params() if init_params is None else np.array(init_params, dtype=np.float64)
    state = OptimizerState.fresh(optimizer, model.spec.n_params)
    rng = np.random.default_rng(seed)
    epoch_losses = []
    n = len(instances)
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            result = model.batch_grad(params, instances[order[lo:lo + batch_size]])
            if not np.isfinite(result.loss) or result.loss > 1e12:
                raise NonFiniteLoss(f"training diverged: batch loss {result.loss}")
            losses.append(result.loss)
            params, state = optimizer_step(params, result.grad, state)
        epoch_losses.append(float(np.mean(losses)))
    return TrainResult(params=params, epoch_losses=tuple(epoch_losses))


# --- checkpoints ---------------------------------------------------------------

def save_model(path: str | Path, spec: ModelSpec, params: np.ndarray,
               meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": {
            "architecture": spec.architecture,
            "lookback": spec.lookback,
            "horizon": spec.horizon,
            "channels": spec.channels,
            "hidden": spec.hidden,
            "activation": spec.activation,
            "bias": spec.bias,
            "init_seed": spec.init_seed,
        },
        "params": np.asarray(params, dtype=np.float64).tolist(),
    }
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> tuple[ModelSpec, np.ndarray]:
    """Read a ``save_model`` checkpoint: MissingFile if absent, InvalidSpec if not one."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"checkpoint file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InvalidSpec(f"checkpoint {path} is not JSON: {exc}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise InvalidSpec(f"unsupported checkpoint format {fmt!r}")
    spec = ModelSpec(**doc["spec"])
    params = np.asarray(doc["params"], dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ShapeMismatch(f"checkpoint has {params.size} params, spec wants {spec.n_params}")
    return spec, params
