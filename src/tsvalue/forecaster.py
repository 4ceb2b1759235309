"""Differentiable forecasting models with exact gradients.

Two small architectures stand in for a large pretrained forecaster:

* ``linear_ar`` -- one affine map from the flattened lookback window to the
  flattened horizon, P = (W*M + bias) * (H*M), zero-initialized.
* ``mlp`` -- a single tanh hidden layer, P = (W*M + bias) * hidden
  + (hidden + bias) * (H*M), fan-in uniform init.

Parameters live in one flat float64 vector so inner products and dense
Hessians are index-aligned by construction. With D = W*M (+1 with bias) and
O = H*M, its layout is theta (D x O) for ``linear_ar``, and W1 (D x hidden),
W2 (hidden x O), then the output bias (O, with bias) for ``mlp``, each
row-major. ``Forecaster._unpack`` alone reads it, for a P-vector or for each
row of a B x P matrix; every kernel reads and writes layers through it.
Loss is mean squared error over all H*M target entries. Apart from
``optimizer_step``, which updates the params and optimizer state it is
given in place, and the output buffers a caller may pass to a kernel, all
operations are pure functions of their inputs (plus explicit seeds) and
safe to run concurrently on shared parameter vectors.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
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
    sliding-window set stays a view of the series. Every constructed set is
    checked finite; a row subset of a set is read-only and not checked again.
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
        x, y = self.input[index], self.target[index]
        if x.ndim != 3:  # an int index: one pair, built and checked like any set
            return ForecastInstance(x, y)
        # rows of a set that was checked finite when built: no second scan
        x.setflags(write=False)
        y.setflags(write=False)
        rows = object.__new__(ForecastInstance)
        object.__setattr__(rows, "input", x)
        object.__setattr__(rows, "target", y)
        return rows


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
        require(self.init_seed >= 0, f"init_seed must be >= 0, got {self.init_seed!r}", InvalidSpec)
        if self.architecture == "mlp":
            require(self.hidden >= 1, "mlp requires hidden >= 1", InvalidSpec)
            require(self.activation == "tanh",
                    f"unsupported activation {self.activation!r}", InvalidSpec)

    # cached: the kernels read these sizes on every call
    @cached_property
    def in_dim(self) -> int:
        return self.lookback * self.channels + (1 if self.bias else 0)

    @cached_property
    def out_dim(self) -> int:
        return self.horizon * self.channels

    @cached_property
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

    def _unpack(self, params: np.ndarray) -> tuple[np.ndarray, ...]:
        """Writable layer views: ``(theta,)`` for linear_ar, ``(w1, w2, bias)``
        for mlp (bias None without it), with a leading B axis for B x P rows."""
        s = self.spec
        params = np.asarray(params, dtype=np.float64)
        lead = params.shape[:-1]
        if len(lead) > 1 or params.shape[-1:] != (s.n_params,):
            raise ShapeMismatch(f"expected {s.n_params} params, got shape {params.shape}")
        d, h, o = s.in_dim, s.hidden, s.out_dim
        if s.architecture == "linear_ar":
            return (params.reshape(lead + (d, o)),)
        split, w2_end = d * h, d * h + h * o
        return (params[..., :split].reshape(lead + (d, h)),
                params[..., split:w2_end].reshape(lead + (h, o)),
                params[..., w2_end:] if s.bias else None)

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
        if s.bias:  # filled in place: half the cost of np.concatenate on a mini-batch
            a, rows = np.empty((n, s.in_dim)), a
            a[:, :-1] = rows
            a[:, -1] = 1.0
        return a, y.reshape(n, s.out_dim)

    # --- forward / loss -----------------------------------------------------

    def forward_floats(self, b: int, n: int) -> int:
        """Float64 values in ``_forward``'s workspace for b param rows on n design rows."""
        s = self.spec
        if s.architecture == "linear_ar":
            return b * n * s.out_dim
        return b * (n * s.out_dim + (s.in_dim + n) * s.hidden)

    def _forward(self, params2d: np.ndarray, a: np.ndarray, work: np.ndarray | None = None):
        """Predictions B x N x O for design rows a (N x D) under each row of a
        B x P parameter matrix, and the B x N x hidden tanh activations (None
        for linear_ar). The B first layers are folded into the columns of one
        wide matmul rather than B skinny ones.

        Both results, and the wide first-layer weights, are views of ``work``,
        a flat buffer of at least ``forward_floats(B, N)`` values, allocated
        here when not given; a caller that passes one reuses it across calls.
        """
        b, n, o = params2d.shape[0], a.shape[0], self.spec.out_dim
        if work is None:
            work = np.empty(self.forward_floats(b, n))
        pred, rest = work[:b * n * o].reshape(b, n, o), work[b * n * o:]
        layers = self._unpack(params2d)
        if self.spec.architecture == "linear_ar":
            return np.matmul(a, layers[0], out=pred), None
        w1, w2, bias = layers
        d, h = w1.shape[1:]
        wide = rest[:d * b * h].reshape(d, b * h)
        wide.reshape(d, b, h)[:] = w1.transpose(1, 0, 2)
        z = np.matmul(a, wide, out=rest[d * b * h:(d + n) * b * h].reshape(n, b * h))
        hidden = np.tanh(z, out=z).reshape(n, b, h).transpose(1, 0, 2)
        np.matmul(hidden, w2, out=pred)
        if bias is not None:
            pred += bias[:, None, :]
        return pred, hidden

    def predict(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Forecast an H x M horizon from a W x M lookback window."""
        s = self.spec
        a, _ = self.design_matrix(ForecastInstance(x, np.zeros((s.horizon, s.channels))))
        pred, _ = self._forward(np.asarray(params)[None], a)
        return pred[0, 0].reshape(s.horizon, s.channels)

    def batch_loss(self, params: np.ndarray, instances: ForecastInstance) -> float:
        """Arithmetic mean of per-instance losses."""
        if not instances:
            raise EmptyBatch("batch_loss needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, _ = self._forward(np.asarray(params)[None], a)
        return float(np.mean((pred[0] - y) ** 2))

    def batch_metrics(self, params: np.ndarray,
                      instances: ForecastInstance) -> tuple[float, float]:
        """(MSE, MAE) over all instances and target entries."""
        if not instances:
            raise EmptyBatch("batch_metrics needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, _ = self._forward(np.asarray(params)[None], a)
        err = pred[0] - y
        return float(np.mean(err**2)), float(np.mean(np.abs(err)))

    # --- gradients ----------------------------------------------------------
    # Each kernel writes its gradients into ``_unpack`` views of its output
    # and keeps its own order of operations, which the tests pin bitwise.

    def batch_grad(self, params: np.ndarray, instances: ForecastInstance) -> GradientResult:
        """Gradient of the mean loss over a batch.

        The training hot path: it works in place on its own temporaries and
        writes each layer's gradient straight into the returned P-vector.
        The arithmetic is that of ``_forward`` and ``np.mean``.
        """
        if not instances:
            raise EmptyBatch("batch_grad needs at least one instance")
        s = self.spec
        a, y = self.design_matrix(instances)
        layers = self._unpack(params)
        g = np.empty(s.n_params)
        grads = self._unpack(g)
        if s.architecture == "linear_ar":
            r = a @ layers[0]
        else:
            w1, w2, bias = layers
            hidden = a @ w1
            np.tanh(hidden, out=hidden)
            r = hidden @ w2
            if bias is not None:
                r += bias
        r -= y
        # np.mean's own reduction, so the loss is bitwise np.mean(r**2)
        loss = float(np.add.reduce(r * r, axis=None) / r.size)
        r *= 2.0 / r.size  # d loss / d pred
        if s.architecture == "linear_ar":
            np.matmul(a.T, r, out=grads[0])
            return GradientResult(loss=loss, grad=g)
        g1, g2, gbias = grads
        np.matmul(hidden.T, r, out=g2)
        if gbias is not None:
            np.add.reduce(r, axis=0, out=gbias)
        dz = r @ w2.T
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)  # tanh' = 1 - h**2
        dz *= hidden
        np.matmul(a.T, dz, out=g1)
        return GradientResult(loss=loss, grad=g)

    def grad_per_instance(self, params: np.ndarray, instances: ForecastInstance,
                          out: np.ndarray | None = None) -> np.ndarray:
        """N x P matrix of per-instance loss gradients, written into ``out`` if given."""
        if not instances:
            raise EmptyBatch("grad_per_instance needs at least one instance")
        a, y = self.design_matrix(instances)
        pred, hidden = self._forward(np.asarray(params)[None], a)
        dpred = (2.0 / self.spec.out_dim) * (pred[0] - y)
        if out is None:
            out = np.empty((len(instances), self.spec.n_params))
        grads = self._unpack(out)
        if hidden is None:  # linear_ar
            np.einsum("nd,no->ndo", a, dpred, out=grads[0])
            return out
        hidden = hidden[0]
        w2 = self._unpack(params)[1]
        dz = (dpred @ w2.T) * (1.0 - hidden**2)
        g1, g2, gbias = grads
        np.einsum("nd,nh->ndh", a, dz, out=g1)
        np.einsum("nh,no->nho", hidden, dpred, out=g2)
        if gbias is not None:
            gbias[:] = dpred
        return out

    # --- vectorized multi-parameter kernels ----------------------------------
    # Used by block scoring and dense Hessian assembly, where looping over
    # parameter variants in Python would spend the time on interpreter overhead
    # instead of arithmetic.

    def loss_many_params(self, params2d: np.ndarray, a: np.ndarray, y: np.ndarray,
                         work: np.ndarray | None = None) -> np.ndarray:
        """Mean loss on design rows ``(a, y)`` for each row of a B x P
        parameter matrix; ``work`` is ``_forward``'s workspace."""
        err, _ = self._forward(params2d, a, work)
        err -= y
        return np.mean(np.square(err, out=err), axis=(1, 2))

    def grad_many_params(self, params2d: np.ndarray,
                         instances: ForecastInstance,
                         chunk: int = 32) -> np.ndarray:
        """Mean-loss gradient for each row of a B x P parameter matrix, ``chunk`` rows at a time."""
        a, y = self.design_matrix(instances)
        scale = 2.0 / (len(instances) * self.spec.out_dim)
        out = np.empty_like(params2d)
        at = np.ascontiguousarray(a.T)
        for lo in range(0, params2d.shape[0], chunk):
            block = params2d[lo:lo + chunk]
            grads = self._unpack(out[lo:lo + chunk])
            pred, hid = self._forward(block, a)
            if hid is None:  # linear_ar: scaled after the matmul
                np.multiply(scale, np.matmul(at, pred - y), out=grads[0])
                continue
            b, _, h = hid.shape
            w2 = self._unpack(block)[1]
            dpred = scale * (pred - y)
            dz = np.matmul(dpred, w2.transpose(0, 2, 1)) * (1.0 - hid**2)
            # fold the variant axis into columns: one wide matmul instead
            # of b skinny ones
            dz_flat = dz.transpose(1, 0, 2).reshape(a.shape[0], b * h)
            g1, g2, gbias = grads
            g1[:] = (at @ dz_flat).reshape(-1, b, h).transpose(1, 0, 2)
            np.matmul(hid.transpose(0, 2, 1), dpred, out=g2)
            if gbias is not None:
                gbias[:] = dpred.sum(axis=1)
        return out


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


@dataclass(eq=False)
class OptimizerState:
    """Mutable state of one optimizer run, shaped like the params it updates.

    Build it with :meth:`fresh`. ``optimizer_step`` advances ``step`` and,
    for Adam, the moments ``m`` and ``v`` in place, and keeps its
    temporaries in the two scratch buffers.
    """

    config: OptimizerConfig
    step: int = 0
    m: np.ndarray | None = None  # Adam first moment
    v: np.ndarray | None = None  # Adam second moment
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @staticmethod
    def arrays(config: OptimizerConfig) -> int:
        """How many params-shaped arrays a state of ``config`` holds: moments and scratch."""
        return 4 if config.kind == "adam" else 2

    @classmethod
    def fresh(cls, config: OptimizerConfig, shape: int | tuple[int, ...],
              buffer: np.ndarray | None = None) -> "OptimizerState":
        """Step 0 for params of ``shape``: P, or B x P to step B param rows at once.

        With ``buffer``, a flat array of at least ``arrays(config)`` times the
        params' size, the moments and scratch are views of it, not new arrays.
        """
        shape = (cls.arrays(config),) + ((shape,) if np.ndim(shape) == 0 else tuple(shape))
        views = np.empty(shape) if buffer is None else buffer[:math.prod(shape)].reshape(shape)
        if config.kind == "adam":
            views[:2] = 0.0
            return cls(config, 0, views[0], views[1], (views[2], views[3]))
        return cls(config, 0, scratch=(views[0], views[1]))


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """One update of ``params`` and ``state`` in place; ``grad`` is only read.

    Rows of a B x P ``params`` step independently, each by its row of
    ``grad``. A NaN or Inf gradient raises NonFiniteGradient before anything
    is written. With clipping, each row's gradient is scaled to at most
    ``clip_norm`` in L2 norm; a row whose squared norm overflows takes a zero
    gradient. The arithmetic, operation by operation, is that of the
    textbook SGD and Adam formulas, so results do not depend on the buffers.
    """
    cfg, g = state.config, grad
    if cfg.clip_norm is not None:
        # the same dot product as np.linalg.norm, so 1-D steps match it bitwise
        norm = np.sqrt(g[..., None, :] @ g[..., :, None])[..., 0]
        largest = norm.max(initial=0.0)  # NaN if any row's norm is
    # a finite sum of squares has finite terms: scan g only when that is unknown
    if (cfg.clip_norm is None or not math.isfinite(largest)) and not np.isfinite(g).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")
    s1, s2 = state.scratch
    if cfg.clip_norm is not None and largest > cfg.clip_norm:
        # rows within the norm are multiplied by exactly 1.0, so unchanged
        g = np.multiply(g, cfg.clip_norm / np.maximum(norm, cfg.clip_norm), out=s2)
    state.step += 1
    if cfg.kind == "sgd":
        if cfg.weight_decay:
            g = np.add(g, np.multiply(params, cfg.weight_decay, out=s1), out=s1)
        params -= np.multiply(g, cfg.learning_rate, out=s1)
        return
    m, v = state.m, state.v
    m *= cfg.beta1
    m += np.multiply(g, 1.0 - cfg.beta1, out=s1)
    v *= cfg.beta2
    np.multiply(g, g, out=s1)
    s1 *= 1.0 - cfg.beta2
    v += s1
    np.divide(v, 1.0 - cfg.beta2**state.step, out=s1)  # v_hat
    np.sqrt(s1, out=s1)
    s1 += cfg.eps
    update = np.divide(m, 1.0 - cfg.beta1**state.step, out=s2)  # m_hat
    update /= s1
    if cfg.weight_decay:
        update += np.multiply(params, cfg.weight_decay, out=s1)
    update *= cfg.learning_rate
    params -= update


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    params: np.ndarray
    epoch_losses: tuple[float, ...] = field(default=())


def train(model: Forecaster, instances: ForecastInstance, epochs: int,
          batch_size: int, optimizer: OptimizerConfig, seed: int,
          init_params: np.ndarray | None = None) -> TrainResult:
    """Shuffled mini-batch training, deterministic under seed.

    Starts from a copy of ``init_params`` when given (finetuning), otherwise
    from the model's deterministic init. Aborts with NonFiniteLoss if any
    batch loss exceeds 1e12.
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
            if not math.isfinite(result.loss) or result.loss > 1e12:
                raise NonFiniteLoss(f"training diverged: batch loss {result.loss}")
            losses.append(result.loss)
            optimizer_step(params, result.grad, state)
        epoch_losses.append(float(np.mean(losses)))
    return TrainResult(params=params, epoch_losses=tuple(epoch_losses))


# --- checkpoints ---------------------------------------------------------------

def save_model(path: str | Path, spec: ModelSpec, params: np.ndarray,
               meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": asdict(spec),
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
    raw, values = doc.get("spec"), doc.get("params")
    types = typing.get_type_hints(ModelSpec)
    required = {f.name for f in fields(ModelSpec) if f.default is MISSING}
    # type(), not isinstance: JSON true is no int, and 18.0 no lookback
    require(isinstance(raw, dict) and required <= raw.keys() <= types.keys()
            and all(type(v) is types[k] for k, v in raw.items()),
            f"checkpoint {path}: spec is not an object of ModelSpec fields: {raw!r}", InvalidSpec)
    # the bound also rejects NaN, inf and integers beyond float64
    require(isinstance(values, list)
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values),
            f"checkpoint {path}: params is not a list of finite numbers", InvalidSpec)
    spec = ModelSpec(**raw)
    params = np.array(values, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ShapeMismatch(f"checkpoint has {params.size} params, spec wants {spec.n_params}")
    return spec, params
