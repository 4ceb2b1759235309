"""Test-side references for the valuators: one block, or one row, per call.

The package scores whole block sets: ``score_blocks_batch``,
``grad_inner_influence`` and ``exact_influence`` return one value per block,
and ``loo_linear_oracle`` one value per row from a single factorization.
These are the per-block forms they replaced, kept as the slow references
the tests compare them against: ``block_value`` takes one optimizer step on
one block's copy of the parameters and differences two context losses, and
``loo_linear_oracle`` re-factors the ridge matrix for every removed row.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from tsvalue.errors import EmptyContext, RankDeficient
from tsvalue.forecaster import ForecastInstance, Forecaster, OptimizerState, optimizer_step
from tsvalue.oracles import HessianMatrix
from tsvalue.valuation import ValuationConfig


@dataclass(frozen=True)
class FinetuneResult:
    params_after: np.ndarray
    delta_norm: float


def finetune_one_step(model: Forecaster, params: np.ndarray,
                      instance: ForecastInstance,
                      config: ValuationConfig) -> FinetuneResult:
    """Exactly one optimizer step on the instance loss; the caller keeps the originals."""
    g = model.batch_grad(params, instance).grad
    params_after = np.array(params, dtype=np.float64)
    optimizer_step(params_after, g, OptimizerState.fresh(config.optimizer(), params_after.shape))
    return FinetuneResult(params_after=params_after,
                          delta_norm=float(np.linalg.norm(params_after - params)))


def block_value(model: Forecaster, params: np.ndarray,
                block_instance: ForecastInstance,
                context: ForecastInstance, config: ValuationConfig) -> float:
    """Context loss drop after one finetune step on the block."""
    if not context:
        raise EmptyContext("block_value needs at least one context instance")
    tuned = finetune_one_step(model, params, block_instance, config)
    return model.batch_loss(params, context) - model.batch_loss(tuned.params_after, context)


def grad_inner_influence(model: Forecaster, params: np.ndarray,
                         block_instance: ForecastInstance,
                         context: ForecastInstance,
                         learning_rate: float) -> float:
    """First-order prediction of the context loss drop: lr * <g_context, g_block>."""
    if not context:
        raise EmptyContext("grad_inner_influence needs at least one context instance")
    g_ctx = model.batch_grad(params, context).grad
    g_blk = model.batch_grad(params, block_instance).grad
    return float(learning_rate * np.dot(g_ctx, g_blk))


def exact_influence(model: Forecaster, params: np.ndarray,
                    z_target: ForecastInstance,
                    z_context: ForecastInstance,
                    hessian: HessianMatrix) -> float:
    """Solves (H + lambda I) s = grad L(z_target) and returns grad L(z_context)^T s."""
    g_target = model.batch_grad(params, z_target).grad
    g_context = model.batch_grad(params, z_context).grad
    s = hessian.solve(g_target)
    return float(np.dot(g_context, s))


def loo_linear_oracle(design: np.ndarray, targets: np.ndarray, ridge: float,
                      index: int,
                      context_design: np.ndarray | None = None,
                      context_targets: np.ndarray | None = None) -> float:
    """Exact context-loss change from dropping row ``index`` of a ridge problem.

    Factors X^T X + ridge I and downdates it by that one row. The context
    defaults to the training rows themselves.
    """
    x = np.asarray(design, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if context_design is None:
        context_design, context_targets = x, y
    x_ctx = np.asarray(context_design, dtype=np.float64)
    y_ctx = np.asarray(context_targets, dtype=np.float64)
    if y_ctx.ndim == 1:
        y_ctx = y_ctx[:, None]

    a = x.T @ x + ridge * np.eye(x.shape[1])
    try:
        cho = sla.cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        raise RankDeficient("X^T X + ridge*I is not positive definite") from None
    beta = sla.cho_solve(cho, x.T @ y)

    xi = x[index]
    u = sla.cho_solve(cho, xi)
    leverage = float(xi @ u)
    denom = 1.0 - leverage
    if denom <= 1e-12:
        raise RankDeficient(f"leverage {leverage:.6f} at row {index}; removal not solvable")
    resid = y[index] - xi @ beta
    beta_without = beta - np.outer(u, resid) / denom

    def ctx_loss(b):
        return float(np.mean((x_ctx @ b - y_ctx) ** 2))

    return ctx_loss(beta_without) - ctx_loss(beta)
