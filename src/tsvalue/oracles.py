"""Ground-truth and baseline valuators for validating the finetune scores.

These are the expensive routes the one-step estimator is meant to
approximate: a dense damped-Hessian influence solve, closed-form
leave-one-out for ridge systems, brute-force retraining, and truncated
Monte Carlo Shapley. All report "positive = beneficial" so rank
comparisons across methods need no sign flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyBatch,
    IndefiniteAfterDamping,
    LengthMismatch,
    NonFiniteUtility,
    PTooLarge,
    RankDeficient,
    SingularSystem,
)
from .forecaster import ForecastInstance, Forecaster, OptimizerConfig, train

MAX_DENSE_PARAMS = 5000
ENUMERATION_CAP = 8
SHAPLEY_MODES = ("mc", "enumerate")
_FD_STEP = 1e-5


@dataclass(frozen=True)
class HessianMatrix:
    """Symmetrized dense empirical-loss Hessian with diagonal damping.

    ``matrix`` is the undamped (H + H^T)/2; ``damping`` is the lambda added
    to the diagonal; ``cho`` caches the Cholesky factor of the damped matrix.
    """

    matrix: np.ndarray
    damping: float
    cho: tuple

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        from scipy import linalg as sla  # outside the try: an ImportError is not singularity

        try:
            return sla.cho_solve(self.cho, rhs)
        except Exception as exc:  # pragma: no cover - factor already validated
            raise SingularSystem(str(exc)) from exc


def default_damping(matrix: np.ndarray) -> float:
    """1e-3 * trace(H)/P; regularizes small models evaluated off-optimum."""
    return 1e-3 * float(np.trace(matrix)) / matrix.shape[0]


def build_hessian(model: Forecaster, params: np.ndarray,
                  instances: ForecastInstance, mode: str = "analytic",
                  damping: float | None = None,
                  col_chunk: int = 128) -> HessianMatrix:
    """Dense mean Hessian of the per-instance MSE losses.

    ``analytic`` is exact and available for linear_ar; ``finite_diff`` takes
    central differences of the batch gradient (step 1e-5) and works for any
    architecture. The result is symmetrized, then damped.
    """
    from scipy import linalg as sla

    if not instances:
        raise EmptyBatch("build_hessian needs at least one instance")
    p = model.spec.n_params
    if p > MAX_DENSE_PARAMS:
        raise PTooLarge(f"dense Hessian guard: P = {p} > {MAX_DENSE_PARAMS}")

    if mode == "analytic":
        if model.spec.architecture != "linear_ar":
            raise ValueError("analytic Hessian is only available for linear_ar")
        a, _ = model.design_matrix(instances)
        out_dim = model.spec.out_dim
        gram = (2.0 / out_dim) * (a.T @ a) / len(instances)
        h = np.kron(gram, np.eye(out_dim))
    elif mode == "finite_diff":
        h = np.empty((p, p))
        base = np.asarray(params, dtype=np.float64)
        for lo in range(0, p, col_chunk):
            idx = np.arange(lo, min(lo + col_chunk, p))
            b = idx.size
            perturbed = np.repeat(base[None, :], 2 * b, axis=0)
            perturbed[np.arange(b), idx] += _FD_STEP
            perturbed[b + np.arange(b), idx] -= _FD_STEP
            # small inner chunk keeps each intermediate tensor cache-resident
            grads = model.grad_many_params(perturbed, instances, chunk=8)
            h[idx] = (grads[:b] - grads[b:]) / (2.0 * _FD_STEP)
    else:
        raise ValueError(f"unknown Hessian mode {mode!r}")

    h = 0.5 * (h + h.T)
    lam = default_damping(h) if damping is None else float(damping)
    try:
        cho = sla.cho_factor(h + lam * np.eye(p), lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(h)[0])
        raise IndefiniteAfterDamping(min_eig, lam) from None
    return HessianMatrix(matrix=h, damping=lam, cho=cho)


def exact_influence(model: Forecaster, params: np.ndarray,
                    z_target: ForecastInstance,
                    z_context: ForecastInstance,
                    hessian: HessianMatrix) -> float:
    """Damped inverse-Hessian-weighted gradient product, positive = beneficial.

    Solves (H + lambda I) s = grad L(z_target) and returns grad L(z_context)^T s.
    """
    g_target = model.batch_grad(params, z_target).grad
    g_context = model.batch_grad(params, z_context).grad
    s = hessian.solve(g_target)
    return float(np.dot(g_context, s))


def loo_linear_oracle(design: np.ndarray, targets: np.ndarray, ridge: float,
                      index: int,
                      context_design: np.ndarray | None = None,
                      context_targets: np.ndarray | None = None) -> float:
    """Exact context-loss change from dropping one row of a ridge problem.

    Uses the rank-one downdate of (X^T X + ridge I) so no refit is needed.
    The context defaults to the training rows themselves. Positive means the
    removed point was helping the context.
    """
    from scipy import linalg as sla

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


def brute_force_retrain(model: Forecaster, instances: ForecastInstance,
                        leave_out: int | None,
                        context: ForecastInstance,
                        epochs: int, batch_size: int,
                        optimizer: OptimizerConfig, seed: int,
                        init_params: np.ndarray | None = None) -> float:
    """Context-loss change from retraining without one training instance.

    Returns loss(trained without it) - loss(trained on everything), so a
    beneficial instance comes out positive. Same seed and schedule for both
    runs. Guarded to <= 200 training instances.
    """
    if len(instances) > 200:
        raise PTooLarge(f"brute-force retraining guard: {len(instances)} instances > 200")
    full = train(model, instances, epochs, batch_size, optimizer, seed,
                 init_params=init_params)
    kept = instances[np.arange(len(instances)) != leave_out]
    reduced = train(model, kept, epochs, batch_size, optimizer, seed,
                    init_params=init_params)
    loss_full = model.batch_loss(full.params, context)
    loss_reduced = model.batch_loss(reduced.params, context)
    return loss_reduced - loss_full


@dataclass(frozen=True)
class ShapleyEstimate:
    values: np.ndarray
    stderr: np.ndarray
    n_permutations: int
    mode: str

    @property
    def total(self) -> float:
        return float(self.values.sum())


def check_enumerable(n_blocks: int) -> None:
    """Raise PTooLarge if exact Shapley enumeration over n_blocks is refused."""
    if n_blocks > ENUMERATION_CAP:
        raise PTooLarge(f"enumeration mode caps at {ENUMERATION_CAP} blocks, got {n_blocks}")


def mc_shapley(n_blocks: int, utility: Callable[[tuple[int, ...]], float],
               n_permutations: int = 200, seed: int = 0,
               truncation_tol: float = 0.0,
               mode: str = "mc") -> ShapleyEstimate:
    """Shapley values of a set utility over block indices.

    ``enumerate`` mode (n_blocks <= 8) sums the exact subset-weighted
    marginals; ``mc`` averages marginal contributions over seeded random
    permutations, truncating a permutation once the running prefix utility
    is within ``truncation_tol`` of the full-set utility. Utilities must be
    deterministic functions of the subset; they are cached.
    """
    cache: dict[frozenset, float] = {}

    def u(subset: frozenset) -> float:
        if subset not in cache:
            val = float(utility(tuple(sorted(subset))))
            if not math.isfinite(val):
                raise NonFiniteUtility(f"utility of {sorted(subset)} is {val}")
            cache[subset] = val
        return cache[subset]

    if mode == "enumerate":
        check_enumerable(n_blocks)
        weights = [
            math.factorial(s) * math.factorial(n_blocks - s - 1) / math.factorial(n_blocks)
            for s in range(n_blocks)
        ]
        values = np.empty(n_blocks)
        for k in range(n_blocks):
            terms = []
            others = [i for i in range(n_blocks) if i != k]
            for mask in range(1 << (n_blocks - 1)):
                subset = frozenset(others[i] for i in range(n_blocks - 1) if mask >> i & 1)
                terms.append(weights[len(subset)] * (u(subset | {k}) - u(subset)))
            values[k] = math.fsum(terms)
        return ShapleyEstimate(values=values, stderr=np.zeros(n_blocks),
                               n_permutations=0, mode="enumerate")

    if mode != "mc":
        raise ValueError(f"unknown Shapley mode {mode!r}")
    rng = np.random.default_rng(seed)
    u_full = u(frozenset(range(n_blocks)))
    marginals = np.zeros((n_permutations, n_blocks))
    for p in range(n_permutations):
        order = rng.permutation(n_blocks)
        prefix: frozenset = frozenset()
        u_prev = u(prefix)
        truncated = False
        for k in order:
            if truncated or abs(u_prev - u_full) < truncation_tol:
                truncated = True
                continue  # marginal stays 0
            prefix = prefix | {int(k)}
            u_cur = u(prefix)
            marginals[p, k] = u_cur - u_prev
            u_prev = u_cur
    values = marginals.mean(axis=0)
    if n_permutations > 1:
        stderr = marginals.std(axis=0, ddof=1) / math.sqrt(n_permutations)
    else:
        stderr = np.zeros(n_blocks)
    return ShapleyEstimate(values=values, stderr=stderr,
                           n_permutations=n_permutations, mode="mc")


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; each tie group gets the mean of its positions (scipy's "average").

    Any nan makes every rank nan, as ``scipy.stats.rankdata`` does by default.
    """
    x = np.asarray(values, dtype=np.float64)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    stops = np.r_[starts[1:], x.size]
    group_rank = (starts + 1 + stops) / 2.0  # mean of positions starts+1 .. stops
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(group_rank, stops - starts)
    return ranks


def rank_agreement(scores_a: Sequence[float], scores_b: Sequence[float],
                   method: str = "spearman") -> float:
    """Spearman rank correlation (average-rank ties) or sign-match fraction.

    Spearman is the Pearson correlation of the :func:`average_ranks`; it is
    nan when either vector is constant, as ``scipy.stats.spearmanr`` gives.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 3:
        raise LengthMismatch(f"need two equal-length vectors of >= 3 scores, "
                             f"got {a.shape} and {b.shape}")
    if method == "spearman":
        ra = average_ranks(a) - (a.size + 1) / 2.0
        rb = average_ranks(b) - (b.size + 1) / 2.0
        denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
        if denom == 0.0:  # a constant vector has no rank order: nan, as scipy gives
            return math.nan
        return float(np.clip((ra @ rb) / denom, -1.0, 1.0))
    if method == "sign_match":
        return float(np.mean(np.sign(a) == np.sign(b)))
    raise ValueError(f"unknown rank agreement method {method!r}")
