"""Ground-truth and baseline valuators for validating the finetune scores.

These are the expensive routes the one-step estimator is meant to
approximate: a dense damped-Hessian influence solve, closed-form
leave-one-out for ridge systems, and Monte Carlo Shapley. All report
"positive = beneficial" so rank comparisons across methods need no sign
flips.
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
from .forecaster import ForecastInstance, Forecaster

MAX_DENSE_PARAMS = 5000
ENUMERATION_CAP = 8
SHAPLEY_MODES = ("mc", "enumerate")
_FD_STEP = 1e-5
_FD_COL_CHUNK = 128  # Hessian columns per batch of perturbed gradients


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


def default_ridge(x: np.ndarray, n_params: int) -> float:
    """The ridge of ``loo_linear_oracle`` on linear_ar design rows x (N x D):
    1e-3 * ||x||_F^2 / P, which is ``default_damping`` of the analytic
    Hessian over those rows times N / 2, with no P x P matrix formed."""
    return 1e-3 * float(np.vdot(x, x)) / n_params


def build_hessian(model: Forecaster, params: np.ndarray,
                  instances: ForecastInstance, mode: str = "analytic",
                  damping: float | None = None) -> HessianMatrix:
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
        for lo in range(0, p, _FD_COL_CHUNK):
            idx = np.arange(lo, min(lo + _FD_COL_CHUNK, p))
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
                    blocks: ForecastInstance, context: ForecastInstance,
                    hessian: HessianMatrix) -> np.ndarray:
    """Damped inverse-Hessian-weighted gradient product per block, positive = beneficial.

    Solves (H + lambda I) S = G_blocks^T in one call and returns
    grad L(context)^T S: one value per row of ``blocks``.
    """
    g_context = model.batch_grad(params, context).grad
    g_blocks = model.grad_per_instance(params, blocks)
    return g_context @ hessian.solve(g_blocks.T)


def loo_linear_oracle(x: np.ndarray, y: np.ndarray, ridge: float,
                      x_ctx: np.ndarray | None = None,
                      y_ctx: np.ndarray | None = None) -> np.ndarray:
    """Exact context-loss change from dropping each row of a ridge problem.

    Factors X^T X + ridge I once and takes every row's removal as a rank-one
    downdate, so no refit is needed; a row of leverage 1 raises RankDeficient.
    The context defaults to the training rows themselves. One value per row
    of ``x``; positive means the removed row was helping the context.
    """
    from scipy import linalg as sla

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if x_ctx is None:
        x_ctx, y_ctx = x, y
    x_ctx = np.asarray(x_ctx, dtype=np.float64)
    y_ctx = np.asarray(y_ctx, dtype=np.float64)
    if y_ctx.ndim == 1:
        y_ctx = y_ctx[:, None]

    a = x.T @ x + ridge * np.eye(x.shape[1])
    try:
        cho = sla.cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        raise RankDeficient("X^T X + ridge*I is not positive definite") from None
    beta = sla.cho_solve(cho, x.T @ y)

    u = sla.cho_solve(cho, x.T)  # column i solves against row i
    leverage = np.einsum("ij,ji->i", x, u)
    denom = 1.0 - leverage
    unsolvable = np.flatnonzero(denom <= 1e-12)
    if unsolvable.size:
        i = int(unsolvable[0])
        raise RankDeficient(f"leverage {leverage[i]:.6f} at row {i}; removal not solvable")
    resid = y - x @ beta

    def ctx_loss(b):
        return float(np.mean((x_ctx @ b - y_ctx) ** 2))

    without = [ctx_loss(beta - np.outer(u[:, i], resid[i]) / denom[i]) for i in range(len(x))]
    return np.array(without) - ctx_loss(beta)


@dataclass(frozen=True)
class ShapleyEstimate:
    values: np.ndarray
    stderr: np.ndarray

    @property
    def total(self) -> float:
        return float(self.values.sum())


def check_enumerable(n_blocks: int) -> None:
    """Raise PTooLarge if exact Shapley enumeration over n_blocks is refused."""
    if n_blocks > ENUMERATION_CAP:
        raise PTooLarge(f"enumeration mode caps at {ENUMERATION_CAP} blocks, got {n_blocks}")


def mc_shapley(n_blocks: int, utility: Callable[[tuple[int, ...]], float],
               n_permutations: int = 200, seed: int = 0,
               mode: str = "mc") -> ShapleyEstimate:
    """Shapley values of a set utility over block indices.

    ``enumerate`` mode (n_blocks <= 8) sums the exact subset-weighted
    marginals; ``mc`` averages marginal contributions over seeded random
    permutations. Utilities must be deterministic functions of the subset;
    they are cached.
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
        return ShapleyEstimate(values=values, stderr=np.zeros(n_blocks))

    if mode != "mc":
        raise ValueError(f"unknown Shapley mode {mode!r}")
    rng = np.random.default_rng(seed)
    marginals = np.zeros((n_permutations, n_blocks))
    for p in range(n_permutations):
        order = rng.permutation(n_blocks)
        prefix: frozenset = frozenset()
        u_prev = u(prefix)
        for k in order:
            prefix = prefix | {int(k)}
            u_cur = u(prefix)
            marginals[p, k] = u_cur - u_prev
            u_prev = u_cur
    values = marginals.mean(axis=0)
    if n_permutations > 1:
        stderr = marginals.std(axis=0, ddof=1) / math.sqrt(n_permutations)
    else:
        stderr = np.zeros(n_blocks)
    return ShapleyEstimate(values=values, stderr=stderr)


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
