"""Runtime-scaling benchmark: wall time of one-step valuation and dense influence vs P.

The select-and-evaluate grids (block-length ablation, cross-model
generalization) live in ``cli`` with the loop they share.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .forecaster import ForecastInstance, Forecaster, ModelSpec
from .oracles import build_hessian
from .valuation import ValuationConfig, score_blocks_batch

BENCH_METHODS = ("one_step", "exact_influence")


@dataclass(frozen=True)
class BenchRow:
    method: str
    p_target: int
    p_actual: int
    times: tuple[float, ...]

    @property
    def median_seconds(self) -> float:
        return float(np.median(self.times))


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]
    slopes: dict[str, float]


def mlp_spec_for_params(p_target: int, init_seed: int = 0) -> ModelSpec:
    """The benchmark's MLP from 16 steps of one channel to one step, sized from p_target.

    Each hidden unit carries 18 parameters (16 inputs, the input bias, one
    output) and the output bias adds 1, so P = 18 * hidden + 1. The width
    divides by 19, not 18, so P falls about 5% under p_target: 289, 955,
    2,845, 9,469 and 28,423 for 300 to 30,000. The closest size to 3,000
    (3,007) would exceed the default ``exact_limit`` and drop an
    exact-influence point from the slope fit.
    """
    hidden = max(1, round((p_target - 1) / 19))
    return ModelSpec(architecture="mlp", lookback=16, horizon=1, channels=1,
                     hidden=hidden, init_seed=init_seed)


def _bench_instances(model: Forecaster, params: np.ndarray, n: int,
                     rng: np.random.Generator, jitter: float = 0.05):
    """Random inputs with targets near the model's own predictions.

    Small residuals keep the empirical Hessian close to its positive
    semidefinite Gauss-Newton part, so the dense oracle factorizes under
    default damping; the arithmetic being timed is unchanged.
    """
    spec = model.spec
    xs, ys = [], []
    for _ in range(n):
        xs.append(rng.normal(size=(spec.lookback, spec.channels)))
        ys.append(model.predict(params, xs[-1])
                  + jitter * rng.normal(size=(spec.horizon, spec.channels)))
    return ForecastInstance(np.stack(xs), np.stack(ys))


def bench_scaling(p_list: list[int], methods: tuple[str, ...] = BENCH_METHODS,
                  n_blocks: int = 256, repeats: int = 3, n_context: int = 64,
                  seed: int = 0, exact_limit: int = 3000) -> BenchReport:
    """Wall time per method per model size, plus log-log slopes.

    Both methods run vectorized kernels so the measured time reflects the
    arithmetic each algorithm performs, not per-block interpreter overhead.
    ``exact_influence`` rows are skipped above ``exact_limit`` parameters
    (the dense build is quadratic; the hard guard sits at 5000). Timing is
    taken as ``_time_interleaved`` describes, and each slope is fitted to
    the fastest repeat of every size: host noise only ever adds time.
    """
    rng = np.random.default_rng(seed)
    config = ValuationConfig(block_length=32, learning_rate=1e-4)
    cases = []  # (method, p_target, p_actual, call)
    for p_target in sorted(p_list):
        spec = mlp_spec_for_params(p_target, init_seed=seed)
        model = Forecaster(spec)
        params = model.init_params()
        blocks = _bench_instances(model, params, n_blocks, rng)
        context = _bench_instances(model, params, n_context, rng)
        if "one_step" in methods:
            cases.append(("one_step", p_target, spec.n_params,
                          partial(score_blocks_batch, model, params, blocks, context, config)))
        if "exact_influence" in methods and spec.n_params <= exact_limit:
            cases.append(("exact_influence", p_target, spec.n_params,
                          partial(_dense_influence, model, params, blocks, context)))
    times = _time_interleaved([call for *_, call in cases], repeats)
    rows = [BenchRow(method, p_target, p_actual, t)
            for (method, p_target, p_actual, _), t in zip(cases, times)]
    slopes = {}
    for method in methods:
        sub = [r for r in rows if r.method == method]
        if len(sub) >= 2:
            logs_p = np.log([r.p_actual for r in sub])
            logs_t = np.log([min(r.times) for r in sub])
            slopes[method] = float(np.polyfit(logs_p, logs_t, 1)[0])
    return BenchReport(rows=rows, slopes=slopes)


def _dense_influence(model: Forecaster, params: np.ndarray,
                     blocks: ForecastInstance,
                     context: ForecastInstance) -> np.ndarray:
    # unit damping: cost is what matters here, and an untrained network's
    # Hessian can dip below the trace-based default. The inverse is
    # materialized once so its cost amortizes over arbitrarily many scored
    # blocks, as a dense influence pipeline would do at scale.
    hess = build_hessian(model, params, context, mode="finite_diff", damping=1.0)
    h_inv = hess.solve(np.eye(model.spec.n_params))
    g_blocks = model.grad_per_instance(params, blocks)
    g_ctx = model.batch_grad(params, context).grad
    return g_ctx @ (h_inv @ g_blocks.T)


def _time_interleaved(calls: list, repeats: int) -> list[tuple[float, ...]]:
    """``repeats`` wall times per call, taken in rounds over all the calls.

    One warm-up round first (it also loads any lazily imported BLAS). The
    timed rounds run with every OpenBLAS limited to one thread, so the
    times follow each method's arithmetic: on a two-core host a second
    thread sped up the largest sizes and slowed down the smallest.
    Rounds put a slow stretch of a shared host on every size at once
    rather than on all the repeats of one size.
    """
    for call in calls:
        call()
    times = [[] for _ in calls]
    with _single_threaded_blas():
        for _ in range(repeats):
            for call, out in zip(calls, times):
                start = time.perf_counter()
                call()
                out.append(time.perf_counter() - start)
    return [tuple(t) for t in times]


# (get, set) thread-count entry points of OpenBLAS builds: plain, and the
# renamed scipy-openblas builds that numpy and scipy wheels bundle.
_OPENBLAS_THREAD_CALLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                          for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS in this process.

    Libraries are found in ``/proc/self/maps``; where that file or an
    OpenBLAS is absent (another OS or BLAS) the list is empty.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                controls.append((getattr(lib, get), getattr(lib, set_)))
                break
    return controls


@contextmanager
def _single_threaded_blas():
    """Limit every loaded OpenBLAS to one thread, then restore its count."""
    saved = [(get(), set_threads) for get, set_threads in _openblas_thread_controls()]
    for _, set_threads in saved:
        set_threads(1)
    try:
        yield
    finally:
        for n, set_threads in saved:
            set_threads(n)
