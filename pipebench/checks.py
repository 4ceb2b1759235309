"""Output checks computed apart from the program.

Nothing here imports `tsvalue`. The value checks rebuild the z-scored
target from the benchmark's own raw array and recompute every block score
with the exact closed form of one SGD step on a linear model; the
select-eval checks restate the documented selection and instance-count
rules. Each check raises :class:`CheckFailed`; ``selftest.py`` shows that
each one rejects a perturbed copy of passing outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from workloads import Workload

# A block score is a difference of two context losses, so the program's
# value can be off by a few ulps of the context loss L_ctx; the largest gap
# seen on the value workloads was 3.2 ulps (1.3e-17 absolute on scores of
# ~5e-5). 256 ulps is 80 times that and still rejects a score off by 1e-11
# of the largest score.
SCORE_ULPS = 256
# Re-aggregation sums the same block scores in another order.
AGG_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_outputs(workload: Workload, out_dir: Path) -> dict:
    """Parse the main outputs of one run."""
    if workload.command == "value":
        return {name.split(".")[0]: json.loads((out_dir / name).read_text(encoding="utf-8"))
                for name in workload.main_outputs}
    with (out_dir / "select_eval.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {"rows": rows}


def output_digest(workload: Workload, out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in workload.main_outputs:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


# --- value workloads -----------------------------------------------------------

def _sample_of(starts: np.ndarray, workload: Workload) -> np.ndarray:
    """Index of the sample holding each block start; the tail joins the last sample."""
    return np.minimum(starts // workload.sample_length, workload.n_samples - 1)


def _expected_starts(workload: Workload) -> np.ndarray:
    return np.arange(workload.n_blocks) * workload.stride


def zscored_target(workload: Workload, raw: np.ndarray) -> np.ndarray:
    target = raw[:workload.target]
    std = target.std(axis=0)
    std[std == 0.0] = 1.0
    return (target - target.mean(axis=0)) / std


def check_provenance(w: Workload, raw, docs) -> None:
    hashes = {docs["value_model"]["meta"]["config_hash"]}
    hashes |= {docs[name]["config_hash"] for name in ("blocks", "points", "samples")}
    _require(len(hashes) == 1, f"outputs carry different config hashes {sorted(hashes)}")


def check_block_grid(w: Workload, raw, docs) -> None:
    blocks = docs["blocks"]["blocks"]
    starts = [b["start"] for b in blocks]
    _require(starts == _expected_starts(w).tolist(),
             f"block starts are not the stride-{w.stride} grid over {w.target} steps")
    _require(all(b["length"] == w.block_length for b in blocks), "block of wrong length")


def check_folds(w: Workload, raw, docs) -> None:
    blocks = docs["blocks"]["blocks"]
    k = docs["blocks"]["config"]["valuation"]["k_folds"]
    starts = np.array([b["start"] for b in blocks])
    folds = np.array([b["fold"] for b in blocks])
    _require(bool(((folds >= 0) & (folds < k)).all()), "fold id outside [0, k)")
    sample_fold = np.full(w.n_samples, -1)
    for s, f in zip(_sample_of(starts, w).tolist(), folds.tolist()):
        _require(sample_fold[s] in (-1, f), f"sample {s} has blocks in two folds")
        sample_fold[s] = f
    _require(bool((sample_fold >= 0).all()), "a sample has no block")
    sizes = np.bincount(sample_fold, minlength=k)
    _require(sizes.max() - sizes.min() <= 1, f"fold sizes {sizes.tolist()} differ by more than 1")


def closed_form_scores(w: Workload, raw: np.ndarray, model: dict,
                       folds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step SGD scores of every block, and each block's context loss.

    For a linear model the context loss after the step theta - eta*Delta_B is
    a quadratic in eta, so with g = gradient of the context loss,
        v = eta<g_ctx, g_B> - eta^2 mean((A_ctx Delta_B)^2),
    and Delta_B = (2/O) a_B r_B^T turns both terms into per-block inner
    products with the fold's gradient and Gram matrix.
    """
    spec = model["spec"]
    L, H, M = w.block_length, w.config["model"]["horizon"], w.channels
    W, O = L - H, H * M
    _require(spec["architecture"] == "linear_ar" and spec["lookback"] == W
             and spec["horizon"] == H and spec["channels"] == M and spec["bias"],
             f"value model spec {spec} is not linear_ar {W}->{H} x {M} with bias")
    eta = w.config["valuation"]["learning_rate"]
    theta = np.asarray(model["params"], dtype=np.float64).reshape(W * M + 1, O)

    z = zscored_target(w, raw)
    windows = sliding_window_view(z, L, axis=0)[_expected_starts(w)]  # nb x M x L
    windows = windows.transpose(0, 2, 1)                              # nb x L x M
    nb = windows.shape[0]
    a = np.concatenate([windows[:, :W].reshape(nb, W * M), np.ones((nb, 1))], axis=1)
    y = windows[:, W:].reshape(nb, O)
    r = a @ theta - y

    values = np.empty(nb)
    ctx_loss = np.empty(nb)
    for f in np.unique(folds):
        own, ctx = folds == f, folds != f
        n_ctx = int(ctx.sum())
        a_ctx, r_ctx = a[ctx], r[ctx]
        g_ctx = (2.0 / (n_ctx * O)) * a_ctx.T @ r_ctx
        gram = a_ctx.T @ a_ctx
        a_b, r_b = a[own], r[own]
        first = eta * (2.0 / O) * np.einsum("bo,bo->b", a_b @ g_ctx, r_b)
        quad = (eta**2 * (4.0 / O**2) * np.einsum("bd,bd->b", a_b @ gram, a_b)
                * np.einsum("bo,bo->b", r_b, r_b) / (n_ctx * O))
        values[own] = first - quad
        ctx_loss[own] = np.mean(r_ctx**2)
    return values, ctx_loss


def check_block_scores(w: Workload, raw, docs) -> None:
    blocks = docs["blocks"]["blocks"]
    _require(len(blocks) == w.n_blocks, f"{len(blocks)} blocks, expected {w.n_blocks}")
    folds = np.array([b["fold"] for b in blocks])
    got = np.array([b["value"] for b in blocks], dtype=np.float64)
    want, ctx_loss = closed_form_scores(w, raw, docs["value_model"], folds)
    tol = SCORE_ULPS * np.finfo(float).eps * ctx_loss
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    _require(bad.size == 0,
             f"{bad.size} block scores differ from the closed form; first at block "
             f"{bad[:1].tolist()}: {got[bad[:1]].tolist()} vs {want[bad[:1]].tolist()}")


def _point_means(w: Workload, docs) -> tuple[np.ndarray, np.ndarray]:
    """Coverage and mean covering block score per target index, by difference arrays."""
    blocks = docs["blocks"]["blocks"]
    starts = _expected_starts(w)
    values = np.array([b["value"] for b in blocks], dtype=np.float64)
    cover = np.zeros(w.target + 1, dtype=np.int64)
    total = np.zeros(w.target + 1)
    np.add.at(cover, starts, 1)
    np.add.at(cover, starts + w.block_length, -1)
    np.add.at(total, starts, values)
    np.add.at(total, starts + w.block_length, -values)
    cover, total = np.cumsum(cover)[:-1], np.cumsum(total)[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        return cover, np.where(cover > 0, total / np.maximum(cover, 1), np.nan)


def _agg_tol(docs) -> float:
    return AGG_RTOL * max(abs(b["value"]) for b in docs["blocks"]["blocks"])


def check_points(w: Workload, raw, docs) -> None:
    points = docs["points"]["points"]
    _require(len(points) == w.target, f"{len(points)} points, expected {w.target}")
    _require([p["index"] for p in points] == list(range(w.target)), "point indices out of order")
    cover, means = _point_means(w, docs)
    got_cover = np.array([p["coverage"] for p in points])
    _require(bool((got_cover == cover).all()),
             f"point coverage differs at index {np.flatnonzero(got_cover != cover)[:1].tolist()}")
    tol = _agg_tol(docs)
    for i, p in enumerate(points):
        if cover[i] == 0:
            _require(p["value"] is None, f"uncovered point {i} has value {p['value']}")
        else:
            _require(p["value"] is not None and abs(p["value"] - means[i]) <= tol,
                     f"point {i} value {p['value']} != mean of covering blocks {means[i]}")


def check_samples(w: Workload, raw, docs) -> None:
    samples = docs["samples"]["samples"]
    s_len = w.sample_length
    _require([(s["start"], s["length"]) for s in samples]
             == [(i * s_len, s_len) for i in range(w.n_samples)],
             "sample windows are not the consecutive sample grid")
    cover, means = _point_means(w, docs)
    tol = _agg_tol(docs)
    for i, s in enumerate(samples):
        window = means[i * s_len:(i + 1) * s_len][cover[i * s_len:(i + 1) * s_len] > 0]
        _require(window.size > 0 and abs(s["value"] - window.mean()) <= tol,
                 f"sample {i} value {s['value']} != mean of its scored points")


def check_single_block_samples(w: Workload, raw, docs) -> None:
    """Non-overlapping blocks that tile the samples: sample i is block i."""
    blocks = docs["blocks"]["blocks"]
    samples = docs["samples"]["samples"]
    _require(len(samples) == len(blocks), f"{len(samples)} samples for {len(blocks)} blocks")
    tol = _agg_tol(docs)
    for i, (s, b) in enumerate(zip(samples, blocks)):
        _require(abs(s["value"] - b["value"]) <= tol,
                 f"sample {i} value {s['value']} != its block's score {b['value']}")
    covered_end = (w.n_blocks - 1) * w.stride + w.block_length
    tail = docs["points"]["points"][covered_end:]
    _require(len(tail) == w.target - covered_end
             and all(p["value"] is None and p["coverage"] == 0 for p in tail),
             f"the {w.target - covered_end} trailing points are not all unscored")


# --- select-eval workload --------------------------------------------------------

def n_selected(ratio: float, n: int) -> int:
    """Nearest count to ratio*n, halves rounded down, at least one."""
    x = Fraction(ratio) * n
    k = math.floor(x)
    if x - k > Fraction(1, 2):
        k += 1
    return max(1, k)


def _instances_per_sample(w: Workload) -> int:
    ft = w.config["finetune"]
    return (w.sample_length - w.block_length) // ft["instance_stride"] + 1


def check_selection_counts(w: Workload, raw, docs) -> None:
    sel = w.config["selection"]
    rows = docs["rows"]
    _require([r["strategy"] for r in rows] == sel["strategies"],
             f"strategies {[r['strategy'] for r in rows]} != {sel['strategies']}")
    k = n_selected(sel["ratio"], w.n_samples)
    for r in rows:
        want = w.n_samples if r["strategy"] == "full" else k
        _require(int(r["n_selected"]) == want,
                 f"{r['strategy']} selected {r['n_selected']} samples, expected {want}")
        want_inst = int(r["n_selected"]) * _instances_per_sample(w)
        _require(int(r["n_train_instances"]) == want_inst,
                 f"{r['strategy']} trained on {r['n_train_instances']} instances, "
                 f"expected {want_inst}")


def check_eval_metrics(w: Workload, raw, docs) -> None:
    for r in docs["rows"]:
        mse, mae = float(r["mse"]), float(r["mae"])
        _require(math.isfinite(mse) and 0.0 < mae <= math.sqrt(mse),
                 f"{r['strategy']}: need 0 < MAE <= sqrt(MSE), got mse={mse} mae={mae}")


def check_selections(w: Workload, raw, docs) -> None:
    """Chosen sample indices, as the traced run saw them returned by `select`."""
    trace = docs["trace"]
    scores = trace["sample_scores"]
    n, s_len = w.n_samples, w.sample_length
    _require([s for s, _ in scores] == [i * s_len for i in range(n)],
             "traced sample scores are not the sample grid")
    chosen = trace["selections"]
    k = n_selected(w.config["selection"]["ratio"], n)
    _require(chosen.get("full") == list(range(n)), "full does not select every sample")
    for name in ("top", "bottom", "random"):
        picked = chosen.get(name, [])
        _require(len(set(picked)) == k and all(0 <= i < n for i in picked),
                 f"{name} did not choose {k} distinct samples")
    _require(not set(chosen["top"]) & set(chosen["bottom"]), "top and bottom overlap")
    by_rank = sorted(range(n), key=lambda i: (-scores[i][1], scores[i][0]))
    _require(sorted(by_rank[:k]) == chosen["top"], "top is not the k highest-scored samples")
    by_rank = sorted(range(n), key=lambda i: (scores[i][1], scores[i][0]))
    _require(sorted(by_rank[:k]) == chosen["bottom"], "bottom is not the k lowest-scored samples")


VALUE_CHECKS = [check_provenance, check_block_grid, check_folds, check_block_scores,
                check_points, check_samples]
SELECT_EVAL_CHECKS = [check_selection_counts, check_eval_metrics, check_selections]


def checks_for(w: Workload) -> list:
    if w.command == "select-eval":
        return SELECT_EVAL_CHECKS
    if w.stride == w.block_length == w.sample_length:
        return VALUE_CHECKS + [check_single_block_samples]
    return VALUE_CHECKS


# --- traced counts ---------------------------------------------------------------

def expected_counts(w: Workload) -> dict[str, int]:
    """Totals the traced counters must reach, from the config alone."""
    pre = w.config["pretrain"]
    n_fit = (w.target - w.block_length) // pre["instance_stride"] + 1
    want = {
        "valuation.blocks": w.n_blocks,
        "forecaster.fit_batches": pre["epochs"] * -(-n_fit // pre["batch_size"]),
    }
    if w.command == "select-eval":
        ft = w.config["finetune"]
        k = n_selected(w.config["selection"]["ratio"], w.n_samples)
        per_strategy = [(w.n_samples if s == "full" else k) * _instances_per_sample(w)
                        for s in w.config["selection"]["strategies"]]
        want["selection.finetune_instances"] = sum(per_strategy)
        want["selection.finetune_batches"] = sum(
            ft["epochs"] * -(-n // ft["batch_size"]) for n in per_strategy)
    else:
        want["selection.finetune_instances"] = 0
        want["selection.finetune_batches"] = 0
    return want


def check_counts(w: Workload, counts: dict[str, int]) -> None:
    for name, want in expected_counts(w).items():
        _require(counts.get(name) == want, f"traced {name} = {counts.get(name)}, expected {want}")


def check_reruns(digests: set[str]) -> None:
    _require(len(digests) == 1, f"reruns left {len(digests)} different main outputs")


def check_run(w: Workload, raw: np.ndarray, out_dir: Path, trace: dict) -> None:
    docs = read_outputs(w, out_dir)
    docs["trace"] = trace
    for check in checks_for(w):
        check(w, raw, docs)
