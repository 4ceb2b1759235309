"""Deterministic report writers.

Main outputs (scores, selection tables, fidelity matrices) are
byte-identical across reruns of the same config; wall-clock measurements
go to sidecar timing files so they never break that property. The scaling
benchmark is the one output whose payload is timing itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .experiments import BenchReport
from .selection import EvalReport
from .valuation import BlockScore, PointScores, SampleScores


def _doc(config_hash: str, body: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash, **body}


def write_json(path: Path, config_hash: str, body: dict) -> None:
    # streamed: the indented encoder yields several chunks per list entry,
    # and joining them first held ~38 MB for the 56k points of an 80k-step series
    with path.open("w", encoding="utf-8") as fh:
        json.dump(_doc(config_hash, body), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path: Path, config_hash: str, header: list[str],
              rows: Iterable[Iterable]) -> None:
    """CSV with a comment line carrying provenance (readable via comment='#')."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# version={__version__} config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(list(row))


def write_scores(out_dir: Path, config_hash: str, config_echo: dict,
                 block_scores: list[BlockScore], point_scores: PointScores,
                 sample_scores: SampleScores) -> list[Path]:
    blocks_path = out_dir / "blocks.json"
    write_json(blocks_path, config_hash, {
        "config": config_echo,
        "blocks": [
            {"start": b.block.start, "length": b.block.length,
             "value": b.value, "fold": b.fold_id}
            for b in block_scores
        ],
    })
    points_path = out_dir / "points.json"
    write_json(points_path, config_hash, {
        "config": config_echo,
        "points": [
            {"index": i,
             "value": None if cov == 0 else float(v),
             "coverage": int(cov)}
            for i, (v, cov) in enumerate(zip(point_scores.values, point_scores.coverage))
        ],
    })
    samples_path = out_dir / "samples.json"
    write_json(samples_path, config_hash, {
        "config": config_echo,
        "samples": [
            {"start": w.start, "length": w.length, "value": float(v)}
            for w, v in zip(sample_scores.windows, sample_scores.values)
        ],
    })
    return [blocks_path, points_path, samples_path]


_EVAL_HEADER = ["strategy", "ratio", "mse", "mae", "n_selected",
                "n_train_instances", "seed", "dataset"]


def _eval_row(r: EvalReport) -> list:
    return [r.strategy, r.ratio, repr(r.mse), repr(r.mae), r.n_selected,
            r.n_train_instances, r.seed, r.dataset_id]


def write_eval_reports(out_dir: Path, name: str, config_hash: str,
                       reports: list[EvalReport],
                       lead: tuple[str, Callable[[EvalReport], object]] | None = None) -> Path:
    """``name``.csv and its timing sidecar, one row per report.

    ``lead`` is an optional (header, value of a report) leading column.
    """
    head, first = ([lead[0]], lambda r: [lead[1](r)]) if lead else ([], lambda r: [])
    path = out_dir / f"{name}.csv"
    write_csv(path, config_hash, head + _EVAL_HEADER, [first(r) + _eval_row(r) for r in reports])
    write_csv(out_dir / f"{name}_timings.csv", config_hash,
              head + ["strategy", "ratio", "wall_time_s"],
              [first(r) + [r.strategy, r.ratio, r.wall_time] for r in reports])
    return path


def _block_length(r: EvalReport) -> int:
    return r.model_spec.lookback + r.model_spec.horizon  # as spec_for_block_length split it


def write_ablation(out_dir: Path, config_hash: str, reports: list[EvalReport]) -> Path:
    tidy = write_eval_reports(out_dir, "ablation", config_hash, reports,
                              lead=("block_length", _block_length))
    # pivot: one row per strategy, one (mse, mae) column pair per block length
    lengths = sorted({_block_length(r) for r in reports})
    strategies = list(dict.fromkeys(r.strategy for r in reports))
    by_key = {(_block_length(r), r.strategy): r for r in reports}
    header = ["strategy"]
    for length in lengths:
        header += [f"mse@L{length}", f"mae@L{length}"]
    rows = []
    for strat in strategies:
        row = [strat]
        for length in lengths:
            rep = by_key.get((length, strat))
            row += [repr(rep.mse), repr(rep.mae)] if rep else ["", ""]
        rows.append(row)
    write_csv(out_dir / "ablation_table.csv", config_hash, header, rows)
    return tidy


def write_generalization(out_dir: Path, config_hash: str, reports: list[EvalReport]) -> Path:
    return write_eval_reports(out_dir, "generalize", config_hash, reports,
                              lead=("sel_ratio", lambda r: r.ratio))


def write_bench(out_dir: Path, config_hash: str, report: BenchReport) -> Path:
    path = out_dir / "bench.csv"
    rows = [
        [r.method, r.p_target, r.p_actual, repr(r.median_seconds)]
        + [repr(t) for t in r.times]
        for r in report.rows
    ]
    n_rep = max(len(r.times) for r in report.rows) if report.rows else 0
    write_csv(path, config_hash,
              ["method", "p_target", "p_actual", "median_seconds"]
              + [f"t{i}" for i in range(n_rep)], rows)
    write_json(out_dir / "bench_slopes.json", config_hash,
               {"slopes": report.slopes,
                "rows": [{"method": r.method, "p_actual": r.p_actual,
                          "median_seconds": r.median_seconds} for r in report.rows]})
    return path
