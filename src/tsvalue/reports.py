"""Deterministic report writers.

Main outputs (scores, selection tables, fidelity matrices) are
byte-identical across reruns of the same config; wall-clock measurements
go to sidecar timing files so they never break that property. The scaling
benchmark is the one output whose payload is timing itself.
"""

from __future__ import annotations

import csv
import json
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .experiments import BenchReport
from .selection import EvalReport
from .valuation import BlockScores, PointScores, SampleScores


def _doc(config_hash: str, body: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash, **body}


def write_json(path: Path, config_hash: str, body: dict) -> None:
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
                 block_scores: BlockScores, point_scores: PointScores,
                 sample_scores: SampleScores) -> list[Path]:
    """blocks.json, points.json and samples.json: write_json's bytes, at C speed."""
    coverage = point_scores.coverage
    windows = sample_scores.windows
    paths = [out_dir / f"{key}.json" for key in ("blocks", "points", "samples")]
    _write_records(paths[0], config_hash, config_echo, "blocks", {
        "start": map(str, block_scores.starts.tolist()),
        "length": [str(block_scores.length)] * len(block_scores),
        "value": _floats(block_scores.values),
        "fold": map(str, block_scores.folds.tolist())})
    _write_records(paths[1], config_hash, config_echo, "points", {
        "index": map(str, range(len(coverage))),
        "value": _floats(point_scores.values, null=coverage == 0),
        "coverage": map(str, coverage.tolist())})
    _write_records(paths[2], config_hash, config_echo, "samples", {
        "start": map(str, (w.start for w in windows)),
        "length": map(str, (w.length for w in windows)),
        "value": _floats(sample_scores.values)})
    return paths


# records per write call: bounds the text held at once to a few hundred KB
_RECORD_CHUNK = 4096


def _floats(values: np.ndarray, null: np.ndarray | None = None) -> list[str]:
    """json.dumps' text of each float (``null`` where the mask is set)."""
    cells = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        cells[i] = json.dumps(float(values[i]))  # NaN / Infinity, as json.dump spells them
    if null is not None:
        for i in np.flatnonzero(null):
            cells[i] = "null"
    return cells


def _write_records(path: Path, config_hash: str, config_echo: dict, key: str,
                   columns: dict[str, Iterable[str]]) -> None:
    """write_json's bytes for the config echo and a ``key`` list of one record per row of cells.

    json.dumps writes the document around the list, and a %-template over
    the sorted field names writes each record from its JSON-encoded cells.
    """
    doc = json.dumps(_doc(config_hash, {"config": config_echo, key: []}),
                     sort_keys=True, indent=1)
    opening = f"\n {json.dumps(key)}: ["
    head, tail = doc.split(opening + "]")  # the one top-level line at indent 1
    names = sorted(columns)
    template = "\n  {" + ",".join(f"\n   {json.dumps(n)}: %s" for n in names) + "\n  }"
    rows = zip(*(columns[n] for n in names))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(head + opening)
        separator = ""
        while chunk := list(islice(rows, _RECORD_CHUNK)):
            fh.write(separator + ",".join([template % row for row in chunk]))
            separator = ","
        fh.write(("\n ]" if separator else "]") + tail + "\n")


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
