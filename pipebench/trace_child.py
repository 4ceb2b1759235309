"""Run one `tsvalue` command in this process with spans around its layers.

    python3 trace_child.py RESULT_JSON spans|memory TSVALUE_ARGS...

The program is not changed: the wrappers replace the public functions in
the module namespaces where `tsvalue.cli` and `tsvalue.pipeline` look them
up, plus a few class attributes of `tsvalue.forecaster` and
`tsvalue.series`. Every wrapped call records a span (name, start, end,
parent); spans stay in memory and are written to RESULT_JSON when the
command returns, with the counts taken at the same boundaries.

In ``memory`` mode tracemalloc runs as well, and the peak traced memory
above the span's starting level is recorded for the load and scoring spans.
It slows the command, so its spans are not used for times.

Needs ``src`` on PYTHONPATH; nothing from numpy or tsvalue is imported
before the timed ``import tsvalue.cli``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

PEAK_SPANS = ("series.load_csv", "valuation.score")


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.peaks_mb: dict[str, float] = {}
        self.selections: dict[str, list[int]] = {}
        self.sample_scores: list[list[float]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self.stack.append(index)
        track_peak = self.memory and name in PEAK_SPANS
        if track_peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if track_peak:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks_mb[name] = max(peak, self.peaks_mb.get(name, 0.0))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    from tsvalue import cli, forecaster, pipeline, selection, series

    t = tracer
    t.wrap(cli, "load_csv", "series.load_csv")
    for attr in ("split_holdout", "inject_corruption", "compute_norm_stats", "normalize"):
        t.wrap(cli, attr, "series.prepare")
    t.wrap(series.TimeSeries, "slice", "series.prepare")

    t.wrap(cli, "fit_value_model", "pipeline.fit_value_model")
    t.wrap(cli, "run_valuation", "pipeline.run_valuation",
           after=lambda a, k, run: t.sample_scores.extend(
               [w.start, float(v)] for w, v in zip(run.sample_scores.windows,
                                                   run.sample_scores.values)))
    t.wrap(pipeline, "sliding_instances", "forecaster.instances")
    t.wrap(pipeline, "train", "forecaster.fit")
    t.wrap(pipeline, "value_all_blocks", "valuation.score",
           after=lambda a, k, blocks: t.count("valuation.blocks", len(blocks)))
    t.wrap(pipeline, "aggregate_points", "valuation.aggregate")
    t.wrap(pipeline, "aggregate_samples", "valuation.aggregate")

    t.wrap(cli, "select", "selection.select",
           after=lambda a, k, sel: t.selections.__setitem__(sel.strategy, list(sel.chosen)))
    t.wrap(cli, "finetune_and_eval", "selection.eval")
    t.wrap(selection, "train", "selection.finetune",
           after=lambda a, k, r: t.count("selection.finetune_instances", len(a[1])))

    for attr in ("write_scores", "write_eval_reports", "write_json", "save_model"):
        t.wrap(cli, attr, "reports.write")

    # counts only: these run thousands of times inside the spans above
    post_init = forecaster.ForecastInstance.__post_init__

    def counted_post_init(self):
        t.count("forecaster.instances_built")
        post_init(self)

    forecaster.ForecastInstance.__post_init__ = counted_post_init

    design_matrix = forecaster.Forecaster.design_matrix

    def counted_design_matrix(self, instances):
        t.count("forecaster.design_rows", len(instances))
        return design_matrix(self, instances)

    forecaster.Forecaster.design_matrix = counted_design_matrix

    batch_grad = forecaster.Forecaster.batch_grad

    def counted_batch_grad(self, params, instances):
        t.count("batch_grad@" + t.current())
        return batch_grad(self, params, instances)

    forecaster.Forecaster.batch_grad = counted_batch_grad


def main(argv: list[str]) -> int:
    result_path, mode, tsvalue_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import tsvalue.cli
    import_s = time.perf_counter() - start

    tracer = Tracer(memory=(mode == "memory"))
    install(tracer)
    if tracer.memory:
        tracemalloc.start()
    code = tracer.call("cli.main", tsvalue.cli.main, (tsvalue_args,), {})
    if tracer.memory:
        tracemalloc.stop()
    doc = {
        "run_id": f"{os.getpid()}-{time.time_ns()}",
        "exit_code": code,
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "peaks_mb": tracer.peaks_mb,
        "selections": tracer.selections,
        "sample_scores": tracer.sample_scores,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
