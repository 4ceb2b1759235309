"""Pipeline benchmark for `tsvalue value` and `tsvalue select-eval`.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
The workload's inputs are made from the seed, then the command is run as
fresh `tsvalue` processes, one after another, until S seconds have passed.
Every run also makes one traced run, whose captured selections and counts
feed the checks. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics from untraced processes:
  setup_s      normalised time of one `tsvalue --version` process (import
               of tsvalue.cli), the first process the run starts
  wall_s       median over rounds of the normalised time of the workload
               command, spawn to exit
  peak_rss_mb  median over rounds of the command's ru_maxrss
A normalised time is the process's wall time at the reference speed of
its vCPU, sampled while it runs (see speed.py).
--trace 1 alternates untraced and traced rounds, after one tracemalloc
round, and reports the per-layer metrics (see README.md).

BLAS threads are pinned to one; only one program process runs at a time,
pinned to the vCPU that probes fastest just before it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

WORK_DIR = ROOT / ".pipebench-work"
TSVALUE_MAIN = "import sys; from tsvalue.cli import main; sys.exit(main())"
TRACE_CHILD = str(BENCH_DIR / "trace_child.py")

# span name in trace_child.py -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "series.load_csv": "series.load_csv_s",
    "series.prepare": "series.prepare_s",
    "pipeline.fit_value_model": "pipeline.self_s",
    "pipeline.run_valuation": "pipeline.self_s",
    "forecaster.instances": "forecaster.instances_s",
    "forecaster.fit": "forecaster.fit_s",
    "valuation.score": "valuation.score_s",
    "valuation.aggregate": "valuation.aggregate_s",
    "selection.select": "selection.select_s",
    "selection.eval": "selection.eval_s",
    "selection.finetune": "selection.finetune_s",
    "reports.write": "reports.write_s",
}
COUNT_METRICS = {
    "forecaster.instances_built": "forecaster.instances_built",
    "forecaster.design_rows": "forecaster.design_rows",
    "batch_grad@forecaster.fit": "forecaster.fit_batches",
    "valuation.blocks": "valuation.blocks",
    "selection.finetune_instances": "selection.finetune_instances",
    "batch_grad@selection.finetune": "selection.finetune_batches",
}


@dataclass
class Proc:
    wall_s: float   # raw, spawn to exit
    norm_s: float   # wall_s at the reference vCPU speed
    rss_mb: float
    code: int


class Runner:
    """Spawns program processes for one workload and keeps their tally."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.monitor = speed.SpeedMonitor()
        self.work = work
        self.out = work / "out"
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(
                            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def spawn(self, argv: list[str]) -> Proc:
        self.attempted += 1
        stderr_path = self.work / "stderr.txt"
        cpu = self.monitor.pick_cpu()
        with stderr_path.open("wb") as err:
            os.sched_setaffinity(0, {cpu})  # the child inherits this thread's vCPU
            try:
                self.monitor.start(cpu)
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=ROOT,
                                        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                        stderr=err)
            finally:
                os.sched_setaffinity(0, self.monitor.cpus)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            samples = self.monitor.stop()
        if not samples:
            os.sched_setaffinity(0, {cpu})
            samples = [speed.probe()]
            os.sched_setaffinity(0, self.monitor.cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(f"pipebench: {argv[-6:]} exited {proc.returncode}: "
                             + stderr_path.read_text(errors="replace")[-2000:])
        return Proc(wall, speed.normalised(wall, samples), usage.ru_maxrss / 1024.0,
                    proc.returncode)

    def close(self) -> None:
        self.monitor.close()

    def command_args(self, config: Path) -> list[str]:
        return [self.workload.command, "--config", str(config), "--out", str(self.out)]

    def run_plain(self, config: Path) -> Proc:
        shutil.rmtree(self.out, ignore_errors=True)
        proc = self.spawn(["-c", TSVALUE_MAIN, *self.command_args(config)])
        if proc.code == 0:
            self.digests.add(checks.output_digest(self.workload, self.out))
        return proc

    def run_traced(self, config: Path, mode: str) -> tuple[Proc, dict | None]:
        shutil.rmtree(self.out, ignore_errors=True)
        result = self.work / "trace.json"
        proc = self.spawn([TRACE_CHILD, str(result), mode, *self.command_args(config)])
        if proc.code != 0:
            return proc, None
        self.digests.add(checks.output_digest(self.workload, self.out))
        return proc, json.loads(result.read_text(encoding="utf-8"))


def self_times(trace: dict) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its child spans cover."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for (name, start, end, _), covered in zip(spans, child_time):
        out[SPAN_METRICS[name]] += (end - start) - covered
    return out


def counts_of(trace: dict) -> dict[str, int]:
    return {metric: trace["counts"].get(key, 0) for key, metric in COUNT_METRICS.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(workload: Workload, seed: int, seconds: float, traced: bool,
          work: Path) -> dict:
    work.mkdir(parents=True)
    runner = Runner(workload, work)
    try:
        return measure(runner, workload, seed, seconds, traced)
    finally:
        runner.close()


def measure(runner: Runner, workload: Workload, seed: int, seconds: float,
            traced: bool) -> dict:
    setup = runner.spawn(["-c", TSVALUE_MAIN, "--version"])
    config, raw = workload.write_inputs(seed, runner.work)

    deadline = time.perf_counter() + seconds
    plain: list[Proc] = []
    traces: list[tuple[Proc, dict]] = []
    memory = None
    if traced:
        _, memory = runner.run_traced(config, "memory")
    overheads: list[float] = []  # traced minus untraced time, rounds run back to back
    while True:
        plain.append(runner.run_plain(config))
        if traced or time.perf_counter() >= deadline:
            proc, trace = runner.run_traced(config, "spans")
            if trace is not None:
                traces.append((proc, trace))
                if plain[-1].code == 0:
                    overheads.append(proc.norm_s - plain[-1].norm_s)
        if time.perf_counter() >= deadline:
            break

    ok_plain = [p for p in plain if p.code == 0]
    correct = bool(ok_plain) and bool(traces) and (memory is not None or not traced)
    if correct:
        try:
            checks.check_reruns(runner.digests)
            checks.check_run(workload, raw, runner.out, traces[-1][1])
            for _, trace in traces:
                checks.check_counts(workload, counts_of(trace))
            if len({json.dumps(counts_of(t), sort_keys=True) for _, t in traces}) != 1:
                raise checks.CheckFailed("traced counts differ between rounds")
        except checks.CheckFailed as exc:
            sys.stderr.write(f"pipebench: check failed: {exc}\n")
            correct = False
    norms = [p.norm_s for p in ok_plain]
    sys.stderr.write(f"pipebench: {workload.name} seed={seed} rounds={len(plain)} "
                     f"setup={setup.wall_s:.4f}/{setup.norm_s:.4f} walls/normalised="
                     f"{[f'{p.wall_s:.3f}/{p.norm_s:.3f}' for p in ok_plain]}\n")

    if not traced:
        metrics = {
            "setup_s": metric(setup.norm_s, "s"),
            "wall_s": metric(statistics.median(norms) if norms else float("nan"), "s"),
            "peak_rss_mb": metric(statistics.median([p.rss_mb for p in ok_plain])
                                  if ok_plain else float("nan"), "MB"),
        }
    else:
        metrics = layer_metrics(traces, memory, overheads, runner.out)
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def layer_metrics(traces: list[tuple[Proc, dict]], memory: dict | None,
                  overheads: list[float], out: Path) -> dict:
    """Fastest traced round per layer; counts from the last traced round."""
    nan = float("nan")
    per_round = [self_times(t) for _, t in traces]
    metrics = {name: metric(min((r[name] for r in per_round), default=nan), "s")
               for name in sorted(set(SPAN_METRICS.values()))}
    metrics["cli.import_s"] = metric(min((t["import_s"] for _, t in traces), default=nan), "s")
    counts = counts_of(traces[-1][1]) if traces else dict.fromkeys(COUNT_METRICS.values(), 0)
    for name, value in counts.items():
        metrics[name] = metric(value, "count")
    score_s = metrics["valuation.score_s"]["value"]
    metrics["valuation.blocks_per_s"] = metric(
        counts["valuation.blocks"] / score_s if score_s > 0 else nan, "1/s")
    peaks = memory["peaks_mb"] if memory else {}
    metrics["series.load_peak_mb"] = metric(peaks.get("series.load_csv", nan), "MB")
    metrics["valuation.score_peak_mb"] = metric(peaks.get("valuation.score", nan), "MB")
    metrics["reports.bytes"] = metric(
        sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0, "bytes")
    metrics["trace.overhead_s"] = metric(
        statistics.median(overheads) if overheads else nan, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsvalue" / "cli.py").is_file():
        sys.stderr.write(f"pipebench: no tsvalue sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    # no pid in the name: output paths, and so reports.bytes, repeat for a seed
    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
