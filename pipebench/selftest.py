"""Show that every output check rejects a perturbed copy of passing outputs.

    python3 pipebench/selftest.py [WORKLOAD ...]

For each workload (all by default) this makes the seed-0 inputs, runs the
command once under the tracer, requires every check to pass on the real
outputs, then applies each perturbation below to a fresh copy and requires
the check it targets to raise. Prints one line per perturbation and exits
1 if any check passed a perturbed copy.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import checks
from run import WORK_DIR, Runner, counts_of
from workloads import WORKLOADS, Workload


def _largest(blocks):
    return max(range(len(blocks)), key=lambda i: abs(blocks[i]["value"]))


def _move_fold(docs):
    """Put every block of fold 0 into fold 1, leaving fold 0 empty."""
    for b in docs["blocks"]["blocks"]:
        if b["fold"] == 0:
            b["fold"] = 1


def _k(docs):
    return docs["blocks"]["config"]["valuation"]["k_folds"]


def _split_sample(docs):
    """Overlapping blocks 0 and 1 both start in sample 0; give block 1 another fold."""
    b = docs["blocks"]["blocks"]
    b[1]["fold"] = (b[0]["fold"] + 1) % _k(docs)


def _scale(record, key, factor):
    record[key] = record[key] * factor


def _bump_param(docs):
    docs["value_model"]["params"][-1] += 1e-6


def _scored_to_null(docs):
    next(p for p in docs["points"]["points"] if p["coverage"]).update(value=None)


def _tail_scored(docs):
    docs["points"]["points"][-1].update(value=0.0)


def _shift_sample(docs):
    docs["samples"]["samples"][1]["start"] += 1


def _row(docs, strategy):
    return next(r for r in docs["rows"] if r["strategy"] == strategy)


def _add(record, key, n):
    record[key] = str(int(record[key]) + n)


def _top_equals_bottom(docs):
    docs["trace"]["selections"]["bottom"] = list(docs["trace"]["selections"]["top"])


def _swap_top_member(docs):
    """Replace one top sample with one that neither top nor bottom chose."""
    sel = docs["trace"]["selections"]
    neither = next(i for i in sel["full"] if i not in sel["top"] + sel["bottom"])
    sel["top"] = sorted(sel["top"][1:] + [neither])


def _random_duplicate(docs):
    sel = docs["trace"]["selections"]
    sel["random"] = sel["random"][:-1] + sel["random"][:1]


VALUE_PERTURBATIONS = [
    (checks.check_provenance, "blocks.json carries another config hash",
     lambda d: d["blocks"].update(config_hash="0" * 16)),
    (checks.check_block_grid, "a block start shifted by one",
     lambda d: d["blocks"]["blocks"][3].update(start=d["blocks"]["blocks"][3]["start"] + 1)),
    (checks.check_folds, "fold id equal to k",
     lambda d: d["blocks"]["blocks"][0].update(fold=_k(d))),
    (checks.check_folds, "fold 0 emptied into fold 1", _move_fold),
    (checks.check_block_scores, "largest score off by 1e-9 of itself",
     lambda d: _scale(d["blocks"]["blocks"][_largest(d["blocks"]["blocks"])], "value",
                      1 + 1e-9)),
    (checks.check_block_scores, "one score negated",
     lambda d: _scale(d["blocks"]["blocks"][7], "value", -1.0)),
    (checks.check_block_scores, "a model parameter moved by 1e-6", _bump_param),
    (checks.check_points, "a point coverage one too high",
     lambda d: d["points"]["points"][10].update(coverage=d["points"]["points"][10]["coverage"]
                                                + 1)),
    (checks.check_points, "a point value off by 1e-6 of the largest score",
     lambda d: d["points"]["points"][10].update(
         value=d["points"]["points"][10]["value"]
         + 1e-6 * abs(d["blocks"]["blocks"][_largest(d["blocks"]["blocks"])]["value"]))),
    (checks.check_points, "a scored point written as null", _scored_to_null),
    (checks.check_samples, "a sample value off by 1e-6 of itself",
     lambda d: _scale(d["samples"]["samples"][2], "value", 1 + 1e-6)),
    (checks.check_samples, "a sample start shifted by one", _shift_sample),
]
OVERLAP_PERTURBATIONS = [
    (checks.check_folds, "one sample's blocks in two folds", _split_sample),
]
SINGLE_BLOCK_PERTURBATIONS = [
    (checks.check_single_block_samples, "a sample value off its block's score by 1e-6",
     lambda d: _scale(d["samples"]["samples"][4], "value", 1 + 1e-6)),
    (checks.check_single_block_samples, "the last trailing point given a value", _tail_scored),
]
SELECT_EVAL_PERTURBATIONS = [
    (checks.check_selection_counts, "top selected one sample more",
     lambda d: _add(_row(d, "top"), "n_selected", 1)),
    (checks.check_selection_counts, "full selected one sample less",
     lambda d: _add(_row(d, "full"), "n_selected", -1)),
    (checks.check_selection_counts, "random trained on one instance more",
     lambda d: _add(_row(d, "random"), "n_train_instances", 1)),
    (checks.check_selection_counts, "strategies out of order",
     lambda d: d["rows"].reverse()),
    (checks.check_eval_metrics, "MAE above sqrt(MSE)",
     lambda d: _row(d, "top").update(mae=repr(1.01 * math.sqrt(float(_row(d, "top")["mse"]))))),
    (checks.check_eval_metrics, "MAE of zero", lambda d: _row(d, "bottom").update(mae="0.0")),
    (checks.check_eval_metrics, "MSE of nan", lambda d: _row(d, "full").update(mse="nan")),
    (checks.check_selections, "full missing its last sample",
     lambda d: d["trace"]["selections"]["full"].pop()),
    (checks.check_selections, "bottom equal to top", _top_equals_bottom),
    (checks.check_selections, "top with one sample swapped for a lower one", _swap_top_member),
    (checks.check_selections, "random with a repeated sample", _random_duplicate),
]
COUNT_PERTURBATIONS = [
    ("valuation.blocks", 1),
    ("forecaster.fit_batches", -1),
    ("selection.finetune_instances", 1),
    ("selection.finetune_batches", 1),
]


def perturbations(w: Workload):
    if w.command == "select-eval":
        return SELECT_EVAL_PERTURBATIONS
    if checks.check_single_block_samples in checks.checks_for(w):
        return VALUE_PERTURBATIONS + SINGLE_BLOCK_PERTURBATIONS
    return VALUE_PERTURBATIONS + OVERLAP_PERTURBATIONS


def rejects(fn) -> bool:
    try:
        fn()
    except checks.CheckFailed:
        return True
    return False


def selftest(w: Workload) -> int:
    work = WORK_DIR / f"selftest-{w.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config, raw = w.write_inputs(0, work)
        runner = Runner(w, work)
        try:
            _, trace = runner.run_traced(config, "spans")
        finally:
            runner.close()
        if trace is None:
            print(f"{w.name}: the command failed")
            return 1
        docs = checks.read_outputs(w, runner.out)
        docs["trace"] = trace
        counts = counts_of(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missed = 0
    for check in checks.checks_for(w):
        check(w, raw, docs)  # the real outputs must pass
    checks.check_counts(w, counts)
    for check, what, mutate in perturbations(w):
        bad = copy.deepcopy(docs)
        mutate(bad)
        ok = rejects(lambda: check(w, raw, bad))
        missed += not ok
        print(f"{w.name}: {check.__name__}: {what}: {'rejected' if ok else 'MISSED'}")
    for name, delta in COUNT_PERTURBATIONS:
        bad = dict(counts, **{name: counts[name] + delta})
        ok = rejects(lambda: checks.check_counts(w, bad))
        missed += not ok
        print(f"{w.name}: check_counts: {name} {delta:+d}: {'rejected' if ok else 'MISSED'}")
    ok = rejects(lambda: checks.check_reruns({"a", "b"}))
    missed += not ok
    print(f"{w.name}: check_reruns: two different digests: {'rejected' if ok else 'MISSED'}")
    return missed


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    missed = sum(selftest(WORKLOADS[n]) for n in names)
    print(json.dumps({"missed": missed}))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
