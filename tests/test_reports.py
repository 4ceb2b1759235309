import json

import numpy as np
import pytest

from tsvalue.reports import _doc, write_scores
from tsvalue.series import SampleWindow
from tsvalue.valuation import BlockScores, PointScores, SampleScores

CONFIG = {"valuation": {"block_length": 2, "learning_rate": 1e-5}, "name": "café"}


def json_dump_bytes(tmp_path, config_hash, body) -> bytes:
    """What json.dump(..., sort_keys=True, indent=1) writes for one score file."""
    path = tmp_path / "expected.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(_doc(config_hash, body), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path.read_bytes()


def score_set(values, coverage):
    """Blocks, points and samples that carry ``values`` (one record each, or none)."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    blocks = BlockScores(starts=2 * np.arange(n), values=values, folds=np.arange(n) % 3,
                         length=2)
    points = PointScores(values=np.where(np.asarray(coverage) > 0, values, np.nan),
                         coverage=np.asarray(coverage, dtype=np.int64))
    samples = SampleScores(windows=tuple(SampleWindow(2 * i, 2) for i in range(n)),
                           values=values, coverage_fraction=np.ones(n))
    return blocks, points, samples


CASES = {
    "zero records": ([], []),
    "one record": ([0.25], [1]),
    "uncovered, signed zero, subnormal, huge": (
        [1.0, -0.0, 5e-324, 1e300, -2.5e-310, 0.1], [0, 1, 2, 0, 3, 1]),
    "non-finite, as json.dump spells it": ([np.inf, -np.inf, np.nan], [1, 1, 1]),
}


@pytest.mark.parametrize("case", CASES)
def test_score_files_equal_json_dump(tmp_path, case):
    blocks, points, samples = score_set(*CASES[case])
    out = tmp_path / "out"
    out.mkdir()
    paths = write_scores(out, "abc123", CONFIG, blocks, points, samples)
    assert [p.name for p in paths] == ["blocks.json", "points.json", "samples.json"]
    bodies = [
        {"config": CONFIG, "blocks": [
            {"start": 2 * i, "length": 2, "value": float(v), "fold": i % 3}
            for i, v in enumerate(blocks.values)]},
        {"config": CONFIG, "points": [
            {"index": i, "value": None if cov == 0 else float(v), "coverage": int(cov)}
            for i, (v, cov) in enumerate(zip(points.values, points.coverage))]},
        {"config": CONFIG, "samples": [
            {"start": w.start, "length": w.length, "value": float(v)}
            for w, v in zip(samples.windows, samples.values)]},
    ]
    for path, body in zip(paths, bodies):
        assert path.read_bytes() == json_dump_bytes(tmp_path, "abc123", body), path.name


def test_long_lists_span_write_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr("tsvalue.reports._RECORD_CHUNK", 3)
    values = np.linspace(-1.0, 1.0, 10)
    blocks, points, samples = score_set(values, [1] * 10)
    paths = write_scores(tmp_path, "h", {}, blocks, points, samples)
    doc = json.loads(paths[1].read_text(encoding="utf-8"))
    assert [p["value"] for p in doc["points"]] == values.tolist()
    assert paths[0].read_bytes() == json_dump_bytes(tmp_path, "h", {"config": {}, "blocks": [
        {"start": 2 * i, "length": 2, "value": float(v), "fold": i % 3}
        for i, v in enumerate(values)]})
