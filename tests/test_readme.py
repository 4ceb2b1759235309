"""The README's "Library surface" example, run as written, and its ``tv.`` names."""

import re
from pathlib import Path

import numpy as np

import tsvalue as tv

README = Path(__file__).resolve().parents[1] / "README.md"


def library_surface_code() -> str:
    """The first python block of the README's "Library surface" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_tv_name_resolves():
    """Each ``tv.<name>`` (and ``tv.<name>.<attr>``) the README names exists on tsvalue."""
    chains = set(re.findall(r"\btv((?:\.[A-Za-z_]\w*)+)", README.read_text(encoding="utf-8")))
    assert chains
    missing = []
    for chain in sorted(chains):
        obj = tv
        for name in chain[1:].split("."):
            if not hasattr(obj, name):
                missing.append(f"tv{chain}")
                break
            obj = getattr(obj, name)
    assert not missing, f"README names what tsvalue lacks: {missing}"


def test_library_surface_example_runs():
    namespace = {}
    exec(compile(library_surface_code(), "README.md (Library surface)", "exec"), namespace)
    target, run, report = namespace["target"], namespace["run"], namespace["report"]
    blocks = run.block_scores
    assert isinstance(blocks, tv.BlockScores)
    assert len(blocks) == target.length - blocks.length + 1
    assert blocks.starts.tolist() == tv.segment_blocks((0, target.length), blocks.length).tolist()
    assert run.point_scores.coverage.shape == (target.length,)
    assert report.n_selected == len(namespace["sel"].chosen) and np.isfinite(report.mse)
    for scores in (namespace["first_order"], namespace["influence"]):
        assert scores.shape == (len(blocks),) and np.isfinite(scores).all()
