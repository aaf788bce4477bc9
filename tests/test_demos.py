"""Every demo script runs to completion; the crystal walkthrough, which
prints path steps, and the relation demo, which prints p values, the
collapse classes and the convexity count, print exactly the recorded
output."""

import pathlib

import pytest

from capped_run import run_capped

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = {"crystal_walkthrough.py": ROOT / "tests" / "data" / "crystal_walkthrough.out",
            "presentation_relations.py": ROOT / "tests" / "data" / "presentation_relations.out"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_capped(str(demo), timeout=120, text=False)[0]
    assert proc.returncode == 0, proc.stderr.decode()
    if demo.name in RECORDED:
        assert proc.stdout == RECORDED[demo.name].read_bytes()


def test_demos_found():
    assert "crystal_walkthrough.py" in [d.name for d in DEMOS]
