"""Every demo script runs to completion; the crystal walkthrough, which
prints path steps, and the relation demo, which prints p values, the
collapse classes and the convexity count, print exactly the recorded
output."""

import os
import pathlib
import subprocess
import sys

import pytest

import demazure

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(os.path.abspath(demazure.__file__)))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = {"crystal_walkthrough.py": ROOT / "tests" / "data" / "crystal_walkthrough.out",
            "presentation_relations.py": ROOT / "tests" / "data" / "presentation_relations.out"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    if demo.name in RECORDED:
        assert run.stdout == RECORDED[demo.name].read_bytes()


def test_demos_found():
    assert "crystal_walkthrough.py" in [d.name for d in DEMOS]
