"""The README command-line invocations print exactly the recorded stdout
and exit with the recorded code.  tests/data/readme_cli.json holds, for each
invocation, its argv, exit code and stdout."""

import json
import pathlib

import pytest

from demazure.cli import main

RECORDED = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "readme_cli.json").read_text())


@pytest.mark.parametrize("entry", RECORDED, ids=[e["name"] for e in RECORDED])
def test_readme_invocation(capsys, entry):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit_code"]
    assert out == entry["stdout"]


def test_all_readme_invocations_recorded():
    assert [e["name"] for e in RECORDED] == [
        "rootdata", "dominance", "relations", "admissible", "split-search",
        "char", "embed-check", "crystal", "reproduce"]
