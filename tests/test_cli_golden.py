"""The README command-line invocations print exactly the recorded stdout
and exit with the recorded code.  tests/data/readme_cli.json holds, for each
invocation, its argv, exit code and stdout.  tests/data/relations_cli.json
holds the exit code, byte length and sha256 of the stdout of
``demazure relations`` for every relation set of A1 (-x,) with x = 6..9 and
C2 (-6, 0) at level 1, recorded from ``python -m demazure`` before the
minimal tuples were generated directly.  tests/data/crystal_cli.json holds the
same for ``demazure crystal`` over A2, B2 and G2 (JSON, text, DOT on stdout and
DOT with JSON; with and without --word, --tensor, --component-weight and
--decompose; an absent component weight; a component off the tensor's top
vertex), and tests/data/reproduce_cli.json for ``demazure reproduce --seed 1``
and ``--seed 2``; both were recorded before the crystal subcommand and the
criteria read a crystal's vertex-number table."""

import hashlib
import json
import pathlib

import pytest

from demazure.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
RECORDED = json.loads((DATA / "readme_cli.json").read_text())
RELATIONS = json.loads((DATA / "relations_cli.json").read_text())
CRYSTAL, REPRODUCE = (json.loads((DATA / name).read_text())
                      for name in ("crystal_cli.json", "reproduce_cli.json"))


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


def _check_hashed(capsys, entry):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out.encode()
    assert code == entry["exit_code"]
    assert len(out) == entry["stdout_bytes"]
    assert hashlib.sha256(out).hexdigest() == entry["stdout_sha256"]


@pytest.mark.parametrize("entry", RELATIONS, ids=[e["name"] for e in RELATIONS])
def test_relation_set_output(capsys, entry):
    _check_hashed(capsys, entry)


@pytest.mark.parametrize("entry", CRYSTAL, ids=[e["name"] for e in CRYSTAL])
def test_crystal_output(capsys, entry):
    _check_hashed(capsys, entry)


@pytest.mark.parametrize("entry", REPRODUCE, ids=[e["name"] for e in REPRODUCE])
def test_reproduce_output(capsys, entry):
    _check_hashed(capsys, entry)
