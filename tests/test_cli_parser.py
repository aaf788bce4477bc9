"""The parser is pinned against ``data/cli_parser.json``: the help text of the
top level and of every subcommand at a fixed width of 80 columns (usage,
option order, metavars, choices and help strings), and the namespace each
subcommand parses from its required options alone (defaults, types, dests
and handler)."""

import json
import os

import pytest

from demazure.cli import build_parser, main

with open(os.path.join(os.path.dirname(__file__), "data", "cli_parser.json")) as fh:
    DATA = json.load(fh)


@pytest.mark.parametrize("command", sorted(DATA["help"]), ids=lambda c: c or "top-level")
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == DATA["help"][command]


@pytest.mark.parametrize("command", sorted(DATA["parsed"]))
def test_parsed_defaults(command):
    case = DATA["parsed"][command]
    ns = vars(build_parser().parse_args([command, *case["argv"]]))
    ns["handler"] = ns["handler"].__name__
    assert json.loads(json.dumps(ns)) == case["namespace"]


def test_every_subcommand_is_pinned():
    commands = ["admissible", "char", "crystal", "dominance", "embed-check",
                "relations", "reproduce", "rootdata", "split-search"]
    assert sorted(DATA["help"]) == ["", *commands]
    assert sorted(DATA["parsed"]) == commands
