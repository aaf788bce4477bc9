import json
import time

import pytest

from demazure import characters
from demazure.cli import main

from capped_run import run_capped


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_rootdata_json(capsys):
    code, out = run(capsys, "rootdata", "--type", "C", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "C" and data["rank"] == 2
    roots = data["positive_roots"]
    assert len(roots) == 4
    assert sorted(r["height"] for r in roots) == [1, 1, 2, 3]
    long = [r for r in roots if r["coords"] == [0, 1]][0]
    assert long["d"] == 1 and long["pairing_row"] == [0, 1]


def test_rootdata_byte_stable(capsys):
    _, first = run(capsys, "rootdata", "--type", "B", "--rank", "3")
    _, second = run(capsys, "rootdata", "--type", "B", "--rank", "3")
    assert first == second


def test_dominance_worked_example(capsys):
    code, out = run(capsys, "dominance", "--type", "A", "--rank", "2",
                    "--mu", "1,-2", "--level", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dominant"] == {"finite": [1, 1], "level": 2, "degree": 0}
    assert data["word"] == [2, 1]


def test_relations_presets_and_tags(capsys):
    code, out = run(capsys, "relations", "--type", "A", "--rank", "1",
                    "--mu=-2", "--preset", "demazure", "--k", "1")
    assert code == 0
    data = json.loads(out)
    tags = {t for rel in data["relations"] for t in rel["tags"]}
    assert "simplified" in tags and "mathieu" in tags

    code, out = run(capsys, "relations", "--type", "C", "--rank", "2",
                    "--mu=-1,-1", "--preset", "weyl", "--set", "Mpp")
    assert code == 0
    data = json.loads(out)
    assert all("Mpp" in rel["tags"] for rel in data["relations"])


def test_relations_simplified_needs_demazure(capsys):
    code = main(["relations", "--type", "A", "--rank", "1", "--mu", "1",
                 "--preset", "weyl"])
    capsys.readouterr()
    assert code == 2


def test_relations_budget_exits_2(capsys):
    code = main(["relations", "--type", "A", "--rank", "1", "--mu=-60",
                 "--preset", "demazure", "--k", "1", "--set", "M"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tuple budget exceeded" in captured.err


def test_char_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(characters, "_TERM_BUDGET", 6)  # the character needs 7
    code = main(["char", "--type", "A", "--rank", "2", "--mu", "1,-2",
                 "--level", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "character budget exceeded" in captured.err


def test_char_one_application_budget_exits_2(capsys):
    start = time.perf_counter()
    code = main(["char", "--type", "A", "--rank", "1", "--mu=-1000000",
                 "--level", "1000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "character budget exceeded" in captured.err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("factor", ["x", "1,0:x"])
def test_crystal_malformed_tensor_exits_2(factor):
    proc = run_capped("-m", "demazure", "crystal", "--type", "A", "--rank", "2",
                      "--lambda", "1,0", "--tensor", factor, timeout=60)[0]
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "argument --tensor: expected comma-separated integers" in proc.stderr


def test_rootdata_oversized_rank_exits_2_fast(capsys):
    start = time.perf_counter()
    code = main(["rootdata", "--type", "A", "--rank", "5000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "positive roots" in captured.err
    assert elapsed < 1


def test_admissible_verdict_and_exit(capsys):
    code, out = run(capsys, "admissible", "--type", "C", "--rank", "2",
                    "--mu", "2,1", "--k", "2", "--split", "1,1|1,0",
                    "--r", "1")
    assert code == 1
    data = json.loads(out)
    assert data["admissible"] is False and data["preadmissible"] is True
    bad = [rec for rec in data["records"] if not rec["ok"]]
    assert len(bad) == 1 and bad[0]["root"] == [1, 1]
    assert bad[0]["condition_a"] is False

    code, out = run(capsys, "admissible", "--type", "C", "--rank", "2",
                    "--mu", "2,1", "--split", "2,0|0,1", "--r", "1")
    assert code == 0
    assert json.loads(out)["admissible"] is True


def test_split_search_stream(capsys):
    code, out = run(capsys, "split-search", "--type", "A", "--rank", "2",
                    "--mu", "1,-2", "--k", "2", "--find-1-admissible")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {"split": [[0, -1], [1, -1]], "admissible_1": True} in rows
    assert all(row["admissible_1"] for row in rows)

    code, out = run(capsys, "split-search", "--type", "A", "--rank", "2",
                    "--mu", "1,-2", "--k", "2", "--find-1-admissible",
                    "--first")
    assert code == 0 and len(out.splitlines()) == 1


def test_split_search_balanced(capsys):
    code, out = run(capsys, "split-search", "--type", "A", "--rank", "2",
                    "--mu", "1,-2", "--k", "2", "--balanced")
    assert code == 0
    data = json.loads(out)
    assert data["split"] == [[0, -1], [1, -1]]
    assert data["admissible_1"] is True


def test_char_json_schema(capsys):
    code, out = run(capsys, "char", "--type", "A", "--rank", "2",
                    "--mu", "1,-2", "--level", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"terms"}
    assert len(data["terms"]) == 5
    for term in data["terms"]:
        assert set(term) == {"wt", "grade", "mult"}
    keys = [(t["grade"], t["wt"]) for t in data["terms"]]
    assert keys == sorted(keys)

    _, again = run(capsys, "char", "--type", "A", "--rank", "2",
                   "--mu", "1,-2", "--level", "2", "--json")
    assert out == again


def test_char_trivial_nonempty(capsys):
    code, out = run(capsys, "char", "--type", "A", "--rank", "1",
                    "--mu", "0", "--level", "1", "--json")
    assert code == 0
    assert json.loads(out)["terms"]


def test_embed_check_violation_names_root(capsys):
    code, out = run(capsys, "embed-check", "--type", "C", "--rank", "2",
                    "--mu", "2,1", "--split", "1,1|1,0", "--r", "1")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "Violation"
    assert data["split_admissible"] is False
    assert [v["root"] for v in data["admissibility_violations"]] == [[1, 1]]


def test_embed_check_runs_admissibility_once(capsys, monkeypatch):
    import demazure.admissibility
    import demazure.characters
    import demazure.cli

    calls = []
    original = demazure.admissibility.is_r_admissible

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (demazure.admissibility, demazure.characters, demazure.cli):
        monkeypatch.setattr(module, "is_r_admissible", counted)
    code, _ = run(capsys, "embed-check", "--type", "C", "--rank", "2",
                  "--mu", "2,1", "--split", "1,1|1,0", "--r", "1")
    assert code == 1
    assert len(calls) == 1


def test_embed_check_certified(capsys):
    code, out = run(capsys, "embed-check", "--type", "C", "--rank", "2",
                    "--mu", "2,1", "--split", "1,1|1,0", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Certified"
    assert data["character_failures"] == []


def test_crystal_pipeline_text(capsys):
    code, out = run(capsys, "crystal", "--type", "A", "--rank", "2",
                    "--lambda", "1,0", "--word", "2,1", "--tensor", "0,1:2",
                    "--component-weight", "1,-2", "--decompose", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6 vertices, 5 edges"
    assert [line.split()[-1] for line in lines[1:]] == ["1", "1", "1"]
    assert [line.split()[3] for line in lines[1:]] == ["1", "2", "3"]


def test_crystal_json_and_dot(tmp_path, capsys):
    code, out = run(capsys, "crystal", "--type", "A", "--rank", "2",
                    "--lambda", "1,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 3 and len(data["edges"]) == 2
    assert data["highest"] == 0

    target = tmp_path / "graph.dot"
    code, _ = run(capsys, "crystal", "--type", "A", "--rank", "2",
                  "--lambda", "1,0", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph crystal {")
    assert '[label="1"]' in text and '[label="(1, 0)"]' in text


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_crystal_dot_unwritable_exits_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.dot" if where == "missing" else tmp_path
    for extra in ([], ["--json"]):
        code = main(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0",
                     "--dot", str(target), *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(target) in captured.err


@pytest.mark.parametrize("flag", [["--decompose", "0"], ["--decompose=-1"],
                                  ["--decompose", "5"], ["--decompose", "5", "--json"]])
def test_crystal_decompose_node_out_of_range(capsys, flag):
    code = main(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not a finite node" in captured.err


def test_crystal_decompose_with_dot_needs_json(capsys):
    argv = ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,1",
            "--dot", "-", "--decompose", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--decompose needs --json" in captured.err
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert out.startswith("digraph crystal {") and '"decomposition"' in out


def test_crystal_component_not_found(capsys):
    code = main(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0",
                 "--component-weight", "5,5"])
    capsys.readouterr()
    assert code == 1


def test_config_errors(capsys):
    assert main(["dominance", "--type", "A", "--rank", "2", "--mu", "1",
                 "--level", "1"]) == 2
    assert main(["admissible", "--type", "C", "--rank", "2", "--mu", "2,1",
                 "--k", "3", "--split", "1,1|1,0", "--r", "1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["dominance", "--type", "Z", "--rank", "1", "--mu", "1",
              "--level", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_reproduce_reports_every_criterion(capsys):
    code, out = run(capsys, "reproduce", "--paper-examples")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 11
    verdicts = {line.split(":")[0].strip(): line.split()[2] for line in lines[:10]}
    assert verdicts["worked-example-a2"] == "FAIL"
    assert all(v == "PASS" for name, v in verdicts.items()
               if name != "worked-example-a2")
    assert lines[-1] == "9 of 10 criteria passed"


A2 = ["--type", "A", "--rank", "2"]


@pytest.mark.parametrize("argv", [
    ["dominance", *A2, "--mu", "1", "--level", "1"],
    ["relations", *A2, "--mu", "1", "--preset", "demazure", "--k", "1", "--set", "M"],
    ["relations", *A2, "--mu", "1,0,0", "--preset", "genweyl", "--set", "Mpp"],
    ["relations", *A2, "--mu=-1", "--preset", "demazure", "--k", "2"],
    ["admissible", *A2, "--mu", "1", "--split", "1,0|0,0", "--r", "1"],
    ["split-search", *A2, "--mu", "1,-2,0", "--k", "2"],
    ["split-search", *A2, "--mu", "1", "--k", "2", "--balanced"],
    ["char", *A2, "--mu", "1", "--level", "1"],
    ["embed-check", *A2, "--mu", "1", "--split", "1,0|0,0", "--r", "1"],
    ["admissible", *A2, "--mu", "1,0", "--split", "1,0|0", "--r", "1"],
    ["crystal", *A2, "--lambda", "1"],
    ["crystal", *A2, "--lambda", "1,0", "--tensor", "1,0,0"],
    ["crystal", *A2, "--lambda", "1,0", "--component-weight", "1"],
    ["admissible", *A2, "--mu", "1,0", "--split", "1,0|0,0", "--k", "3", "--r", "1"],
], ids=["dominance", "relations-demazure", "relations-genweyl", "relations-simplified",
        "admissible", "split-search", "split-search-balanced", "char", "embed-check",
        "split-part", "lambda", "tensor", "component-weight", "k-vs-parts"])
def test_wrong_lengths_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    want = ("disagrees with 2 split parts" if {"--k", "--split"} <= set(argv)
            else "coordinates, rank is 2")
    assert want in captured.err


def test_tensor_over_budget_exits_2_fast(capsys):
    start = time.perf_counter()
    code = main(["crystal", "--type", "A", "--rank", "3", "--lambda", "3,3,3",
                 "--tensor", "3,3,3"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vertex budget exceeded" in captured.err
    assert elapsed < 2


@pytest.mark.parametrize("argv,code,out", [
    pytest.param(("split-search", "--type", "A", "--rank", "1", "--mu", "100000",
                  "--k", "3", "--first"), 0,
                 '{"admissible_1": false, "split": [[100000], [0], [0]]}\n',
                 id="split-search-mu-100000"),
    pytest.param(("split-search", "--type", "A", "--rank", "1", "--mu", "1",
                  "--k", "3000", "--first"), 0,
                 '{"admissible_1": true, "split": [[1]%s]}\n' % (", [0]" * 2999),
                 id="split-search-k-3000"),
    pytest.param(("crystal", "--type", "A", "--rank", "2", "--lambda", "200,200"), 2, "",
                 id="crystal-200-200"),
])
def test_large_inputs_end_in_bounded_time_and_memory(argv, code, out):
    """Each call in a subprocess under a wall-clock timeout and a 512 MB
    address-space cap, so a regression fails here instead of stalling."""
    proc, _ = run_capped("-m", "demazure", *argv, timeout=30)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    if code == 2:
        assert proc.stderr == "error: vertex budget exceeded\n"


def test_find_1_admissible_search_fails_fast():
    """A1 mu = 100000 in three parts has its first 1-admissible candidate
    after about 2.2*10^9 failed ones; the search stops at the budget of 10^5
    failed candidates in a row and exits 2 within seconds."""
    proc, _ = run_capped("-m", "demazure", "split-search", "--type", "A", "--rank", "1",
                         "--mu", "100000", "--k", "3", "--find-1-admissible", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: candidate budget exceeded: 100000 candidates in a row "
                           "are not 1-admissible\n")
