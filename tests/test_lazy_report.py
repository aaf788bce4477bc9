"""A report of ``is_r_admissible`` holds its verdict and builds its records
when ``records`` is first read.  Before and after that read it compares,
hashes, prints, pickles, copies, converts and replaces as the filled report
of the earlier implementation in ``admissibility_reference`` does; its
verdict agrees with its records on random splits, most of which break sign
inheritance; reading the verdict, alone or through a certificate,
builds no record; and the records come from the pass that decided the
verdict, so a report runs the pass once and keeps no root system."""

import copy
import dataclasses
import gc
import json
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admissibility_reference as ref
from demazure import admissibility
from demazure.admissibility import ConditionRecord, is_r_admissible
from demazure.characters import embedding_certificate
from demazure.cli import main
from demazure.rootdata import root_system

C2, B3, G2 = root_system("C", 2), root_system("B", 3), root_system("G", 2)

CASES = {
    "admissible": (C2, (2, 1), ((1, 1), (1, 0)), 2),
    "inadmissible": (C2, (2, 1), ((1, 1), (1, 0)), 1),
    "sign-witnesses": (C2, (2, 1), ((2, 2), (0, -1)), 1),
    "zero-pairings": (B3, (0, 1, 0), ((0, 1, 0), (0, 0, 0)), 1),
    "three-parts": (G2, (2, -1), ((1, 0), (1, -1), (0, 0)), 1),
}

OPS = {
    "eq": lambda got, want: got == want and want == got,
    "hash": lambda got, want: hash(got) == hash(want),
    "repr": lambda got, want: repr(got) == repr(want),
    "pickle": lambda got, want: (pickle.loads(pickle.dumps(got)) == want
                                 and pickle.loads(pickle.dumps(got)).admissible == want.admissible),
    "copy": lambda got, want: copy.copy(got) == want and copy.copy(got).admissible == want.admissible,
    "deepcopy": lambda got, want: (copy.deepcopy(got) == want
                                   and copy.deepcopy(got).admissible == want.admissible),
    "asdict": lambda got, want: dataclasses.asdict(got) == dataclasses.asdict(want),
    "replace": lambda got, want: (dataclasses.replace(got) == want
                                  and dataclasses.replace(got, r=7) == dataclasses.replace(want, r=7)),
}


def built_records():
    """ConditionRecord objects alive now."""
    gc.collect()
    return sum(isinstance(obj, ConditionRecord) for obj in gc.get_objects())


@pytest.mark.parametrize("read", (False, True), ids=("unread", "read"))
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("case", CASES)
def test_report_behaves_as_the_filled_one(case, op, read):
    args = CASES[case]
    got, want = is_r_admissible(*args), ref.is_r_admissible(*args)
    assert "records" not in vars(got)
    if read:
        assert got.records == want.records
        assert "records" in vars(got)
    assert OPS[op](got, want)
    assert got.admissible == want.admissible and got.failures == want.failures


def test_records_are_built_once():
    """Threads that read a fresh report's records at once, switching every
    microsecond, all get the one tuple kept."""

    def first_reads(rep, barrier, seen):
        barrier.wait(10)
        seen.append(rep.records)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rep, barrier, seen = is_r_admissible(*CASES["inadmissible"]), threading.Barrier(4), []
            threads = [threading.Thread(target=first_reads, args=(rep, barrier, seen))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert len(seen) == 4 and all(records is rep.records for records in seen)
    finally:
        sys.setswitchinterval(interval)
    assert rep.failures and rep.records is vars(rep)["records"]


def test_other_names_stay_missing():
    """Only records is filled on demand, and a report built by hand has no root system."""
    rep = is_r_admissible(*CASES["admissible"])
    for name in ("_records", "values", "__setstate__"):
        assert not hasattr(rep, name)
    assert "records" not in vars(rep)
    hand_made = ref.is_r_admissible(*CASES["admissible"])
    assert not hasattr(hand_made, "_signed") and hand_made.admissible


@pytest.fixture
def passes(monkeypatch):
    """The calls of admissibility._pass from now on, counted in a one-item list."""
    count, run = [0], admissibility._pass

    def counted(*args):
        count[0] += 1
        return run(*args)

    monkeypatch.setattr(admissibility, "_pass", counted)
    return count


@pytest.mark.parametrize("case", CASES)
def test_reading_records_runs_no_second_pass(case, passes):
    rep, want = is_r_admissible(*CASES[case]), ref.is_r_admissible(*CASES[case])
    assert passes == [1]
    assert rep.records == want.records and rep.failures == want.failures
    assert passes == [1]


def test_embed_check_runs_one_pass(passes, capsys):
    """Its admissibility violations are read from the records of the certificate's report."""
    main(["embed-check", "--type", "C", "--rank", "2", "--mu", "2,1",
          "--split", "1,1|1,0", "--r", "1"])
    assert json.loads(capsys.readouterr().out)["admissibility_violations"]
    assert passes == [1]


@pytest.mark.parametrize("case", CASES)
def test_unread_report_pickles_no_root_system(case):
    rep = is_r_admissible(*CASES[case])
    assert b"RootSystem" not in pickle.dumps(rep)
    assert "records" not in vars(rep)


@st.composite
def random_splits(draw):
    """(rs, mu, split, r): parts with coordinates in -3..3, so most splits
    break sign inheritance and some are preadmissible."""
    rs = root_system(*draw(st.sampled_from([("A", 2), ("B", 2), ("C", 3), ("G", 2)])))
    k = draw(st.integers(1, 4))
    split = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(rs.rank)) for _ in range(k))
    return rs, tuple(map(sum, zip(*split))), split, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(random_splits())
def test_verdict_agrees_with_records(case):
    rep = is_r_admissible(*case)
    verdict = rep.admissible
    assert "records" not in vars(rep)
    assert verdict == (rep.preadmissible and all(rec.ok for rec in rep.records))
    want = ref.is_r_admissible(*case)
    assert verdict == want.admissible and rep.records == want.records


def test_verdict_builds_no_record():
    before = built_records()
    kept = []
    for args in CASES.values():
        rep = is_r_admissible(*args)
        kept.append((rep, rep.admissible, rep.preadmissible))
        assert "records" not in vars(rep)
    for args in (CASES["admissible"], CASES["inadmissible"]):
        cert = embedding_certificate(*args)
        kept.append((cert, cert.split_admissible))
        assert "records" not in vars(cert.report)
    assert built_records() == before
