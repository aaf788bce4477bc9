"""``relations.s_sets`` prunes a branch once its parts cannot make up its
weight: the same vectors as the earlier full walk (``relations_reference``)
over every r, s <= 12 and every window, and a one-summand answer at a few
digits returns at once.  It recurses only on the indices a vector uses, so
a few parts at a weight in the thousands need no deep recursion.  Past
``_SUPPORT_BUDGET`` generated vectors it raises, so a large support fails
fast instead of running for seconds."""

import pytest

import relations_reference as reference
from capped_run import run_capped
from demazure import relations
from demazure.relations import expand_x_element, s_sets


def test_s_sets_match_the_full_walk():
    for r in range(13):
        for s in range(13):
            for lower in range(-1, 15):
                for upper in (None, *range(-1, 15)):
                    assert (s_sets(r, s, lower, upper)
                            == reference.s_sets(r, s, lower, upper)), (r, s, lower, upper)


def test_one_summand_from_k_returns_at_once():
    """x(100, 100) from k = 1 has the one index vector b_1 = 100; the full
    walk visits every partition of 100 and runs past 20 s."""
    script = ("from demazure.relations import expand_x_element\n"
              "print(expand_x_element('from_k', 100, 100, 1))")
    proc, _ = run_capped("-c", script, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "((((1, 100),), ((1, 100),)),)\n"), proc.stderr


def _two_parts(s):
    # b_p = b_q = 1 for p < q with p + q = s, and b_{s/2} = 2 for even s
    return tuple(sorted([((p, 1), (s - p, 1)) for p in range((s + 1) // 2)]
                        + [((s // 2, 2),)] * (s % 2 == 0)))


@pytest.mark.parametrize("call,size,want", [
    ("s_sets(1, 2000)", 1, (((2000, 1),),)),
    ("s_sets(2, 1500)", 751, _two_parts(1500)),
    ("s_sets(2, 5000)", 2501, _two_parts(5000)),
    ("expand_x_element('plain', 1, 2000)", 1, ((((2000, 1),), ((2000, 1),)),)),
])
def test_few_parts_at_a_large_weight(call, size, want):
    """The recursion goes only as deep as the indices a vector uses, not one
    level per index below s, so a few-digit s ends far below Python's
    recursion limit."""
    script = "from demazure.relations import expand_x_element, s_sets\nprint(%s)" % call
    proc, _ = run_capped("-c", script, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "%r\n" % (want,)), proc.stderr
    assert len(want) == size


@pytest.mark.parametrize("call, args, message", [
    (s_sets, (2.0, 4), "r and s must be ints, not 2.0 and 4"),
    (s_sets, (1, 2.5), "r and s must be ints, not 1 and 2.5"),
    (s_sets, (True, 1), "r and s must be ints, not True and 1"),
    (expand_x_element, ("plain", 2.0, 4), "r and s must be ints, not 2.0 and 4"),
    (s_sets, (-1, 2), "r and s must be nonnegative"),
], ids=["float-r", "float-s", "bool-r", "expand-float-r", "negative-r"])
def test_sizes_are_nonnegative_ints(call, args, message):
    # a float must not reach range(), and True must not pass as 1
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == message


def test_support_budget_boundary(monkeypatch):
    # 12 has 77 partitions, all with at most 12 parts
    want = s_sets(12, 12)
    assert len(want) == 77
    monkeypatch.setattr(relations, "_SUPPORT_BUDGET", 77)
    assert s_sets(12, 12) == want
    monkeypatch.setattr(relations, "_SUPPORT_BUDGET", 76)
    with pytest.raises(RuntimeError, match="support budget exceeded"):
        s_sets(12, 12)


def test_large_support_fails_fast():
    """(60, 60) has 966,467 vectors, about 12 s of work without the budget;
    the search stops at 10^5 and the process ends in under 2 s."""
    script = "from demazure.relations import s_sets\ns_sets(60, 60)"
    proc, elapsed = run_capped("-c", script, timeout=10)
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr.endswith("RuntimeError: support budget exceeded: 100000 vectors\n")
    assert elapsed < 2, elapsed
