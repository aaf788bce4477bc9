"""``relations.s_sets`` prunes a branch once its parts cannot make up its
weight: the same vectors as the earlier full walk (``relations_reference``)
over every r, s <= 12 and every window, and a one-summand answer at a few
digits returns at once."""

import os
import subprocess
import sys

import demazure
import relations_reference as reference
from demazure.relations import s_sets
from test_cli import _cap_memory


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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(demazure.__file__)))
    script = ("from demazure.relations import expand_x_element\n"
              "print(expand_x_element('from_k', 100, 100, 1))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, preexec_fn=_cap_memory,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "((((1, 100),), ((1, 100),)),)\n"), proc.stderr
