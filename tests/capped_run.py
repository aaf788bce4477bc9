"""One child Python process under a 512 MB address-space cap, for the tests
that check a large input ends in bounded time and memory, and for every other
child (the demos, the ``-O`` run): a regression fails there instead of
stalling the suite or filling the machine's memory."""

import os
import resource
import subprocess
import sys
import time

import demazure

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(demazure.__file__)))
CAP_BYTES = 512 * 2**20


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run_capped(*args, timeout, text=True):
    """``python *args``, as ``-m demazure ...``, ``-c script`` or a script's
    path, with this package first on the path and under the cap: (completed
    process, wall seconds).  ``text=False`` keeps stdout and stderr as bytes."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=ENV, preexec_fn=_cap_memory,
                          capture_output=True, text=text, timeout=timeout)
    return proc, time.perf_counter() - start
