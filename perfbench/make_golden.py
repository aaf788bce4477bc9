"""Write golden.json: the digest of every output a workload can produce.

    python3 perfbench/make_golden.py

Runs every workload's whole universe once, through the same ``run`` and
``summarize`` code the passes use, prints the time of each item, checks
every output with the oracles, and stores the digest of each golden
group.  Rerun it only when the expected outputs change on purpose; a
benchmark pass compares against this file and counts any difference as
a failure.
"""

import json
import os
import sys
import time

from passrun import HERE, Context, oracle_errors


def main():
    from demazure import root_system
    import workloads

    golden = {}
    bad = 0
    for name, wl in workloads.WORKLOADS.items():
        systems = {fr: root_system(*fr) for fr in wl.systems}
        ctx = Context(systems)
        summaries = []
        for item in wl.universe(systems):
            t = time.perf_counter()
            out = wl.run(item, ctx)
            print("%8.1f ms  %s %r" % ((time.perf_counter() - t) * 1e3, name, item[:5]))
            s = wl.summarize(item, out)
            errors = oracle_errors(wl, item, s, ctx)
            if errors:
                bad += 1
                print("%s %r: %s" % (name, item[:5], "; ".join(errors)), file=sys.stderr)
            summaries.append(s)
        groups, clash = workloads.golden_groups(summaries)
        if clash:
            bad += 1
            print("%s: nondeterministic groups %s" % (name, sorted(clash)), file=sys.stderr)
        golden[name] = dict(sorted(groups.items()))
        print("%s: %d items, %d groups" % (name, len(summaries), len(groups)))
    if bad:
        sys.exit("oracle failures; golden.json not written")
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
