"""One benchmark pass in a fresh interpreter.

Set-up (import, root-system construction including the lazy inverse
Cartan matrix, input generation) is timed as ``setup_s``.  Every time is
scaled to the reference speed of ``calib``: set-up by speed probes taken
just before and after it, an item by the probes taken within
PROBE_WINDOW of it (see ``Speed``).  The deck
depends on the seed only; the pass index shuffles the order in which its
items run.  Every item is timed on its own; summaries are taken between
items, outside the timed calls.  After the loop, the oracles and the
golden digests check every output, and a corrupted copy of one output is
fed to the same checks, which must reject it.  Prints one JSON object,
with the scaled and the wall-clock item times in deck order.

    python3 perfbench/passrun.py --workload NAME --seed N --pass-index J
        [--trace-dir DIR | --setup-only] [--probe-between]

``--trace-dir`` installs the tracer and writes its spans under DIR.
``--setup-only`` stops after set-up and prints only ``setup_s``.
``--probe-between`` keeps the probes out of the items, so that they do
not enter the spans of a traced pass.
"""

import time

import calib

PRE_PROBES = [calib.probe() for _ in range(3)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
PROBE_EVERY = 0.1  # seconds between two speed probes
PROBE_WINDOW = 0.25  # an item is scaled by the probes this close to it


class Speed:
    """Speed probes taken during the timed loop.

    With ``inside`` an interval timer runs a probe every PROBE_EVERY
    seconds, also in the middle of an item, and the time of the probes
    that fall inside an item is taken out of its time.  Without it a probe
    runs before an item when PROBE_EVERY has passed since the last one:
    for items that wait on a child process, whose clock a probe in this
    process does not stop.
    """

    def __init__(self, inside):
        self.inside = inside
        self.spans = []  # (start, end) of each probe, in order
        self.times = []

    def _probe(self):
        start = time.perf_counter()
        p = calib.probe()
        self.spans.append((start, time.perf_counter()))
        self.times.append(p)

    def start(self):
        self._probe()
        if self.inside:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)

    def between(self):
        if not self.inside and time.perf_counter() - self.spans[-1][1] >= PROBE_EVERY:
            self._probe()

    def stop(self):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def item_times(self, spans):
        """Per item span (start, end): its wall time less the probes inside
        it, and that time scaled by REF_S over the median probe within
        PROBE_WINDOW of it."""
        starts = [a for a, _ in self.spans]
        walls, scaled = [], []
        for start, end in spans:
            lo = bisect.bisect_left(starts, start - PROBE_WINDOW)
            hi = bisect.bisect_right(starts, end + PROBE_WINDOW)
            wall = end - start - sum(max(0.0, min(b, end) - max(a, start))
                                     for a, b in self.spans[lo:hi])
            walls.append(wall)
            scaled.append(wall * calib.REF_S / statistics.median(self.times[lo:hi]))
        return walls, scaled


class Context:
    """What an item may use besides its own inputs."""

    def __init__(self, systems, tracer=None, trace_dir=None):
        self.root = ROOT
        self.systems = systems
        self.tracer = tracer
        self.trace_dir = trace_dir
        self.cli_reports = []


def oracle_errors(wl, item, s, ctx):
    """The oracle's complaints about one summary; a raise is one too."""
    try:
        return wl.check(item, s, ctx)
    except Exception as exc:
        return ["check raised %r" % (exc,)]


def golden_errors(summaries, golden):
    """Complaints per item index whose golden group digest differs."""
    import workloads
    groups, clash = workloads.golden_groups(s for s in summaries if s is not None)
    members = defaultdict(list)
    for idx, s in enumerate(summaries):
        for group, _, _ in (s["parts"] if s is not None else ()):
            members[group].append(idx)
    errors = defaultdict(list)
    for group, d in groups.items():
        if group in clash or golden.get(group) != d:
            for idx in members[group]:
                errors[idx].append("digest of %s differs from golden" % group)
    return errors


def negative_control(wl, items, summaries, golden, ctx):
    """A corrupted output, put in place of the real one, must fail both its
    oracle and the golden comparison of the whole pass."""
    for idx, (item, s) in enumerate(zip(items, summaries)):
        bad = s and wl.corrupt(item, s)
        if bad:
            swapped = summaries[:idx] + [bad] + summaries[idx + 1:]
            return bool(oracle_errors(wl, item, bad, ctx)) and \
                idx in golden_errors(swapped, golden)
    return False


def cli_layers(paths, summaries):
    """Merge the reports of traced CLI processes: medians of the per-process
    times, total stdout bytes, and the acceptance criterion times."""
    raws, cli, acceptance = [], defaultdict(list), {}
    for path in paths:
        with open(path) as fh:
            rep = json.load(fh)
        raws.append(rep["trace"])
        for key in ("interpreter_ms", "import_ms", "command_ms"):
            cli[key].append(rep[key])
        acceptance.update(rep["acceptance"])
    summary = {key: statistics.median(vals) for key, vals in cli.items()}
    summary["stdout_bytes"] = sum(len(s["stdout"]) for s in summaries if s is not None)
    return raws, summary, acceptance


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace-dir", default=None)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe-between", action="store_true",
                    help="probe only between items, never inside one")
    args = ap.parse_args()

    from demazure import root_system
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing = None
    if args.trace_dir:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True
    systems = {}
    for family, rank in wl.systems:
        rs = root_system(family, rank)
        rs.root_coordinates((0,) * rank)
        systems[(family, rank)] = rs
    if tracer is not None:
        tracer.on = False
    items = wl.deck(random.Random("%s:%d" % (args.workload, args.seed)), systems)
    order = list(range(len(items)))
    random.Random("%s:%d:%d" % (args.workload, args.seed, args.pass_index)).shuffle(order)
    setup_wall = time.perf_counter() - T0
    probes = PRE_PROBES + [calib.probe() for _ in range(3)]
    setup_s = setup_wall * calib.REF_S / statistics.median(probes)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return

    ctx = Context(systems, tracer, args.trace_dir)
    times, summaries, errors = [None] * len(items), [None] * len(items), {}
    spans = [None] * len(items)
    speed = Speed(wl.probe_inside and not args.probe_between)
    gc.collect()
    speed.start()
    for idx in order:
        item = items[idx]
        # every item starts from the same collector state, whatever ran
        # before it: no garbage, and the live heap out of its collections
        gc.collect()
        gc.freeze()
        speed.between()
        t = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(item, ctx)
            else:
                tracer.item = idx
                tracer.on = True
                try:
                    out = tracer.span("item", wl.run, item, ctx)
                finally:
                    tracer.on = False
        except Exception as exc:  # a raise is a counted failure, not a crash
            spans[idx] = (t, time.perf_counter())
            errors[idx] = ["raised %r" % (exc,)]
            continue
        spans[idx] = (t, time.perf_counter())
        try:
            summaries[idx] = wl.summarize(item, out)
        except Exception as exc:  # an output that cannot be digested is wrong
            errors[idx] = ["summary raised %r" % (exc,)]
    speed.stop()
    walls, times = speed.item_times(spans)
    if args.workload == "cli-oneshot":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[wl.name]
    for idx, (item, s) in enumerate(zip(items, summaries)):
        if s is not None:
            errs = oracle_errors(wl, item, s, ctx)
            if errs:
                errors.setdefault(idx, []).extend(errs)
    for idx, errs in golden_errors(summaries, golden).items():
        errors.setdefault(idx, []).extend(errs)

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "item_s": times,
        "item_wall_s": walls,
        "probe_s": statistics.median(speed.times),
        "attempted": len(items),
        "failed": len(errors),
        "errors": ["%r: %s" % (items[idx][:4], "; ".join(msgs))
                   for idx, msgs in sorted(errors.items())][:5],
        "negative_control": negative_control(wl, items, summaries, golden, ctx),
        "rss_mb": rss_kb / 1024.0,
        "reproduce_s": [t for item, t in zip(items, times)
                        if args.workload == "cli-oneshot" and item[0] == "reproduce"],
    }
    if tracer is not None:
        raws, cli, acceptance = [], None, None
        if ctx.cli_reports:
            raws, cli, acceptance = cli_layers(ctx.cli_reports, summaries)
        agg = tracing.merge([tracer.raw()] + raws)
        result["layers"] = tracing.layer_metrics(agg, cli, acceptance)
        tracer.write_spans(os.path.join(args.trace_dir, "pass-spans.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
