"""Benchmark of the demazure package: one seeded workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the run makes passes over the seed's deck, each in a
fresh interpreter and each with its own item order, for about S seconds
(at least MIN_PASSES), and prints the end-to-end metrics, taken from the
median time of each item across the passes.  Times are scaled to the
reference speed of ``calib`` (see there and passrun.py); the ``run``
line restates them in wall-clock time.  With ``--trace 1`` it runs
the deck untraced, traced, and untraced again, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is the JSON
result; the lines before it restate the metrics and the environment.
The process exits 1 without a result when a pass cannot run.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embedding-scan", "module-sweep", "crystal-check", "relations-growth",
             "cli-oneshot")
MIN_PASSES = 3
SETUP_PER_PASS = 1  # set-up-only processes per pass, for more setup_s samples
RUN_LIMIT_S = 170  # a run must end within 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_pass(args, index, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(index), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("pass %d did not finish within the run limit" % index)
    if proc.returncode != 0:
        fail("pass %d exited with %d:\n%s" % (index, proc.returncode,
                                              proc.stderr.decode(errors="replace")[-3000:]))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def quantile(values, q):
    """The Harrell-Davis estimate of quantile q in (0, 1): a mean of all the
    order statistics, weighted by a Beta(q(n+1), (1-q)(n+1)) density over
    the ranks.  It moves far less than one order statistic when the values
    near the quantile are noisy.  The weights are the integrals of the
    density over [(i-1)/n, i/n], by the trapezoid rule on eight
    sub-intervals each."""
    xs = sorted(values)
    n, steps = len(xs), 8
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    grid = [density(j / (n * steps)) for j in range(n * steps + 1)]
    weights = [sum(grid[i * steps + j] + grid[i * steps + j + 1] for j in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    return {"workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model()}


def end_to_end(args, deadline):
    start = time.monotonic()
    passes, setups, setup_walls = [], [], []
    while True:
        for _ in range(SETUP_PER_PASS):
            only = run_pass(args, len(passes), deadline, "--setup-only")
            setups.append(only["setup_s"])
            setup_walls.append(only["setup_wall_s"])
        passes.append(run_pass(args, len(passes), deadline))
        elapsed = time.monotonic() - start
        # stop where the next round would end more than half a round late
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 0.5) / len(passes) > args.seconds:
            break
    setups.extend(p["setup_s"] for p in passes)
    setup_walls.extend(p["setup_wall_s"] for p in passes)
    # every pass runs the same deck; an item's time is its median across
    # passes, which keeps a slow moment of the machine out of the figures
    items = [statistics.median(ts) for ts in zip(*(p["item_s"] for p in passes))]
    walls = [statistics.median(ts) for ts in zip(*(p["item_wall_s"] for p in passes))]
    # highest whole percentile with at least ten of the item times of
    # MIN_PASSES passes beyond it, so that it does not move with the pass count
    q = math.floor(100 * (1 - 10 / (len(items) * MIN_PASSES)))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(items) / sum(items), "1/s"),
        "item_ms_p50": (quantile(items, 0.5) * 1e3, "ms"),
        "item_ms_tail": (quantile(items, q / 100) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = {"passes": len(passes), "setup_samples": len(setups), "deck": len(items),
             "tail_percentile": q, "fail_ratio": failed / attempted,
             "probe_ms": 1e3 * statistics.median(p["probe_s"] for p in passes),
             "wall_setup_s": statistics.median(setup_walls),
             "wall_items_per_s": len(walls) / sum(walls),
             "wall_item_ms_p50": quantile(walls, 0.5) * 1e3,
             "wall_item_ms_tail": quantile(walls, q / 100) * 1e3}
    reproduce = [t for p in passes for t in p["reproduce_s"]]
    if reproduce:
        notes["reproduce_s"] = statistics.median(reproduce)
    return passes, metrics, notes


def traced(args, deadline):
    trace_dir = os.path.join(ROOT, ".bench_trace", "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(trace_dir, exist_ok=True)
    # untraced before and after the traced pass, so that a steady drift in
    # machine speed cancels out of the overhead
    before = run_pass(args, 0, deadline, "--probe-between")
    tr = run_pass(args, 0, deadline, "--trace-dir", trace_dir, "--probe-between")
    after = run_pass(args, 0, deadline, "--probe-between")
    untraced = (sum(before["item_s"]) + sum(after["item_s"])) / 2
    metrics = {name: (m["value"], m["unit"]) for name, m in tr["layers"].items()}
    metrics["trace.overhead_s"] = (sum(tr["item_s"]) - untraced, "s")
    notes = {"untraced_s": untraced, "traced_s": sum(tr["item_s"]), "spans": trace_dir}
    return [before, tr, after], metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "demazure", "__init__.py")):
        fail("no demazure package under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + RUN_LIMIT_S

    passes, metrics, notes = (traced if args.trace else end_to_end)(args, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    caught = all(p["negative_control"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]

    print("env " + json.dumps(environment(args), sort_keys=True))
    print("run " + json.dumps(dict(notes, attempted=attempted, failed=failed,
                                   negative_control="caught" if caught else "MISSED"),
                              sort_keys=True))
    for e in errors[:10]:
        print("failure " + e)
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
