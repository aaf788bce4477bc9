"""Run one demazure command under the tracer, as ``python -m demazure`` would.

    PYTHONPATH=src python3 perfbench/cliprobe.py REPORT.json ARGS...

The command's stdout and exit code are those of ``demazure ARGS...``.
REPORT.json receives the interpreter start time (from the wall clock in
``PERFBENCH_SPAWN_WALL``, set by the parent just before it spawned this
process), the import time of ``demazure.cli``, the command time, the
seconds of each acceptance criterion when the command is ``reproduce``,
and the tracer aggregates.  The spans go to REPORT-spans.json.
"""

import time

START_WALL = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import demazure.cli as cli
    import_ms = (time.perf_counter() - t) * 1e3

    import tracer as tracing
    tr = tracing.Tracer()
    tr.install()
    seconds = {}
    if argv and argv[0] == "reproduce":
        from demazure import acceptance

        def timed(fn):
            def criterion(*args):
                start = time.perf_counter()
                row = tr.span("acceptance." + fn.__name__, fn, *args)
                seconds[row[0]] = time.perf_counter() - start
                return row
            return criterion

        # run_all tells seeded criteria apart by identity with the module
        # globals, so the globals and CRITERIA get the same wrappers
        wrapped = []
        for fn in acceptance.CRITERIA:
            w = timed(fn)
            setattr(acceptance, fn.__name__, w)
            wrapped.append(w)
        acceptance.CRITERIA = tuple(wrapped)

    tr.on = True
    t = time.perf_counter()
    code = tr.span("cli." + (argv[0] if argv else ""), cli.main, argv)
    command_ms = (time.perf_counter() - t) * 1e3
    tr.on = False
    sys.stdout.flush()

    spawn = float(os.environ.get("PERFBENCH_SPAWN_WALL", START_WALL))
    report = {"interpreter_ms": (START_WALL - spawn) * 1e3, "import_ms": import_ms,
              "command_ms": command_ms, "acceptance": seconds, "trace": tr.raw()}
    with open(report_path + ".tmp", "w") as fh:
        json.dump(report, fh)
    os.replace(report_path + ".tmp", report_path)
    tr.write_spans(report_path[:-len(".json")] + "-spans.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
