"""One benchmark child: set up, then run CLI operations in-process and time them.

Reads a JSON spec on stdin and writes one JSON object on stdout:

    {"src": ".../src", "types": [["E", 6], ...], "ops": [[argv...], ...],
     "setup_only": false, "trace": "none", "seconds": 20, "max_passes": 0,
     "spawned": <the parent's perf_counter just before it started the child>}

Set-up is importing ``extremal_lie`` and filling the (empty) constants cache
named by ``EXTREMAL_LIE_CACHE`` for ``types``.  A pass runs every operation
once through ``cli.main(["--json", ...])``; passes repeat while another one
fits in ``seconds`` (at least one, at most ``max_passes`` when that is
positive).  Times are reference seconds of ``refclock.RefClock``, started
first thing; ``raw_*`` are the plain wall times.  ``perf_counter`` is
CLOCK_MONOTONIC on Linux, so ``spawned`` is on the child's clock.

``trace`` is ``"none"``, ``"spans"`` (span wrappers and ``Echelon.insert``
counters, for the per-layer times) or ``"count"`` (``Field`` call counters
only, which are too many to time next to the spans).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

from refclock import RefClock


def run_op(cli, argv):
    """Run one CLI command; its stdout, exit code and any exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(["--json"] + list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
    return {"rc": rc, "stdout": out.getvalue(), "error": error}


def main():
    clock = RefClock().start()
    try:
        run(clock, json.load(sys.stdin))
    finally:
        clock.stop()  # an alarm left pending would kill the interpreter


def run(clock, spec):
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"] != "none":
        from spans import Tracer

        tracer = Tracer()
        tracer.install_counters() if spec["trace"] == "count" else tracer.install_spans()
    from extremal_lie import cli

    cache = os.environ["EXTREMAL_LIE_CACHE"]
    for letter, rank in spec["types"]:
        cli.cached_integer_table(letter, rank, cache)
    ready = time.perf_counter()
    if spec["setup_only"]:
        print(json.dumps(_setup(clock, spec["spawned"], ready)))
        return
    run_start = tracer.start_run() if tracer else time.perf_counter()
    marks = []  # per pass: perf_counter before each operation and at the end
    outcomes = []
    while True:
        marks.append([time.perf_counter()])
        outcomes.append([])
        for argv in spec["ops"]:
            outcomes[-1].append(run_op(cli, argv))
            marks[-1].append(time.perf_counter())
        if spec["max_passes"] and len(marks) >= spec["max_passes"]:
            break
        elapsed = time.perf_counter() - run_start
        if elapsed + statistics.median(m[-1] - m[0] for m in marks) > spec["seconds"]:
            break
    run_end = time.perf_counter()
    clock.stop()
    result = _setup(clock, spec["spawned"], ready)
    result["passes"] = [{
        "wall_s": clock.span(m[0], m[-1]),
        "raw_wall_s": m[-1] - m[0],
        "op_s": [clock.span(a, b) for a, b in zip(m, m[1:])],
        "outcomes": o,
    } for m, o in zip(marks, outcomes)]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        import spans

        if spec["trace"] == "count":
            result["trace"] = {"metrics": spans.counter_metrics(tracer), "absent": tracer.absent}
        else:
            tracer.spans = [(i, p, k, clock.at(t0), clock.at(t1), o) for i, p, k, t0, t1, o in tracer.spans]
            start = clock.at(run_start)
            result["trace"] = {
                "metrics": spans.layer_metrics(tracer, start, clock.at(run_end) - start),
                "by_op": spans.breakdown(tracer.spans, start),
                "by_mingen_type": spans.breakdown(tracer.spans, start, "chevalley.mingen"),
                "absent": tracer.absent,
            }
    print(json.dumps(result))


def _setup(clock, spawned, ready):
    return dict(clock.summary(), setup_s=clock.span(spawned, ready), raw_setup_s=ready - spawned)


if __name__ == "__main__":
    main()
