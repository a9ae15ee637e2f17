"""Benchmark of the extremal_lie CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads are defined in
``workloads.py``; the seed only shapes the generated CLI arguments.

``--trace 0`` spawns fresh child interpreters one at a time, each with its
own empty constants cache under ``.bench_tmp/``: several that only set up
(``setup_s`` is the median set-up time), then one that sets up and runs the
workload's operations in passes for ``--seconds`` (``wall_s`` is the median
pass, ``peak_rss_mib`` that child's peak memory).  Times are reference
seconds of ``refclock.py``: wall time corrected for the host's speed, as
sampled by a probe while the child runs; the plain wall times are printed as
``raw_wall_s`` and ``raw_setup_s``.  ``--trace 1`` runs three children, one
pass each: one untraced, one with span wrappers (the per-layer times and
``Echelon`` counts) and one that only counts ``Field`` calls.  It reports
every metric of ``metrics.PER_LAYER``.

Every report is checked against the frozen table in ``workloads.py``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the seed, derived
values, generated argv, host and per-operation results.  Exit code 0 when
that line is printed, 2 when the checkout has no ``src/extremal_lie``, 1 when
a child fails to finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
CHILD = os.path.join(HERE, "child.py")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # every child of a run must end within this


class ChildFailed(RuntimeError):
    pass


def host_record():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "extremal_lie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spawn(spec, deadline):
    """Run one child to completion with a fresh empty constants cache."""
    os.makedirs(SCRATCH, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    env = dict(os.environ, PYTHONHASHSEED="0", EXTREMAL_LIE_CACHE=cache)
    env.pop("PYTHONPATH", None)
    try:
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, as in the child
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=json.dumps(dict(spec, spawned=t0)), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("child exceeded the run's time budget") from exc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another child's cache is still there
            pass
    if proc.returncode != 0:
        raise ChildFailed("child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_passes(ops, child, log):
    """(attempted, failed) over every operation of every pass of a child."""
    attempted = failed = 0
    for n, p in enumerate(child["passes"]):
        for op, outcome, secs in zip(ops, p["outcomes"], p["op_s"]):
            reasons = workloads.gate(op["expect"], outcome)
            attempted += 1
            failed += bool(reasons)
            log("# op pass=%d %.3fs %s %s%s" % (
                n, secs, "ok" if not reasons else "FAIL", " ".join(op["argv"]),
                "" if not reasons else " -- " + "; ".join(reasons)))
    return attempted, failed


def median_pass(child, key="wall_s"):
    return statistics.median(p[key] for p in child["passes"])


def run(workload, seed, seconds, trace, log=print):
    """One run; returns the result object and, for the record, its details."""
    derived, ops = workloads.build(workload, seed)
    record = {"workload": workload, "seed": seed, "derived": derived, "trace": trace,
              "argv": [op["argv"] for op in ops]}
    record.update(host_record())
    log("# run " + json.dumps(record, sort_keys=True))
    deadline = time.perf_counter() + BUDGET_S
    spec = {"src": SRC, "types": workloads.chevalley_types(ops), "ops": record["argv"],
            "seconds": seconds, "setup_only": False, "trace": "none", "max_passes": 0}
    if not trace:
        setups = [spawn(dict(spec, setup_only=True), deadline) for _ in range(SETUPS - 1)]
        child = spawn(spec, deadline)
        setups.append(child)
        attempted, failed = gate_passes(ops, child, log)
        values = {
            "wall_s": median_pass(child),
            "setup_s": statistics.median(c["setup_s"] for c in setups),
            "peak_rss_mib": child["peak_rss_mib"],
        }
        log("# passes %d, set-ups %s" % (len(child["passes"]), " ".join("%.4f" % c["setup_s"] for c in setups)))
        log("raw_wall_s %r s" % median_pass(child, "raw_wall_s"))
        log("raw_setup_s %r s" % statistics.median(c["raw_setup_s"] for c in setups))
        log("# host slowness (probe time / reference) %.3f over %d probes" % (
            child["slowness"], child["probes"]))
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        details = {"record": record}
    else:
        base = spawn(dict(spec, max_passes=1), deadline)
        timed = spawn(dict(spec, max_passes=1, trace="spans"), deadline)
        counted = spawn(dict(spec, max_passes=1, trace="count"), deadline)
        attempted = failed = 0
        for c in (base, timed, counted):
            a, f = gate_passes(ops, c, log)
            attempted, failed = attempted + a, failed + f
        values = dict(timed["trace"]["metrics"], **counted["trace"]["metrics"])
        values["trace.overhead_ratio"] = median_pass(timed) / median_pass(base)
        for op, row in zip(ops, timed["trace"]["by_op"]):
            log("# layers %s %s" % (" ".join(op["argv"]), json.dumps(row, sort_keys=True)))
        absent = timed["trace"]["absent"] + counted["trace"]["absent"]
        if absent:
            log("# absent trace targets: " + ", ".join(absent))
        values = per_layer(values, log)
        units = {name: unit for name, unit, _, _, _ in metrics.PER_LAYER}
        details = dict(timed["trace"], record=record, metrics=values, absent=absent)
    for name, value in values.items():
        log("%s %r %s" % (name, value, units[name]))
    log("fail_frac %r (%d of %d operations failed)" % (failed / attempted, failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, details


def per_layer(values, log):
    """The per-layer values in the order of ``metrics.PER_LAYER``.  Every
    workload runs every layer, so a metric that comes out 0 is logged; one
    whose trace target is gone is absent and left out."""
    out = {}
    for name, *_ in metrics.PER_LAYER:
        if name in values:
            out[name] = values[name]
            if not values[name]:
                log("# %s is 0: its layer did not run" % name)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "extremal_lie")):
        sys.stderr.write("bench: no src/extremal_lie under %s; run from a source checkout\n" % ROOT)
        return 2
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
