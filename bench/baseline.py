"""Traced baseline of every workload, checked against the ROADMAP profile claims.

    python3 bench/baseline.py

Runs ``run.py --trace 1`` with seed ``SEED`` for each workload (one after
another) and writes ``bench/baseline.json``: host and source identity, the
layer -> end-to-end map of ``metrics.PER_LAYER``, each workload's per-layer
metrics and per-operation layer times, and the three profile claims below
with the shares measured here.  Shares come from the span-traced child, whose
span cost (``trace.overhead_ratio``) inflates the layers with the most spans;
``Field`` calls are counted in another child and cost it nothing.
"""

from __future__ import annotations

import json
import os
import sys

import metrics
import run

# (claim, ROADMAP figure, workload); claim_shares measures them, in this order
CLAIMS = (
    ("BilinearForm.is_associative dominates radicals E6 over Q (run twice per command)",
     "4.54 s per call of 18.3 s for the command", "chevalley-q"),
    ("matrix_lie_algebra dominates mingen of the classical types over Q",
     "73 s of 77 s of D5 over Q under cProfile", "chevalley-q"),
    ("nilquot does almost all the work of sandwich-q",
     "sandwich_algebra(5) over Q 10.2 s; tables lr 15.8 s", "sandwich-q"),
)
CLASSICAL = ("A", "B", "C", "D")
SEED = 1


def claim_shares(traced):
    """Measured share for each of CLAIMS, from the traced details by workload."""
    q = traced["chevalley-q"]
    argv = q["record"]["argv"]
    radicals = q["by_op"][[a[0] for a in argv].index("radicals")]
    assoc = radicals["incl_s"].get("liealg.assoc", 0.0) / radicals["wall_s"]
    types = argv[[a[0] for a in argv].index("mingen")][2].split(",")
    rows = [row for t, row in zip(types, q["by_mingen_type"]) if t[0] in CLASSICAL]
    matrix = sum(r["incl_s"].get("liealg.matrix_algebra", 0.0) for r in rows) / sum(r["wall_s"] for r in rows)
    s = traced["sandwich-q"]
    nilquot = sum(r["layer_incl_s"].get("nilquot", 0.0) for r in s["by_op"]) / s["metrics"]["trace.wall_s"]
    return [
        {"share": assoc, "of": "radicals E6 command", "threshold": 0.4},
        {"share": matrix, "of": "mingen_certify of %s" % ",".join(t for t in types if t[0] in CLASSICAL),
         "threshold": 0.5},
        {"share": nilquot, "of": "traced wall_s of sandwich-q", "threshold": 0.9},
    ]


def main():
    traced = {}
    for name in run.workloads.WORKLOADS:
        result, details = run.run(name, SEED, 20, True, log=lambda line: None)
        if not result["correct"]:
            sys.stderr.write("baseline: %s failed %d operations\n" % (name, result["failed"]))
            return 1
        traced[name] = details
        sys.stderr.write("baseline: %s done\n" % name)
    claims = []
    for (claim, roadmap, workload), measured in zip(CLAIMS, claim_shares(traced)):
        claims.append(dict(measured, claim=claim, roadmap=roadmap, workload=workload,
                           holds=measured["share"] >= measured["threshold"]))
    out = {
        "host": run.host_record(),
        "seed": SEED,
        "layer_map": [
            {"metric": n, "unit": u, "better": b, "moves": e2e, "on": on}
            for n, u, b, e2e, on in metrics.PER_LAYER
        ],
        "claims": claims,
        "workloads": {
            name: {
                "record": d["record"],
                "per_layer": d["metrics"],
                "by_op": d["by_op"],
                "by_mingen_type": d["by_mingen_type"],
                "absent": d["absent"],
            }
            for name, d in traced.items()
        },
    }
    with open(os.path.join(run.HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for c in claims:
        print("%-5s %.3f of %s: %s" % ("holds" if c["holds"] else "FAILS", c["share"], c["of"], c["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
