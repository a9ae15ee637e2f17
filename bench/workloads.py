"""The benchmark's workloads and its frozen table of expected values.

A workload is a list of CLI operations (argv lists for ``extremal_lie.cli``)
built from a seed, each paired with the ``actual`` values its JSON report
must show.  The table below is the benchmark's own copy of the paper's
numbers; it does not read ``cli.L_TABLE``, ``R_TABLE`` or ``R_LENGTHS``, so
a wrong number in the program shows up as a failed operation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# dim L_r, the universal sandwich algebra on r generators
L_DIMS = {1: 1, 2: 3, 3: 8, 4: 28, 5: 537}
# dim R_r, its associative companion, and the length profile of R_4
R_DIMS = {1: 2, 2: 5, 3: 19}
R4_LENGTHS = [1, 4, 12, 24, 36, 40, 36, 24, 12, 4]
# t(g), the minimal number of extremal generators; the lower bound the
# certificate proves equals it for every type used here
T_G = {"A2": 3, "A4": 5, "B4": 5, "C3": 6, "D4": 4, "D5": 5, "G2": 4, "F4": 5, "E6": 5, "E7": 5}
# (long roots, short roots)
ROOT_COUNTS = {"E7": (126, 0)}
# root-group pairs the rootgroups command classifies, in report order
PAIR_CASES = ("same-line", "opposite", "commuting", "f0-noncommuting")
# (dim Rad(L), dim Rad(f)); over Q and over GF(p), 13 <= p <= 101, a
# Chevalley algebra of these types is simple with a nondegenerate form
RADICALS_SIMPLE = (0, 0)
# G2 in characteristic 3: Rad(L) = 0 but the extremal form has a 7-dim radical
RADICALS_G2_CHAR3 = (0, 7)
# the three-generator algebra has dimension 8 and, with three nonzero edges,
# normalizes to case 3
THREEGEN_DIM, THREEGEN_CASE = 8, 3

# p divides no Cartan determinant of the types used (at most 5) and exceeds
# the bound (11) below which rootgroups samples the whole field
PRIMES = tuple(p for p in range(13, 102) if all(p % q for q in range(2, p)))


def _mingen(types, char):
    expect = {}
    for t in types:
        name = "%s/char%d" % (t, char)
        expect[name + " t"] = T_G[t]
        expect[name + " lower bound"] = T_G[t]
    return {"argv": ["mingen", "--type", ",".join(types), "--char", str(char)], "expect": expect}


def _radicals(t, char, dims=None):
    dims = dims or RADICALS_SIMPLE
    expect = {"Rad(L) dim": dims[0], "Rad(f) dim": dims[1]}
    if char == 0:
        expect["Rad(f) = Rad(kappa) dims (char 0)"] = dims[1]
    return {"argv": ["radicals", "--type", t, "--char", str(char)], "expect": expect}


def _extremal_check(t, char):
    long_, short = ROOT_COUNTS[t]
    return {
        "argv": ["extremal-check", "--type", t, "--char", str(char)],
        "expect": {"long root elements extremal": long_, "short root elements not extremal": short},
    }


def _rootgroups(t, char, seed=None):
    argv = ["rootgroups", "--type", t, "--char", str(char)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"argv": argv, "expect": {"%s pair classified" % c: c for c in PAIR_CASES}}


def _threegen(rng, char):
    """Edges and central value drawn from the seed, all nonzero.

    The edges are (-2ab, -2ac, -2bc) after the exp step that clears the
    central value d, so the square roots the normalization needs exist in
    every field: the report must reach the 8-dimensional algebra."""
    while True:
        a, b, c = (rng.choice([k for k in range(-9, 10) if k]) for _ in range(3))
        d = rng.randint(1, 9)
        xy, xz = -2 * a * b, -2 * a * c
        yz = Fraction(-2 * b * c) + Fraction(d * d, 2 * xy * xz)
        if char:
            yz = yz.numerator * pow(yz.denominator, -1, char) % char
        if yz:
            break
    edges = ",".join(str(v) for v in (xy, xz, yz))
    return {
        "argv": ["threegen", "--edges", edges, "--central", str(d), "--char", str(char)],
        "expect": {
            "dim M": THREEGEN_DIM,
            "case (nonzero edges)": THREEGEN_CASE,
            "central after normalization": "0",
        },
    }


def _tables_lr(max_r):
    return {"argv": ["tables", "lr", "--max-r", str(max_r)],
            "expect": {"dim L_%d" % r: L_DIMS[r] for r in range(1, max_r + 1)}}


# Every workload runs every traced layer, so that a traced run reports each
# per-layer metric as measured and none is 0: the sandwich workload ends with
# the Chevalley commands on A2 over Q, the Chevalley workloads with the
# sandwich tables up to L_4.  These take about 1 s of sandwich-q and 0.01 s of
# the others.
def _chevalley_a2(rng):
    return [
        _mingen(["A2"], 0),
        _radicals("A2", 0),
        _rootgroups("A2", 0, seed=rng.randint(4, 999)),
        _threegen(rng, 0),
    ]


def sandwich_q(rng):
    return {}, [
        _tables_lr(5),
        {"argv": ["tables", "rr", "--max-r", "3"],
         "expect": {"dim R_%d" % r: R_DIMS[r] for r in range(1, 4)}},
        {"argv": ["tables", "rr-lengths", "--r", "4"], "expect": {"R_4 lengths": R4_LENGTHS}},
    ] + _chevalley_a2(rng)


def chevalley_q(rng):
    return {}, [
        _mingen(["A4", "C3", "D4", "G2", "F4", "E6", "E7"], 0),
        _radicals("E6", 0),
        _extremal_check("E7", 0),
        _rootgroups("B3", 0, seed=rng.randint(4, 999)),
        _threegen(rng, 0),
        _tables_lr(4),
    ]


def chevalley_modp(rng):
    p = rng.choice(PRIMES)
    return {"p": p}, [
        _mingen(["A4", "B4", "C3", "D5", "G2", "F4", "E6", "E7"], p),
        _radicals("E7", p),
        _radicals("G2", 3, RADICALS_G2_CHAR3),
        _extremal_check("E7", p),
        _rootgroups("D4", p, seed=rng.randint(4, 999)),
        _rootgroups("B3", 7),
        _threegen(rng, p),
        _tables_lr(4),
    ]


WORKLOADS = {"sandwich-q": sandwich_q, "chevalley-q": chevalley_q, "chevalley-modp": chevalley_modp}


def build(name, seed):
    """(derived values, operations) of a workload for a seed."""
    return WORKLOADS[name](random.Random(seed))


def chevalley_types(ops):
    """(letter, rank) of every Chevalley type the operations load, in order."""
    out = []
    for op in ops:
        argv = op["argv"]
        if "--type" in argv:
            for t in argv[argv.index("--type") + 1].split(","):
                if (t[0], int(t[1:])) not in out:
                    out.append((t[0], int(t[1:])))
    return out


def gate(expect, outcome):
    """Reasons an operation failed; empty when it passed.

    ``outcome`` is what the child recorded: ``rc``, ``stdout`` and, if the
    command raised, ``error``.  Every check must pass and every frozen value
    must equal the ``actual`` field of the check of that name."""
    if outcome.get("error"):
        return ["raised %s" % outcome["error"]]
    reasons = []
    if outcome["rc"] != 0:
        reasons.append("exit code %r" % outcome["rc"])
    try:
        report = json.loads(outcome["stdout"])
        checks = report["checks"]
    except (ValueError, KeyError, TypeError):
        return reasons + ["stdout is not a JSON report"]
    actual = {}
    for c in checks:
        if c.get("pass") is not True:
            reasons.append("check %r failed" % c.get("name"))
        actual[c.get("name")] = c.get("actual")
    if report.get("pass") is not True:
        reasons.append("report pass is not true")
    for name, value in expect.items():
        if name not in actual:
            reasons.append("check %r missing" % name)
        elif actual[name] != value:
            reasons.append("%s: expected %r, got %r" % (name, value, actual[name]))
    return reasons

