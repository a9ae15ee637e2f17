"""Batch command-line interface: the dimension tables and theorem checks
as machine-verified reports.

Subcommands: tables, mingen, radicals, threegen, rootgroups, extremal-check.
Exit code 0 iff all checks pass, 1 on a failing check, 2 on usage errors.
Reports serialize deterministically: the JSON output never contains timing,
so byte-identical reruns are guaranteed; wall time goes to stderr.

The CLI is the top layer: no module of the library imports it.  The
per-process memo of the Chevalley constants is in ``rootdata``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .scalars import QQ, GF, CharacteristicTwoUnsupported, NotPrime
from .rootdata import InvalidRank, cartan_nullity, integer_chevalley_data
from . import nilquot
from .liealg import (
    NotAssociative,
    WellDefinednessFailure,
    extremal_form,
    sandwich_span_check,
    structural_subspaces,  # noqa: F401 -- bench/tests checks the tracer rebinds this alias
)
from .chevalley import (
    chevalley_algebra,
    extremal_spanning_set,
    long_root_extremality_check,
    mingen_certify,
)
from . import rootgroups as rg
from . import smallgen

# The last tabulated r of L_r and of R_r, read from the tables once: past
# them a table has no value to check and its construction does not finish
_LAST_TABULATED = {"lr": max(nilquot.L_DIMS), "rr": max(nilquot.R_LENGTHS), "rr-lengths": max(nilquot.R_LENGTHS)}


class UsageError(ValueError):
    """Malformed command-line input: exit code 2 with one line on stderr."""


class Report:
    def __init__(self, command, parameters):
        self.command = command
        self.parameters = parameters
        self.checks = []
        self.reported = []  # computed values with no independent expected value
        self.runtime_ms = 0

    def add(self, name, expected, actual):
        self.checks.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )

    def report(self, name, value):
        self.reported.append({"name": name, "value": value})

    def add_bool(self, name, ok):
        self.checks.append({"name": name, "expected": True, "actual": bool(ok), "pass": bool(ok)})

    @property
    def ok(self):
        return all(c["pass"] for c in self.checks)

    def to_json(self):
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "pass": self.ok,
        }
        if self.reported:
            out["reported"] = self.reported
        return out

    def emit(self, json_mode):
        if json_mode:
            sys.stdout.write(json.dumps(self.to_json(), sort_keys=True, default=str) + "\n")
        else:
            sys.stdout.write("# %s %s\n" % (self.command, json.dumps(self.parameters, sort_keys=True, default=str)))
            for c in self.checks:
                sys.stdout.write(
                    "%-6s %s: expected=%s actual=%s\n"
                    % ("PASS" if c["pass"] else "FAIL", c["name"], c["expected"], c["actual"])
                )
            for c in self.reported:
                sys.stdout.write("%-6s %s: %s\n" % ("INFO", c["name"], c["value"]))
            sys.stdout.write("overall: %s\n" % ("PASS" if self.ok else "FAIL"))
        sys.stderr.write("runtime_ms=%d\n" % self.runtime_ms)


# -- Chevalley constants -------------------------------------------------------


def cached_integer_table(type_, rank, cache_dir):
    """``(labels, table)`` of ``rootdata.integer_chevalley_data``, kept as the
    set-up entry point of ``bench/child.py``; ``cache_dir`` is ignored."""
    return integer_chevalley_data(type_, rank)[1:]


# -- helpers ------------------------------------------------------------------


def parse_type(type_str):
    """(letter, rank) from one ASCII letter followed by ASCII digits, e.g.
    "G2"."""
    m = re.fullmatch(r"([A-Za-z])([0-9]*)", type_str.strip())
    if m is None:
        raise InvalidRank("cannot read a type from %r" % type_str)
    letter, digits = m.groups()
    if not digits:
        raise InvalidRank("type %r has no rank: write it with its rank, e.g. G2" % type_str)
    return letter.upper(), int(digits)


def field_of_char(char):
    return QQ if char in (0, None) else GF(char)


def parse_scalars(field, text, count, flag):
    """``count`` comma-separated scalars of ``field`` (integers or n/d)."""
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError("%s needs %d comma-separated scalar(s), got %r" % (flag, count, text))
    try:
        return [field.from_str(s) for s in parts]
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s: cannot read %r as scalars of %r" % (flag, text, field)) from None


# -- subcommands ----------------------------------------------------------------


def _build_or_fail(rep, name, build, r):
    """``build(r)``, or None after a failed check named after ``name`` when
    the engine stops short: it reached no empty degree below the cap, or a
    block missed its orbit's rank (the message names the block)."""
    try:
        return build(r)
    except nilquot.DegreeCapExceeded:
        rep.add_bool("%s reached an empty degree below the cap" % name, False)
    except nilquot.OrbitRankMismatch as exc:
        rep.add_bool("%s: %s" % (name, exc), False)
    return None


def cmd_tables(args):
    rep = Report("tables", {"which": args.which, "max_r": args.max_r, "r": args.r})
    if args.which != "rr-lengths" and args.r is not None:
        raise UsageError("--r applies to rr-lengths only; tables %s takes --max-r" % args.which)
    flag, r = ("--max-r", args.max_r) if args.r is None else ("--r", args.r)
    if r < 1:
        raise UsageError("%s must be at least 1" % flag)
    limit = _LAST_TABULATED[args.which]
    if r > limit:
        raise UsageError("tables %s stops at r=%d, the last tabulated entry" % (args.which, limit))
    if args.which in ("lr", "rr"):
        name, build, dims = {
            "lr": ("L", nilquot.sandwich_algebra, nilquot.L_DIMS),
            "rr": ("R", nilquot.assoc_dims_via_embedding, nilquot.R_DIMS),
        }[args.which]
        for r in range(1, args.max_r + 1):
            q = _build_or_fail(rep, "dim %s_%d" % (name, r), build, r)
            if q is not None:
                rep.add("dim %s_%d" % (name, r), dims[r], q.total_dim)
    else:  # rr-lengths
        a = _build_or_fail(rep, "R_%d lengths" % r, nilquot.assoc_dims_via_embedding, r)
        if a is None:
            return rep
        rep.add("R_%d lengths" % r, nilquot.R_LENGTHS[r], a.dims_by_length)
        rep.report("R_%d palindromic after identity" % r, a.palindromic_after_identity)
    return rep


def cmd_mingen(args):
    types = [parse_type(ts) for ts in args.type.split(",")]
    rep = Report("mingen", {"type": args.type, "char": args.char})
    for t, r in types:
        row = mingen_certify(t, r, args.field)
        name = "%s%d/char%d" % (t, r, args.field.characteristic)
        rep.add("%s t" % name, row["t_claimed"], row["generators"])
        rep.add_bool("%s generators extremal" % name, row["generators_extremal"])
        rep.add_bool("%s generation reaches dim %d" % (name, row["dim"]), row["generation_ok"])
        rep.add("%s lower bound" % name, row["t_claimed"], row["lower_bound"])
    return rep


def cmd_radicals(args):
    t, r = parse_type(args.type)
    field = args.field
    A = chevalley_algebra(t, r, field)
    rep = Report("radicals", {"type": "%s%d" % (t, r), "char": args.char})
    try:
        form, broken = extremal_form(A.lie, extremal_spanning_set(A)), None
    except WellDefinednessFailure as exc:
        form, broken = None, exc
    rep.add_bool("extremal form symmetric", broken is None or isinstance(broken, NotAssociative))
    rep.add_bool("extremal form associative", broken is None)
    if form is None:
        return rep
    chain = sandwich_span_check(A.lie, [], form, raising=[A.x(a) for a in A.rootsystem.simple_roots])
    dims = chain["dims"]
    holds = {link["link"]: link["holds"] for link in chain["links"]}
    rep.add_bool("chain SanRad <= NilRad <= Rad(L) <= Rad(f) <= Rad(kappa)", chain["pass"])
    rep.add_bool("Rad(f) <= Rad(kappa)", holds["Rad(f) <= Rad(kappa)"])
    if field.characteristic == 0:
        rep.add("Rad(f) = Rad(kappa) dims (char 0)", dims["Rad(kappa)"], dims["Rad(f)"])
    rep.add_bool("Rad(L) <= Rad(f)", holds["Rad(L) <= Rad(f)"])
    if (t, r, field.characteristic) == ("G", 2, 3):
        rep.add("Rad(L) dim", 0, dims["Rad(L)"])
        rep.add("Rad(f) dim", 7, dims["Rad(f)"])
        rep.add_bool("Rad(L) < Rad(f) strict", dims["Rad(f)"] > dims["Rad(L)"])
    else:
        # Rad(L) = Rad(f) = Z(L) (Hogeweij's tables; 0 over Q, where L is
        # simple), and dim Z(L) is read off the Cartan matrix
        z = cartan_nullity(t, r, field.characteristic)
        rep.add("Rad(L) dim", z, dims["Rad(L)"])
        rep.add("Rad(f) dim", z, dims["Rad(f)"])
    rep.add_bool("solvable radical certified", chain["solvable_radical_certified"])
    return rep


def cmd_threegen(args):
    field = args.field
    edges = parse_scalars(field, args.edges, 3, "--edges")
    p = smallgen.TriangleParams(field, *edges, *parse_scalars(field, args.central, 1, "--central"))
    rep = Report("threegen", {"edges": args.edges, "central": args.central, "char": args.char})
    normal = smallgen.normalize(p)
    if normal is None:
        rep.report("extension required (square root missing)", True)
        return rep
    rep.add("central after normalization", "0", field.to_str(normal.central))
    M, case = smallgen.build_M(normal)
    rep.add("dim M", 8, M.n)
    rep.add("case (nonzero edges)", normal.nonzero_edges(), case)
    checks = smallgen.verify_3gen_structure(M, case)
    for key, val in sorted(checks.items()):
        if key != "pass":
            rep.add_bool("case %d %s" % (case, key), val)
    return rep


def cmd_rootgroups(args):
    t, r = parse_type(args.type)
    A = chevalley_algebra(t, r, args.field)
    rep = Report("rootgroups", {"type": "%s%d" % (t, r), "char": args.char, "seed": args.seed})
    extra = () if args.seed is None else (args.seed, -args.seed)
    samples = rg.parameter_samples(args.field, seed_extra=extra)
    found = set()
    for expect_case, x, y in rg.representative_pairs(A):
        found.add(expect_case)
        out = rg.verify_abstract_root_properties(A.lie, x, y, samples)
        rep.add("%s pair classified" % expect_case, expect_case, out["case"])
        rep.add_bool("%s properties" % expect_case, out["pass"])
    for case in ("commuting", "f0-noncommuting"):
        if case not in found:
            rep.report("%s pair skipped" % case, "no pair of long roots in this class")
    pair = rg.strongcomm_pair(A)
    if pair is None:
        rep.report(
            "strongcomm pair and projective line skipped",
            "no long root b with [x_theta, x_b] != 0 and f(x_theta, x_b) = 0",
        )
    else:
        x, z = pair
        out = rg.strongcomm_check(A.lie, x, z, samples)
        rep.add_bool("strongcomm conditions + product identity on (x, [x,y])", out["pass"])
        line = rg.projective_line_check(A.lie, x, z, samples)
        rep.add_bool("projective line fully extremal", line["pass"])
    probe = rg.chain_nonexistence_probe(A)
    rep.add_bool("no forbidden chain found (probe)", probe["pass"])
    return rep


def cmd_extremal_check(args):
    t, r = parse_type(args.type)
    A = chevalley_algebra(t, r, args.field)
    out = long_root_extremality_check(A)
    rep = Report("extremal-check", {"type": "%s%d" % (t, r), "char": args.char})
    n_long = sum(1 for row in out["rows"] if row["long"])
    n_short = len(out["rows"]) - n_long
    rep.add(
        "long root elements extremal",
        n_long,
        sum(1 for row in out["rows"] if row["long"] and row["extremal"]),
    )
    rep.add(
        "short root elements not extremal",
        n_short,
        sum(1 for row in out["rows"] if not row["long"] and not row["extremal"]),
    )
    return rep


class _HelpShown(Exception):
    """``--help`` has printed its text: exit code 0."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises instead of exiting: an error is a
    ``UsageError``, and ``--help`` raises ``_HelpShown`` once its text is
    printed; its subparsers are of the same class."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, *_):
        raise _HelpShown()


def build_parser():
    ap = _Parser(
        prog="extremal-lie",
        description="Exact checks for Lie algebras generated by extremal elements.",
    )
    ap.add_argument("--json", action="store_true", help="emit the JSON report schema")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="reproduce the L_r / R_r dimension tables")
    p.add_argument("which", choices=["lr", "rr", "rr-lengths"])
    p.add_argument("--max-r", type=int, default=4)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("mingen", help="certify minimal extremal generation t(g)")
    p.add_argument("--type", required=True, help="e.g. G2 or a comma list A2,B3")
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(fn=cmd_mingen)

    p = sub.add_parser("radicals", help="the radical chain and form radicals")
    p.add_argument("--type", required=True)
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(fn=cmd_radicals)

    p = sub.add_parser("threegen", help="normalize parameters and build the dim-8 algebra")
    p.add_argument("--edges", required=True, help="three scalars, e.g. -2,-2,-2")
    p.add_argument("--central", default="0")
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(fn=cmd_threegen)

    p = sub.add_parser("rootgroups", help="root group identities on representative pairs")
    p.add_argument("--type", required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_rootgroups)

    p = sub.add_parser("extremal-check", help="long/short root extremality sweep")
    p.add_argument("--type", required=True)
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(fn=cmd_extremal_check)
    return ap


def _merge_value_flags(argv):
    """Let '--edges -2,-2,-2' parse: merge values that look like options.
    A number such as '--seed -5' parses as it is."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--edges", "--central") and i + 1 < len(argv):
            out.append("%s=%s" % (a, argv[i + 1]))
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None):
    """Run one command and return its exit code; it never raises
    ``SystemExit``.  A usage error, the parser's included, writes one stderr
    line and returns 2; ``--help`` prints its text and returns 0."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_merge_value_flags(list(argv)))
        t0 = time.time()
        args.field = field_of_char(getattr(args, "char", 0))
        rep = args.fn(args)
    except _HelpShown:
        return 0
    except (UsageError, InvalidRank, NotPrime, CharacteristicTwoUnsupported) as exc:
        sys.stderr.write("%s\n" % exc)
        return 2
    rep.runtime_ms = int((time.time() - t0) * 1000)
    rep.emit(args.json)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
