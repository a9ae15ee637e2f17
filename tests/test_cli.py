import itertools
import json
import os

import pytest

from extremal_lie import cli, liealg, rootdata
from extremal_lie.rootdata import RootSystem, chevalley_constants, integer_chevalley_data


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_lr(capsys):
    code, out, err = run_cli(capsys, "tables", "lr", "--max-r", "4")
    assert code == 0
    for want in ("dim L_1", "dim L_4", "overall: PASS"):
        assert want in out
    assert "runtime_ms" in err and "runtime_ms" not in out


def test_tables_rr_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "tables", "rr", "--max-r", "3")
    code2, out2, _ = run_cli(capsys, "--json", "tables", "rr", "--max-r", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    data = json.loads(out1)
    assert data["pass"] is True
    assert [c["actual"] for c in data["checks"]] == [2, 5, 19]


def test_tables_rr_lengths(capsys):
    code, out, _ = run_cli(capsys, "--json", "tables", "rr-lengths", "--r", "4")
    assert code == 0
    data = json.loads(out)
    row = data["checks"][0]
    assert row["actual"] == [1, 4, 12, 24, 36, 40, 36, 24, 12, 4]


def test_mingen_g2(capsys):
    code, out, _ = run_cli(capsys, "mingen", "--type", "G2", "--char", "0")
    assert code == 0
    assert "overall: PASS" in out


def test_mingen_e8(capsys):
    code, out, _ = run_cli(capsys, "--json", "mingen", "--type", "E8")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [
        "E8/char0 t", "E8/char0 generators extremal", "E8/char0 generation reaches dim 248", "E8/char0 lower bound",
    ]
    assert all(c["pass"] for c in checks)
    assert checks[0]["actual"] == 5


def test_radicals_g2_char3(capsys):
    code, out, _ = run_cli(capsys, "--json", "radicals", "--type", "G2", "--char", "3")
    assert code == 0
    data = json.loads(out)
    byname = {c["name"]: c for c in data["checks"]}
    assert byname["Rad(L) dim"]["actual"] == 0
    assert byname["Rad(f) dim"]["actual"] == 7
    assert byname["Rad(kappa) dim"]["actual"] == 7
    assert data["pass"]


def test_threegen(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "threegen", "--edges", "-2,-2,-2", "--central", "0"
    )
    assert code == 0
    data = json.loads(out)
    byname = {c["name"]: c for c in data["checks"]}
    assert byname["case (nonzero edges)"]["actual"] == 3
    assert byname["case 3 isomorphic_to_sl3"]["pass"]


EDGE_PATTERNS = [(edges, central) for edges in itertools.product((0, 1, -2), repeat=3) for central in (0, 1)]


def _gf3_case2(edges, central):
    """Over GF(3), 1 = -2: these patterns normalize to case 2 there (see
    ``test_threegen_case2_over_gf3``)."""
    return central == 0 and sum(1 for e in edges if e) == 2


def _threegen_failures(capsys, char, patterns):
    """The (edges, central, outcome) of each pattern that does not exit 0:
    the failing check names, or the exception that escaped ``cli.main``."""
    bad = []
    for edges, central in patterns:
        argv = ["--json", "threegen", "--edges", ",".join(map(str, edges)), "--central", str(central)]
        try:
            code, out, _ = run_cli(capsys, *argv, "--char", str(char))
        except Exception as exc:
            bad.append((edges, central, repr(exc)))
            continue
        if code != 0:
            bad.append((edges, central, [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]))
    return bad


@pytest.mark.parametrize("char", [0, 5, 7, 3])
def test_threegen_accepts_any_edge_placement(capsys, char):
    """Every edge pattern in {0, 1, -2}^3, central 0 or 1, passes: the
    normal form puts the nonzero edges where the case checks read them."""
    patterns = [p for p in EDGE_PATTERNS if not (char == 3 and _gf3_case2(*p))]
    assert _threegen_failures(capsys, char, patterns) == []


@pytest.mark.parametrize("edges", [e for e, c in EDGE_PATTERNS if _gf3_case2(e, c)])
def test_threegen_case2_over_gf3(capsys, edges):
    """Case 2 over GF(3) has the center span{v} that the
    ``verify_3gen_structure`` docstring derives, and passes."""
    assert _threegen_failures(capsys, 3, [(edges, 0)]) == []


def test_rootgroups_a2_char5(capsys):
    code, out, _ = run_cli(capsys, "rootgroups", "--type", "A2", "--char", "5")
    assert code == 0
    assert "overall: PASS" in out


def test_extremal_check(capsys):
    code, out, _ = run_cli(capsys, "--json", "extremal-check", "--type", "B3")
    assert code == 0
    data = json.loads(out)
    byname = {c["name"]: c for c in data["checks"]}
    assert byname["long root elements extremal"]["actual"] == 12
    assert byname["short root elements not extremal"]["actual"] == 6


def test_char2_rejected(capsys):
    code, out, err = run_cli(capsys, "mingen", "--type", "A2", "--char", "2")
    assert code == 2


def test_cache_flag_is_rejected_and_environment_writes_nothing(capsys, tmp_path, monkeypatch):
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    flag_dir.mkdir()
    env_dir.mkdir()
    code, out, _ = run_cli(capsys, "--json", "--cache", str(flag_dir), "extremal-check", "--type", "G2")
    assert code == 2
    assert out == ""
    monkeypatch.setenv("EXTREMAL_LIE_CACHE", str(env_dir))
    code, out, _ = run_cli(capsys, "--json", "extremal-check", "--type", "G2")
    assert code == 0 and json.loads(out)["pass"] is True
    assert os.listdir(flag_dir) == [] and os.listdir(env_dir) == []
    assert not (tmp_path / ".cache").exists()


def _old_cache_payload(perm):
    """A G2 entry of the removed on-disk cache, in the schema it read back,
    with basis index i relabelled perm[i]: a valid Lie algebra again."""
    labels, table = chevalley_constants(RootSystem("G", 2)).integer_table()
    constants = []
    for (i, j), row in table.items():
        a, b = perm[i], perm[j]
        for k, v in row.items():
            constants.append([a, b, perm[k], str(v)] if a < b else [b, a, perm[k], str(-v)])
    return {
        "schema_version": 1,
        "convention_version": "extraspecial-heightlex-p1",
        "type": "G",
        "rank": 2,
        "labels": [labels[perm.index(i)] for i in range(len(labels))],
        "field": {"kind": "rationals", "characteristic": 0},
        "constants": sorted(constants),
    }


@pytest.mark.parametrize("planted", ["relabelled", "corrupt"])
def test_planted_cache_file_changes_nothing(capsys, tmp_path, monkeypatch, planted):
    monkeypatch.setenv("EXTREMAL_LIE_CACHE", str(tmp_path))
    argv = ("--json", "extremal-check", "--type", "G2")
    want = run_cli(capsys, *argv)
    # swap x[1,0] (short) with x[0,1] (long), and their negatives
    perm = list(range(14))
    perm[0], perm[1], perm[6], perm[7] = 1, 0, 7, 6
    text = json.dumps(_old_cache_payload(perm)) if planted == "relabelled" else '{"schema_version": 1, "lab'
    (tmp_path / "chev_G2.json").write_text(text)
    assert run_cli(capsys, *argv)[:2] == want[:2]
    assert want[0] == 0


def test_memo_is_shared_and_left_unmutated(capsys):
    """The commands, a directly built ``ChevalleyAlgebra`` and the
    benchmark's set-up entry point all read the one ``rootdata`` memo."""
    from extremal_lie.chevalley import ChevalleyAlgebra
    from extremal_lie.scalars import GF

    code, out, _ = run_cli(capsys, "--json", "radicals", "--type", "E6")
    assert code == 0 and json.loads(out)["pass"] is True
    memo = integer_chevalley_data("E", 6)
    assert memo is integer_chevalley_data("E", 6)
    assert memo[1:] == chevalley_constants(RootSystem("E", 6)).integer_table()
    A = ChevalleyAlgebra("E", 6, GF(5))
    assert A.rootsystem is memo[0] and A.int_table is memo[2]
    labels, table = cli.cached_integer_table("E", 6, "ignored")
    assert labels is memo[1] and table is memo[2]


def test_cached_table_matches_fresh():
    rs, labels, table = integer_chevalley_data("F", 4)
    fresh = RootSystem("F", 4)
    assert (rs.type, rs.rank, rs.roots) == (fresh.type, fresh.rank, fresh.roots)
    assert (labels, table) == chevalley_constants(fresh).integer_table()


def test_report_exit_code_on_failure(capsys):
    rep = cli.Report("demo", {})
    rep.add("value", 1, 2)
    assert not rep.ok


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "tables", "bogus")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def test_mingen_f4_char5(capsys):
    code, out, _ = run_cli(capsys, "--json", "mingen", "--type", "F4", "--char", "5")
    assert code == 0
    data = json.loads(out)
    byname = {c["name"]: c for c in data["checks"]}
    assert byname["F4/char5 t"]["actual"] == 5
    assert byname["F4/char5 lower bound"]["pass"]


@pytest.mark.parametrize("argv", [
    ["mingen", "--type", "A2", "--char", "4"],
    ["radicals", "--type", "A2", "--char", "9"],
    ["threegen", "--edges", "1/0,1,1"],
    ["threegen", "--edges", "1,2"],
    ["tables", "rr-lengths", "--r", "5"],
    ["tables", "lr", "--max-r", "0"],
    ["mingen", "--type", "A2", "--rank", "3"],
    ["tables", "rr-lengths", "--r", "0"],
    ["mingen", "--type", "A2", "--jobs", "0"],
    ["mingen", "--type", "A1,A2", "--jobs", "-1"],
    ["tables", "lr", "--r", "2"],
    ["tables", "rr", "--r", "2"],
    ["tables", "rr-lengths", "--max-r", "0"],
    ["tables", "lr", "--max-r", "abc"],
    ["radicals", "--type", "A2", "--char", "x"],
    ["rootgroups", "--type", "A2", "--seed", "x"],
    ["mingen", "--char", "3"],
    ["mingen", "--type", "A2", "--jobs", "x"],
    ["mingen", "--type", "E8", "--heavy"],
    ["radicals", "--type", "G", "--rank", "2"],
    ["extremal-check", "--type", "G"],
    ["--json", "radicals", "--type", "A\u00b2"],
    ["radicals", "--type", "A\u0661"],
    ["mingen", "--type", "A1,A2", "--jobs", "2"],
    ["tables", "lr", "--max-r", "6"],
    ["tables", "lr", "--max-r", "6", "--experimental"],
    ["tables", "rr", "--max-r", "5"],
    ["tables", "lr", "--max-r", "200000"],
    ["tables", "rr", "--max-r", "99999999999999999999"],
])
def test_malformed_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_a_negative_seed_parses_with_or_without_equals(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "rootgroups", "--type", "A2", "--seed", "-5")
    code2, out2, _ = run_cli(capsys, "--json", "rootgroups", "--type", "A2", "--seed=-5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["parameters"]["seed"] == -5


def test_help_keeps_its_usage_text(capsys):
    for argv in (["--help"], ["tables", "--help"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: extremal-lie") and len(out.splitlines()) > 3


@pytest.mark.parametrize("argv, flag", [
    (["tables", "rr-lengths", "--max-r", "0"], "--max-r"),
    (["tables", "rr-lengths", "--r", "0"], "--r"),
    (["tables", "lr", "--max-r", "0"], "--max-r"),
])
def test_a_bound_below_one_names_the_flag_given(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "%s must be at least 1\n" % flag


def test_tables_report_a_degree_cap_as_a_failed_check(capsys, monkeypatch):
    from extremal_lie import nilquot

    monkeypatch.setattr(nilquot, "MAX_DEGREE", 3)
    code, out, err = run_cli(capsys, "--json", "tables", "lr", "--max-r", "4")
    assert code == 1 and "Traceback" not in err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["dim L_1", "dim L_2", "dim L_3", "dim L_4 reached an empty degree below the cap"]
    assert [c["pass"] for c in checks] == [True, True, True, False]
    code, out, _ = run_cli(capsys, "--json", "tables", "rr", "--max-r", "3")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["dim R_1", "dim R_2", "dim R_3 reached an empty degree below the cap"]
    assert [c["pass"] for c in checks] == [True, True, False]
    code, out, _ = run_cli(capsys, "--json", "tables", "rr-lengths", "--r", "3")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "R_3 lengths reached an empty degree below the cap", "expected": True, "actual": False, "pass": False}
    ]


def test_tables_report_an_orbit_rank_mismatch_as_a_failed_check(capsys, monkeypatch):
    """A block of an orbit that gets no rows stays below its first block's
    rank; the table names the block in a failed check, without a traceback."""
    from extremal_lie import nilquot

    rows = nilquot._CoverEngine._block_rows

    def planted(self, d, md, esym):
        return iter(()) if md in ((2, 0), (2, 0, 0)) else rows(self, d, md, esym)

    monkeypatch.setattr(nilquot._CoverEngine, "_block_rows", planted)
    code, out, err = run_cli(capsys, "--json", "tables", "lr", "--max-r", "2")
    assert code == 1 and "Traceback" not in err
    assert [(c["name"], c["pass"]) for c in json.loads(out)["checks"]] == [
        ("dim L_1", True),
        ("dim L_2: block (2, 0) reached rank 0, its orbit's first block (0, 2) has 1", False),
    ]
    code, out, _ = run_cli(capsys, "--json", "tables", "rr", "--max-r", "2")
    assert code == 1
    assert [(c["name"], c["pass"]) for c in json.loads(out)["checks"]] == [
        ("dim R_1", True),
        ("dim R_2: block (2, 0, 0) reached rank 0, its orbit's first block (0, 2, 0) has 1", False),
    ]
    code, out, _ = run_cli(capsys, "--json", "tables", "rr-lengths", "--r", "2")
    assert code == 1
    assert json.loads(out)["checks"] == [{
        "name": "R_2 lengths: block (2, 0, 0) reached rank 0, its orbit's first block (0, 2, 0) has 1",
        "expected": True, "actual": False, "pass": False,
    }]


def test_radicals_reports_failed_form_check(capsys, monkeypatch):
    from extremal_lie.liealg import BilinearForm

    monkeypatch.setattr(BilinearForm, "is_associative", lambda self: False)
    code, out, _ = run_cli(capsys, "--json", "radicals", "--type", "A2")
    assert code == 1
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    assert byname["extremal form symmetric"]["pass"]
    assert not byname["extremal form associative"]["pass"]


def test_radicals_over_q_expects_zero_radicals(capsys, monkeypatch):
    real = cli.sandwich_span_check

    def with_radical(*args, **kwargs):
        out = real(*args, **kwargs)
        out["dims"]["Rad(L)"] = 1
        return out

    monkeypatch.setattr(cli, "sandwich_span_check", with_radical)
    code, out, _ = run_cli(capsys, "--json", "radicals", "--type", "A2")
    assert code == 1
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    assert byname["Rad(L) dim"] == {"name": "Rad(L) dim", "expected": 0, "actual": 1, "pass": False}


@pytest.mark.parametrize("argv, skipped", [
    (["--type", "A1"], ["commuting pair skipped", "f0-noncommuting pair skipped"]),
    (["--type", "B2", "--char", "5"], ["f0-noncommuting pair skipped"]),
    (["--type", "C3"], ["f0-noncommuting pair skipped"]),
])
def test_rootgroups_names_what_the_type_lacks(capsys, argv, skipped):
    """A pair class or the strongcomm pair that the type lacks is named under
    ``reported``, and its checks are absent from ``checks``."""
    code, out, _ = run_cli(capsys, "--json", "rootgroups", *argv)
    assert code == 0
    data = json.loads(out)
    names = [entry["name"] for entry in data["reported"]]
    assert names == skipped + ["strongcomm pair and projective line skipped"]
    assert len(data["checks"]) == 11 - 2 * len(skipped) - 2
    checked = {c["name"].split()[0] for c in data["checks"]}
    assert checked.isdisjoint({"strongcomm", "projective"} | {name.split()[0] for name in skipped})


def test_rootgroups_e6_probe_finds_no_witness(capsys):
    code, out, _ = run_cli(capsys, "--json", "rootgroups", "--type", "E6", "--char", "0")
    assert code == 0
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    assert byname["no forbidden chain found (probe)"]["pass"]


# (type, p, dim Rad(L), dim Rad(f)) at the primes that divide the dual Coxeter
# number, where the Killing form vanishes on the Cartan subalgebra.  Rad(L) =
# Rad(f) = Z(L), of dimension 1 for A_n with p | n + 1 and for E6 with p = 3
# (the determinant of the Cartan matrix is n + 1, resp. 3), 0 otherwise.  G2
# in characteristic 3 (3 divides the length ratio, not h-check = 4) has
# Rad(L) = 0 and Rad(f) = the 7-dimensional ideal of the short root elements
# and the kernel of the coroot Gram.
SMALL_CHAR_RADICALS = [
    ("A2", 3, 1, 1), ("A4", 5, 1, 1), ("A5", 3, 1, 1), ("B3", 5, 0, 0), ("C4", 5, 0, 0),
    ("D4", 3, 0, 0), ("F4", 3, 0, 0), ("E6", 3, 1, 1), ("E7", 3, 0, 0), ("G2", 3, 0, 7),
]

SWEEP_TYPES = (
    ["A%d" % n for n in range(1, 8)] + ["B%d" % n for n in range(2, 8)] + ["C%d" % n for n in range(2, 8)]
    + ["D%d" % n for n in range(4, 8)] + ["E6", "E7", "F4", "G2"]
)


@pytest.fixture
def shared_algebras(monkeypatch):
    """Let the CLI build its Chevalley algebras through ``helpers.chevalley``,
    so that they are shared with the other tests of the run."""
    from helpers import chevalley

    monkeypatch.setattr(cli, "chevalley_algebra", lambda t, r, field: chevalley(t, r, field.characteristic))


def _radicals_checks(capsys, type_, p):
    code, out, _ = run_cli(capsys, "--json", "radicals", "--type", type_, "--char", str(p))
    return code, {c["name"]: c for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("type_, p, rad_l, rad_f", SMALL_CHAR_RADICALS)
def test_radicals_certified_in_small_characteristic(capsys, shared_algebras, type_, p, rad_l, rad_f):
    code, byname = _radicals_checks(capsys, type_, p)
    assert code == 0
    assert byname["solvable radical certified"]["pass"]
    assert byname["Rad(L) dim"] == {"name": "Rad(L) dim", "expected": rad_l, "actual": rad_l, "pass": True}
    assert byname["Rad(f) dim"] == {"name": "Rad(f) dim", "expected": rad_f, "actual": rad_f, "pass": True}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("type_", SWEEP_TYPES)
def test_radicals_sweep_small_characteristic(capsys, type_, p):
    code, byname = _radicals_checks(capsys, type_, p)
    assert code == 0
    assert byname["solvable radical certified"]["pass"]


@pytest.mark.parametrize("type_, p, calls", [("B3", 53, 1), ("A2", 3, 1)])
def test_radicals_computes_each_killing_form_once(capsys, monkeypatch, type_, p, calls):
    # one Killing form, for L only: no quotient L/Z(L) is built
    from extremal_lie import liealg

    real, seen = liealg.killing_form, []

    def counting(L):
        seen.append(L)
        return real(L)

    monkeypatch.setattr(liealg, "killing_form", counting)
    code, _ = _radicals_checks(capsys, type_, p)
    assert code == 0
    assert len(seen) == len({id(L) for L in seen}) == calls


@pytest.mark.parametrize("type_, p, most", [("E7", 53, 133), ("E6", 0, 78)])
def test_radicals_proves_each_spanning_element_extremal_once(capsys, monkeypatch, type_, p, most):
    """The extremal closure proves each spanning element extremal, and the
    extremal form takes those functionals instead of proving them again."""
    from extremal_lie import chevalley as chevalley_module, liealg

    real, calls = liealg.is_extremal, []

    def counting(L, x):
        calls.append(x)
        return real(L, x)

    for mod in (liealg, chevalley_module, cli):
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, counting)
    code, _ = _radicals_checks(capsys, type_, p)
    assert code == 0
    assert 0 < len(calls) <= most


def _length_ratio_two(monkeypatch):
    """G2's short roots read with scaled norm 3 against the long roots' 6."""
    real = RootSystem._scaled_norm
    monkeypatch.setattr(RootSystem, "_scaled_norm", lambda self, t: 3 if real(self, t) == 2 else real(self, t))


def _coxeter_number_for_dual(monkeypatch):
    """theta-check read as theta, so 1 + its coefficients give h, not h-check."""
    monkeypatch.setattr(RootSystem, "coroot_coords", lambda self, alpha: tuple(alpha))


def _cartan_matrix_for_coroot_gram(monkeypatch):
    """Each nullity read off G2's Cartan matrix, that of the coroot Gram too."""
    real = rootdata._nullity
    monkeypatch.setattr(rootdata, "_nullity", lambda field, rows: real(field, rootdata.cartan_matrix("G", 2)))


def _center_zero(monkeypatch):
    """Z(L) read as 0."""
    monkeypatch.setattr(liealg, "center", lambda L: liealg.Subspace.from_elements(L, []))


def _raising_cut_to_e1(monkeypatch):
    """The certificate handed e_1 alone of the simple root elements."""
    real = cli.sandwich_span_check
    monkeypatch.setattr(cli, "sandwich_span_check", lambda L, form, raising: real(L, form, raising[:1]))


# (type, p, planted fault, (expected, actual) of each check it makes read
# False).  Where p does not divide 2h-check the rule sets Rad(kappa) =
# Rad(f), so a fault in Rad(f) shows on both.  On A2/3, Rad(L) is read as
# Z(L), so a center read as 0 gives Rad(L) = 0, and Rad(kappa) = L then
# leaves K/0 of dimension 2 (x_theta and the center), not certified
RADICALS_FAULTS = [
    ("G2", 3, _length_ratio_two, {"Rad(f) dim": (0, 7), "Rad(kappa) dim": (0, 7)}),
    ("B3", 5, _coxeter_number_for_dual, {"Rad(kappa) dim": (0, 21)}),
    ("G2", 3, _cartan_matrix_for_coroot_gram, {"Rad(f) dim": (6, 7), "Rad(kappa) dim": (6, 7)}),
    ("A2", 3, _center_zero, {"Rad(L) dim": (1, 0), "solvable radical certified": (True, False)}),
    ("E6", 3, _raising_cut_to_e1, {"solvable radical certified": (True, False)}),
]


@pytest.mark.parametrize("type_, p, plant, failing", RADICALS_FAULTS, ids=lambda v: getattr(v, "__name__", None))
def test_radicals_planted_fault_reads_false(capsys, monkeypatch, shared_algebras, type_, p, plant, failing):
    """Each fault makes exactly the checks it reaches read False, and the
    command exits 1.  The algebra is built before the fault is planted."""
    from helpers import chevalley

    chevalley(type_[0], int(type_[1:]), p)
    plant(monkeypatch)
    code, byname = _radicals_checks(capsys, type_, p)
    assert code == 1
    assert {name: (c["expected"], c["actual"]) for name, c in byname.items() if not c["pass"]} == failing


def test_threegen_case2_radical_without_xyz_reads_false(capsys, monkeypatch):
    """R without [x,[y,z]] is no ideal, so the Levi check of case 2 fails,
    and no other check reads R."""
    from extremal_lie import smallgen

    real = smallgen._is_levi_radical

    def planted(M, R):
        return real(M, liealg.Subspace.from_elements(M, [v for v in R.basis() if v != M.basis_element(6)]))

    monkeypatch.setattr(smallgen, "_is_levi_radical", planted)
    code, out, _ = run_cli(capsys, "--json", "threegen", "--edges", "-2,-2,0")
    assert code == 1
    failing = {c["name"]: (c["expected"], c["actual"]) for c in json.loads(out)["checks"] if not c["pass"]}
    assert failing == {"case 2 radical": (True, False)}


def test_unknown_values_are_reported_not_checked(capsys):
    code, out, _ = run_cli(capsys, "--json", "threegen", "--edges", "1/2,-3,5/4", "--central", "2")
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == []
    assert data["reported"] == [{"name": "extension required (square root missing)", "value": True}]
    code, out, _ = run_cli(capsys, "threegen", "--edges", "1/2,-3,5/4", "--central", "2")
    assert "INFO   extension required (square root missing): True" in out
    code, out, _ = run_cli(capsys, "--json", "threegen", "--edges", "-2,-2,-2")
    assert "reported" not in json.loads(out)


def test_tables_are_keyed_without_gap_up_to_the_last_tabulated_r():
    """``tables`` checks ``table[r]`` for every r it accepts, and refuses any
    r past ``_LAST_TABULATED`` as a usage error (the past-the-table argvs of
    ``test_malformed_input_exits_2_with_one_line``): so each table must hold
    every r from 1 to that limit."""
    from extremal_lie import nilquot

    for which, table in (("lr", nilquot.L_DIMS), ("rr", nilquot.R_DIMS), ("rr-lengths", nilquot.R_LENGTHS)):
        assert sorted(table) == list(range(1, cli._LAST_TABULATED[which] + 1)), which
