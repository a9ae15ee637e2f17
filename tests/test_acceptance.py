"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single [criterion N] PASS/FAIL line (visible with -s or in
captured output).  Every test runs unconditionally, the E8 leg of criterion 4
included.
"""

from fractions import Fraction

from extremal_lie.scalars import QQ
from extremal_lie import nilquot
from extremal_lie.liealg import (
    extremal_form,
    is_extremal,
    killing_form,
    solvable_radical,
)
from extremal_lie.chevalley import (
    exp_automorphism,
    extremal_spanning_set,
    long_root_extremality_check,
    mingen_certify,
)
from extremal_lie.smallgen import TriangleParams, build_M, sl3_example, verify_3gen_structure
from extremal_lie import rootgroups as rg

from helpers import (
    AntisymmetryViolation,
    Map,
    chevalley,
    dense_phi_spectrum_check,
    field_of,
    form_value,
    fourth_power_check,
    free_nilpotent_quotient,
    grow_extremal_spanning,
    lie_algebra_from_dense,
    preserves_bracket,
    preserves_form,
    rng,
    sandwich,
    short_root_decomposition_check,
    sl2,
    spanning_set_check_4gen,
    witt,
)

FLEET = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 3), ("B", 4), ("C", 2), ("C", 3),
    ("D", 4), ("D", 5), ("G", 2), ("F", 4),
    ("E", 6), ("E", 7),
]
CHARS = (0, 5)

_form_cache = {}


def fleet_form(t, n, ch):
    key = (t, n, ch)
    if key not in _form_cache:
        A = chevalley(t, n, ch)
        _form_cache[key] = extremal_form(A.lie, extremal_spanning_set(A))
    return _form_cache[key]


def _verdict(num, ok, text):
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_01_sandwich_dimensions():
    dims = [sandwich(r).total_dim for r in range(1, 5)]
    ok = dims == [1, 3, 8, 28]
    l5 = nilquot.sandwich_algebra(5).total_dim
    ok = ok and l5 == 537
    _verdict(1, ok, "dim L_r = 1, 3, 8, 28, 537 for r = 1..5 (got %s, %d)" % (dims, l5))


def test_criterion_02_associative_companions():
    totals = [nilquot.assoc_dims_via_embedding(r).total_dim for r in range(1, 5)]
    ok = totals == [2, 5, 19, 193]
    p3 = nilquot.assoc_dims_via_embedding(3).dims_by_length
    p4 = nilquot.assoc_dims_via_embedding(4).dims_by_length
    ok = ok and p3 == [1, 3, 6, 6, 3]
    ok = ok and p4 == [1, 4, 12, 24, 36, 40, 36, 24, 12, 4]
    _verdict(2, ok, "dim R_r = 2, 5, 19, 193 with the exact length profiles (got %s; %s; %s)" % (totals, p3, p4))


def test_criterion_03_28_monomial_basis():
    rep = spanning_set_check_4gen()
    ok = rep["rank"] == 28 and rep["is_basis"] and all(rep["identities_zero"]) and rep[
        "length6_all_reduce_to_zero"
    ]
    _verdict(3, ok, "the 28 monomials are a basis of L_4 and identities (1)-(9) vanish")


def test_criterion_04_minimal_generation():
    rows = []
    ok = True
    for (t, n) in FLEET:
        for ch in CHARS:
            rep = mingen_certify(t, n, field_of(ch))
            good = rep["pass"] and rep["lower_bound"] == rep["t_claimed"] == rep["generators"]
            ok = ok and good
            rows.append("%s%d/%d:t=%d%s" % (t, n, ch, rep["t_claimed"], "" if good else "(FAIL)"))
    _verdict(4, ok, "t(g) certified on the fleet over Q and GF(5): " + " ".join(rows))


def test_criterion_04_e8():
    ok = True
    for ch in CHARS:
        rep = mingen_certify("E", 8, field_of(ch))
        ok = ok and rep["pass"] and rep["lower_bound"] == rep["t_claimed"] == 5
    _verdict(4, ok, "E8: t = 5 certified over Q and GF(5)")


def test_criterion_05_long_root_extremality():
    ok = True
    for (t, n) in FLEET:
        for ch in CHARS:
            rep = long_root_extremality_check(chevalley(t, n, ch))
            ok = ok and rep["pass"]
    for type_ in ("B2", "G2"):
        for ch in CHARS:
            ok = ok and short_root_decomposition_check(type_, field_of(ch))["pass"]
    _verdict(5, ok, "long root elements extremal, short ones not; B2/G2 decompositions hold")


def test_criterion_06_extremal_form_properties():
    L, x, y, z = sl3_example(QQ)
    form = extremal_form(L, grow_extremal_spanning(L, [x, y, z]))
    m2 = -2
    ok = (
        form_value(form, x, y) == m2
        and form_value(form, x, z) == m2
        and form_value(form, y, z) == m2
        and form_value(form, x, L.bracket(y, z)) == 0
        and form.is_symmetric()
        and form.is_associative()
    )
    for (t, n) in FLEET:
        for ch in CHARS:
            f2 = fleet_form(t, n, ch)
            ok = ok and f2.is_symmetric() and f2.is_associative()
    _verdict(6, ok, "extremal form symmetric and associative on sl3ex values and the whole fleet")


def test_criterion_07_killing_and_radicals():
    ok = True
    A = chevalley("A", 2)
    kap = killing_form(A.lie)
    ok = ok and form_value(kap, A.x((1, 0)), A.x((-1, 0))) == 6
    A3 = chevalley("A", 2, 3)
    ok = ok and not any(killing_form(A3.lie).rows)
    L2 = sl2(QQ)
    rep = dense_phi_spectrum_check(L2, L2.basis_element(0), L2.basis_element(2))
    ok = ok and rep["pass"] and rep["s"] == 2 and rep["kappa"] == 4
    rep = dense_phi_spectrum_check(A.lie, A.x((1, 0)), A.x((-1, 0)))
    ok = ok and rep["pass"] and rep["s"] == 4 and rep["kappa"] == 6
    rep = dense_phi_spectrum_check(A.lie, A.x((1, 0)), A.x((0, 1)))
    ok = ok and rep["pass"] and rep["case"] == "a"
    for (t, n) in FLEET:
        for ch in CHARS:
            Ax = chevalley(t, n, ch)
            form = fleet_form(t, n, ch)
            rad_f = form.radical()
            rad_k = killing_form(Ax.lie).radical()
            ok = ok and rad_k.contains_subspace(rad_f)
            if ch == 0:
                ok = ok and rad_f.dim == rad_k.dim
            rad_l, _ = solvable_radical(Ax.lie, raising=[Ax.x(a) for a in Ax.rootsystem.simple_roots])
            ok = ok and rad_f.contains_subspace(rad_l)
    G3 = chevalley("G", 2, 3)
    formg = extremal_form(G3.lie, extremal_spanning_set(G3))
    radg, certified = solvable_radical(G3.lie, raising=[G3.x(a) for a in G3.rootsystem.simple_roots])
    ok = ok and radg.dim == 0 and certified and formg.radical().dim == 7
    ok = ok and fourth_power_check(G3.lie, G3.x((0, 1)), G3.x((1, 0)), formg)["pass"]
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    formm = extremal_form(M, grow_extremal_spanning(M, [M.basis_element(i) for i in range(3)]))
    y_rad = formm.radical().basis()[0]
    ok = ok and fourth_power_check(M, M.basis_element(0), y_rad, formm)["pass"]
    _verdict(7, ok, "kappa values, phi spectra, radical chain inclusions, fourth powers")


def test_criterion_08_three_generator_theorem():
    ok = True
    for edges, case in [((0, 0, 0), 0), ((-2, 0, 0), 1), ((-2, -2, 0), 2), ((-2, -2, -2), 3)]:
        M, got = build_M(TriangleParams(QQ, *edges, 0))
        checks = verify_3gen_structure(M, case)
        ok = ok and M.n == 8 and got == case and checks["pass"]
    _verdict(8, ok, "build_M: dim 8 in all four cases; L_3 and sl3 isomorphisms; radical claims")


def test_criterion_09_root_group_identities():
    ok = True
    for (t, n) in (("A", 2), ("A", 3), ("D", 4)):
        for ch in (5, 7, 0):
            A = chevalley(t, n, ch)
            rs = A.rootsystem
            theta = rs.highest_root
            x = A.x(theta)
            pairs = [("same-line", x, 2 * x), ("opposite", x, A.x(tuple(-c for c in theta)))]
            commuting = None
            f0pair = None
            for a in rs.roots:
                for b in rs.roots:
                    s = tuple(p + q for p, q in zip(a, b))
                    if commuting is None and a != b and not rs.is_root(s) and any(s):
                        commuting = (A.x(a), A.x(b))
                    if f0pair is None and rs.is_root(s):
                        f0pair = (A.x(a), A.x(b))
            pairs.append(("commuting", *commuting))
            pairs.append(("f0-noncommuting", *f0pair))
            samples = rg.parameter_samples(A.field)
            for expect, u, v in pairs:
                rep = rg.verify_abstract_root_properties(A.lie, u, v, samples)
                ok = ok and rep["case"] == expect and rep["pass"]
            y = next(A.x(b) for b in rs.roots if rs.is_root(tuple(p + q for p, q in zip(theta, b))))
            z = A.lie.bracket(x, y)
            sc = rg.strongcomm_check(A.lie, x, z, samples)
            ok = ok and sc["pass"] and sc["condition_2prime"]
            if ch == 5:
                line = rg.projective_line_check(A.lie, x, z, samples)
                ok = ok and line["exhaustive"] and line["pass"]
    _verdict(9, ok, "root group properties (1)-(5), strong commuting, line corollary")


def test_criterion_10_property_suites_standalone():
    # runnable with no other criteria: rebuild everything from scratch here
    ok = True
    # Jacobi/antisymmetry validators fire on bad tables
    from extremal_lie.liealg import JacobiViolation, LieAlgebra

    try:
        LieAlgebra(QQ, ["a", "b", "c"], {(0, 1): {2: QQ.one}, (0, 2): {0: QQ.one}})
        ok = False
    except JacobiViolation:
        pass
    cube = [[[QQ.zero] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = QQ.one
    try:
        lie_algebra_from_dense(QQ, ["a", "b"], cube)
        ok = False
    except AntisymmetryViolation:
        pass
    # Witt dimensions from the cover engine's free mode
    for r, maxd in ((2, 8), (3, 6), (4, 5), (5, 4)):
        dims = free_nilpotent_quotient(r, maxd).dims_by_degree
        ok = ok and dims == [witt(r, d) for d in range(1, maxd + 1)]
    # Cor 3.4 / 3.8 on random qualifying pairs
    r = rng("acceptance-cor")
    A = chevalley("A", 2)
    L = A.lie
    pool = [A.x(root) for root in A.rootsystem.roots]
    half = Fraction(1, 2)
    hits = 0
    for _ in range(120):
        u, v = r.choice(pool), r.choice(pool)
        fu, fv = is_extremal(L, u), is_extremal(L, v)
        w = L.bracket(u, v)
        if w.is_zero() or not QQ.is_zero(fu(v)):
            continue
        hits += 1
        fw = is_extremal(L, w)
        ok = ok and fw is not None
        for j in range(L.n):
            bj = L.basis_element(j)
            ok = ok and fw(bj) == half * (fu(L.bracket(v, bj)) - fv(L.bracket(u, bj)))
    ok = ok and hits > 3
    L3 = nilquot.sandwich_algebra(3).as_lie_algebra()
    for i in range(3):
        for j in range(L3.n):
            w = L3.bracket(L3.basis_element(i), L3.basis_element(j))
            if not w.is_zero():
                fw = is_extremal(L3, w)
                ok = ok and fw is not None and fw.is_zero()
    # bracket and form preservation under exp
    span = extremal_spanning_set(A)
    form = extremal_form(L, span)
    for base in (A.x((1, 0)), A.x((1, 1))):
        phi = Map.of(L, exp_automorphism(L, base, 2))
        ok = ok and preserves_bracket(phi) and preserves_form(phi, form)
    _verdict(10, ok, "standalone property suites: validators, Witt, Cor 3.4/3.8, form preservation")
