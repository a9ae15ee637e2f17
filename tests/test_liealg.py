from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from extremal_lie.scalars import QQ, GF
from extremal_lie.liealg import (
    Subspace,
    ExtremalFunctional,
    ExtremalSet,
    InvalidGeneratorOrder,
    JacobiViolation,
    LieAlgebra,
    NotASandwich,
    NotExtremal,
    NotSpanning,
    PreconditionNotMet,
    WellDefinednessFailure,
    ZeroElement,
    center,
    derived_series,
    extremal_closure,
    extremal_form,
    ideal_generated,
    is_extremal,
    is_solvable_subspace,
    killing_form,
    lower_central_series,
    quotient_algebra,
    sandwich_span_check,
    solvable_radical,
    structural_subspaces,
    structure_constants_on,
    subalgebra_generated,
    zero_subspace,
)
from extremal_lie.smallgen import TriangleParams, build_M, sl3_example
from extremal_lie.chevalley import ChevalleyAlgebra, extremal_spanning_set

from extremal_lie.liealg import _no_solvable_ideal_certificate
from extremal_lie import liealg, rootdata

from helpers import (
    AntisymmetryViolation,
    NotADirectSum,
    abelian,
    bracket_table,
    candidate_seeded_radical,
    cartan_element,
    chevalley,
    dense_fourth_power_check,
    dense_ideal_generated,
    dense_jacobi,
    dense_matrix_lie_algebra,
    dense_phi_spectrum_check,
    direct_sum,
    direct_sum_orthogonality_check,
    field_of,
    form_value,
    fourth_power_check,
    grow_extremal_spanning,
    heisenberg,
    lie_algebra_from_dense,
    nonzero,
    rescaled,
    rng,
    sandwich,
    sl2,
    subset_certificate,
    two_gen_classify,
    unchecked_lie_algebra,
)


def test_sl2_construction_and_dims():
    L = sl2(QQ)
    assert L.n == 3
    e, h, f = L.basis_elements()
    assert L.bracket(e, f) == h
    assert L.bracket(h, e) == 2 * e


def test_integral_coefficients_are_ints_over_q():
    # element arithmetic ends in linalg.canonical, which turns an integral
    # Fraction into its int, so later products on the vector run on ints
    L = sl2(QQ)
    e, _, f = L.basis_elements()
    for v, k in ((Fraction(1, 2) * (2 * e), 0), (L.bracket(Fraction(1, 2) * e, 2 * f), 1)):
        assert v.coeffs == {k: 1} and type(v.coeffs[k]) is int


def test_antisymmetry_violation_detected():
    f = QQ
    cube = [[[f.zero] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = f.one  # [b0, b0] != 0
    with pytest.raises(AntisymmetryViolation):
        lie_algebra_from_dense(f, ["a", "b"], cube)


def test_jacobi_violation_detected():
    f = QQ
    # [a,b] = c, [a,c] = a, [b,c] = 0: the Jacobi sum on (a,b,c) is -c
    table = {(0, 1): {2: f.one}, (0, 2): {0: f.one}}
    with pytest.raises(JacobiViolation):
        LieAlgebra(f, ["a", "b", "c"], table)


def test_jacobi_violation_detected_on_fractional_constants():
    # [a,b] = c/2, [a,c] = a/3: the Jacobi sum on (a,b,c) is -c/6
    for f in (QQ, GF(5)):
        table = {(0, 1): {2: f.raw(Fraction(1, 2))}, (0, 2): {0: f.raw(Fraction(1, 3))}}
        with pytest.raises(JacobiViolation):
            LieAlgebra(f, ["a", "b", "c"], table)


def test_valid_fractional_table_constructs():
    label, L, _ = two_gen_classify(Fraction(1, 2), True)
    assert label == "sl2" and L.n == 3


def test_jacobi_on_rescaled_tables_matches_fraction_reference():
    # sl3 in a basis rescaled by random fractions (a Lie algebra), and the same
    # table with one constant perturbed (usually not)
    r = rng("jacobi-rescaled")
    base = chevalley("A", 2).lie
    n = base.n
    outcomes = set()
    for _ in range(6):
        c = [Fraction(r.choice([-1, 1]) * r.randint(1, 5), r.randint(1, 5)) for _ in range(n)]
        table = {
            (i, j): {k: Fraction(v) * c[i] * c[j] / c[k] for k, v in row.items()}
            for (i, j), row in bracket_table(base).items()
        }
        key = r.choice(sorted(table))
        bad = {ij: dict(row) for ij, row in table.items()}
        m = r.choice(sorted(bad[key]))
        bad[key][m] += Fraction(1, r.randint(2, 5))
        for tab in (table, bad):
            holds = dense_jacobi(unchecked_lie_algebra(QQ, base.labels, tab)) is None
            outcomes.add(holds)
            if holds:
                assert LieAlgebra(QQ, base.labels, tab).n == n
            else:
                with pytest.raises(JacobiViolation):
                    LieAlgebra(QQ, base.labels, tab)
    assert outcomes == {True, False}


JACOBI_CHEVALLEY = {"A2": ("A", 2), "B3": ("B", 3), "G2": ("G", 2), "C3": ("C", 3), "sl3-rescaled": ("A", 2)}
JACOBI_ALGEBRAS = tuple(JACOBI_CHEVALLEY) + ("heisenberg", "takiff", "sl2+heisenberg")


@lru_cache(maxsize=None)
def _jacobi_algebra(name, char):
    f = field_of(char)
    if name in JACOBI_CHEVALLEY:
        return chevalley(*JACOBI_CHEVALLEY[name], char).lie
    if name == "heisenberg":
        return heisenberg(f)
    if name == "takiff":
        return _takiff(f)
    return direct_sum(sl2(f), heisenberg(f))


# the algebras with two basis elements outside their generators
OUTSIDE_ALGEBRAS = tuple(JACOBI_CHEVALLEY) + ("takiff",)


@st.composite
def jacobi_tables(draw):
    """(field, labels, table, variant): a Lie algebra's table ("true"), or
    that table with one constant changed by a nonzero amount ("changed") or
    with one entry added where the constant was zero ("added"); these are
    usually not Lie algebras any more.  The "outside" variant changes one
    constant c_jk^m, zero or not, with j, k and m all outside the
    generators, where a check that looked at them alone would miss it."""
    char = draw(st.sampled_from((0, 3, 7, 101)))
    variant = draw(st.sampled_from(("true", "changed", "added", "outside")))
    name = draw(st.sampled_from(OUTSIDE_ALGEBRAS if variant == "outside" else JACOBI_ALGEBRAS))
    L = _jacobi_algebra(name, char)
    f, n = L.field, L.n
    if name == "sl3-rescaled":
        L = rescaled(L, [f.raw(draw(nonzero(char))) for _ in range(n)])
    table = {ij: dict(row) for ij, row in bracket_table(L).items()}
    if variant == "outside":
        outside = [i for i in range(n) if i not in L.generators]
        j, k = draw(st.sampled_from([(j, k) for j in outside for k in outside if j < k]))
        m = draw(st.sampled_from(outside))
        row = table.setdefault((j, k), {})
        row[m] = f.add(row.get(m, f.zero), f.raw(draw(nonzero(char))))
    elif variant == "changed":
        key = draw(st.sampled_from(sorted(table)))
        m = draw(st.sampled_from(sorted(table[key])))
        table[key][m] = f.add(table[key][m], f.raw(draw(nonzero(char))))
    elif variant == "added":
        i = draw(st.integers(0, n - 2))
        row = table.setdefault((i, draw(st.integers(i + 1, n - 1))), {})
        k = draw(st.integers(0, n - 1).filter(lambda k: k not in row))
        row[k] = f.raw(draw(nonzero(char)))
    return f, L.labels, table, variant


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(jacobi_tables())
# generators (a, b): ad_a is a derivation and ad_b is not, so a check that
# skipped the last generator would pass this table; it fails on (b, c, e)
@example((GF(3), "abcde", {(0, 1): {2: 2, 4: 2}, (0, 2): {3: 2}, (0, 4): {4: 1}, (1, 2): {0: 1, 3: 2}}, "added"))
def test_validate_jacobi_matches_dense_reference(case):
    """The term-driven check gives the verdict of the walk over all triples,
    and names the same (first) failing triple."""
    f, labels, table, variant = case
    L = unchecked_lie_algebra(f, labels, table)
    bad = dense_jacobi(L)
    assert bad is None or variant != "true"
    if bad is None:
        LieAlgebra._validate_jacobi(L)
    else:
        with pytest.raises(JacobiViolation) as exc:
            LieAlgebra._validate_jacobi(L)
        assert str(exc.value) == "Jacobi fails on basis triple (%d, %d, %d)" % bad


SIMPLE_ROOT_TYPES = [
    ("A", 2), ("A", 4), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7)]


@pytest.mark.parametrize("char", [0, 53])
@pytest.mark.parametrize("type_,rank", SIMPLE_ROOT_TYPES)
def test_generators_are_the_simple_root_elements(type_, rank, char):
    """The walk takes e_1..e_l, then x_-theta, and nothing else."""
    A = chevalley(type_, rank, char)
    units = [tuple(int(a == i) for a in range(rank)) for i in range(rank)]
    lowest = tuple(-c for c in A.rootsystem.highest_root)
    assert A.lie.generators == [A.root_index[u] for u in sorted(units)] + [A.root_index[lowest]]


def test_generators_of_g2_in_characteristic_3():
    """In characteristic 3 the simple root elements and x_-theta of G2
    generate a proper subalgebra, so the walk also takes x_beta for the long
    root beta = 3a1 + a2 (roots in the coordinates of the labels).  The
    simple root elements alone, e_1, e_2, f_1 and f_2, generate a proper
    subalgebra too, since [x_a1, x_2a1+a2] = +-3 x_3a1+a2 vanishes."""
    A = chevalley("G", 2, 3)
    assert [A.lie.labels[s] for s in A.lie.generators] == ["x[0,1]", "x[1,0]", "x[-3,-2]", "x[3,1]"]
    simple = [A.root_index[r] for r in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    assert subalgebra_generated(A.lie, [A.lie.basis_element(s) for s in simple]).dim < A.lie.n
    assert subalgebra_generated(A.lie, [A.lie.basis_element(s) for s in A.lie.generators[:3]]).dim < A.lie.n


# the types whose integer tables test_rootdata pins: every type of rank <= 8
PINNED_TYPES = [(t, r) for t, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for r in range(low, 9)] + [
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("char", [0, 3, 5, 7])
@pytest.mark.parametrize("type_,rank", PINNED_TYPES)
def test_chevalley_generators_generate(type_, rank, char):
    L = ChevalleyAlgebra(type_, rank, field_of(char)).lie
    assert subalgebra_generated(L, [L.basis_element(s) for s in L.generators]).dim == L.n


def test_first_indices_that_do_not_generate_are_completed():
    """A ``first`` list whose elements generate a proper subalgebra (sl2
    inside G2, on the long root a2) leaves the walk to go on through the
    basis until the ad-closure is full."""
    rs, labels, table = rootdata.integer_chevalley_data("G", 2)
    root = {t: k for k, t in enumerate(rs.roots)}
    first = [root[(0, 1)], root[(0, -1)]]
    L = LieAlgebra(QQ, labels, table, first=first)
    assert subalgebra_generated(L, [L.basis_element(s) for s in first]).dim == 3
    assert L.generators[:2] == first and len(L.generators) > 2
    assert subalgebra_generated(L, [L.basis_element(s) for s in L.generators]).dim == L.n


@pytest.mark.parametrize("first", [[3], [-1], [0, 0], [1, 2, 1]])
def test_first_indices_out_of_range_or_repeated_are_rejected(first):
    with pytest.raises(InvalidGeneratorOrder):
        LieAlgebra(QQ, "xyz", {(0, 1): {2: QQ.one}}, first=first)


def test_generators_of_the_sandwich_algebras():
    for r in (3, 4):
        assert sandwich(r).as_lie_algebra().generators == list(range(r))


@pytest.mark.parametrize("char", [0, 3, 7, 101])
@pytest.mark.parametrize("name", JACOBI_ALGEBRAS)
def test_ad_closure_of_the_generators_is_the_algebra(name, char):
    L = _jacobi_algebra(name, char)
    assert subalgebra_generated(L, [L.basis_element(s) for s in L.generators]).dim == L.n


def test_jacobi_check_computes_defects_of_the_generators_only(monkeypatch):
    """E7's check sums the derivation defects of its 14 generators in basis
    order, or 8 as a Chevalley algebra, not of all 133 basis elements; a
    failing table still gets the full scan."""
    seen = []
    inner = liealg._derivation_defects

    def spy(p, adj, above, i, floor):
        seen.append(i)
        return inner(p, adj, above, i, floor)

    monkeypatch.setattr(liealg, "_derivation_defects", spy)
    rs, labels, table = rootdata.integer_chevalley_data("E", 7)
    L = LieAlgebra(QQ, labels, table)
    assert len(L.generators) == 14 and seen == L.generators
    seen.clear()
    L = ChevalleyAlgebra("E", 7, QQ).lie
    assert len(L.generators) == 8 and seen == L.generators
    seen.clear()
    with pytest.raises(JacobiViolation):
        LieAlgebra(QQ, ["a", "b", "c"], {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert seen == [0, 0]


IDEAL_ALGEBRAS = ("A2", "G2", "heisenberg", "takiff", "sl2+heisenberg")


@st.composite
def ideal_cases(draw):
    """(L, seeds): an algebra of the list and one to three sparse random
    elements of it."""
    char = draw(st.sampled_from((0, 3, 101)))
    L = _jacobi_algebra(draw(st.sampled_from(IDEAL_ALGEBRAS)), char)
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sets(st.integers(0, L.n - 1), min_size=1, max_size=3))
        seeds.append(L.element({i: draw(nonzero(char)) for i in support}))
    return L, seeds


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(ideal_cases())
def test_ideals_match_dense_reference(case):
    """``ideal_generated`` expands by the generators of L and ``is_ideal``
    brackets with them only; the reference expands by every basis element."""
    L, seeds = case
    ideal = dense_ideal_generated(L, seeds)
    assert ideal_generated(L, seeds) == ideal
    assert ideal.is_ideal()
    span = Subspace.from_elements(L, seeds)
    assert span.is_ideal() == (span.dim == ideal.dim)


def test_sl3_from_matrix_generators():
    L, x, y, z = sl3_example(QQ)
    assert L.n == 8
    assert subalgebra_generated(L, [x, y, z]).dim == 8


@pytest.mark.parametrize("char", [0, 3, 5])
def test_sl3_example_is_the_dense_closure_of_its_generators(char):
    """``sl3_example`` builds sl3 on the trace-zero basis; the dense
    commutator closure of its three matrices gives the same structure table
    and the same coordinates of x, y, z, so they generate sl3."""
    f = field_of(char)
    L, *gens = sl3_example(f)
    mats = [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        [[1, 1, 1], [1, 1, 1], [-2, -2, -2]],
    ]
    ref, _, element_of = dense_matrix_lie_algebra(f, mats)
    assert ref.n == L.n == 8
    assert all(L.bracket_basis(i, j) == ref.bracket_basis(i, j) for i in range(8) for j in range(8))
    assert [g.coeffs for g in gens] == [element_of([[f.raw(v) for v in row] for row in m]).coeffs for m in mats]


def test_is_extremal_cases():
    L = sl2(QQ)
    e, h, f_ = L.basis_elements()
    fx = is_extremal(L, e)
    assert fx is not None
    assert fx(f_) == -2
    assert fx(e) == 0
    assert is_extremal(L, h) is None  # semisimple element is not extremal
    with pytest.raises(ZeroElement):
        is_extremal(L, L.zero())
    H = heisenberg(QQ)
    fz = is_extremal(H, H.basis_element(2))
    assert fz is not None and fz.is_zero()  # central element is a sandwich
    B = chevalley("B", 3)
    short = B.x(B.rootsystem.root_from_eps({1: 1}))
    assert is_extremal(B.lie, short) is None
    long = B.x(B.rootsystem.root_from_eps({1: 1, 2: -1}))
    assert is_extremal(B.lie, long) is not None


def test_extremal_form_sl3_values():
    L, x, y, z = sl3_example(QQ)
    span = grow_extremal_spanning(L, [x, y, z])
    form = extremal_form(L, span)
    m2 = -2
    assert form_value(form, x, y) == m2 and form_value(form, x, z) == m2 and form_value(form, y, z) == m2
    assert form_value(form, x, L.bracket(y, z)) == 0
    assert form.is_symmetric() and form.is_associative()


def _basis_as_extremal_set(L):
    """The basis of L, each element proved extremal by ``extremal_closure``."""
    return extremal_closure(L, L.basis_elements(), lambda v: ())


def test_extremal_form_zero_on_sandwich_algebra():
    L = sandwich(3).as_lie_algebra()
    form = extremal_form(L, _basis_as_extremal_set(L))
    assert not any(form.rows)
    assert form.radical().dim == L.n


def test_extremal_form_sl2():
    L = sl2(QQ)
    e, h, f_ = L.basis_elements()
    span = grow_extremal_spanning(L, [e, f_])
    form = extremal_form(L, span)
    assert form_value(form, e, f_) == -2
    assert form_value(form, e, e) == 0


def test_extremal_form_errors():
    L = sl2(QQ)
    e, h, f_ = L.basis_elements()
    with pytest.raises(NotSpanning):
        extremal_closure(L, [e, f_], lambda v: ())
    with pytest.raises(NotExtremal):
        extremal_closure(L, [e, h, f_], lambda v: ())
    # the form takes an extremal basis of the algebra itself, and nothing else
    span = grow_extremal_spanning(L, [e, f_])
    M = sl2(QQ)
    other = grow_extremal_spanning(M, [M.basis_element(0), M.basis_element(2)])
    for wrong in ([e, h, f_], list(span), other, ExtremalSet(L, span[:2], span.functionals[:2])):
        with pytest.raises(ValueError, match="extremal basis of L"):
            extremal_form(L, wrong)
    # a hand-built set that is not a basis: S is singular
    with pytest.raises(ValueError, match="singular"):
        extremal_form(L, ExtremalSet(L, [span[0]] * 3, [span.functionals[0]] * 3))


def test_extremal_form_checks_the_functionals_it_is_handed():
    # the closure's functionals are not proved again, but a wrong one is
    # still caught: f_e doubled breaks f_e(f) = f_f(e), so the Gram is not
    # symmetric
    L = sl2(QQ)
    e, h, f_ = L.basis_elements()
    span = grow_extremal_spanning(L, [e, f_])
    assert isinstance(span, ExtremalSet) and span.functionals[0](f_) == -2
    fe = ExtremalFunctional(L, {j: 2 * v for j, v in span.functionals[0].values.items()})
    bad = ExtremalSet(L, list(span), [fe] + span.functionals[1:])
    with pytest.raises(WellDefinednessFailure, match="not symmetric"):
        extremal_form(L, bad)


def test_killing_form_values():
    A = chevalley("A", 2)
    kap = killing_form(A.lie)
    x, mx = A.x((1, 0)), A.x((-1, 0))
    assert form_value(kap, x, mx) == 6
    A3 = chevalley("A", 2, 3)
    kap3 = killing_form(A3.lie)
    assert not any(kap3.rows)
    # kappa(x, y) = 0 whenever f(x, y) = 0 for extremal x
    assert form_value(kap, A.x((1, 0)), A.x((0, 1))) == 0


def test_phi_spectrum_sl2_and_sl3():
    L = sl2(QQ)
    rep = dense_phi_spectrum_check(L, L.basis_element(0), L.basis_element(2))
    assert rep["case"] == "b" and rep["s"] == 2 and rep["kappa"] == 4
    assert rep["pass"]
    A = chevalley("A", 2)
    rep = dense_phi_spectrum_check(A.lie, A.x((1, 0)), A.x((-1, 0)))
    assert rep["s"] == 4 and rep["kappa"] == 6 and rep["pass"]
    rep = dense_phi_spectrum_check(A.lie, A.x((1, 0)), A.x((0, 1)))
    assert rep["case"] == "a" and rep["pass"]


def test_radical_of_form_cases():
    A = chevalley("A", 2)
    form = extremal_form(A.lie, extremal_spanning_set(A))
    assert form.radical().dim == 0
    G3 = chevalley("G", 2, 3)
    formg = extremal_form(G3.lie, extremal_spanning_set(G3))
    assert formg.radical().dim == 7


def test_structural_subspaces_heisenberg():
    H = heisenberg(QQ)
    sub = structural_subspaces(H)
    assert sub["center"].dim == 1
    assert sub["derived_series"][1].dim == 1
    assert sub["solvable_radical"].dim == 3
    assert sub["nilradical"].dim == 3
    assert sub["solvable_radical_certified"]


def test_structural_subspaces_sl2():
    sub = structural_subspaces(sl2(QQ))
    assert sub["center"].dim == 0
    assert sub["solvable_radical"].dim == 0
    assert sub["nilradical"].dim == 0
    assert sub["solvable_radical_certified"]


def test_solvable_radical_case1():
    M, _ = build_M(TriangleParams(QQ, -2, 0, 0, 0))
    rad, certified = solvable_radical(M)
    assert rad.dim == 5 and certified


def test_generation_closures():
    L = sl2(QQ)
    assert subalgebra_generated(L, L.basis_elements()).dim == 3
    L3 = sandwich(3).as_lie_algebra()
    assert subalgebra_generated(L3, [L3.basis_element(0)]).dim == 1
    assert ideal_generated(L3, [L3.basis_element(0)]).dim > 1
    L8, x, y, z = sl3_example(QQ)
    assert subalgebra_generated(L8, [x, y, z]).dim == 8


def test_sandwich_span_check_l3():
    L = sandwich(3).as_lie_algebra()
    form = extremal_form(L, _basis_as_extremal_set(L))
    rep = sandwich_span_check(L, L.basis_elements(), form)
    assert rep["pass"]
    assert rep["dims"]["SanRad_lower_bound"] == 8  # the whole algebra
    assert all(link["holds"] and not link["strict"] for link in rep["links"])


def test_sandwich_span_check_case2_strict():
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    span = _extremal_span_m(M)
    form = extremal_form(M, span)
    e = M.basis_element
    witnesses = [v for v in (e(5), e(6))]  # [y,z] and [x,[y,z]] are sandwiches
    rep = sandwich_span_check(M, witnesses, form)
    assert rep["pass"]
    links = {link["link"]: link for link in rep["links"]}
    assert links["SanRad_lower_bound <= NilRad"]["holds"]
    assert rep["dims"]["SanRad_lower_bound"] < rep["dims"]["Rad(L)"]


def _extremal_span_m(M):
    return grow_extremal_spanning(M, [M.basis_element(i) for i in range(3)])


def test_sandwich_span_check_rejects_non_sandwich():
    L = sl2(QQ)
    e, h, f_ = L.basis_elements()
    span = grow_extremal_spanning(L, [e, f_])
    form = extremal_form(L, span)
    with pytest.raises(NotASandwich):
        sandwich_span_check(L, [e], form)


def test_fourth_power_check():
    G3 = chevalley("G", 2, 3)
    form = extremal_form(G3.lie, extremal_spanning_set(G3))
    rep = fourth_power_check(G3.lie, G3.x((0, 1)), G3.x((1, 0)), form)
    assert rep["pass"] and not rep["bracket_zero"]
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    formM = extremal_form(M, _extremal_span_m(M))
    x = M.basis_element(0)
    rad = formM.radical()
    y = rad.basis()[0]
    rep = fourth_power_check(M, x, y, formM)
    assert rep["pass"]
    # commuting case is trivially zero: [x, [x,[y,z]]] = 0 and the
    # monomial [x,[y,z]] lies in the radical of f for case 2
    z = M.basis_element(6)
    assert formM.radical().contains(z)
    rep = fourth_power_check(M, x, z, formM)
    assert rep["bracket_zero"] and rep["pass"]


def test_direct_sum_orthogonality():
    L1 = sl2(QQ)
    D = direct_sum(L1, sl2(QQ))
    span = grow_extremal_spanning(
        D, [D.basis_element(i) for i in (0, 2, 3, 5)]
    )
    rep = direct_sum_orthogonality_check(D, [0, 1, 2], [3, 4, 5], span)
    assert rep["pass"]
    with pytest.raises(NotADirectSum):
        direct_sum_orthogonality_check(D, [0, 1], [2, 3, 4, 5], span)


def test_direct_sum_sl3_with_abelian_line():
    L8, x, y, z = sl3_example(QQ)
    D = direct_sum(L8, abelian(QQ, 1))

    def lift(v):
        return D.element(dict(v.coeffs))
    span = grow_extremal_spanning(D, [lift(x), lift(y), lift(z), D.basis_element(8)])
    rep = direct_sum_orthogonality_check(D, list(range(8)), [8], span)
    assert rep["pass"]


def test_quotient_algebra():
    H = heisenberg(QQ)
    Q, lift, project = quotient_algebra(H, center(H))
    assert Q.n == 2
    assert all(not Q.bracket_basis(i, j) for i in range(2) for j in range(2))
    # the quotient by the zero ideal is the algebra itself, not a rebuilt copy
    Q, lift, project = quotient_algebra(H, zero_subspace(H))
    x = H.basis_element(0)
    assert Q is H and lift(x) == x and project(x) == x


def test_radical_chain_on_fleet():
    # Rad(f) <= Rad(kappa) everywhere; equality over the rationals;
    # Rad(L) <= Rad(f) everywhere
    cases = []
    for t, n, ch in [("A", 2, 0), ("A", 2, 5), ("B", 3, 0), ("G", 2, 3), ("G", 2, 5)]:
        A = chevalley(t, n, ch)
        form = extremal_form(A.lie, extremal_spanning_set(A))
        cases.append((A.lie, form, _raising(A), ch))
    L3 = sandwich(3).as_lie_algebra()
    cases.append((L3, extremal_form(L3, _basis_as_extremal_set(L3)), (), 0))
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    cases.append((M, extremal_form(M, _extremal_span_m(M)), (), 0))
    for L, form, raising, ch in cases:
        rad_f = form.radical()
        rad_k = killing_form(L).radical()
        assert rad_k.contains_subspace(rad_f)
        if ch == 0:
            assert rad_f.dim == rad_k.dim and rad_f.contains_subspace(rad_k)
        rad_l, _ = solvable_radical(L, raising=raising)
        assert rad_f.contains_subspace(rad_l)
        if ch not in (2, 3):
            assert rad_l.dim == rad_f.dim  # Rad(f) = Rad(L) away from char 3


def test_rad_f_zero_iff_direct_sum_of_simples():
    # direct sum of simples: Rad(f) = 0
    D = direct_sum(sl2(QQ), sl2(QQ))
    span = grow_extremal_spanning(D, [D.basis_element(i) for i in (0, 2, 3, 5)])
    form = extremal_form(D, span)
    assert form.radical().dim == 0
    # non-semisimple: Rad(f) != 0
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    form = extremal_form(M, _extremal_span_m(M))
    assert form.radical().dim > 0
    # G2 in characteristic 3 is not a direct sum of simple ideals: Rad(f) != 0
    G3 = chevalley("G", 2, 3)
    formg = extremal_form(G3.lie, extremal_spanning_set(G3))
    assert formg.radical().dim == 7


def test_cor_34_38_random_pairs():
    # f(x,y) = 0, [x,y] != 0 => [x,y] extremal with the half-difference functional
    r = rng("cor34")
    A = chevalley("A", 2)
    L = A.lie
    pool = [A.x(root) for root in A.rootsystem.roots]
    found = 0
    for _ in range(200):
        x, y = r.choice(pool), r.choice(pool)
        fx, fy = is_extremal(L, x), is_extremal(L, y)
        z = L.bracket(x, y)
        if z.is_zero() or not QQ.is_zero(fx(y)):
            continue
        found += 1
        fz = is_extremal(L, z)
        assert fz is not None
        half = Fraction(1, 2)
        for j in range(L.n):
            w = L.basis_element(j)
            expected = half * (fx(L.bracket(y, w)) - fy(L.bracket(x, w)))
            assert fz(w) == expected
    assert found > 5
    # sandwich bracket extremal stays sandwich
    L3 = sandwich(3).as_lie_algebra()
    for i in range(3):
        for j in range(L3.n):
            z = L3.bracket(L3.basis_element(i), L3.basis_element(j))
            if z.is_zero():
                continue
            fz = is_extremal(L3, z)
            assert fz is not None and fz.is_zero()


def test_derived_and_lower_central_series():
    L = sandwich(3).as_lie_algebra()
    lcs = lower_central_series(L)
    assert [s.dim for s in lcs] == [8, 5, 2, 0]
    ds = derived_series(L)
    assert ds[1].dim == 5 and ds[2].dim == 0


def _takiff(f):
    """sl2 (e, h, f) extended by an abelian ideal (E, H, F), the adjoint module."""
    two, m2 = f.raw(2), f.raw(-2)
    table = {
        (0, 1): {0: m2}, (0, 2): {1: f.one}, (1, 2): {2: m2},
        (0, 4): {3: m2}, (0, 5): {4: f.one}, (1, 3): {3: two},
        (1, 5): {5: m2}, (2, 3): {4: f.raw(-1)}, (2, 4): {5: two},
    }
    return LieAlgebra(f, ["e", "h", "f", "E", "H", "F"], table)


def _raising(A):
    """The simple root elements e_i of a Chevalley algebra."""
    return [A.x(a) for a in A.rootsystem.simple_roots]


def _hidden_solvable_line():
    """G2 in char 3 plus the algebra [t, a] = a, with a replaced in the basis
    by a + x_s, x_s a short root vector.  Each echelon basis vector of
    Rad(kappa) then generates a non-solvable ideal, while the weight line ka
    of the torus (h1, h2, t) is a solvable ideal, and so is the line ka of
    the vectors of Rad(kappa) killed by G2's e_1, e_2.  Returns (L, torus,
    raising)."""
    G = chevalley("G", 2, 3)
    f = G.field
    L0 = direct_sum(G.lie, LieAlgebra(f, ["t", "a"], {(0, 1): {1: f.one}}))
    short = next(r for r in G.rootsystem.roots if not G.rootsystem.is_long(r))
    basis = L0.basis_elements()
    basis[-1] = basis[-1] + L0.basis_element(G.root_index[short])
    rows = [b.coeffs for b in basis]
    table, _ = structure_constants_on(f, rows, L0.n, lambda i, j: L0.bracket(basis[i], basis[j]).coeffs)
    L = LieAlgebra(f, L0.labels, table)
    torus = [L.basis_element(L0.labels.index(label)) for label in ("A.h1", "A.h2", "B.t")]
    # the basis vectors of L before the last one are those of L0
    return L, torus, [L.basis_element(G.root_index[a]) for a in G.rootsystem.simple_roots]


def test_line_certificate_matches_subset_search():
    cases = []
    for t, n, ch in (("G", 2, 3), ("A", 2, 3), ("B", 3, 7)):
        A = chevalley(t, n, ch)
        cases.append((A.lie, [cartan_element(A, i) for i in range(1, n + 1)], _raising(A)))
    for f in (QQ, GF(5)):
        T = _takiff(f)
        D = direct_sum(sl2(f), heisenberg(f))
        cases += [(T, [T.basis_element(1)], [T.basis_element(0)]), (D, [D.basis_element(1)], [D.basis_element(0)])]
    hidden, torus, raising = _hidden_solvable_line()
    # no echelon basis vector of Rad(kappa) finds its solvable ideal
    assert not any(is_solvable_subspace(ideal_generated(hidden, [v])) for v in killing_form(hidden).radical().basis())
    cases.append((hidden, torus, raising))
    verdicts = []
    for L, torus, raising in cases:
        new = _no_solvable_ideal_certificate(L, raising)
        old = subset_certificate(L, torus)
        for cert in (new, old):
            if isinstance(cert, Subspace):
                assert cert.dim and cert.is_ideal() and is_solvable_subspace(cert)
        verdict = "witness" if isinstance(new, Subspace) else new
        if old is not None:
            assert verdict == ("witness" if isinstance(old, Subspace) else old)
        verdicts.append(verdict)
    # G2 in char 3 and B3 in char 7 have none; A2 in char 3 has its center,
    # which the old search missed (Rad(kappa) = L is not multiplicity-free
    # under the torus); the extensions have solvable ideals
    assert verdicts == [True, "witness", True] + ["witness"] * 5


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["Q", "GF5"])
def test_certificate_rejects_raising_elements_that_are_not_nilpotent(f):
    T = _takiff(f)
    e, f_ = T.basis_element(0), T.basis_element(2)
    assert killing_form(T).radical().dim == 3
    assert isinstance(_no_solvable_ideal_certificate(T, [e]), Subspace)
    # e and f generate sl2, whose adjoint action is not nilpotent
    with pytest.raises(PreconditionNotMet):
        _no_solvable_ideal_certificate(T, [e, f_])


def test_certificate_decides_a_line_of_kernel_vectors():
    # G2 in char 3: Rad(kappa) is the 7-dimensional ideal of the short root
    # elements; the e_i kill only its top line, whose ideal is not solvable
    G = chevalley("G", 2, 3)
    assert killing_form(G.lie).radical().dim == 7
    assert _no_solvable_ideal_certificate(G.lie, _raising(G)) is True
    # without the raising elements the seven basis vectors of Rad(kappa) decide nothing
    assert _no_solvable_ideal_certificate(G.lie) is None


def _radical_reference_cases():
    """(name, L, raising): Chevalley algebras in small characteristic with
    their e_i, and algebras with solvable ideals without raising elements."""
    for t, n, ch in (("A", 2, 3), ("A", 5, 3), ("E", 6, 3), ("G", 2, 3), ("B", 3, 7)):
        A = chevalley(t, n, ch)
        yield "%s%d/%d" % (t, n, ch), A.lie, _raising(A)
    for f in (QQ, GF(5)):
        yield "heisenberg/%d" % f.characteristic, heisenberg(f), ()
        yield "sl2+heisenberg/%d" % f.characteristic, direct_sum(sl2(f), heisenberg(f)), ()
        yield "takiff/%d" % f.characteristic, _takiff(f), ()
    yield "hidden line", _hidden_solvable_line()[0], ()
    yield "L_3", sandwich(3).as_lie_algebra(), ()
    for edges in ((-2, 0, 0), (-2, -2, 0), (-2, -2, -2)):
        yield "M%s" % (edges,), build_M(TriangleParams(QQ, *edges, 0))[0], ()


def test_solvable_radical_matches_candidate_seeded_reference():
    # R grown from 0 by witnesses alone ends where the candidate-seeded loop
    # ends, certified or not (the hidden line without e_i is undecided)
    seen = {}
    for name, L, raising in _radical_reference_cases():
        rad, certified = solvable_radical(L, raising=raising)
        assert (rad, certified) == candidate_seeded_radical(L, raising=raising), name
        seen[name] = (rad.dim, certified)
    assert seen["A2/3"] == seen["E6/3"] == (1, True) and seen["G2/3"] == (0, True)
    assert seen["hidden line"] == (0, False) and seen["M(-2, 0, 0)"] == (5, True)


# -- phi and the fourth power against the dense ad matrices ---------------------


@lru_cache(maxsize=None)
def _fourth_power_setting(name):
    """(L, form, extremal elements outside Rad(form), basis of Rad(form)):
    G2 over GF(3) with long root elements, or the three-generator algebra of
    case 2 over Q with its generators."""
    if name == "G2/3":
        A = chevalley("G", 2, 3)
        rs = A.rootsystem
        form = extremal_form(A.lie, extremal_spanning_set(A))
        return A.lie, form, tuple(A.x(r) for r in rs.roots if rs.is_long(r)), tuple(form.radical().basis())
    M, _ = build_M(TriangleParams(QQ, -2, -2, 0, 0))
    form = extremal_form(M, _extremal_span_m(M))
    return M, form, tuple(M.basis_element(i) for i in range(3)), tuple(form.radical().basis())


def test_fourth_power_matches_dense_reference_on_fixed_inputs():
    G3 = chevalley("G", 2, 3)
    lie, form, _, _ = _fourth_power_setting("G2/3")
    cases = [(lie, G3.x((0, 1)), G3.x((1, 0)), form)]
    M, formM, _, rad = _fourth_power_setting("M")
    cases += [(M, M.basis_element(0), rad[0], formM), (M, M.basis_element(0), M.basis_element(6), formM)]
    for lie, x, y, form in cases:
        assert fourth_power_check(lie, x, y, form) == dense_fourth_power_check(lie, x, y, form)


@st.composite
def phi_cases(draw):
    """(L, x, y): x = c x_a for a long root a of A2 or B3 over Q or GF(7);
    y a root element, or up to three basis elements with nonzero
    coefficients, half the time plus a multiple of x_-a, so that f(x, y) is
    nonzero (case b)."""
    char = draw(st.sampled_from((0, 7)))
    A = chevalley(*draw(st.sampled_from((("A", 2), ("B", 3)))), char)
    rs = A.rootsystem
    root = draw(st.sampled_from([r for r in rs.roots if rs.is_long(r)]))
    x = draw(nonzero(char)) * A.x(root)
    if draw(st.booleans()):
        y = A.x(draw(st.sampled_from(rs.roots)))
    else:
        idx = draw(st.lists(st.integers(0, A.lie.n - 1), max_size=3, unique=True))
        y = A.lie.element({i: A.lie.field.raw(draw(nonzero(char))) for i in idx})
    if draw(st.booleans()):
        y = y + draw(nonzero(char)) * A.x(tuple(-t for t in root))
    return A.lie, x, y


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(phi_cases())
def test_phi_spectrum_lemma_holds_on_random_pairs(case):
    L, x, y = case
    assert dense_phi_spectrum_check(L, x, y)["pass"]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(("G2/3", "M")), st.data())
def test_fourth_power_matches_dense_reference(name, data):
    L, form, outside, rad = _fourth_power_setting(name)
    char = L.field.characteristic
    x = data.draw(st.sampled_from(outside))
    coeffs = data.draw(st.lists(st.one_of(st.just(0), nonzero(char)), min_size=len(rad), max_size=len(rad)))
    y = L.zero()
    for c, v in zip(coeffs, rad):
        y = y + c * v
    assert fourth_power_check(L, x, y, form) == dense_fourth_power_check(L, x, y, form)
