import itertools
from fractions import Fraction

import pytest

from extremal_lie.scalars import QQ, GF
from extremal_lie.smallgen import (
    _X,
    _XY,
    _XYZ,
    _XZ,
    _Y,
    _YXZ,
    _YZ,
    _Z,
    _modules_irreducible,
    _pair_rules,
    TriangleParams,
    build_M,
    exp_transform_params,
    isomorphic_by_monomials,
    normalize,
    sl3_example,
    verify_3gen_structure,
)
from extremal_lie.liealg import LieAlgebra, PreconditionNotMet, Subspace, is_extremal, center, lower_central_series

from helpers import (
    eigenline_modules_irreducible,
    form_value,
    four_sign_scaling,
    grow_extremal_spanning,
    random_fraction,
    rng,
    round_trip_exp_step,
    scale_params,
    two_gen_classify,
)

FRAMES = [(pivot, target) for pivot in range(3) for target in range(3) if pivot != target]


def test_two_gen_classification():
    label, L, (ix, iy) = two_gen_classify(0, bracket_nonzero=False)
    assert label == "abelian" and L.n == 2
    # every nonzero element of an abelian algebra is a sandwich
    fx = is_extremal(L, L.basis_element(0) + L.basis_element(1))
    assert fx is not None and fx.is_zero()

    label, L, _ = two_gen_classify(0, bracket_nonzero=True)
    assert label == "heisenberg" and L.n == 3
    assert center(L).dim == 1

    label, L, (ix, iy) = two_gen_classify(-2, bracket_nonzero=True)
    assert label == "sl2" and L.n == 3
    assert lower_central_series(L)[-1].dim == 3  # not nilpotent
    fx = is_extremal(L, L.basis_element(ix))
    assert fx(L.basis_element(iy)) == -2


def test_exp_transform_identity_at_zero():
    p = TriangleParams(QQ, -2, 3, Fraction(1, 2), 7)
    assert all(exp_transform_params(p, pivot, target, 0) == p for pivot, target in FRAMES)


def test_exp_transform_kills_central():
    p = TriangleParams(QQ, -2, -2, 0, 4)
    s = QQ.div(4, QQ.mul(-2, -2))  # central/(f_xz f_xy)
    q = exp_transform_params(p, 0, 2, s)
    assert QQ.is_zero(q.central)
    assert q.edge_xy == p.edge_xy and q.edge_xz == p.edge_xz


def test_exp_transform_creates_edge():
    p = TriangleParams(QQ, -2, 0, 0, 1)
    q = exp_transform_params(p, 0, 2, 1)
    assert not QQ.is_zero(q.edge_yz)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=["Q", "GF3", "GF7"])
def test_exp_transform_frames_match_the_permutation_round_trip(field):
    # the frame formula gives what reordering to (pivot, other, target),
    # the step in the identity frame and the reordering back gave
    r = rng("exp-frames-%d" % field.characteristic)

    def draw():
        return r.randrange(field.characteristic) if field.characteristic else random_fraction(r)

    moved = 0
    for _ in range(40):
        p = TriangleParams(field, *(draw() for _ in range(4)))
        s = draw()
        for pivot, target in FRAMES:
            q = exp_transform_params(p, pivot, target, s)
            assert q == round_trip_exp_step(p, pivot, target, s)
            moved += q != p
    assert moved > 0


def test_scale_params():
    p = TriangleParams(QQ, -2, -2, -2, 0)
    assert scale_params(p, 1, 1, 1) == p
    assert scale_params(p, -1, -1, -1) == p  # even products
    q = scale_params(TriangleParams(QQ, 1, 2, 3, 0), 1, -2, Fraction(1, 3))
    assert (q.edge_xy, q.edge_xz, q.edge_yz) == (Fraction(-2), Fraction(2, 3), Fraction(-2))
    with pytest.raises(ValueError):
        scale_params(TriangleParams(QQ, 1, 0, 0, 5), 1, 1, 1)


def test_normalize_trivial_cases():
    for edges in ((0, 0, 0), (-2, 0, 0), (-2, -2, 0), (-2, -2, -2)):
        p = TriangleParams(QQ, *edges, 0)
        assert normalize(p) == p


def test_normalize_gf7_example():
    # exp(x, 1) z makes f(y,z) = -5; exp(y, 1) z, in the odd frame
    # (1, 0, 2), clears the central value and makes f(x,z) = -1; then
    # -2c/(ab) = 4 is a square in GF(7): case 3
    f = GF(7)
    assert normalize(TriangleParams(f, 1, 0, 0, 5)) == TriangleParams(f, -2, -2, -2, 0)


def test_normalize_extension_required():
    assert normalize(TriangleParams(QQ, -8, -2, -1, 0)) is None
    assert normalize(TriangleParams(QQ, -2, -2, -8, 0)) == TriangleParams(QQ, -2, -2, -2, 0)


THREE_EDGE_Q_GRID = (1, -1, 2, -2, 3, -8, Fraction(1, 2), Fraction(-1, 2), 9, Fraction(-9, 2))


def test_three_edge_scaling_matches_the_four_sign_search():
    # one square root of -2c/(ab) decides and builds the scaling: on every
    # nonzero (a, b, c) over GF(3..13) and on a grid over Q it gives the
    # verdict and the edges of the search over three roots and four signs
    fields = [(GF(p), range(1, p)) for p in (3, 5, 7, 11, 13)] + [(QQ, THREE_EDGE_Q_GRID)]
    verdicts = []
    for f, values in fields:
        values = [f.raw(v) for v in values]
        for a, b, c in itertools.product(values, repeat=3):
            normal = normalize(TriangleParams(f, a, b, c, 0))
            got = (True, (a, b, c)) if normal is None else (False, normal.edges())
            assert got == four_sign_scaling(f, a, b, c)
            verdicts.append(normal is None)
    assert len(verdicts) == 4016
    assert 0 < sum(verdicts) < len(verdicts)


def test_normalize_reaches_a_normal_form():
    r = rng("normalize")
    for field in (QQ, GF(7), GF(11)):
        for _ in range(25):
            p = TriangleParams(
                field,
                field.raw(r.randint(-4, 4)),
                field.raw(r.randint(-4, 4)),
                field.raw(r.randint(-4, 4)),
                field.raw(r.randint(-4, 4)),
            )
            normal = normalize(p)
            if normal is not None:
                m2 = field.raw(-2)
                assert field.is_zero(normal.central)
                assert all(field.is_zero(e) or e == m2 for e in normal.edges())


def test_case_invariance_under_pretransforms():
    # normalization lands in the same case after random exp pre-composition
    r = rng("invariance")
    for _ in range(10):
        edges = [r.choice([0, -2]) for _ in range(3)]
        p = TriangleParams(QQ, *edges, 0)
        base_case = normalize(p).nonzero_edges()
        q = exp_transform_params(p, 0, 2, Fraction(r.randint(-3, 3)))
        normal = normalize(q)
        if normal is not None:
            assert normal.nonzero_edges() == base_case


def test_build_m_all_cases():
    for edges, case in [((0, 0, 0), 0), ((-2, 0, 0), 1), ((-2, -2, 0), 2), ((-2, -2, -2), 3)]:
        M, got = build_M(TriangleParams(QQ, *edges, 0))
        assert M.n == 8
        assert got == case
        checks = verify_3gen_structure(M, case)
        assert checks["pass"], checks
        # generators carry exactly the prescribed parameter values
        fx = is_extremal(M, M.basis_element(0))
        assert fx(M.basis_element(1)) == M.field.raw(edges[0])


def test_case2_over_gf3_checks_the_central_line():
    """Over GF(3) case 2 checks Z(M) = [R,R] = span{v} and [R,[R,R]] = 0, as
    the ``verify_3gen_structure`` docstring derives; each of those checks
    reads False on the case-1 algebra, so each can fail.  In characteristic
    5 and 7 case 2 still checks a trivial center."""
    M, _ = build_M(TriangleParams(GF(3), -2, -2, 0, 0))
    e = M.basis_element
    v = e(_Y) + e(_Z) - e(_XYZ) - e(_YXZ)
    assert center(M) == Subspace.from_elements(M, [v])
    checks = verify_3gen_structure(M, 2)
    assert checks["pass"] and checks["center"] and "center_trivial" not in checks
    other, _ = build_M(TriangleParams(GF(3), -2, 0, 0, 0))
    wrong = verify_3gen_structure(other, 2)
    assert not wrong["center"] and not wrong["RR"] and not wrong["RRR"]
    for p in (5, 7):
        checks = verify_3gen_structure(build_M(TriangleParams(GF(p), -2, -2, 0, 0))[0], 2)
        assert checks["pass"] and checks["center_trivial"] and "center" not in checks


def test_build_m_over_gf5():
    M, _ = build_M(TriangleParams(GF(5), -2, -2, -2, 0))
    assert M.n == 8
    assert verify_3gen_structure(M, 3)["pass"]


def test_build_m_requires_normalized_input():
    with pytest.raises(ValueError):
        build_M(TriangleParams(QQ, -2, 0, 0, 1))
    with pytest.raises(ValueError):
        build_M(TriangleParams(QQ, 3, 0, 0, 0))


def test_sl3_example_realization():
    L, x, y, z = sl3_example(QQ)
    assert L.n == 8
    fx = is_extremal(L, x)
    fy = is_extremal(L, y)
    fz = is_extremal(L, z)
    m2 = -2
    assert fx(y) == m2 and fx(z) == m2 and fy(z) == m2
    assert fx(L.bracket(y, z)) == 0


def test_rule_table_covers_all_pairs():
    rows = _pair_rules(QQ, -2, -2, -2)
    assert set(rows) == {(i, j) for i in range(8) for j in range(i + 1, 8)}


def test_build_m_parameters_round_trip_through_extremal_form():
    from extremal_lie.liealg import extremal_form

    M, _ = build_M(TriangleParams(QQ, -2, -2, -2, 0))
    span = grow_extremal_spanning(M, [M.basis_element(i) for i in range(3)])
    form = extremal_form(M, span)
    x, y, z = (M.basis_element(i) for i in range(3))
    m2 = -2
    assert form_value(form, x, y) == m2 and form_value(form, x, z) == m2 and form_value(form, y, z) == m2
    assert form_value(form, x, M.bracket(y, z)) == 0


def _sl2_with_modules(f, n):
    """sl2 = span{x, y, h} (x, y, h at the indices _X, _Y, _XY, with [x,y] = h,
    [h,x] = 2x, [h,y] = -2y) extended by an abelian ideal: a trivial line t
    (index 2) and the irreducible module V(n) on v_0..v_n, where h v_i =
    (n - 2i) v_i, x v_i = (n - i + 1) v_{i-1} and y v_i = (i + 1) v_{i+1}."""
    num = f.raw
    v = [4 + i for i in range(n + 1)]
    table = {(_X, _Y): {_XY: f.one}, (_X, _XY): {_X: num(-2)}, (_Y, _XY): {_Y: num(2)}}
    for i in range(n + 1):
        table[(_XY, v[i])] = {v[i]: num(n - 2 * i)}
        if i:
            table[(_X, v[i])] = {v[i - 1]: num(n - i + 1)}
        if i < n:
            table[(_Y, v[i])] = {v[i + 1]: num(i + 1)}
    labels = ["x", "y", "t", "h"] + ["v%d" % i for i in range(n + 1)]
    L = LieAlgebra(f, labels, table)
    return L, [L.basis_element(2)], [L.basis_element(j) for j in v]


@pytest.mark.parametrize("field", [QQ, GF(103)], ids=["Q", "GF103"])
def test_modules_irreducible_finds_invariant_line_beyond_eigenvalue_bounds(field):
    # t + V(7): the line t is invariant.  ad h has the weights 0, +-1, +-3,
    # +-5, +-7; over Q the lowest nonzero charpoly coefficient is 1 * 9 * 25
    # * 49 = 11025 > 10,000, over GF(103) p > 101: the eigenvalue search of
    # the reference has no candidates in either case
    L, line, module = _sl2_with_modules(field, 7)
    assert eigenline_modules_irreducible(L, [line + module]) is None
    assert _modules_irreducible(L, [line + module]) is False
    assert _modules_irreducible(L, [module]) is True


@pytest.mark.parametrize("char", [0, 3, 5, 7, 101])
def test_modules_irreducible_matches_eigenline_reference(char):
    f = QQ if char == 0 else GF(char)
    cases = []
    for n in (1, 2, 3):
        L, line, module = _sl2_with_modules(f, n)
        cases += [(L, [module]), (L, [line + module]), (L, [module[:-1]])]
    # case 1 of the three-generator theorem, with its two 2-dimensional modules
    M, case = build_M(TriangleParams(f, -2, 0, 0, 0))
    assert case == 1
    e = M.basis_element
    cases.append((M, [[e(_XZ), e(_YXZ)], [e(_YZ), e(_XYZ)]]))
    verdicts = []
    for L, modules in cases:
        got = _modules_irreducible(L, modules)
        assert got == eigenline_modules_irreducible(L, modules)
        verdicts.append(got)
    # V(n) is irreducible for n < p and t + V(n) has the invariant line t;
    # v_0..v_{n-1} is not a module (y v_{n-1} = n v_n), except for n = 3 in
    # characteristic 3, where it is a module with no line killed by x and y
    per_n = [[True, False, n == 3 and char == 3] for n in (1, 2, 3)]
    assert verdicts == sum(per_n, []) + [True]


def test_modules_irreducible_requires_a_perfect_sl2_part():
    # [x, y] = h central: [S, S] = kh is not S, so an S-invariant line need
    # not be one that x and y kill
    L = LieAlgebra(QQ, ["x", "y", "t", "h"], {(_X, _Y): {_XY: QQ.one}})
    with pytest.raises(PreconditionNotMet):
        _modules_irreducible(L, [[L.basis_element(2)]])


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_monomial_isomorphism_can_fail(field):
    """Case 0 (M = L_3) and case 3 (M = sl3) are read by one check, which
    fails on the other case's algebra, on generators whose monomials do not
    span, and on an algebra of another dimension."""
    from extremal_lie import nilquot

    L3 = nilquot.sandwich_algebra(3, field=field).as_lie_algebra()
    M0, _ = build_M(TriangleParams(field, 0, 0, 0, 0))
    M3, _ = build_M(TriangleParams(field, -2, -2, -2, 0))
    S, a, b, c = sl3_example(field)
    x, y, z = L3.basis_elements()[:3]
    assert isomorphic_by_monomials(M0, L3, x, y, z)
    assert isomorphic_by_monomials(M3, S, a, b, c)
    assert not isomorphic_by_monomials(M3, L3, x, y, z)
    assert not isomorphic_by_monomials(M0, S, a, b, c)
    assert not isomorphic_by_monomials(M0, L3, x, y, x)
    L4 = nilquot.sandwich_algebra(4, field=field).as_lie_algebra()
    assert not isomorphic_by_monomials(M0, L4, *L4.basis_elements()[:3])
