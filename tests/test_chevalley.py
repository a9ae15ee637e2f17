import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from extremal_lie.scalars import QQ, GF
from extremal_lie import chevalley as chevalley_module
from extremal_lie import cli
from extremal_lie import rootgroups as rootgroups_module
from extremal_lie.chevalley import (
    ChevalleyAlgebra,
    NotExtremal,
    dimension_lower_bound,
    exp_automorphism,
    exp_map,
    extremal_spanning_set,
    long_root_extremality_check,
    mingen_certify,
    minimal_generator_count,
    natural_representation,
    root_exp_apply,
    root_exponential,
    verify_generation,
)
from extremal_lie import liealg
from extremal_lie.liealg import extremal_form, is_extremal
from extremal_lie.scalars import Field

from helpers import (
    Map,
    chevalley,
    dense,
    dense_natural_representation,
    exp_reference,
    field_of,
    preserves_bracket,
    preserves_form,
    random_fraction,
    reference_extremal_spanning_set,
    root_exp_reference,
    rng,
    short_root_decomposition_check,
)


def test_dimensions():
    assert chevalley("A", 1).dim == 3
    assert chevalley("G", 2, 3).dim == 14
    assert chevalley("B", 3).dim == 21
    assert chevalley("F", 4).dim == 52


def test_characteristic_two_rejected():
    from extremal_lie.scalars import CharacteristicTwoUnsupported
    with pytest.raises(CharacteristicTwoUnsupported):
        chevalley("A", 1, 2)


def test_exp_identity_and_one_parameter_group():
    A = chevalley("A", 2)
    L = A.lie
    x = A.x((1, 0))
    assert Map.of(L, exp_automorphism(L, x, 0)).is_identity()
    r = rng("exp")
    for _ in range(5):
        s, t = Fraction(r.randint(-3, 3)), Fraction(r.randint(-3, 3))
        phi, psi = Map.of(L, exp_automorphism(L, x, s)), Map.of(L, exp_automorphism(L, x, t))
        assert preserves_bracket(phi) and preserves_bracket(psi)
        assert phi.compose(psi) == Map.of(L, exp_automorphism(L, x, s + t))


def test_exp_action_on_extremal_element():
    # exp(x,1) y = y + [x,y] + (1/2) f_x(y) x for extremal y
    A = chevalley("A", 2)
    L = A.lie
    x, y = A.x((1, 0)), A.x((-1, 0))
    fx = is_extremal(L, x)
    phi = exp_automorphism(L, x, 1)
    assert preserves_bracket(Map.of(L, phi))
    half = Fraction(1, 2)
    assert phi.apply(y) == y + L.bracket(x, y) + (half * fx(y)) * x


def test_exp_requires_extremal():
    B = chevalley("B", 3)
    short = B.x(B.rootsystem.root_from_eps({1: 1}))
    with pytest.raises(NotExtremal):
        exp_automorphism(B.lie, short, 1)


def test_exp_map_proves_extremality_once(monkeypatch):
    calls = []
    real = chevalley_module.is_extremal
    monkeypatch.setattr(chevalley_module, "is_extremal", lambda L, x: calls.append(x) or real(L, x))
    A = chevalley("A", 2)
    x = A.x((1, 1))
    exp = exp_map(A.lie, x)
    maps = [Map.of(A.lie, exp(s)) for s in (0, 1, -1, 2, Fraction(1, 2))]
    assert len(calls) == 1
    assert all(preserves_bracket(phi) for phi in maps)
    assert maps[0].is_identity()
    assert maps[1].compose(maps[2]).is_identity()
    assert maps[1] == Map.of(A.lie, exp_automorphism(A.lie, x, 1))


def test_exp_preserves_bracket_and_form():
    A = chevalley("A", 2)
    span = extremal_spanning_set(A)
    form = extremal_form(A.lie, span)
    phi = Map.of(A.lie, exp_automorphism(A.lie, A.x((1, 1)), 2))
    assert preserves_bracket(phi)
    assert preserves_form(phi, form)


def test_root_exponential_is_automorphism_any_char():
    # every root of B2 and G2, short and long, at s = 1 and s = -1
    for char in (0, 3, 5):
        for type_ in ("B", "G"):
            A = chevalley(type_, 2, char)
            for root in A.rootsystem.roots:
                for s in (1, -1):
                    phi = Map(A.lie, root_exponential(A, root, s))
                    assert preserves_bracket(phi)
                    assert not phi.is_identity()


@pytest.mark.parametrize("char", [0, 3, 5])
def test_bracket_oracle_can_fail(char):
    # an exp map and a root exponential with one column doubled are linear
    # maps that break the bracket: sl3 is simple, so b_0 is not central
    A = chevalley("A", 2, char)
    L = A.lie
    for phi in (Map.of(L, exp_automorphism(L, A.x((1, 1)), 2)), Map(L, root_exponential(A, (1, 0), 1))):
        assert preserves_bracket(phi)
        cols = list(phi.cols)
        cols[0] = {j: 2 * c for j, c in cols[0].items()}
        assert not preserves_bracket(Map(L, cols))


ROOT_EXP_CASES = [("G", 2, 0), ("G", 2, 3), ("G", 2, 5), ("B", 3, 7), ("F", 4, 0), ("D", 4, 101)]


@pytest.mark.parametrize("type_, rank, char", ROOT_EXP_CASES)
def test_root_exp_apply_matches_full_map_reference(type_, rank, char):
    # over GF(3) 3! = 0, so exp exists there only through the integral
    # divided powers; the images and the maps agree with the full maps
    # built from the powers of ad x_root over Q
    A = ChevalleyAlgebra(type_, rank, field_of(char))
    L = A.lie
    r = rng("root-exp-apply-%s%d-%d" % (type_, rank, char))
    params = [1, -1, 2] + ([char - 1] if char else [Fraction(1, 3)])  # over GF(3), p - 1 = 2
    vectors = [L.basis_element(r.randrange(L.n)) for _ in range(2)]
    for _ in range(4):
        support = r.sample(range(L.n), r.randint(1, 5))
        if char:
            vectors.append(L.element({j: r.randint(-2 * char, 2 * char) for j in support}))
        else:
            vectors.append(L.element({j: random_fraction(r) for j in support}))
    for root in A.rootsystem.roots:
        for s in params:
            ref = root_exp_reference(A, root, s)
            for v in vectors:
                assert root_exp_apply(A, root, s, v).coeffs == ref.apply(v).coeffs
            assert Map(L, root_exponential(A, root, s)) == ref
            assert preserves_bracket(ref)


@pytest.mark.parametrize("char", [0, 3, 7])
@pytest.mark.parametrize("type_, rank", [("A", 2), ("B", 3), ("G", 2), ("F", 4)])
def test_extremal_spanning_set_matches_full_map_closure(type_, rank, char):
    A = ChevalleyAlgebra(type_, rank, field_of(char))
    span, ref = extremal_spanning_set(A), reference_extremal_spanning_set(A)
    assert [v.coeffs for v in span] == [v.coeffs for v in ref]
    assert [fx.values for fx in span.functionals] == [fx.values for fx in ref.functionals]


def test_extremal_spanning_set_builds_few_divided_power_columns():
    # the closure reads 402 of E6's 72 * 78 = 5,616 columns (of 11,232
    # when the maps of exp(+-ad x_root) were built whole)
    A = ChevalleyAlgebra("E", 6, QQ)
    extremal_spanning_set(A)
    assert 0 < len(A._divided) <= 600


def test_long_root_extremality_sweep():
    assert long_root_extremality_check(chevalley("A", 3))["pass"]
    assert long_root_extremality_check(chevalley("B", 3))["pass"]
    assert long_root_extremality_check(chevalley("C", 3))["pass"]
    assert long_root_extremality_check(chevalley("G", 2, 5))["pass"]


def test_short_root_decomposition_b2_g2():
    for type_ in ("B2", "G2"):
        for field in (QQ, GF(5)):
            rep = short_root_decomposition_check(type_, field)
            assert rep["maps_preserve_bracket"]
            assert rep["pass"]


def test_mingen_generator_counts():
    for type_, rank, t in (("D", 4, 4), ("C", 3, 6), ("G", 2, 4)):
        rep = mingen_certify(type_, rank, QQ)
        assert rep["generators"] == t and rep["generators_extremal"]


def test_verify_generation_positive_and_negative():
    A = chevalley("A", 3)
    gens = chevalley_module._mingen_recipe(A).gens
    assert verify_generation(A, gens)["pass"]
    D = chevalley("D", 4)
    rs = D.rootsystem
    three_longs = [D.x(rs.simple_roots[i]) for i in range(3)]
    rep = verify_generation(D, three_longs)
    assert not rep["pass"] and rep["dim"] < D.dim


def test_natural_representations():
    rep = natural_representation("A", 2, QQ)
    assert rep["module_dim"] == 3 and rep["extremal_matrix_rank"] == 1
    assert rep["lower_bound"] == 3 and rep["pass"]
    rep = natural_representation("C", 2, QQ)
    assert rep["module_dim"] == 4 and rep["extremal_matrix_rank"] == 1
    assert rep["lower_bound"] == 4 and rep["pass"]
    rep = natural_representation("B", 3, QQ)
    assert rep["module_dim"] == 7 and rep["extremal_matrix_rank"] == 2
    assert rep["lower_bound"] == 4 and rep["pass"]
    rep = natural_representation("D", 4, QQ)
    assert rep["module_dim"] == 8 and rep["extremal_matrix_rank"] == 2
    assert rep["lower_bound"] == 4 and rep["pass"]


def test_dimension_lower_bound():
    assert dimension_lower_bound(14) == 4   # G2
    assert dimension_lower_bound(52) == 5   # F4
    assert dimension_lower_bound(3) == 2    # sl2
    assert dimension_lower_bound(10) == 4   # B2


def test_mingen_certify_small():
    for t, n, expect in [("A", 2, 3), ("B", 2, 4), ("C", 2, 4), ("G", 2, 4)]:
        rep = mingen_certify(t, n, QQ)
        assert rep["pass"] and rep["t_claimed"] == expect
        assert rep["lower_bound"] == expect == rep["generators"]


def test_mingen_certify_gf5():
    rep = mingen_certify("B", 3, GF(5))
    assert rep["pass"] and rep["t_claimed"] == 4


RECIPE_TYPES = (
    [("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 8)] + [("C", n) for n in range(2, 8)]
    + [("D", n) for n in range(4, 8)] + [("E", 6), ("E", 7), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("char", [0, 3, 5, 7])
def test_mingen_recipe_sweep(char):
    # each recipe is checked as written: a wrong chain sign fails generation
    failed = [(t, n) for t, n in RECIPE_TYPES if not mingen_certify(t, n, field_of(char))["pass"]]
    assert failed == []


@pytest.mark.parametrize("char", [0, 3])
def test_mingen_recipe_e8(char):
    rep = mingen_certify("E", 8, field_of(char))
    assert rep["pass"] and rep["generated_dim"] == 248


def test_extremal_spanning_set_gf3_g2():
    G = chevalley("G", 2, 3)
    span = extremal_spanning_set(G)
    from extremal_lie.linalg import echelon_from_rows
    assert echelon_from_rows(G.field, G.lie.n, [v.coeffs for v in span]).dim == 14


def test_minimal_generator_count_table():
    assert minimal_generator_count("A", 7) == 8
    assert minimal_generator_count("B", 5) == 6
    assert minimal_generator_count("C", 4) == 8
    assert minimal_generator_count("D", 6) == 6
    assert minimal_generator_count("E", 8) == 5
    assert minimal_generator_count("F", 4) == 5
    assert minimal_generator_count("G", 2) == 4


def test_long_class_generation_check_can_fail(monkeypatch):
    # with identity images for the root exponentials the closure of the long
    # root elements is their own span, a proper subspace of B2
    def identity(A, root, s, v):
        return v

    monkeypatch.setattr(chevalley_module, "root_exp_apply", identity)
    rep = short_root_decomposition_check("B2", QQ)
    assert rep["long_root_elements_generate"] is False
    assert rep["pass"] is False


def test_outputs_are_canonical_over_gf():
    # group words (rootgroups._Words.same) and the reference Map
    # compare vectors as dicts, which is sound only if every vector comes out
    # canonical: residues in [0, p), no zero entries
    def canonical(vec, p):
        return all(type(x) is int and 0 < x < p for x in vec.values())

    r = rng("canonical")
    for t, n, p in (("G", 2, 3), ("B", 3, 7), ("A", 2, 5)):
        A = chevalley(t, n, p)
        L = A.lie
        long_roots = [root for root in A.rootsystem.roots if A.rootsystem.is_long(root)]
        elts = [L.element({k: r.randint(-3 * p, 3 * p) for k in r.sample(range(L.n), 4)}) for _ in range(6)]
        elts += [A.x(root) for root in A.rootsystem.roots[:4]]
        for a in elts:
            for b in elts:
                assert canonical(L.bracket(a, b).coeffs, p)
        for s in (1, -1, 2, p - 1, p + 1, -2 * p + 1):
            for root in A.rootsystem.roots[:6]:
                cols = root_exponential(A, root, s)
                assert all(canonical(col, p) for col in cols)
                phi = Map(L, cols)
                assert all(canonical(phi.apply(a).coeffs, p) for a in elts)
                back = Map(L, root_exponential(A, root, -s))
                assert phi.compose(back).is_identity()
            exp = exp_map(L, A.x(long_roots[0]))
            assert all(canonical(exp(s).apply(a).coeffs, p) for a in elts)
            psi = Map.of(L, exp(s))
            assert psi.compose(Map.of(L, exp(-s))).is_identity()
            assert psi.compose(Map.of(L, exp(s))) == Map.of(L, exp(2 * s))


def _long_roots(A):
    return [root for root in A.rootsystem.roots if A.rootsystem.is_long(root)]


@pytest.mark.parametrize("char", [0, 3, 101])
@pytest.mark.parametrize("type_, rank", [("A", 2), ("B", 3), ("G", 2)])
def test_exp_columns_match_two_bracket_reference(type_, rank, char):
    # exp_map reads ad_x^2 b_j as f_x(b_j) x; the reference takes
    # [x, [x, b_j]]; on root elements and on exp(y, -s)x, whose coefficients
    # are rational over Q, the columns agree
    A = chevalley(type_, rank, char)
    L = A.lie
    longs = _long_roots(A)
    elements = [A.x(root) for root in longs]
    elements.append(exp_reference(L, A.x(longs[-1]))(Fraction(-1, 2)).apply(A.x(longs[0])))
    for x in elements:
        fast, ref = exp_map(L, x), exp_reference(L, x)
        for s in (1, -2, Fraction(1, 2), Fraction(-5, 4)):
            assert Map.of(L, fast(s)) == ref(s)


REFERENCE_TYPES = (("A", 2), ("B", 3), ("G", 2))
REFERENCE_CHARS = (0, 3, 7, 101)


def _parameters(char):
    """Exp parameters: any integer over GF(p), denominators 1 to 4 over Q."""
    if char:
        return st.integers(-2 * char, 2 * char)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def exp_words(draw):
    """(A, word, other, v): a word [(x_i, s_i)] of exp(x_i, s_i) over a
    Chevalley algebra A, a second word (half the time the same map written
    with its first factor split in two), and an element v to apply them to.
    The x_i are long root elements and their images exp(y, -s)x; half the
    words end with their own inverse, so they are the identity."""
    type_, rank = draw(st.sampled_from(REFERENCE_TYPES))
    char = draw(st.sampled_from(REFERENCE_CHARS))
    A = chevalley(type_, rank, char)
    roots = st.sampled_from(_long_roots(A))
    params = _parameters(char)

    def element():
        x = A.x(draw(roots))
        if draw(st.booleans()):
            x = exp_reference(A.lie, A.x(draw(roots)))(-draw(params)).apply(x)
        return x

    def word():
        return [(element(), draw(params)) for _ in range(draw(st.integers(1, 3)))]

    first = word()
    if draw(st.booleans()):
        first += [(x, -s) for x, s in reversed(first)]
    if draw(st.booleans()):
        (x, s), s1 = first[0], draw(params)
        other = [(x, s1), (x, s - s1)] + first[1:]
    else:
        other = word()
    coeffs = {k: draw(params) for k in draw(st.sets(st.integers(0, A.dim - 1), min_size=1, max_size=4))}
    return A, first, other, A.lie.element(coeffs)


def _evaluate(A, word, exp_of):
    """The product of the exp(x, s) of the word, leftmost factor last."""
    phi = None
    for x, s in word:
        g = exp_of(A.lie, x)(s)
        phi = g if phi is None else phi.compose(g)
    return phi


def _is_canonical(elt):
    p = elt.algebra.field.characteristic
    if p:
        return all(type(c) is int and 0 < c < p for c in elt.coeffs.values())
    return all(type(c) is int or c.denominator > 1 for c in elt.coeffs.values())


def _factors(A, word):
    """The word as a tuple of ``chevalley.Exp`` factors, the rightmost acting first."""
    return tuple(exp_map(A.lie, x)(s) for x, s in word)


def _apply(factors, v):
    for g in reversed(factors):
        v = g.apply(v)
    return v


@settings(database=None, deadline=None, max_examples=150)
@seed(0)
@given(exp_words())
def test_exp_words_match_fraction_reference(case):
    # factors applied one vector at a time against products of reference
    # maps: images agree, and deciding two words on the generators, as
    # rootgroups does, agrees with comparing the full maps
    A, word, other, v = case
    L, f = A.lie, A.field
    fast, ref = _factors(A, word), _evaluate(A, word, exp_reference)
    image = _apply(fast, v)
    assert image == ref.apply(v) and _is_canonical(image)
    fast2, ref2 = _factors(A, other), _evaluate(A, other, exp_reference)
    same = rootgroups_module._Words(L).same
    assert same(fast, ()) == ref.is_identity()
    assert same(fast, fast2) == (ref == ref2)
    # the full maps of both words
    full = Map(L, [_apply(fast, b).coeffs for b in L.basis_elements()])
    assert full == ref
    assert Map(L, [_apply(fast2, b).coeffs for b in L.basis_elements()]) == ref2
    # the same columns halved are another map
    half = [{j: f.div(c, 2) for j, c in col.items()} for col in ref.cols]
    assert not full == Map(L, half)


def test_exp_map_keeps_one_map_per_parameter():
    A = chevalley("A", 2)
    exp = exp_map(A.lie, A.x((1, 1)))
    assert exp(Fraction(1, 2)) is exp(Fraction(1, 2))
    assert exp(2) is exp(Fraction(4, 2))
    p = 7
    A_p = chevalley("A", 2, p)
    exp_p = exp_map(A_p.lie, A_p.x((1, 1)))
    assert exp_p(1) is exp_p(p + 1)


def test_rootgroups_builds_each_exp_once(monkeypatch):
    """A rootgroups run builds no n-column map.  Every act of a factor is
    either one step of a group word on a generator image (4 of B3's 21
    basis vectors) or one ``Exp.apply``, which property (2) makes once per
    pair and parameter; the one n-column builder, ``root_exponential``, is
    not called; and each (map, parameter) pair is one ``Exp``."""
    acts, applies, steps, builds = [0], [0], [], Counter()
    maps = []  # keeps every map alive, so that no id is reused
    Exp, Words = chevalley_module.Exp, rootgroups_module._Words
    real_act, real_apply, real_init, real_of = Exp.act, Exp.apply, Exp.__init__, Words._of

    def act(self, w):
        acts[0] += 1
        return real_act(self, w)

    def apply(self, elt):
        applies[0] += 1
        return real_apply(self, elt)

    def init(self, m, s):
        maps.append(m)
        builds[(id(m), s)] += 1
        real_init(self, m, s)

    def of(self, word):
        images = real_of(self, word)
        steps.append(len(images))
        return images

    def no_full_map(*args):
        raise AssertionError("rootgroups built an n-column map")

    monkeypatch.setattr(Exp, "act", act)
    monkeypatch.setattr(Exp, "apply", apply)
    monkeypatch.setattr(Exp, "__init__", init)
    monkeypatch.setattr(Words, "_of", of)
    monkeypatch.setattr(chevalley_module, "root_exponential", no_full_map)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "rootgroups", "--type", "B3", "--char", "0", "--seed", "5"]) == 0
    gens = len(chevalley("B", 3).lie.generators)
    assert gens == 4 and set(steps) == {gens}
    assert 0 < applies[0] <= 4 * 8  # four pairs, eight parameters
    assert acts[0] == gens * len(steps) + applies[0]
    assert len(builds) > 500 and max(builds.values()) == 1


NATURAL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("D", 5))


@pytest.mark.parametrize("char", [0, 3, 5, 53])
def test_natural_representation_matches_dense_reference(char):
    """The report of the natural representation equals the one the dense
    commutator closure in ``helpers`` gives, and the Lie algebra on the
    kernel basis has the basis matrices and the structure table of that
    closure: both are the canonical echelon basis of one span."""
    f = field_of(char)
    for type_, rank in NATURAL_TYPES:
        rep = natural_representation(type_, rank, f)
        want, ref_lie, ref_mats = dense_natural_representation(type_, rank, f)
        assert rep == want, (type_, rank)
        basis, _ = chevalley_module._natural_module(f, type_, rank)
        lie, _ = liealg.matrix_lie_algebra(f, basis)
        assert [dense(m, rep["module_dim"]) for m in basis] == ref_mats
        n = lie.n
        assert [dense([lie.bracket_basis(i, j) for j in range(n)], n) for i in range(n)] == [
            dense([ref_lie.bracket_basis(i, j) for j in range(n)], n) for i in range(n)
        ]


def test_natural_representation_builds_no_lie_algebra(monkeypatch):
    """The premises are checked on matrices: no ``LieAlgebra`` and no
    structure constants are built, and the one closure is the flag check's."""
    built, closures = [], []
    real_init, real_constants = liealg.LieAlgebra.__init__, liealg.structure_constants_on
    real_closure = chevalley_module.closure

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def constants(*args):
        built.append(args)
        return real_constants(*args)

    def counted_closure(*args):
        closures.append(args)
        return real_closure(*args)

    monkeypatch.setattr(liealg.LieAlgebra, "__init__", init)
    monkeypatch.setattr(liealg, "structure_constants_on", constants)
    monkeypatch.setattr(chevalley_module, "closure", counted_closure)
    for type_, rank in NATURAL_TYPES:
        assert natural_representation(type_, rank, GF(53))["pass"], (type_, rank)
    assert built == []
    assert len(closures) == len(NATURAL_TYPES)


def _degenerate_gram(real):
    """``_split_gram`` with the pair of basis vectors 0 and N - 1 (e_1 and
    f_1) made null."""

    def gram(f, type_, n):
        g = real(f, type_, n)
        g[0] = g[-1] = {}
        return g

    return gram


def _with_long_root_matrix(real, entries):
    """``_natural_module`` with the long-root matrix replaced."""

    def module(f, type_, n):
        basis, long_mat = real(f, type_, n)
        return basis, chevalley_module._matrix(len(long_mat), entries(f, n))

    return module


def _swap_01(m):
    """The matrix m on the module basis with vectors 0 and 1 swapped."""
    p = {0: 1, 1: 0}
    return [{p.get(j, j): x for j, x in m[p.get(i, i)].items()} for i in range(len(m))]


def _with_basis_vectors_01_swapped(real):
    """``_natural_module`` on a basis out of flag order: the same g and
    long-root matrix, with module basis vectors 0 and 1 swapped."""

    def module(f, type_, n):
        basis, long_mat = real(f, type_, n)
        return [_swap_01(m) for m in basis], _swap_01(long_mat)

    return module


def _zero_gram(real):
    """``_split_gram`` replaced by the zero form, which every matrix
    preserves."""
    return lambda f, type_, n: [{} for _ in real(f, type_, n)]


@pytest.mark.parametrize("type_, attribute, planted, premise", [
    # the zero Gram: g = gl(6), irreducible, and E_05 is extremal in it
    ("C", "_split_gram", _zero_gram, "dim"),
    # E_01 is not in so(8), yet [E_01, [E_01, Y]] = -2 Y_10 E_01 for every Y
    ("D", "_natural_module", lambda real: _with_long_root_matrix(real, lambda f, n: {(0, 1): 1}), "extremal_ok"),
    # a diagonal matrix of so(8): ad_X^2 fixes E_01 - E_67, off the line kX
    ("D", "_natural_module", lambda real: _with_long_root_matrix(real, lambda f, n: {(0, 0): 1, (7, 7): f.raw(-1)}), "extremal_ok"),
    # out of flag order, x_(e1-e2) and x_(e2-e1) are not upper triangular,
    # so e_1 and e_2 are both killed by the upper triangular basis matrices
    ("C", "_natural_module", _with_basis_vectors_01_swapped, "irreducible"),
    ("D", "_natural_module", _with_basis_vectors_01_swapped, "irreducible"),
])
def test_each_premise_of_the_natural_bound_can_fail(type_, attribute, planted, premise, monkeypatch):
    """One planted fault per premise of the bound for C3 or D4: the faulted
    premise is the only one that fails, and ``pass`` reads False."""
    monkeypatch.setattr(chevalley_module, attribute, planted(getattr(chevalley_module, attribute)))
    rep = natural_representation(type_, 3 if type_ == "C" else 4, QQ)
    held = {"dim": rep["dim"] == rep["dim_expected"], "extremal_ok": rep["extremal_ok"], "irreducible": rep["irreducible"]}
    assert held == dict.fromkeys(held, True) | {premise: False}
    assert not rep["pass"]


def test_degenerate_gram_fails_the_mingen_report(monkeypatch):
    """With a null pair in the Gram of D4, g is larger than so(8) (and
    reducible), so the lower bound reads False and the report exits 1."""
    monkeypatch.setattr(chevalley_module, "_split_gram", _degenerate_gram(chevalley_module._split_gram))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--json", "mingen", "--type", "D4"]) == 1
    checks = {c["name"]: c for c in json.loads(out.getvalue())["checks"]}
    assert not checks["D4/char0 lower bound"]["pass"]
    assert checks["D4/char0 generation reaches dim 28"]["pass"]


def test_matrix_algebras_call_no_field_arithmetic(monkeypatch):
    """Building so(10) and sp(6) from matrices and deciding their
    irreducibility by the flag check makes no per-entry ``Field`` call."""
    calls = []
    for name in ("add", "sub", "mul", "is_zero"):
        def counted(self, *args, _orig=getattr(Field, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(Field, name, counted)
    f = GF(53)
    for type_, rank in (("D", 5), ("C", 3)):
        basis, _ = chevalley_module._natural_module(f, type_, rank)
        liealg.matrix_lie_algebra(f, basis)
        assert chevalley_module._flag_irreducible(f, basis, 2 * rank)
    assert calls == []
    f.is_zero(0)  # the counters are live
    assert calls == ["is_zero"]


def test_flag_irreducibility_check_can_fail():
    """E_01 kills the line K of the first basis vector.  E_10 moves K onto
    the second basis vector; E_01 alone, or with E_00, keeps K invariant."""
    f = GF(5)
    e01, e10, e00 = [{1: 1}, {}], [{}, {0: 1}], [{0: 1}, {}]
    assert chevalley_module._flag_irreducible(f, [e01, e10], 2)
    assert not chevalley_module._flag_irreducible(f, [e01], 2)
    assert not chevalley_module._flag_irreducible(f, [e01, e00], 2)
