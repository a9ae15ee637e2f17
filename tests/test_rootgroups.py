import contextlib
import io
from fractions import Fraction

import pytest

from extremal_lie.scalars import QQ, GF
import helpers
from extremal_lie import chevalley as chevalley_module, cli, liealg, rootgroups
from extremal_lie.chevalley import exp_map, root_exp_apply
from extremal_lie.liealg import ExtremalFunctional, PreconditionNotMet, is_extremal
from extremal_lie.rootgroups import (
    chain_nonexistence_probe,
    parameter_samples,
    projective_line_check,
    representative_pairs,
    strongcomm_check,
    strongcomm_pair,
    verify_abstract_root_properties,
)

from helpers import (
    Map,
    chevalley,
    exp_reference,
    line_is_fully_extremal,
    matrix_product_identity,
    matrix_root_properties,
    preserves_bracket,
    reference_chain_search,
    sl2,
)


def test_root_group_depends_only_on_the_line():
    # exp(c y, t) = exp(y, c t), as full maps and as words on the generators
    L = sl2(GF(5))
    e = L.basis_element(0)
    f5 = GF(5)
    same = rootgroups._Words(L).same
    for c in range(1, 5):
        for t in range(5):
            ce = f5.raw(c) * e
            assert exp_reference(L, ce)(t) == exp_reference(L, e)(c * t)
            assert same((exp_map(L, ce)(t),), (exp_map(L, e)(c * t),))


def test_parameter_samples():
    assert len(parameter_samples(GF(5))) == 5
    q = parameter_samples(QQ)
    assert Fraction(1, 2) in [Fraction(v) for v in q]


def test_properties_opposite_pair_sl2_gf5_exhaustive():
    L = sl2(GF(5))
    rep = verify_abstract_root_properties(L, L.basis_element(0), L.basis_element(2))
    assert rep["case"] == "opposite"
    assert rep["pass"]


def test_properties_f0_pair_a2():
    for char in (5, 7):
        A = chevalley("A", 2, char)
        rep = verify_abstract_root_properties(A.lie, A.x((1, 0)), A.x((0, 1)))
        assert rep["case"] == "f0-noncommuting"
        assert rep["pass"]


def test_properties_commuting_pair_a3():
    A = chevalley("A", 3)
    x = A.x((1, 0, 0))
    y = A.x((0, 0, 1))
    assert A.lie.bracket(x, y).is_zero()
    rep = verify_abstract_root_properties(A.lie, x, y)
    assert rep["case"] == "commuting" and rep["pass"]


def test_properties_same_line_pair():
    A = chevalley("A", 2, 5)
    x = A.x((1, 1))
    rep = verify_abstract_root_properties(A.lie, x, 2 * x)
    assert rep["case"] == "same-line" and rep["pass"]


def test_properties_d4_pairs():
    D = chevalley("D", 4, 5)
    theta = D.rootsystem.highest_root
    rep = verify_abstract_root_properties(D.lie, D.x(theta), D.x(tuple(-c for c in theta)))
    assert rep["case"] == "opposite" and rep["pass"]


def test_strongcomm_qualifying_pair():
    # x and [x,y] with f(x,y) = 0, [x,y] != 0 satisfy the conditions
    for char in (0, 5):
        A = chevalley("A", 2, char)
        x, y = A.x((1, 0)), A.x((0, 1))
        z = A.lie.bracket(x, y)
        rep = strongcomm_check(A.lie, x, z)
        assert rep["condition_2prime"]
        assert rep["conditions_agree"]
        assert rep["product_identity"]
        assert rep["pass"]


def test_strongcomm_failing_pair_d4():
    D = chevalley("D", 4)
    a = D.rootsystem.root_from_eps({1: 1, 2: -1})
    b = D.rootsystem.root_from_eps({3: 1, 4: -1})
    rep = strongcomm_check(D.lie, D.x(a), D.x(b))
    assert not rep["condition_2prime"]
    assert rep["conditions_agree"]  # all three conditions fail together
    assert rep["pass"]
    probe = line_is_fully_extremal(D.lie, D.x(a), D.x(b))
    assert not probe["fully_extremal"]
    assert probe["witness"] is not None


def test_strongcomm_requires_commuting():
    A = chevalley("A", 2)
    with pytest.raises(PreconditionNotMet):
        strongcomm_check(A.lie, A.x((1, 0)), A.x((0, 1)))


def test_strongcomm_zero_parameter_edge():
    A = chevalley("A", 2, 5)
    x, y = A.x((1, 0)), A.x((0, 1))
    z = A.lie.bracket(x, y)
    rep = strongcomm_check(A.lie, x, z, sample_params=[0])
    assert rep["pass"]


def test_projective_line_exhaustive_gf5():
    A = chevalley("A", 2, 5)
    x = A.x((1, 0))
    z = A.lie.bracket(x, A.x((0, 1)))
    rep = projective_line_check(A.lie, x, z, x + z)
    assert rep["exhaustive"]
    assert rep["points_checked"] == 6
    assert rep["pass"]


def test_projective_line_preconditions():
    A = chevalley("A", 2, 5)
    with pytest.raises(PreconditionNotMet):
        projective_line_check(A.lie, A.x((1, 0)), A.x((0, 1)), A.x((1, 1)))


def test_chain_nonexistence_probe():
    for t, n, char in [("A", 2, 5), ("A", 3, 0), ("D", 4, 0)]:
        rep = chain_nonexistence_probe(chevalley(t, n, char))
        assert rep["pass"], rep["witness"]


# -- against the full-matrix reference ------------------------------------------

REFERENCE_TYPES = [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def _pairs(A):
    """The pairs ``rootgroups`` reports, and the same pairs conjugated by a
    root exponential, so that they are not root elements."""
    pairs = representative_pairs(A)

    def g(v):
        return root_exp_apply(A, A.rootsystem.simple_roots[0], 1, v)

    return pairs + [(case, g(x), g(y)) for case, x, y in pairs]


@pytest.mark.parametrize("char", [0, 3, 5, 7])
@pytest.mark.parametrize("type_, rank", REFERENCE_TYPES)
def test_generator_words_match_the_full_matrix_reference(type_, rank, char):
    # every property of every pair class, decided on the generators and on
    # products of full matrices, reads the same; so does the product identity
    A = chevalley(type_, rank, char)
    L = A.lie
    samples = parameter_samples(A.field)
    for case, x, y in _pairs(A):
        fast = verify_abstract_root_properties(L, x, y, sample_params=samples)
        ref = matrix_root_properties(L, x, y, samples)
        assert fast["case"] == ref["case"] == case
        assert [c["pass"] for c in fast["checks"]] == ref["checks"]
    pair = strongcomm_pair(A)
    assert (pair is None) == (type_ == "C")
    if pair is not None:
        rep = strongcomm_check(L, *pair, sample_params=samples)
        assert rep["condition_2prime"]
        assert rep["product_identity"] == matrix_product_identity(L, *pair, samples)


def _wrong_half(monkeypatch):
    """Plant exp(x, s) = 1 + s ad_x + s^2 ad_x^2 on both paths."""
    real_init = chevalley_module.Exp.__init__

    def init(self, m, s):
        real_init(self, m, s)
        c0, c1, c2 = self._c
        self._c = (c0, c1, 2 * c2)

    monkeypatch.setattr(chevalley_module.Exp, "__init__", init)
    monkeypatch.setattr(helpers, "EXP_HALF", 1)


def _non_extremal_factor(monkeypatch, L, y):
    """Plant an ``is_extremal`` that skips its comparison for y: it returns
    f_y(b_j) as the b_ref-coefficient of [y, [y, b_j]] over y_ref, on both
    paths, so exp(y, s) is built at a y that is not extremal."""
    real = liealg.is_extremal
    ref = min(y.coeffs)
    values = {}
    for j, b in enumerate(L.basis_elements()):
        lam = L.field.div(L.bracket(y, L.bracket(y, b)).coeffs.get(ref, 0), y.coeffs[ref])
        if lam:
            values[j] = lam

    def skips(M, v):
        if M is L and M.element(v) == y:
            return ExtremalFunctional(L, values)
        return real(M, v)

    monkeypatch.setattr(chevalley_module, "is_extremal", skips)
    monkeypatch.setattr(helpers, "is_extremal", skips)


@pytest.mark.parametrize("char", [0, 5])
def test_planted_wrong_half_reads_false_on_both_paths(monkeypatch, char):
    # the report reads False on both paths.  On B3's generators (the simple
    # root elements and x_-theta) the same-line and opposite pairs catch the
    # fault, in 4 checks; on the commuting and f0-noncommuting pairs the
    # faulty words differ only off the generators, which the argument
    # allows: it needs exp(x, s) to be a homomorphism, and the fault breaks
    # that.  The full-matrix reference catches it on every pair
    A = chevalley("B", 3, char)
    L = A.lie
    samples = parameter_samples(A.field)
    _wrong_half(monkeypatch)
    fast, ref = {}, {}
    for case, x, y in representative_pairs(A):
        fast[case] = verify_abstract_root_properties(L, x, y, sample_params=samples)
        ref[case] = all(matrix_root_properties(L, x, y, samples)["checks"])
    assert {case for case, rep in fast.items() if not rep["pass"]} == {"same-line", "opposite"}
    assert sum(not c["pass"] for rep in fast.values() for c in rep["checks"]) == 4
    assert not any(ref.values())


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("type_, rank", [("B", 3), ("G", 2)])
def test_planted_non_extremal_factor_reads_false_on_both_paths(monkeypatch, type_, rank, char):
    # y = x_a + x_b for two long roots is not extremal; with the planted
    # is_extremal, exp(y, s) is no homomorphism, and the one-parameter group
    # law (1) and the conjugation property (2) read False on both paths
    A = chevalley(type_, rank, char)
    L, rs = A.lie, A.rootsystem
    longs = [root for root in rs.roots if rs.is_long(root)]
    y = A.x(longs[0]) + A.x(longs[1])
    assert is_extremal(L, y) is None
    _non_extremal_factor(monkeypatch, L, y)
    samples = parameter_samples(A.field)
    x = A.x(rs.highest_root)
    fast = verify_abstract_root_properties(L, x, y, sample_params=samples)
    ref = matrix_root_properties(L, x, y, samples)
    assert [c["pass"] for c in fast["checks"]][:2] == ref["checks"][:2] == [False, False]
    assert not fast["pass"]


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("type_, rank", [("A", 2), ("B", 3), ("G", 2)])
def test_exp_is_a_homomorphism_at_non_root_extremal_elements(type_, rank, char):
    # the lemma of the rootgroups docstring, on the full map of each factor:
    # exp(x, s) preserves the bracket at x = exp(x_-theta, 1/2) x_alpha for
    # each long root alpha, an extremal element that is not a root element
    A = chevalley(type_, rank, char)
    L, rs = A.lie, A.rootsystem
    conj = exp_map(L, A.x(tuple(-c for c in rs.highest_root)))(Fraction(1, 2))
    tested = 0
    for root in rs.roots:
        if not rs.is_long(root):
            continue
        x = conj.apply(A.x(root))
        if len(x.coeffs) < 2:
            continue
        exp = exp_map(L, x)
        for s in (1, -2, Fraction(1, 2)):
            assert preserves_bracket(Map.of(L, exp(s)))
        tested += 1
    assert tested >= 2


def _long_root_pool(A):
    return [A.x(root) for root in A.rootsystem.roots if A.rootsystem.is_long(root)]


def _probe_outcome(A):
    rep = chain_nonexistence_probe(A)
    assert set(rep) == {"witness", "outcome", "pass"}
    assert rep["pass"] == (rep["outcome"] == "no witness")
    return rep["outcome"], rep["witness"] and [w.coeffs for w in rep["witness"]]


def _force_2prime(monkeypatch):
    """(2') patched true on both paths: every commuting pair qualifies."""
    monkeypatch.setattr(rootgroups, "_condition_2prime", lambda *args: True)
    monkeypatch.setattr(helpers, "bracket_condition_2prime", lambda *args: True)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("type_, rank", REFERENCE_TYPES)
def test_chain_probe_at_x_theta_matches_the_full_search(monkeypatch, type_, rank, char, forced):
    # the x_theta probe and the search over every pair of long root elements
    # agree on "witness" and "no witness"; with (2') forced true the witness
    # branch is taken in every type but A2 and G2, whose long roots form an
    # A2, where no x3 completes a chain
    A = chevalley(type_, rank, char)
    if forced:
        _force_2prime(monkeypatch)
    got = _probe_outcome(A)[0]
    assert got == reference_chain_search(A.lie, _long_root_pool(A))[0]
    assert got == ("witness" if forced and type_ not in "AG" else "no witness")


def test_chain_probe_matches_reference_loop():
    for t, n, char in [("A", 2, 5), ("B", 3, 0), ("D", 4, 0)]:
        A = chevalley(t, n, char)
        assert _probe_outcome(A) == reference_chain_search(A.lie, _long_root_pool(A)) == ("no witness", None)


def test_chain_probe_first_witness_matches_reference_loop(monkeypatch):
    # with (2') forced true, the probe's witness is the first witness of the
    # full search run on the long root elements with x_theta moved to the
    # front of the pool: x1 = x_theta, then the first x2 and the first x3
    # in root order (A2 has no x3 to complete a chain)
    _force_2prime(monkeypatch)
    for t, n, char in [("A", 2, 5), ("B", 3, 0), ("D", 4, 0)]:
        A = chevalley(t, n, char)
        theta = A.x(A.rootsystem.highest_root)
        pool = [theta] + [p for p in _long_root_pool(A) if p != theta]
        got = _probe_outcome(A)
        assert got[0] == ("no witness" if t == "A" else "witness")
        assert got == reference_chain_search(A.lie, pool)


def test_rootgroups_proves_each_element_extremal_once(monkeypatch):
    """Each element is proved extremal once: the map exp_map builds carries
    f_x, so classifying a pair and checking strongcomm reuse that proof."""
    real = liealg.is_extremal
    calls = []

    def counting(L, x):
        calls.append(x)
        return real(L, x)

    for mod in (liealg, chevalley_module, rootgroups, cli):
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, counting)
    argv = ["--json", "rootgroups", "--type", "B3", "--char", "0", "--seed", "5"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert 0 < len(calls) <= 132
