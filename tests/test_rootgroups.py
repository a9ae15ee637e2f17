import contextlib
import io
from fractions import Fraction

import pytest

from extremal_lie.scalars import QQ, GF
from extremal_lie import chevalley as chevalley_module, cli, liealg, rootgroups
from extremal_lie.liealg import PreconditionNotMet, is_extremal
from extremal_lie.rootgroups import (
    chain_nonexistence_probe,
    parameter_samples,
    projective_line_check,
    strongcomm_check,
    verify_abstract_root_properties,
)

from helpers import RootGroupElement, chevalley, line_is_fully_extremal, sl2


def test_root_group_depends_only_on_the_line():
    L = sl2(GF(5))
    e = L.basis_element(0)
    f5 = GF(5)
    # exp(c y, t) = exp(y, c t)
    for c in range(1, 5):
        for t in range(5):
            lhs = RootGroupElement(L, f5.raw(c) * e, f5.raw(t)).matrix
            rhs = RootGroupElement(L, e, f5.raw(c * t)).matrix
            assert lhs == rhs


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
        A = chevalley(t, n, char)
        pool = [A.x(root) for root in A.rootsystem.roots if A.rootsystem.is_long(root)]
        rep = chain_nonexistence_probe(A.lie, pool)
        assert rep["pass"], rep["witness"]


def _reference_probe(L, pool):
    """Every triple of the pool in (x1, x2, x3) order, (2') on every commuting pair."""
    f = L.field
    funcs = [(p, fx) for p, fx in ((p, is_extremal(L, p)) for p in pool) if fx is not None]
    for i, (x1, f1) in enumerate(funcs):
        for j, (x2, f2) in enumerate(funcs):
            if i == j or not L.bracket(x1, x2).is_zero() or not rootgroups._condition_2prime(L, x1, x2, f1, f2):
                continue
            for x3, _ in funcs:
                if L.bracket(x2, x3).is_zero() and not f.is_zero(f1(x3)):
                    return "witness", [w.coeffs for w in (x1, x2, x3)]
    return "no witness", None


def _long_root_pools():
    for t, n, char in [("A", 2, 5), ("B", 3, 0), ("D", 4, 0)]:
        A = chevalley(t, n, char)
        yield t, A.lie, [A.x(root) for root in A.rootsystem.roots if A.rootsystem.is_long(root)]


def _probe_outcome(L, pool):
    rep = chain_nonexistence_probe(L, pool)
    assert set(rep) == {"witness", "outcome", "pass"}
    assert rep["pass"] == (rep["outcome"] == "no witness")
    return rep["outcome"], rep["witness"] and [w.coeffs for w in rep["witness"]]


def test_chain_probe_matches_reference_loop():
    for _, L, pool in _long_root_pools():
        assert _probe_outcome(L, pool) == _reference_probe(L, pool) == ("no witness", None)


def test_chain_probe_first_witness_matches_reference_loop(monkeypatch):
    # with (2') forced true every commuting pair qualifies: the witness branch
    # and the order in which witnesses are found (A2 has no x3 to complete one).
    # The doubled elements give each x1 two completing x3, which tests their order.
    monkeypatch.setattr(rootgroups, "_condition_2prime", lambda *args: True)
    for t, L, pool in _long_root_pools():
        pool = pool + [2 * p for p in pool]
        got = _probe_outcome(L, pool)
        assert got[0] == ("no witness" if t == "A" else "witness")
        assert got == _reference_probe(L, pool)


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
