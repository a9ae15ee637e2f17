from fractions import Fraction

import pytest

from extremal_lie import freelie
from extremal_lie.freelie import (
    FreeLieElement,
    LyndonWord,
    as_tensor,
    bracket,
    generator,
    lyndon_basis,
    monomial,
)

from helpers import rng, tensor_bracket, witt


def test_lyndon_basis_small_cases():
    assert [w.letters for w in lyndon_basis(2, 1)] == [(1,), (2,)]
    assert [w.letters for w in lyndon_basis(2, 2)] == [(1, 2)]
    assert len(lyndon_basis(3, 3)) == 8  # Witt: (3^3 - 3)/3


def test_lyndon_words_are_lyndon_and_sorted():
    for r, d in [(2, 5), (3, 4), (5, 3)]:
        words = [w.letters for w in lyndon_basis(r, d)]
        assert words == sorted(words)
        for w in words:
            assert all(w < w[i:] for i in range(1, len(w)))


def test_witt_dimensions():
    for r in range(1, 6):
        for d in range(1, 9):
            assert len(freelie.lyndon_words(r, d)) == witt(r, d)


def test_bracket_antisymmetry_and_basis_cases():
    x1, x2 = generator(2, 1), generator(2, 2)
    assert bracket(x1, x1).is_zero()
    b = bracket(x1, x2)
    assert b.terms == {LyndonWord((1, 2)): Fraction(1)}
    assert (bracket(x2, x1) + b).is_zero()


def test_jacobi_on_random_elements():
    r = rng("freelie-jacobi")
    def rand_elt():
        out = FreeLieElement(3)
        for d in (1, 2, 3, 4):
            for w in lyndon_basis(3, d):
                if r.random() < 0.3:
                    out = out + FreeLieElement(3, {w: Fraction(r.randint(-3, 3))})
        return out
    for _ in range(5):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        jac = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert jac.is_zero()


def test_bracket_matches_tensor_algebra_oracle():
    # the tensor-algebra commutator is an independent computation path
    r = rng("freelie-tensor")
    words = [w for d in (1, 2, 3) for w in lyndon_basis(3, d)]
    for _ in range(25):
        u, v = r.choice(words), r.choice(words)
        eu = FreeLieElement(3, {u: Fraction(1)})
        ev = FreeLieElement(3, {v: Fraction(1)})
        assert as_tensor(bracket(eu, ev)) == tensor_bracket(as_tensor(eu), as_tensor(ev))


def test_bracket_multidegree_homogeneous():
    r = rng("freelie-mdeg")
    words = [w for d in (1, 2, 3) for w in lyndon_basis(3, d)]
    for _ in range(20):
        u, v = r.choice(words), r.choice(words)
        out = bracket(FreeLieElement(3, {u: Fraction(1)}), FreeLieElement(3, {v: Fraction(1)}))
        if out.is_zero():
            continue
        target = tuple(a + b for a, b in zip(u.multidegree(3), v.multidegree(3)))
        assert out.multidegree() == target


def test_monomials():
    m = monomial(2, (1, 2))
    assert m.terms == {LyndonWord((1, 2)): Fraction(1)}
    m = monomial(2, (1, 1, 2))  # [x,[x,y]], multidegree (2,1)
    assert not m.is_zero()
    assert m.multidegree() == (2, 1)
    assert all(len(w) == 3 for w in m.terms)
    m = monomial(4, (1, 2, 3, 4))
    assert m.multidegree() == (1, 1, 1, 1)


def test_monomial_against_tensor_oracle():
    # left-normed [x1,[x2,[x3,x1]]] expanded independently in the tensor algebra
    m = monomial(3, (1, 2, 3, 1))
    t1 = as_tensor(m)
    def t(i):
        return {(i,): Fraction(1)}
    expected = tensor_bracket(t(1), tensor_bracket(t(2), tensor_bracket(t(3), t(1))))
    assert t1 == expected


def test_word_printing():
    assert str(LyndonWord((1, 2, 3))) in ("[x1,[x2,x3]]", "[[x1,x2],x3]")
    assert str(LyndonWord((1,))) == "x1"


def test_lyndon_requires_positive_args():
    with pytest.raises(ValueError):
        freelie.lyndon_words(0, 1)
    with pytest.raises(ValueError):
        freelie.lyndon_words(2, 0)
