"""``is_extremal`` against its bracket reference.

``liealg.is_extremal`` squares ad_x from the columns [x, b_j] it builds once;
``helpers.bracket_is_extremal`` makes two full brackets per basis vector.
Both must give the same ``values`` dict, value and type, or both None, on
root elements and their multiples, conjugates, sums of two and dense
elements of Chevalley algebras over Q, GF(3) and GF(7), on a known
non-extremal element, and on sl2, L_4 and the three-generator algebra M.
"""

from fractions import Fraction

import pytest

from extremal_lie.chevalley import exp_map
from extremal_lie.liealg import center, is_extremal
from extremal_lie.scalars import QQ
from extremal_lie.smallgen import TriangleParams, build_M

from helpers import bracket_is_extremal, chevalley, rng, sandwich, sl2

CHARS = (0, 3, 7)
TYPES = [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]


def same_verdict(L, x):
    """Whether x is extremal, after checking that both paths agree."""
    fast, slow = is_extremal(L, x), bracket_is_extremal(L, x)
    if slow is None:
        assert fast is None
        return False
    assert fast is not None
    assert [(j, type(v), v) for j, v in fast.values.items()] == [(j, type(v), v) for j, v in slow.values.items()]
    return True


def random_element(L, r):
    """A dense element with coefficients n or n/2, |n| <= 5 (2 is
    invertible in every characteristic used)."""
    return L.element({j: Fraction(r.randint(-5, 5), r.randint(1, 2)) for j in range(L.n)})


def pair_sums(L, elems, r, count):
    """Up to ``count`` sums a + b of distinct elements with [a, b] = 0 and
    as many with [a, b] != 0, drawn with ``r``."""
    pairs = [(a, b) for i, a in enumerate(elems) for b in elems[i + 1:]]
    r.shuffle(pairs)
    commuting = [a + b for a, b in pairs if L.bracket(a, b).is_zero()][:count]
    noncommuting = [a + b for a, b in pairs if not L.bracket(a, b).is_zero()][:count]
    return commuting, noncommuting


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("type_, rank", TYPES)
def test_is_extremal_matches_bracket_reference_on_chevalley_algebras(type_, rank, char):
    A = chevalley(type_, rank, char)
    L, rs = A.lie, A.rootsystem
    r = rng("is-extremal:%s%d/%d" % (type_, rank, char))
    roots = [A.x(t) for t in rs.roots]
    conjugate = exp_map(L, A.x(rs.highest_root))(Fraction(-1, 2))
    cases = []
    for x in roots:
        cases += [x, 2 * x, Fraction(1, 2) * x, conjugate.apply(x)]
    commuting, noncommuting = pair_sums(L, roots, r, 20)
    assert commuting and noncommuting
    cases += commuting + noncommuting
    cases += [random_element(L, r) for _ in range(5)]
    verdicts = [same_verdict(L, x) for x in cases]
    assert True in verdicts and False in verdicts


def test_theta_plus_center_of_a2_in_char_3_is_not_extremal_on_either_path():
    """In A2 over GF(3) the center is a line, but x_theta + z is not
    extremal: [x', [x', y]] lies in k x_theta, not in k x'."""
    A = chevalley("A", 2, 3)
    (z,) = center(A.lie).basis()
    x = A.x(A.rootsystem.highest_root) + z
    assert same_verdict(A.lie, x) is False
    assert same_verdict(A.lie, A.x(A.rootsystem.highest_root)) is True


@pytest.mark.parametrize("name", ["sl2", "L4", "M"])
def test_is_extremal_matches_bracket_reference_on_small_algebras(name):
    L = {
        "sl2": lambda: sl2(QQ),
        "L4": lambda: sandwich(4).as_lie_algebra(),
        "M": lambda: build_M(TriangleParams(QQ, -2, -2, 0, 0))[0],
    }[name]()
    r = rng("is-extremal:" + name)
    basis = L.basis_elements()
    commuting, noncommuting = pair_sums(L, basis, r, 40)
    cases = basis + [Fraction(1, 2) * b for b in basis] + commuting + noncommuting
    cases += [random_element(L, r) for _ in range(5)]
    verdicts = [same_verdict(L, x) for x in cases]
    assert True in verdicts and False in verdicts
