from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from extremal_lie import linalg
from extremal_lie.scalars import QQ, GF
from extremal_lie.linalg import (
    Coordinates,
    Echelon,
    axpy,
    canonical,
    charpoly,
    echelon_from_rows,
    kernel,
    mat_inverse,
    mat_mul,
    rank,
    solve_in_span,
)

from helpers import DenseEchelon, dense_kernel, dense_mat_mul, echelon_basis, rng, sparse


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_echelon_rank_and_canonical_form():
    rows = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    e = echelon_from_rows(QQ, 3, rows)
    assert e.dim == 2
    assert echelon_basis(e) == _q([[1, 0, 1], [0, 1, 1]])


def test_echelon_insertion_order_irrelevant_for_canonical_basis():
    r = rng("echelon")
    rows = sparse([[Fraction(r.randint(-5, 5)) for _ in range(5)] for _ in range(6)])
    e1 = echelon_from_rows(QQ, 5, rows)
    shuffled = list(rows)
    r.shuffle(shuffled)
    e2 = echelon_from_rows(QQ, 5, shuffled)
    assert echelon_basis(e1) == echelon_basis(e2)


def test_kernel_exact():
    # e_0 -> (1, 4), e_1 -> (2, 5), e_2 -> (3, 6): e_0 - 2 e_1 + e_2 -> 0
    images = sparse([[1, 4], [2, 5], [3, 6]])
    assert kernel(QQ, images, 2) == [{0: 1, 1: -2, 2: 1}]
    assert rank(QQ, images, 2) + len(kernel(QQ, images, 2)) == len(images)
    for f in (QQ, GF(5)):
        assert kernel(f, [{}, {}, {}], 4) == [{0: 1}, {1: 1}, {2: 1}]  # the zero map
        assert kernel(f, sparse([[1, 0], [1, 1]]), 2) == []  # an injective map
        assert kernel(f, [], 3) == []


def test_solve_in_span():
    rows = sparse([[1, 0, 1], [0, 1, 1]])
    coeffs = solve_in_span(QQ, rows, 3, {0: 2, 1: 3, 2: 5})
    assert coeffs == {0: 2, 1: 3}
    assert solve_in_span(QQ, rows, 3, {0: 1}) is None


def test_matrix_inverse_over_gf():
    f = GF(7)
    m = sparse([[f.raw(v) for v in row] for row in [[1, 2], [3, 4]]])
    inv = mat_inverse(f, m)
    prod = mat_mul(f, m, inv)
    assert prod == [{0: f.one}, {1: f.one}]


def test_matrix_inverse_rejects_a_matrix_that_is_not_square():
    # an entry in column n or beyond would land on the identity block of
    # the augmented rows: [1 5] came back with the "inverse" [1]
    for rows in ([{0: 1, 1: 5}], [{0: 1, 3: 1}, {1: 1}], [{0: 1}, {-1: 1}]):
        with pytest.raises(ValueError, match="not square"):
            mat_inverse(QQ, rows)


def test_charpoly_matches_direct_expansion():
    # det(tI - A) for a fixed 3x3 matrix, expanded by hand:
    # A = [[2,1,0],[0,2,0],[1,0,3]] -> (t-2)^2 (t-3)
    a = sparse([[2, 1, 0], [0, 2, 0], [1, 0, 3]])
    cp = charpoly(QQ, a)
    # (t-2)^2 (t-3) = t^3 - 7t^2 + 16t - 12
    assert cp == _q([[-12, 16, -7, 1]])[0]


def test_charpoly_nilpotent_over_gf():
    f = GF(5)
    a = [{1: f.one}, {}]
    assert charpoly(f, a) == [f.zero, f.zero, f.one]


def test_mat_mul_matches_dense_reference_on_rectangular_matrices():
    r = rng("mat_mul")
    for f in (QQ, GF(7)):
        for n, k, m in ((1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 5, 5)):
            a = [[f.raw(r.choice((0, 0, r.randint(-3, 3)))) for _ in range(k)] for _ in range(n)]
            b = [[f.raw(r.choice((0, 0, r.randint(-3, 3)))) for _ in range(m)] for _ in range(k)]
            dense = [[f.zero] * m for _ in range(n)]
            for i in range(n):
                for j in range(m):
                    for t in range(k):
                        dense[i][j] = f.add(dense[i][j], f.mul(a[i][t], b[t][j]))
            assert mat_mul(f, sparse(a), sparse(b)) == sparse(dense)
            assert dense_mat_mul(f, a, b) == dense


# -- the sparse kernel against the dense Fraction reference --------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
FIELDS = (QQ, GF(3), GF(5), GF(101))


def _entries(field):
    """Raw values, about half of them zero.  Over Q: ints and Fractions,
    negative, fractional and integral ones (Fraction(2) as well as 2)."""
    if field.characteristic:
        nonzero = st.integers(1, field.characteristic - 1)
    else:
        nonzero = st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=6))
    return st.one_of(st.just(0), nonzero)


@st.composite
def matrices(draw, square=False):
    """(field, width, rows): rows as dense lists."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 7))
    count = width if square else draw(st.integers(0, 9))
    rows = [draw(st.lists(_entries(field), min_size=width, max_size=width)) for _ in range(count)]
    return field, width, rows


def _reference():
    """Run the linalg functions on the reference echelon."""
    return mock.patch.object(linalg, "Echelon", DenseEchelon)


@PROPERTY
@given(matrices(), st.data())
def test_echelon_matches_dense_reference(mat, data):
    field, width, rows = mat
    fast, slow = Echelon(field, width), DenseEchelon(field, width)
    for vec in sparse(rows):
        assert fast.insert(vec) == slow.insert(vec)
        assert fast.dim == slow.dim
    assert fast.pivot_columns() == slow.pivot_columns()
    assert echelon_basis(fast) == echelon_basis(slow)
    for c in fast.pivot_columns():
        assert fast.row(c) == slow.row(c)
    copy = fast.copy()
    probes = data.draw(st.lists(st.lists(_entries(field), min_size=width, max_size=width), max_size=4))
    for vec in sparse(probes + rows):
        assert fast.reduce(vec) == slow.reduce(vec)
        assert fast.contains(vec) == slow.contains(vec)
        copy.insert(vec)
    assert echelon_basis(fast) == echelon_basis(slow)  # a copy's inserts leave the original alone


@PROPERTY
@given(matrices())
def test_rank_and_kernel_match_dense_reference(mat):
    field, width, rows = mat
    vecs = sparse(rows)
    got = (rank(field, vecs, width), kernel(field, vecs, width))
    with _reference():
        want = (rank(field, vecs, width), kernel(field, vecs, width))
    assert got == want
    assert got[1] == dense_kernel(field, vecs, width)
    assert got[0] + len(got[1]) == len(vecs)


@PROPERTY
@given(matrices(), st.data())
def test_coordinates_match_dense_reference(mat, data):
    field, width, rows = mat
    coeffs = data.draw(st.lists(_entries(field), min_size=len(rows), max_size=len(rows)))
    combo = [field.zero] * width
    for c, row in zip(coeffs, rows):
        combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, row)]
    other = data.draw(st.lists(_entries(field), min_size=width, max_size=width))
    vecs = sparse(rows)
    got = Coordinates(field, vecs, width)
    with _reference():
        want = Coordinates(field, vecs, width)
    assert got.spans() == want.spans()
    for target in sparse([combo, other]):
        assert got.solve(target) == want.solve(target)


@st.composite
def raw_sums(draw):
    """(field, terms): a list of (c, v) with v a dict of raw values.  Entries
    and coefficients are negative or unreduced mod p; over Q they include
    Fractions and integral Fractions; a term may be followed by its negative,
    so that keys cancel."""
    field = draw(st.sampled_from((QQ, GF(3), GF(101))))
    p = field.characteristic
    if p:
        value = st.integers(-3 * p, 3 * p)
    else:
        value = st.one_of(
            st.integers(-6, 6),
            st.fractions(-5, 5, max_denominator=4),
            st.integers(-6, 6).map(Fraction),
        )
    vector = st.dictionaries(st.integers(0, 5), value, max_size=5)
    terms = draw(st.lists(st.tuples(value, vector), max_size=5))
    if terms and draw(st.booleans()):
        c, v = draw(st.sampled_from(terms))
        terms.append((-c, v))
    return field, terms


@PROPERTY
@given(raw_sums())
def test_axpy_and_canonical_match_field_reference(case):
    field, terms = case
    want = {}
    for c, v in terms:
        for j, x in v.items():
            want[j] = field.add(want.get(j, field.zero), field.mul(c, x))
    want = {j: x for j, x in want.items() if not field.is_zero(x)}
    acc = {}
    for c, v in terms:
        axpy(acc, c, v)
    got = canonical(field, acc)
    assert got == want
    p = field.characteristic
    assert all(x != 0 and (0 < x < p if p else type(x) is int or x.denominator > 1) for x in got.values())
    assert canonical(field, got) == got


@PROPERTY
@given(matrices(square=True))
def test_mat_inverse_matches_dense_reference(mat):
    field, _, rows = mat

    def inverse():
        try:
            return mat_inverse(field, sparse(rows))
        except ValueError:
            return "singular"

    got = inverse()
    with _reference():
        want = inverse()
    assert got == want
