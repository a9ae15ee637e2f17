from fractions import Fraction

from extremal_lie.scalars import QQ, GF
from extremal_lie.linalg import (
    charpoly,
    echelon_from_rows,
    kernel,
    mat_inverse,
    mat_mul,
    rank,
    solve_in_span,
)

from helpers import rng


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_echelon_rank_and_canonical_form():
    rows = _q([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    e = echelon_from_rows(QQ, 3, rows)
    assert e.dim == 2
    assert e.basis() == _q([[1, 0, 1], [0, 1, 1]])


def test_echelon_insertion_order_irrelevant_for_canonical_basis():
    r = rng("echelon")
    rows = [[Fraction(r.randint(-5, 5)) for _ in range(5)] for _ in range(6)]
    e1 = echelon_from_rows(QQ, 5, rows)
    shuffled = list(rows)
    r.shuffle(shuffled)
    e2 = echelon_from_rows(QQ, 5, shuffled)
    assert e1.basis() == e2.basis()


def test_kernel_exact():
    rows = _q([[1, 2, 3], [4, 5, 6]])
    for v in kernel(QQ, rows, 3):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert rank(QQ, rows) + len(kernel(QQ, rows, 3)) == 3


def test_solve_in_span():
    rows = _q([[1, 0, 1], [0, 1, 1]])
    coeffs = solve_in_span(QQ, rows, 3, _q([[2, 3, 5]])[0])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solve_in_span(QQ, rows, 3, _q([[1, 0, 0]])[0]) is None


def test_matrix_inverse_over_gf():
    f = GF(7)
    m = [[f.from_int(v) for v in row] for row in [[1, 2], [3, 4]]]
    inv = mat_inverse(f, m)
    prod = mat_mul(f, m, inv)
    assert prod == [[f.one, f.zero], [f.zero, f.one]]


def test_charpoly_matches_direct_expansion():
    # det(tI - A) for a fixed 3x3 matrix, expanded by hand:
    # A = [[2,1,0],[0,2,0],[1,0,3]] -> (t-2)^2 (t-3)
    a = _q([[2, 1, 0], [0, 2, 0], [1, 0, 3]])
    cp = charpoly(QQ, a)
    # (t-2)^2 (t-3) = t^3 - 7t^2 + 16t - 12
    assert cp == _q([[-12, 16, -7, 1]])[0]


def test_charpoly_nilpotent_over_gf():
    f = GF(5)
    a = [[f.zero, f.one], [f.zero, f.zero]]
    assert charpoly(f, a) == [f.zero, f.zero, f.one]


def test_mat_mul_matches_dense_reference_on_rectangular_matrices():
    r = rng("mat_mul")
    for f in (QQ, GF(7)):
        for n, k, m in ((1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 5, 5)):
            a = [[f.from_int(r.choice((0, 0, r.randint(-3, 3)))) for _ in range(k)] for _ in range(n)]
            b = [[f.from_int(r.choice((0, 0, r.randint(-3, 3)))) for _ in range(m)] for _ in range(k)]
            dense = [[f.zero] * m for _ in range(n)]
            for i in range(n):
                for j in range(m):
                    for t in range(k):
                        dense[i][j] = f.add(dense[i][j], f.mul(a[i][t], b[t][j]))
            assert mat_mul(f, a, b) == dense
