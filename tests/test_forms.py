"""The sparse form kernels against their dense references.

``BilinearForm.is_associative``, ``killing_form`` and ``center`` are held to
the per-coefficient ``Field`` loops in ``helpers`` on small algebras over Q,
GF(3) and GF(101): on true forms, on Gram matrices with one entry changed
(symmetric or not, or off the generators of the algebra), and on rescaled
tables.  The Gram of ``extremal_form`` is held to the dense matrix product
on shuffled, rescaled extremal bases.  The center is also checked against
the Cartan matrix, the kernels against calling ``Field`` at all, and the
form radical against a non-symmetric Gram, where it is the left radical.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from extremal_lie import rootdata
from extremal_lie.chevalley import extremal_spanning_set
from extremal_lie.liealg import (
    BilinearForm,
    ExtremalFunctional,
    Subspace,
    center,
    extremal_closure,
    extremal_form,
    is_extremal,
    killing_form,
)
from extremal_lie.linalg import canonical
from extremal_lie.scalars import QQ, Field, GF

from helpers import (
    DenseEchelon,
    abelian,
    bracket_table,
    chevalley,
    dense,
    dense_center,
    dense_extremal_gram,
    dense_is_associative,
    dense_killing_gram,
    direct_sum,
    field_of,
    heisenberg,
    nonzero,
    rescaled,
    sl2,
    sparse,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=120)
CHARS = (0, 3, 101)
CHEVALLEY = {"A2": ("A", 2), "B3": ("B", 3), "G2": ("G", 2)}
ALGEBRAS = ("A2", "B3", "G2", "sl2", "heisenberg", "sl2+heisenberg")
# sl2 on (e, h, f) has all three basis elements among its generators
OUTSIDE_ALGEBRAS = tuple(a for a in ALGEBRAS if a != "sl2")


@lru_cache(maxsize=None)
def algebra(name, char):
    f = field_of(char)
    if name in CHEVALLEY:
        return chevalley(*CHEVALLEY[name], char).lie
    if name == "sl2":
        return sl2(f)
    if name == "heisenberg":
        return heisenberg(f)
    return direct_sum(sl2(f), heisenberg(f))


@lru_cache(maxsize=None)
def true_gram(name, char, kind):
    """The Killing form, or for a Chevalley algebra also its extremal form."""
    L = algebra(name, char)
    if kind == "extremal" and name in CHEVALLEY:
        A = chevalley(*CHEVALLEY[name], char)
        return tuple(map(tuple, dense(extremal_form(L, extremal_spanning_set(A)).rows, L.n)))
    return tuple(map(tuple, dense_killing_gram(L)))


@st.composite
def form_cases(draw):
    """(form, expected): a Gram matrix on an algebra, and whether it is
    associative when that is known without the reference (else None).  The
    Gram is the true form; or it has one entry changed, together with its
    mirror or alone (then it is not symmetric), in the "outside" variant an
    entry (a, b) with neither a nor b among the generators of the algebra,
    which the check does not take as the middle argument; or it is the true
    form paired with the table that has one basis vector b_r rescaled by
    s != 1."""
    char = draw(st.sampled_from(CHARS))
    variant = draw(st.sampled_from(("true", "perturbed", "nonsymmetric", "outside", "rescaled")))
    name = draw(st.sampled_from(ALGEBRAS if variant != "outside" else OUTSIDE_ALGEBRAS))
    kind = draw(st.sampled_from(("killing", "extremal")))
    L = algebra(name, char)
    f = L.field
    gram = [list(row) for row in true_gram(name, char, kind)]
    n = L.n
    expected = True if variant == "true" else None
    if variant in ("perturbed", "nonsymmetric", "outside"):
        pool = [i for i in range(n) if variant != "outside" or i not in L.generators]
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool).filter(lambda b: variant != "nonsymmetric" or b != a))
        delta = f.raw(draw(nonzero(char)))
        gram[a][b] = f.add(gram[a][b], delta)
        if variant != "nonsymmetric" and a != b:
            gram[b][a] = f.add(gram[b][a], delta)
    if variant == "rescaled":
        r = draw(st.integers(0, n - 1))
        s = f.raw(draw(nonzero(char).filter(lambda s: f.raw(s) != 1)))
        # A nondegenerate associative form of these algebras is fixed up to
        # a scalar on each simple summand.  On the new basis it is the old
        # Gram with row and column r times s, and entry (r, r) times s^2, so
        # the old Gram is not associative for the new table unless row r
        # is zero off the diagonal and s^2 = 1.
        if not BilinearForm(L, sparse(gram)).radical().dim:
            off_diagonal = any(gram[r][j] for j in range(n) if j != r)
            expected = False if off_diagonal or f.mul(s, s) != 1 else None
        L = rescaled(L, [s if i == r else f.one for i in range(n)])
    return BilinearForm(L, sparse(gram)), expected


@PROPERTY
@given(form_cases())
# f(x, z) = 1 on the Heisenberg algebra: not associative, but it passes the
# check that reads the Gram by column on the right, f([x,y],z) == f([y,z],x)
@example((BilinearForm(heisenberg(GF(3)), [{2: 1}, {}, {}]), False))
# f(z, x) = 1 on the Heisenberg algebra: its transpose, not associative either
@example((BilinearForm(heisenberg(GF(3)), [{}, {}, {0: 1}]), False))
# f(x, y) = 1 on the Heisenberg algebra: associative and not symmetric
@example((BilinearForm(heisenberg(QQ), [{1: 1}, {}, {}]), True))
# f(z, y) = 1 = -f(y, z): ad_x is skew for it and ad_y is not, so a check
# that skipped the last generator y would pass it
@example((BilinearForm(heisenberg(QQ), [{}, {2: -1}, {1: 1}]), False))
def test_is_associative_matches_dense_reference(case):
    form, expected = case
    fast = form.is_associative()
    assert fast == dense_is_associative(form)
    if expected is not None:
        assert fast == expected


@lru_cache(maxsize=None)
def spanning_set(name, char):
    return extremal_spanning_set(chevalley(*CHEVALLEY[name], char))


@st.composite
def extremal_basis_cases(draw):
    """(L, basis): the extremal basis of a Chevalley algebra as its closure
    gives it; or shuffled, each element times a nonzero scalar, and proved
    extremal again by ``extremal_closure`` with nothing to expand."""
    char = draw(st.sampled_from(CHARS))
    name = draw(st.sampled_from(sorted(CHEVALLEY)))
    base = spanning_set(name, char)
    L = base.algebra
    if draw(st.booleans()):
        return L, base
    order = draw(st.permutations(range(len(base))))
    return L, extremal_closure(L, [draw(nonzero(char)) * base[i] for i in order], lambda v: ())


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(extremal_basis_cases())
def test_extremal_form_gram_matches_dense_reference(case):
    L, basis = case
    assert dense(extremal_form(L, basis).rows, L.n) == dense_extremal_gram(L, basis)


@pytest.mark.parametrize("char", CHARS[::2])
@pytest.mark.parametrize("type_, rank", [("A", 2), ("G", 2), ("E", 6)])
def test_extremal_form_calls_no_functional(type_, rank, char, monkeypatch):
    """The Gram is S^-1 F, read off the functionals' values: no f_x is
    evaluated on an element (m^2 of them made the m x m table f_a(s_b))."""
    A = chevalley(type_, rank, char)
    basis = extremal_spanning_set(A)
    calls = []
    original = ExtremalFunctional.__call__
    monkeypatch.setattr(ExtremalFunctional, "__call__", lambda fx, y: calls.append(1) or original(fx, y))
    form = extremal_form(A.lie, basis)
    assert calls == []
    assert form.is_symmetric() and form.radical().dim == 0


def is_canonical_raw(f, v):
    """An int in [0, p) over GF(p); over Q an int when integral, else a
    Fraction."""
    p = f.characteristic
    if p:
        return type(v) is int and 0 <= v < p
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("name", sorted(CHEVALLEY))
def test_functional_and_form_values_are_canonical_raw_values(name, char):
    """f_x(y) comes back as a raw value on elements scaled by 1/2, and the
    Gram rows of the extremal form and of kappa are canonical vectors (see
    ``linalg``)."""
    span = spanning_set(name, char)
    L = span.algebra
    f = L.field
    halves = [Fraction(1, 2) * b for b in L.basis_elements()]
    values = [fx(u) for fx in span.functionals for u in halves]
    assert all(is_canonical_raw(f, v) for v in values)
    assert any(not f.is_zero(v) for v in values)
    for form in (extremal_form(L, span), killing_form(L)):
        for row in form.rows:
            assert row == canonical(f, row) and all(type(c) in (int, Fraction) for c in row.values())


@pytest.mark.parametrize("type_, rank", [("A", 2), ("G", 2), ("E", 6)])
def test_rational_functional_values_and_gram_entries_hold_no_integral_fraction(type_, rank):
    """Over Q the raw values that arithmetic makes are ints where integral:
    the functional values of scaled long root elements (each f_x(b_j) a
    quotient by the coefficient of x) and the entries of the extremal
    form's Gram rows (products of S^-1 with the functionals)."""
    A = chevalley(type_, rank)
    rs = A.rootsystem
    values = [
        v
        for t in rs.roots
        if rs.is_long(t)
        for s in (2, Fraction(1, 2), Fraction(-3, 2))
        for v in is_extremal(A.lie, s * A.x(t)).values.values()
    ]
    gram = [v for row in extremal_form(A.lie, extremal_spanning_set(A)).rows for v in row.values()]
    assert values and gram
    assert all(is_canonical_raw(QQ, v) for v in values + gram)


@st.composite
def rescaled_algebras(draw):
    """An algebra of the list, on a randomly rescaled basis (over Q the
    structure constants become fractions)."""
    char = draw(st.sampled_from(CHARS))
    L = algebra(draw(st.sampled_from(ALGEBRAS)), char)
    if draw(st.booleans()):
        L = rescaled(L, [L.field.raw(draw(nonzero(char))) for _ in range(L.n)])
    return L


@PROPERTY
@given(rescaled_algebras())
def test_killing_form_and_center_match_dense_reference(L):
    kappa = killing_form(L)
    assert dense(kappa.rows, L.n) == dense_killing_gram(L)
    if all(type(c) is int for row in bracket_table(L).values() for c in row.values()):
        # integral constants give int entries over Q, residues over GF(p)
        assert all(type(c) is int for row in kappa.rows for c in row.values())
    assert center(L) == dense_center(L)


def test_radical_is_the_left_radical():
    # f(b_0, b_1) = 1 and every other value 0: f(b_1, .) = 0 but f(b_0, .)
    # is not, while f(., b_0) = 0 but f(., b_1) is not
    for field in (QQ, GF(3)):
        L = abelian(field, 2)
        b0, b1 = (Subspace.from_elements(L, [L.basis_element(i)]) for i in range(2))
        assert BilinearForm(L, [{1: 1}, {}]).radical() == b1
        assert BilinearForm(L, [{}, {0: 1}]).radical() == b0


# -- the center against the Cartan matrix ---------------------------------------

# Dynkin diagrams, Bourbaki numbering from 0: (i, j, m) joins nodes i and j,
# with A[i][j] = -m and A[j][i] = -1
DIAGRAMS = {
    "A": lambda n: [(i, i + 1, 1) for i in range(n - 1)],
    "B": lambda n: [(i, i + 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 2)],
    "C": lambda n: [(i, i + 1, 1) for i in range(n - 2)] + [(n - 1, n - 2, 2)],
    "D": lambda n: [(i, i + 1, 1) for i in range(n - 2)] + [(n - 3, n - 1, 1)],
    "E": lambda n: [(0, 2, 1), (1, 3, 1)] + [(i, i + 1, 1) for i in range(2, n - 1)],
    "F": lambda n: [(0, 1, 1), (1, 2, 2), (2, 3, 1)],
    "G": lambda n: [(0, 1, 3)],
}


def cartan_nullity(type_, rank, p):
    """Dimension of the kernel of the Cartan matrix mod p, by dense
    elimination on the diagram's matrix."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, m in DIAGRAMS[type_](rank):
        a[i][j], a[j][i] = -m, -1
    ech = DenseEchelon(GF(p), rank)
    for row in a:
        ech.insert([x % p for x in row])
    return rank - ech.dim


@pytest.mark.parametrize(
    "type_,rank,p,dim",
    [
        ("A", 2, 3, 1), ("A", 5, 3, 1), ("A", 4, 5, 1), ("E", 6, 3, 1),
        ("B", 3, 7, 0), ("G", 2, 3, 0), ("D", 4, 3, 0), ("C", 4, 5, 0), ("F", 4, 3, 0), ("E", 7, 3, 0),
    ],
)
def test_center_dimension_is_cartan_nullity_mod_p(type_, rank, p, dim):
    """The center of a Chevalley algebra over GF(p) is the part of the
    Cartan subalgebra killed by every simple root: sum c_i h_i with
    sum c_i A[i][j] = 0 mod p for all j."""
    assert cartan_nullity(type_, rank, p) == dim
    assert center(chevalley(type_, rank, p).lie).dim == dim


@pytest.mark.parametrize("p", [0, 3, 5, 7, 11, 13])
def test_rootdata_cartan_nullity_matches_reference(p):
    """``rootdata.cartan_nullity``, the expected dim Z(L) of ``radicals``,
    against the test's own Cartan matrices, on every type of rank <= 8."""
    types = [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] + [("C", n) for n in range(2, 9)]
    types += [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for type_, rank in types:
        want = cartan_nullity(type_, rank, p) if p else 0
        assert rootdata.cartan_nullity(type_, rank, p) == want, (type_, rank, p)


# -- no per-coefficient Field calls ---------------------------------------------------


def test_form_kernels_call_no_field_arithmetic(monkeypatch):
    L = chevalley("E", 6, 5).lie
    calls = []
    for name in ("add", "mul", "sub", "is_zero"):
        def counted(self, *args, _orig=getattr(Field, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(Field, name, counted)
    kappa = killing_form(L)
    assert kappa.is_associative()
    assert center(L).dim == 0
    assert calls == []
    L.field.is_zero(0)  # the counters are live
    assert calls == ["is_zero"]
