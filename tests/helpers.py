"""Shared oracles and a process-wide algebra cache for the tests.

The Witt formulas and the tensor-algebra expansion are independent of the
code paths they check: expected dimensions and bracket values in the test
files are frozen from these, not from the implementation.

``Map`` is the one full linear map: a canonical column per basis vector,
built from anything with ``apply`` (``Map.of``) or as ``Map.ad``, with
``apply``, ``compose`` and equality.  The fast paths act on one vector at a
time, and the tests hold them to maps: ``exp_reference`` is exp(x, s) =
1 + s ad_x + s^2/2 ad_x^2 for ``chevalley.exp_map``, ``root_exp_reference``
the divided powers of ``Map.ad`` over Q for ``root_exp_apply``.  On maps sit
the bracket and form oracles (``preserves_bracket``, ``preserves_form``),
the root-group identities on full products (``matrix_root_properties``,
``matrix_product_identity``), the closure over full root exponentials
(``reference_extremal_spanning_set``), and the ad_x ad_y eigenvalue and
fourth-power lemmas (``dense_phi_spectrum_check``,
``dense_fourth_power_check``, whose premises ``fourth_power_check`` shares).

The other references are the package's code as it ran before it became
fast, on one dense layer that calls no ``linalg`` routine it stands in for:
one dense product (``dense_mat_mul``), one dense row reduction
(``DenseEchelon``, with ``dense_kernel`` on it: free columns, the old
algorithm of ``linalg.kernel``), and one closure of flattened matrices on a
``DenseEchelon`` (``dense_closure``), which is both the commutator closure
of ``dense_matrix_lie_algebra`` and Burnside's associative closure in
``dense_natural_representation``; ``dense_matrix`` builds the matrices they
start from.  On that layer and on ``Map`` sit the dense form kernels
(``dense_is_associative``, ``dense_killing_gram`` on the ``Map.ad``
columns, ``dense_center``), the eigenline search (``eigenspaces``) of
``eigenline_modules_irreducible``, ``dense_jacobi`` over every basis
triple, ``dense_ideal_generated``, ``dense_extremal_gram``,
``bracket_is_extremal`` with two brackets per basis vector,
``fraction_inner``, the exp step and scaling of the three-generator
normalization (``round_trip_exp_step``, ``four_sign_scaling`` with its
``square_root`` by search), the chain probe over every pair
(``reference_chain_search``), and the general search for Rad(L) on
quotient algebras (``candidate_seeded_radical``).  The last section holds
what only the tests reach: the free mode of the cover engine, the direct
route to R_r, the right-nested ``monomial`` of L_r, the ideal of sandwich
witnesses (``sandwich_ideal``), sl2, and the checks of the paper's lemmas
that no command reports.
"""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd, isqrt

from hypothesis import strategies as st

from extremal_lie.scalars import QQ, GF
from extremal_lie.rootdata import NonIntegral, _symmetrizer
from extremal_lie.chevalley import (
    ChevalleyAlgebra,
    UnsupportedType,
    exp_map,
    extremal_spanning_set,
    root_exponential,
)
from extremal_lie.liealg import (
    AlgebraElement,
    ExtremalFunctional,
    LieAlgebra,
    NotExtremal,
    NotNilpotent,
    NotSpanning,
    PreconditionNotMet,
    Subspace,
    ZeroElement,
    extremal_closure,
    extremal_form,
    is_extremal,
    killing_form,
)
from extremal_lie.linalg import (
    Coordinates,
    Echelon,
    axpy,
    canonical,
    charpoly,
    closure,
    combine,
    echelon_from_rows,
    kernel,
    poly_mul,
)
from extremal_lie.rootgroups import classify_pair
from extremal_lie.smallgen import _X, _XY, _Y, TriangleParams, exp_transform_params
from extremal_lie import liealg, nilquot, rootdata


def mobius(n):
    if n == 1:
        return 1
    res, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


def witt(r, d):
    """Dimension of the degree-d component of the free Lie algebra on r letters."""
    total = sum(mobius(e) * r ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def witt_multidegree(md):
    """Dimension of the multidegree component (necklace formula)."""
    md = [m for m in md if m]
    n = sum(md)
    g = 0
    for m in md:
        g = gcd(g, m)
    total = 0
    for e in range(1, g + 1):
        if g % e == 0:
            prod = factorial(n // e)
            for m in md:
                prod //= factorial(m // e)
            total += mobius(e) * prod
    assert total % n == 0
    return total // n


def field_of(char):
    return QQ if char == 0 else GF(char)


_chevalley_cache = {}


def chevalley(type_, rank, char=0):
    key = (type_, rank, char)
    if key not in _chevalley_cache:
        _chevalley_cache[key] = ChevalleyAlgebra(type_, rank, field_of(char))
    return _chevalley_cache[key]


_sandwich_cache = {}


def sandwich(r):
    if r not in _sandwich_cache:
        _sandwich_cache[r] = nilquot.sandwich_algebra(r)
    return _sandwich_cache[r]


def bracket_table(L):
    """The nonzero brackets [b_i, b_j], i < j, of L as the table that
    ``LieAlgebra`` takes: {(i, j): row}."""
    return {(i, j): row for i in range(L.n) for j in range(i + 1, L.n) if (row := L.bracket_basis(i, j))}


def rescaled(L, scales):
    """L on the basis scales[i] * b_i: c_ij^k becomes scales[i] scales[j] /
    scales[k] c_ij^k.  A valid table again, isomorphic to L."""
    f = L.field
    table = {
        (i, j): {k: f.div(f.mul(f.mul(scales[i], scales[j]), c), scales[k]) for k, c in row.items()}
        for (i, j), row in bracket_table(L).items()
    }
    return LieAlgebra(f, L.labels, table)


def nonzero(char):
    """Hypothesis strategy: a nonzero scalar of characteristic ``char``, as
    an int in [1, char) or a small int or fraction over Q."""
    if char:
        return st.integers(1, char - 1)
    return st.one_of(st.integers(-5, 5).filter(bool), st.fractions(-4, 4, max_denominator=5).filter(bool))


def rng(name):
    return random.Random("extremal-lie:" + name)


def random_fraction(r, span=4):
    return Fraction(r.randint(-span, span), r.randint(1, span))


def sparse(rows):
    """Dense rows as sparse rows, zeros dropped (entries already reduced)."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(rows, width):
    """Sparse rows as dense lists of length ``width``."""
    out = []
    for row in rows:
        v = [0] * width
        for j, x in row.items():
            v[j] = x
        out.append(v)
    return out


def echelon_basis(e):
    """The canonical basis rows of an ``Echelon`` or a ``DenseEchelon`` as
    dense lists, ordered by pivot column."""
    return dense([e.row(c) for c in e.pivot_columns()], e.width)


class DenseEchelon:
    """Reference row reduction: the dense reduced echelon form with
    ``Fraction`` entries over Q (field arithmetic over GF(p)), as the package
    computed it before its rows became sparse and fraction-free.  It has the
    interface of ``linalg.Echelon`` (vectors as dense lists or dicts), so it
    can stand in for it."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = {}  # pivot column -> dense row, pivot entry 1

    @property
    def dim(self):
        return len(self.rows)

    def _dense(self, vec):
        v = [self.field.zero] * self.width
        for j, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
            v[j] = x
        return [Fraction(x) for x in v] if self.field.characteristic == 0 else v

    def _reduce(self, vec):
        f = self.field
        v = self._dense(vec)
        for c in sorted(self.rows):
            if not f.is_zero(v[c]):
                coef = v[c]
                row = self.rows[c]
                for j in range(c, self.width):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(coef, row[j]))
        return v

    def insert(self, vec):
        f = self.field
        v = self._reduce(vec)
        piv = next((c for c in range(self.width) if not f.is_zero(v[c])), None)
        if piv is None:
            return None
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for c, row in self.rows.items():
            coef = row[piv]
            if not f.is_zero(coef):
                self.rows[c] = [f.sub(x, f.mul(coef, y)) if y else x for x, y in zip(row, v)]
        self.rows[piv] = v
        return piv

    def contains(self, vec):
        return all(self.field.is_zero(x) for x in self._reduce(vec))

    def reduce(self, vec):
        return {j: x for j, x in enumerate(self._reduce(vec)) if not self.field.is_zero(x)}

    def row(self, c):
        return {j: x for j, x in enumerate(self.rows[c]) if not self.field.is_zero(x)}

    def pivot_columns(self):
        return sorted(self.rows)


def dense_kernel(f, images, width):
    """Reference for ``linalg.kernel``, as the package computed it before it
    read kernels off the augmented echelon: the null space of the dense
    matrix whose column i is ``images[i]``, one vector per free column of its
    reduced rows, made canonical on a second ``DenseEchelon``."""
    n = len(images)
    ech = DenseEchelon(f, n)
    for k in range(width):
        ech.insert([im.get(k, f.zero) for im in images])
    basis = DenseEchelon(f, n)
    for c in range(n):
        if c not in ech.rows:
            v = [f.zero] * n
            v[c] = f.one
            for pc, row in ech.rows.items():
                v[pc] = f.neg(row[c])
            basis.insert(v)
    return [basis.row(c) for c in basis.pivot_columns()]


class _UncheckedLieAlgebra(LieAlgebra):
    def _validate_jacobi(self):
        pass


def unchecked_lie_algebra(field, labels, table):
    """A ``LieAlgebra`` on ``table`` built without the Jacobi check, so that
    ``LieAlgebra._validate_jacobi`` and ``dense_jacobi`` can judge it."""
    return _UncheckedLieAlgebra(field, labels, table)


def dense_jacobi(L):
    """Reference for ``LieAlgebra._validate_jacobi``: the first basis triple
    i < j < k (in lexicographic order) on which [[b_i,b_j],b_k] +
    [[b_j,b_k],b_i] + [[b_k,b_i],b_j] is nonzero, or None.  It walks every
    triple, skipping only those whose three brackets are all zero."""
    p = L.field.characteristic
    br = L.bracket_basis
    n = L.n
    for i in range(n):
        for j in range(i + 1, n):
            cij = br(i, j)
            for k in range(j + 1, n):
                cjk, cik = br(j, k), br(i, k)
                if not (cij or cjk or cik):
                    continue
                acc = {}
                for m, v in cij.items():
                    for t, w in br(m, k).items():
                        acc[t] = acc.get(t, 0) + v * w
                for m, v in cjk.items():
                    for t, w in br(m, i).items():
                        acc[t] = acc.get(t, 0) + v * w
                for m, v in cik.items():
                    for t, w in br(m, j).items():
                        acc[t] = acc.get(t, 0) - v * w
                if any(v % p if p else v for v in acc.values()):
                    return (i, j, k)
    return None


def tensor_bracket(ta, tb):
    """Commutator in the tensor algebra on word dicts (oracle for
    ``left_normed_expansions``)."""
    out = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
            out[wb + wa] = out.get(wb + wa, Fraction(0)) - ca * cb
    return {w: c for w, c in out.items() if c}


def eigenvalue_candidates(f, m):
    """Possible eigenvalues of the small matrix m over the base field: all
    of GF(p) for p <= 101; over Q the rationals +-d/q with d dividing the
    numerator and q the denominator of the lowest nonzero coefficient of the
    characteristic polynomial, up to numerator 10,000.  None beyond these
    bounds."""
    if f.characteristic:
        if f.characteristic > 101:
            return None
        return [f.raw(k) for k in range(f.characteristic)]
    cp = charpoly(f, m)
    const = next((c for c in cp if not f.is_zero(c)), None)
    cands = {Fraction(0)}
    if const is not None:
        c = Fraction(const)
        if abs(c.numerator) > 10000:
            return None
        for d in range(1, abs(c.numerator) + 1):
            if c.numerator % d == 0:
                for q in (1, c.denominator):
                    cands.add(Fraction(d, q))
                    cands.add(Fraction(-d, q))
    return [f.raw(c) for c in sorted(cands)]


def eigenspaces(L, t, elems):
    """The eigenspaces of ad t on the span of the basis ``elems`` of L, each
    as a list of elements: one per candidate eigenvalue
    (``eigenvalue_candidates``) whose eigenspace is nonzero.  None if ad t
    does not keep the span or the candidates are not known."""
    f, d = L.field, len(elems)
    span = Coordinates(f, [v.coeffs for v in elems], L.n)
    coords = [span.solve(L.bracket(t, v).coeffs) for v in elems]  # [t, elems[i]] on the basis elems
    cands = None if None in coords else eigenvalue_candidates(f, coords)
    if cands is None:
        return None
    spaces = []
    for lam in cands:
        # x with sum_i x_i (coords[i] - lam e_i) = 0
        images = [{j: f.sub(coords[i].get(j, f.zero), lam if i == j else f.zero) for j in range(d)} for i in range(d)]
        if space := [sum((c * elems[i] for i, c in x.items()), L.zero()) for x in dense_kernel(f, images, d)]:
            spaces.append(space)
    return spaces


def eigenline_modules_irreducible(M, modules):
    """Reference for ``smallgen._modules_irreducible``, as the package ran it
    before it took one kernel per module: an S-invariant line is an
    eigenline of ad [x,y], searched among ``eigenvalue_candidates``.  None
    where the candidates are not known (GF(p) with p > 101, or Q with a
    lowest charpoly coefficient above 10,000)."""
    e = M.basis_element
    s_elts = [e(_X), e(_Y), e(_XY)]
    for mod in modules:
        span = Subspace.from_elements(M, mod)
        if not all(span.contains(M.bracket(s, v)) for s in s_elts for v in mod):
            return False  # not even a module
        spaces = eigenspaces(M, e(_XY), mod)
        if spaces is None:
            return None
        for x in (x for space in spaces for x in space):
            line = Subspace.from_elements(M, [x])
            if all(line.contains(M.bracket(s, x)) for s in s_elts):
                return False
    return True


def permuted_params(params, sigma):
    """Parameters of the reordered triple (u_sigma[0], u_sigma[1],
    u_sigma[2]): ``smallgen.TriangleParams.permute`` as the package had it
    before ``exp_transform_params`` took a frame."""
    f = params.field
    e = {frozenset((0, 1)): params.edge_xy, frozenset((0, 2)): params.edge_xz, frozenset((1, 2)): params.edge_yz}
    parity = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if sigma[i] > sigma[j]:
                parity = -parity
    return TriangleParams(
        f,
        e[frozenset((sigma[0], sigma[1]))],
        e[frozenset((sigma[0], sigma[2]))],
        e[frozenset((sigma[1], sigma[2]))],
        params.central if parity == 1 else f.neg(params.central),
    )


def round_trip_exp_step(params, pivot, target, s):
    """exp(u_pivot, s) u_target by the permutation round trip the package
    made before: reorder to (pivot, other, target), apply the step in the
    identity frame (u_0 on u_2), reorder back."""
    other = 3 - pivot - target
    sigma = (pivot, other, target)
    q = exp_transform_params(permuted_params(params, sigma), 0, 2, s)
    inverse = [0, 0, 0]
    for pos, orig in enumerate(sigma):
        inverse[orig] = pos
    return permuted_params(q, inverse)


def scale_params(params, alpha, beta, gamma):
    """Parameters of (alpha x, beta y, gamma z); requires central = 0."""
    f = params.field
    if not f.is_zero(params.central):
        raise ValueError("scaling is only applied after the central parameter vanishes")
    al, be, ga = (f.raw(v) for v in (alpha, beta, gamma))
    if any(f.is_zero(v) for v in (al, be, ga)):
        raise ValueError("scaling factors must be nonzero")
    return TriangleParams(
        f,
        f.mul(f.mul(al, be), params.edge_xy),
        f.mul(f.mul(al, ga), params.edge_xz),
        f.mul(f.mul(be, ga), params.edge_yz),
        f.zero,
    )


def square_root(f, a):
    """A square root of ``a`` in ``f``, or None: the least residue whose
    square is ``a`` over GF(p) (by search), the nonnegative root of a
    perfect-square fraction over Q (by ``isqrt``)."""
    p = f.characteristic
    if p:
        return next((s for s in range(p) if s * s % p == a % p), None)
    a = Fraction(a)
    if a < 0:
        return None
    n, d = isqrt(a.numerator), isqrt(a.denominator)
    return f.raw(Fraction(n, d)) if (n * n, d * d) == (a.numerator, a.denominator) else None


def four_sign_scaling(f, a, b, c):
    """(extension required, final edges) of the three-edge scaling as
    ``normalize`` found it before its closed form: square roots of
    -2c/(ab), -2b/(ac) and -2a/(bc), then the one of four sign patterns
    that brings every edge to -2."""
    m2 = f.raw(-2)
    roots = [square_root(f, f.div(f.mul(m2, u), f.mul(v, w))) for u, v, w in ((c, a, b), (b, a, c), (a, b, c))]
    if None in roots:
        return True, (a, b, c)
    p = TriangleParams(f, a, b, c, 0)
    for flips in ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)):
        q = scale_params(p, *(f.mul(f.raw(sign), root) for sign, root in zip(flips, roots)))
        if all(e == m2 for e in q.edges()):
            return False, q.edges()
    raise AssertionError("no sign pattern brings every edge to -2")


def dense_is_associative(form):
    """Reference for ``BilinearForm.is_associative``: f([b_i,b_j],b_k) ==
    f(b_i,[b_j,b_k]) on every basis triple, one ``Field`` call per term."""
    L, f = form.algebra, form.algebra.field
    n = L.n
    gram = dense(form.rows, n)
    for i in range(n):
        for j in range(n):
            row = L.bracket_basis(i, j)
            for k in range(n):
                lhs = f.zero
                for m, c in row.items():
                    lhs = f.add(lhs, f.mul(c, gram[m][k]))
                rhs = f.zero
                for m, c in L.bracket_basis(j, k).items():
                    rhs = f.add(rhs, f.mul(c, gram[i][m]))
                if not f.is_zero(f.sub(lhs, rhs)):
                    return False
    return True


def dense_killing_gram(L):
    """Reference for ``killing_form``: the Gram matrix of trace(ad_x ad_y),
    entry by entry, from the columns of ``Map.ad`` at the basis vectors:
    trace(ad_i ad_j) sums ad_j[k][l] ad_i[l][k], column l of ad_j holding
    the entries ad_j[k][l]."""
    f, n = L.field, L.n
    ads = [Map.ad(L, b).cols for b in L.basis_elements()]
    gram = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = f.zero
            for l, col in enumerate(ads[j]):
                for k, c in col.items():
                    if l in ads[i][k]:
                        s = f.add(s, f.mul(c, ads[i][k][l]))
            gram[i][j] = gram[j][i] = s
    return gram


def dense_center(L):
    """Reference for ``liealg.center``: the kernel of x -> ([x, b_j]) over
    every basis vector b_j, not only the generators, [b_i, b_j] at the
    offset j * n of the image of b_i."""
    n = L.n
    images = [{j * n + k: c for j in range(n) for k, c in L.bracket_basis(i, j).items()} for i in range(n)]
    return Subspace(L, echelon_from_rows(L.field, n, dense_kernel(L.field, images, n * n)))


def dense_ideal_generated(L, gens):
    """Reference for ``liealg.ideal_generated`` and ``Subspace.is_ideal``:
    the span of ``gens`` grown by [b_i, v] for every basis element b_i and
    every v of its basis, round by round until the dimension stops."""
    sub = Subspace.from_elements(L, gens)
    while True:
        grown = sub.basis() + [L.bracket(b, v) for b in L.basis_elements() for v in sub.basis()]
        nxt = Subspace.from_elements(L, grown)
        if nxt.dim == sub.dim:
            return sub
        sub = nxt


def form_value(form, u, v):
    """f(u, v) for the ``BilinearForm`` f, from its Gram rows."""
    G = form.rows
    s = sum(ci * cj * G[i].get(j, 0) for i, ci in u.coeffs.items() for j, cj in v.coeffs.items())
    return form.algebra.field.raw(s)


def preserves_form(phi, form):
    """Whether the automorphism ``phi`` keeps the bilinear form: f(phi b_i,
    phi b_j) equals the Gram entry f(b_i, b_j) on every basis pair."""
    L, f = phi.lie, phi.lie.field
    for i in range(L.n):
        fi = phi.apply(L.basis_element(i))
        for j in range(i, L.n):
            v = form_value(form, fi, phi.apply(L.basis_element(j)))
            if not f.is_zero(f.sub(v, form.rows[i].get(j, f.zero))):
                return False
    return True


def root_inner(rs, s, t):
    """The inner product (s, t) of two roots of ``rs``, from its integer Gram."""
    return Fraction(rs._scaled_inner(s, t), rs._scale)


def root_norm2(rs, t):
    """(t, t) for a root of ``rs``, from its memoised integer norm."""
    return Fraction(rs._scaled_norm(t), rs._scale)


def root_pairing(rs, beta, alpha):
    """<beta, alpha-check> = 2 (beta, alpha)/(alpha, alpha), from the integer
    Gram of ``rs``; NonIntegral when it is not an integer."""
    return rootdata._exact(2 * rs._scaled_inner(beta, alpha), rs._scaled_norm(alpha), "a Cartan integer")


def fraction_inner(rs, s, t):
    """Reference for ``root_inner``: (s, t) = sum_ij s_i t_j d_i A[i][j]
    with one ``Fraction`` per term, as the package computed it before its root
    data became integral."""
    d = _symmetrizer(rs.type, rs.rank)
    v = Fraction(0)
    for i in range(rs.rank):
        if s[i]:
            for j in range(rs.rank):
                if t[j]:
                    v += s[i] * t[j] * d[i] * rs.cartan[i][j]
    return v


def dense_extremal_gram(L, spanning):
    """Reference for the Gram matrix of ``extremal_form``: C F C^T as two
    dense products, F[a][b] = f_a(s_b) and C the coordinates of the basis
    over ``spanning``, read off the reduced rows [I | C] of a
    ``DenseEchelon`` of [S | I], as it was computed before the Gram became
    sparse."""
    f, n = L.field, L.n
    fvals = [[is_extremal(L, a)(b) for b in spanning] for a in spanning]
    ech = DenseEchelon(f, n + len(spanning))
    for a, s in enumerate(spanning):
        ech.insert({**s.coeffs, n + a: f.one})
    coords = [ech.rows[i][n:] for i in range(n)]
    half = dense_mat_mul(f, coords, fvals)
    return dense_mat_mul(f, half, [list(col) for col in zip(*coords)])


def bracket_is_extremal(L, x):
    """Reference for ``liealg.is_extremal``: the same functional or None,
    from two full brackets [x, [x, b_j]] per basis vector."""
    if x.is_zero():
        raise ZeroElement("extremality is defined for nonzero elements")
    f = L.field
    ref = min(x.coeffs)
    xr = x.coeffs[ref]
    values = {}
    for j in range(L.n):
        w = L.bracket(x, L.bracket(x, L.basis_element(j)))
        if w.is_zero():
            continue
        lam = f.div(w.coeffs.get(ref, f.zero), xr)
        expected = {}
        axpy(expected, lam, x.coeffs)
        if w.coeffs != canonical(f, expected):
            return None
        values[j] = lam
    return ExtremalFunctional(L, values)


# -- the full-map reference ----------------------------------------------------


class Map:
    """A linear map of the ``LieAlgebra`` ``lie``: one canonical column of
    raw values per basis vector, its image (``Fraction`` over Q where not
    integral).  It is the one full-map reference of the tests; the fast
    paths apply their maps to one vector at a time and are held to it."""

    def __init__(self, lie, cols):
        self.lie = lie
        self.cols = [canonical(lie.field, col) for col in cols]

    @classmethod
    def of(cls, L, g):
        """The map of g, anything with ``apply`` (such as a ``chevalley.Exp``
        factor): the images of the basis vectors."""
        return cls(L, [g.apply(b).coeffs for b in L.basis_elements()])

    @classmethod
    def ad(cls, L, x):
        """ad_x, its columns the brackets [x, b_j]."""
        return cls(L, [L.bracket(x, b).coeffs for b in L.basis_elements()])

    def apply(self, elt):
        return AlgebraElement(self.lie, combine(self.lie.field, elt.coeffs, self.cols))

    def compose(self, other):
        """self after other."""
        if other.lie is not self.lie:
            raise ValueError("maps of different algebras do not compose")
        return Map(self.lie, [combine(self.lie.field, col, self.cols) for col in other.cols])

    def __eq__(self, other):
        return isinstance(other, Map) and self.lie is other.lie and self.cols == other.cols

    def is_identity(self):
        return all(col == {j: 1} for j, col in enumerate(self.cols))


# the coefficient of s^2 ad_x^2 in ``exp_reference``; a test plants a wrong one
EXP_HALF = Fraction(1, 2)


def exp_reference(L, x):
    """Reference for ``chevalley.exp_map``: s -> exp(x, s) = 1 + s ad_x +
    EXP_HALF s^2 ad_x^2 as a ``Map``, with ad_x^2 the square of ``Map.ad``
    (not f_x(b_j) x), one map per parameter.  Its attribute ``functional``
    is f_x."""
    fx = is_extremal(L, x)
    if fx is None:
        raise NotExtremal("exp is defined at extremal elements")
    f = L.field
    ad = Map.ad(L, x)
    ad2 = ad.compose(ad)
    memo = {}

    def exp(s):
        s = f.raw(s)
        if s not in memo:
            half_s2 = f.mul(f.mul(s, s), f.raw(EXP_HALF))
            cols = []
            for j, (one, two) in enumerate(zip(ad.cols, ad2.cols)):
                col = {j: 1}
                axpy(col, s, one)
                axpy(col, half_s2, two)
                cols.append(col)
            memo[s] = Map(L, cols)
        return memo[s]

    exp.functional = fx
    return exp


_divided_power_columns = {}


def root_exp_reference(A, root, s):
    """Reference for ``chevalley.root_exp_apply``: exp(s ad x_root) = 1 +
    sum_k s^k ad^k x_root / k! as a ``Map`` of A.  The powers of ``Map.ad``
    are taken on the type's algebra over Q and divided by k!, integrally
    (kept per type, rank and root), then carried to A's field, where k! may
    vanish (GF(3))."""
    rs = A.rootsystem
    key = (rs.type, rs.rank, tuple(root))
    if key not in _divided_power_columns:
        Q = chevalley(rs.type, rs.rank)
        ad = Map.ad(Q.lie, Q.x(root))
        power, divided = ad, []
        for k in range(1, 8):
            if not any(power.cols):
                break
            if any(v % factorial(k) for col in power.cols for v in col.values()):
                raise NonIntegral("divided power of ad x_root is not integral")
            divided.append([{t: v // factorial(k) for t, v in col.items()} for col in power.cols])
            power = ad.compose(power)
        else:
            raise NotNilpotent("ad x_root is not nilpotent of small index")
        _divided_power_columns[key] = divided
    f = A.field
    s = f.raw(s)
    cols = [{j: 1} for j in range(A.lie.n)]
    sk = f.one
    for columns in _divided_power_columns[key]:
        sk = f.mul(sk, s)
        for col, d in zip(cols, columns):
            axpy(col, sk, d)
    return Map(A.lie, cols)


def preserves_bracket(phi):
    """The bracket oracle: whether the ``Map`` phi satisfies phi[b_i, b_j] =
    [phi b_i, phi b_j] for all i < j."""
    L = phi.lie
    images = [AlgebraElement(L, col) for col in phi.cols]
    return all(
        combine(L.field, L.bracket_basis(i, j), phi.cols) == L.bracket(images[i], images[j]).coeffs
        for i in range(L.n)
        for j in range(i + 1, L.n)
    )


def matrix_root_properties(L, x, y, samples):
    """``rootgroups.verify_abstract_root_properties`` on full maps: each
    word is a product of ``exp_reference`` maps, compared column by column,
    as ``rootgroups`` decided the five properties before it compared words
    on the generators.  The check list, without names."""
    f = L.field
    ex, ey = exp_reference(L, x), exp_reference(L, y)
    case = classify_pair(L, x, y, ex.functional)
    checks = [all(ey(s).compose(ey(t)) == ey(f.add(s, t)) for s in samples for t in samples)]
    ok = True
    for s in samples:
        g, ginv = ey(s), ey(f.neg(s))
        try:
            ex2 = exp_reference(L, ginv.apply(x))
        except NotExtremal:
            ok = False
            continue
        ok = ok and all(ginv.compose(ex(t)).compose(g) == ex2(t) for t in samples)
    checks.append(ok)
    if case in ("same-line", "commuting"):
        checks.append(all(ex(s).compose(ey(t)) == ey(t).compose(ex(s)) for s in samples for t in samples))
    elif case == "f0-noncommuting":
        ez = exp_reference(L, L.bracket(y, x))
        ok = all(
            ey(f.neg(t)).compose(ex(f.neg(s))).compose(ey(t)).compose(ex(s)) == ez(f.mul(t, s))
            for t in samples
            for s in samples
        )
        ok = ok and all(
            ez(u).compose(g) == g.compose(ez(u)) for u in samples for s in samples for g in (ex(s), ey(s))
        )
        checks.append(ok)
    else:
        ey2 = exp_reference(L, f.div(f.raw(-2), ex.functional(y)) * y)
        checks.append(
            all(
                ey2(f.neg(s)).compose(ex(f.mul(f.inv(s), t))).compose(ey2(s))
                == ex(f.neg(f.inv(s))).compose(ey2(f.neg(f.mul(t, s)))).compose(ex(f.inv(s)))
                for s in samples
                if not f.is_zero(s)
                for t in samples
            )
        )
    return {"case": case, "checks": checks}


def matrix_product_identity(L, x, y, samples):
    """The product identity of ``rootgroups.strongcomm_check`` on full maps:
    exp(y, t) exp(x, s) = exp(sx + ty, 1) for every sample pair."""
    f = L.field
    ex, ey = exp_reference(L, x), exp_reference(L, y)
    for s in samples:
        for t in samples:
            lhs = ey(t).compose(ex(s))
            v = s * x + t * y
            if not (lhs.is_identity() if v.is_zero() else lhs == exp_reference(L, v)(f.one)):
                return False
    return True


def bracket_condition_2prime(L, x, y, fx, fy):
    """(2'), 2[y,[x,z]] = f(x,z) y + f(y,z) x, with two brackets per basis
    vector z, as ``rootgroups`` tested it before it read the columns of ad."""
    return all(
        2 * L.bracket(y, L.bracket(x, z)) == fx(z) * y + fy(z) * x for z in L.basis_elements()
    )


def reference_chain_search(L, pool):
    """The first chain (x1, x2, x3) of the pool in (x1, x2, x3) order, (2')
    by ``bracket_condition_2prime`` on every commuting pair: the full search
    that ``rootgroups.chain_nonexistence_probe`` replaced by x1 = x_theta.
    ("witness", the coefficient dicts) or ("no witness", None)."""
    f = L.field
    funcs = [(p, fx) for p, fx in ((p, is_extremal(L, p)) for p in pool) if fx is not None]
    for i, (x1, f1) in enumerate(funcs):
        for j, (x2, f2) in enumerate(funcs):
            if i == j or not L.bracket(x1, x2).is_zero() or not bracket_condition_2prime(L, x1, x2, f1, f2):
                continue
            for x3, _ in funcs:
                if L.bracket(x2, x3).is_zero() and not f.is_zero(f1(x3)):
                    return "witness", [w.coeffs for w in (x1, x2, x3)]
    return "no witness", None


def reference_extremal_spanning_set(A):
    """``chevalley.extremal_spanning_set`` on the full maps of
    ``root_exp_reference``, all built before the closure starts."""
    rs = A.rootsystem
    autos = [root_exp_reference(A, root, s) for root in rs.roots for s in (1, -1)]
    return extremal_closure(
        A.lie,
        [A.x(root) for root in rs.roots if rs.is_long(root)],
        lambda v: (phi.apply(v) for phi in autos),
    )


def grow_extremal_spanning(L, seeds):
    """Close a set of extremal elements under exp-images until it spans L.

    Images of extremal elements under exp(e, +-1) are extremal again, so the
    result is a spanning set of extremal elements whenever the closure fills
    the space; a stall raises NotSpanning.
    """
    kept, autos = [], []

    def expand(x):
        exp = exp_map(L, x)
        new = [exp(1), exp(-1)]
        pairs = [(phi, x) for phi in autos] + [(phi, y) for phi in new for y in kept]
        kept.append(x)
        autos.extend(new)
        return (phi.apply(y) for phi, y in pairs)

    return extremal_closure(L, seeds, expand)


def line_is_fully_extremal(L, x, y, lambdas):
    """Whether every nonzero point x + lam y, lam in ``lambdas``, is
    extremal, the first that is not as the witness (no preconditions; used
    to exhibit failing lines)."""
    points = (x + lam * y for lam in lambdas)
    witness = next((p for p in points if not p.is_zero() and is_extremal(L, p) is None), None)
    return {"fully_extremal": witness is None, "witness": witness}


def graded_components(q):
    """Per degree of the ``GradedQuotient`` q: (chosen basis monomial words,
    relation matrix rank)."""
    eng = q._engine
    out = []
    for d in range(1, len(q.dims_by_degree) + 1):
        words = [b.word for elts in eng.blocks[d].values() for b in elts]
        out.append((words, q.relation_ranks[d - 2] if d >= 2 else 0))
    return out


def graded_report(q):
    """The ``GradedQuotient`` q as a plain dict: r, degree and multidegree
    dims, total."""
    return {
        "r": q.r,
        "dims_by_degree": list(q.dims_by_degree),
        "total": q.total_dim,
        "multidegree_dims": [{"degree": list(md), "dim": q.multidegree_dims[md]} for md in sorted(q.multidegree_dims)],
    }


class AntisymmetryViolation(ValueError):
    """A dense structure-constant cube that is not antisymmetric."""


def lie_algebra_from_dense(field, labels, cube):
    """A ``LieAlgebra`` from a full cube, cube[i][j] the coefficient vector
    of [b_i, b_j], after checking antisymmetry."""
    n = len(labels)
    for i in range(n):
        if any(not field.is_zero(c) for c in cube[i][i]):
            raise AntisymmetryViolation("[b_%d, b_%d] != 0" % (i, i))
        for j in range(i + 1, n):
            for k in range(n):
                if not field.is_zero(field.add(cube[i][j][k], cube[j][i][k])):
                    raise AntisymmetryViolation("c[%d][%d] != -c[%d][%d]" % (i, j, j, i))
    table = {(i, j): dict(enumerate(cube[i][j])) for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra(field, labels, table)


def reference_quotient(L, ideal):
    """(Q, lift, project): Q = L/ideal on the non-pivot coordinates, a new
    ``LieAlgebra`` with its own Jacobi check; L itself when the ideal is 0."""
    if not ideal.dim:
        return L, (lambda elt: elt), (lambda elt: elt)
    piv = set(ideal._ech.pivot_columns())
    keep = [i for i in range(L.n) if i not in piv]
    pos = {i: t for t, i in enumerate(keep)}

    def project_coeffs(v):
        return {pos[i]: x for i, x in sorted(ideal._ech.reduce(v).items())}

    n = len(keep)
    table = {(a, b): project_coeffs(L.bracket_basis(keep[a], keep[b])) for a in range(n) for b in range(a + 1, n)}
    Q = LieAlgebra(L.field, [L.labels[i] for i in keep], table)

    def lift(q):
        return AlgebraElement(L, {keep[i]: c for i, c in q.coeffs.items()})

    def project(elt):
        return AlgebraElement(Q, project_coeffs(elt.coeffs))

    return Q, lift, project


def reference_line_certificate(L, raising, kappa_rad):
    """True if L provably has no nonzero solvable ideal, a solvable ideal
    found as a witness, or None when undecided: the certificate the package
    ran on each quotient before it proved Rad(L) = Z(L) in one pass.  Let K'
    be the vectors of Rad(kappa) that every ad e kills, for raising elements
    e that act nilpotently.  A nonzero solvable ideal holds a nonzero abelian
    ideal, which lies in Rad(kappa) and meets K' (Engel), and the ideal of a
    vector there is abelian.  So each canonical basis vector of K' is tried
    as the generator of a solvable ideal, and when K' is a line that
    decides."""
    if kappa_rad.dim == 0:
        return True
    n, basis = L.n, kappa_rad.basis()
    images = [{t * n + k: c for t, e in enumerate(raising) for k, c in L.bracket(e, b).coeffs.items()} for b in basis]
    vecs = [b.coeffs for b in basis]
    k_prime = [L.element(combine(L.field, x, vecs)) for x in kernel(L.field, images, len(raising) * n)]
    for v in Subspace.from_elements(L, k_prime).basis():
        ideal = liealg.ideal_generated(L, [v])
        if liealg.is_solvable_subspace(ideal):
            return ideal
    return True if len(k_prime) == 1 else None


def candidate_seeded_radical(L, raising=()):
    """Reference for the claim Rad(L) = Z(L) of ``liealg.structural_subspaces``:
    the general search for Rad(L) that the package ran before.  R starts as
    the sum of the solvable ideals among Z(L) and the derived series of
    Rad(kappa), then grows by the witnesses of ``reference_line_certificate``
    on the quotients L/R, until L/R has none.  Returns (R, certified)."""
    kappa_rad = killing_form(L).radical()
    seeds = [liealg.center(L)] + liealg.derived_series(L, kappa_rad)
    R = Subspace.from_elements(L, [v for c in seeds if c.is_ideal() and liealg.is_solvable_subspace(c)
                                   for v in c.basis()])
    for _ in range(L.n + 1):
        Q, lift, project = reference_quotient(L, R)
        cert = reference_line_certificate(
            Q, [project(e) for e in raising], kappa_rad if Q is L else killing_form(Q).radical()
        )
        if cert is True or cert is None:
            return R, cert is True
        R = liealg.ideal_generated(L, [lift(v) for v in cert.basis()] + R.basis())
    return R, False


# -- the dense matrix layer ------------------------------------------------------


def dense_mat_mul(field, a, b):
    """Reference for ``linalg.mat_mul`` on dense lists: the product of an
    n x k and a k x m matrix, one ``Field`` call per term."""
    f = field
    m = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [f.zero] * m
        for k, x in enumerate(ai):
            if f.is_zero(x):
                continue
            for j, y in enumerate(b[k]):
                if not f.is_zero(y):
                    row[j] = f.add(row[j], f.mul(x, y))
        out.append(row)
    return out


def dense_matrix(f, size, entries):
    """The size x size dense matrix with the raw values of ``entries``,
    {(i, j): value}, and zeros elsewhere."""
    m = [[f.zero] * size for _ in range(size)]
    for (i, j), c in entries.items():
        m[i][j] = f.raw(c)
    return m


def _square(v, size):
    """The size x size matrix, as rows, that the list ``v`` flattens row by row."""
    return [v[i * size:(i + 1) * size] for i in range(size)]


def dense_closure(f, mats, products):
    """The span of the size x size matrices ``mats``, flattened row by row,
    closed under the matrices ``products(a, b)`` of every two kept matrices
    a and b, a kept first (or a = b): a ``DenseEchelon`` of width size^2."""
    size = len(mats[0])
    kept = []

    def expand(v):
        m = _square(v, size)
        kept.append(m)
        return ([x for row in p for x in row] for other in tuple(kept) for p in products(other, m))

    ech = DenseEchelon(f, size * size)
    closure(ech, ([f.raw(x) for row in m for x in row] for m in mats), expand)
    return ech


def dense_matrix_lie_algebra(field, mats):
    """Reference for ``liealg.matrix_lie_algebra`` on dense matrices: the
    commutator closure of ``mats`` (``dense_closure``), its reduced rows the
    basis.  A flattened matrix of the span has its entries at the pivot
    columns as coordinates."""
    f = field
    size = len(mats[0])

    def commutator(a, b):
        ab, ba = dense_mat_mul(f, a, b), dense_mat_mul(f, b, a)
        return [[f.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]

    ech = dense_closure(f, mats, lambda a, b: [commutator(a, b)])
    pivots = ech.pivot_columns()
    basis_mats = [_square(row, size) for row in echelon_basis(ech)]

    def coordinates(m):
        v = [x for row in m for x in row]
        if not ech.contains(v):
            raise ValueError("matrix is not in the algebra")
        return {k: v[c] for k, c in enumerate(pivots)}

    n = len(basis_mats)
    table = {(a, b): coordinates(commutator(basis_mats[a], basis_mats[b])) for a in range(n) for b in range(a + 1, n)}
    L = LieAlgebra(f, ["m%d" % i for i in range(n)], table)
    return L, basis_mats, lambda m: L.element(coordinates(m))


def dense_matrices_preserving(f, gram):
    """Basis of {X : X^T G + G X = 0}, the kernel of X -> X^T G + G X on
    the unit matrices E_ab: row b of E_ab^T G is row a of G, and column b of
    G E_ab is column a of G."""
    size = len(gram)
    images = []
    for a, b in itertools.product(range(size), repeat=2):
        image = {b * size + j: x for j, x in enumerate(gram[a])}
        for i in range(size):
            image[i * size + b] = f.add(image.get(i * size + b, f.zero), gram[i][a])
        images.append(image)
    return [_square(v, size) for v in dense(dense_kernel(f, images, size * size), size * size)]


def dense_natural_representation(type_, rank, field):
    """Reference for ``chevalley.natural_representation`` on dense
    matrices.  Returns (report, algebra, basis matrices).  Types B, C and D
    are the matrices that preserve the split form on the Witt basis e_1..e_n,
    (e_0 for B,) f_n..f_1: B(e_i, f_i) = 1 (B(e_0, e_0) = 1), and B(f_i,
    e_i) = -1 for C."""
    f = field
    n = rank
    if type_ == "A":
        size = n + 1
        gens = [dense_matrix(f, size, {ij: 1}) for i in range(n) for ij in ((i, i + 1), (i + 1, i))]
        long_mat = dense_matrix(f, size, {(0, 1): 1})
    else:
        size = 2 * n + 1 if type_ == "B" else 2 * n
        gram = {(n, n): 1} if type_ == "B" else {}
        for i in range(n):
            gram[(i, size - 1 - i)], gram[(size - 1 - i, i)] = 1, -1 if type_ == "C" else 1
        gens = dense_matrices_preserving(f, dense_matrix(f, size, gram))
        long_entries = {(0, size - 1): 1} if type_ == "C" else {(0, 1): 1, (size - 2, size - 1): -1}
        long_mat = dense_matrix(f, size, long_entries)
    L, mats, element_of = dense_matrix_lie_algebra(f, gens + [long_mat])
    expected_dim = {"A": n * n + 2 * n, "B": n * (2 * n + 1), "C": n * (2 * n + 1), "D": n * (2 * n - 1)}[type_]
    extremal = is_extremal(L, element_of(long_mat)) is not None
    ech = DenseEchelon(f, size)
    for row in long_mat:
        ech.insert(row)
    m = ech.dim
    # Burnside: the module is irreducible when the associative closure of
    # the basis matrices spans all size x size matrices
    both_products = dense_closure(f, mats, lambda a, b: (dense_mat_mul(f, a, b), dense_mat_mul(f, b, a)))
    irreducible = both_products.dim == size * size
    report = {
        "type": type_,
        "rank": rank,
        "dim": L.n,
        "dim_expected": expected_dim,
        "module_dim": size,
        "extremal_matrix_rank": m,
        "extremal_ok": extremal,
        "irreducible": irreducible,
        "lower_bound": -(-size // m),
        "pass": L.n == expected_dim and extremal and irreducible,
    }
    return report, L, mats


def dense_phi_spectrum_check(L, x, y):
    """The eigenvalue lemma for phi = ad_x ad_y, x extremal: all eigenvalues
    0 when f(x, y) = 0 (case a); otherwise, with y rescaled to f(x, y) = -2
    and s the rank of ad_x, eigenvalues 2, 1, 0 with multiplicities 2, s - 2,
    n - s, kappa(x, y) = s + 2, and phi^2 - phi mapping into kx + k[x,y]
    (case b).  phi is the ``Map`` product of the two ad maps, its charpoly
    read from its columns (a matrix and its transpose share one)."""
    f = L.field
    fx = is_extremal(L, x)
    if fx is None:
        raise PreconditionNotMet("x must be extremal")
    fxy = fx(y)
    kappa = killing_form(L)
    if f.is_zero(fxy):
        cp = charpoly(f, Map.ad(L, x).compose(Map.ad(L, y)).cols)
        expected = [f.zero] * L.n + [f.one]
        kz = f.is_zero(form_value(kappa, x, y))
        return {"case": "a", "all_eigenvalues_zero": cp == expected, "kappa_zero": kz, "pass": cp == expected and kz}
    scale = f.div(f.raw(-2), fxy)
    y2 = scale * y
    adx = Map.ad(L, x)
    s = echelon_from_rows(f, L.n, adx.cols).dim
    phi = adx.compose(Map.ad(L, y2))
    cp = charpoly(f, phi.cols)
    expected = [f.one]
    for root, mult in ((f.raw(2), 2), (f.raw(1), s - 2), (f.zero, L.n - s)):
        for _ in range(mult):
            expected = poly_mul(f, expected, [f.neg(root), f.one])
    kap = form_value(kappa, x, y2)
    target = Subspace.from_elements(L, [x, L.bracket(x, y2)])
    # the columns of phi^2 - phi
    img_ok = all(
        target.contains(AlgebraElement(L, combine(f, {0: 1, 1: -1}, pair)))
        for pair in zip(phi.compose(phi).cols, phi.cols)
    )
    ok = cp == expected and kap == f.raw(s + 2) and img_ok
    return {
        "case": "b",
        "s": s,
        "kappa": kap,
        "kappa_expected": f.raw(s + 2),
        "charpoly_matches": cp == expected,
        "quadratic_image_ok": img_ok,
        "pass": ok,
    }


def _fourth_power_report(L, x, y, form, vanishes):
    """The report of the lemma ad_{[x,y]}^4 = 0, once its premises hold (x
    extremal outside Rad(f), y inside Rad(f)), with ``vanishes(z)`` deciding
    ad_z^4 = 0 for z = [x, y] nonzero."""
    if is_extremal(L, x) is None:
        raise PreconditionNotMet("x must be extremal")
    rad = form.radical()
    if rad.contains(x):
        raise PreconditionNotMet("x must lie outside Rad(f)")
    if not rad.contains(y):
        raise PreconditionNotMet("y must lie in Rad(f)")
    z = L.bracket(x, y)
    ok = z.is_zero() or vanishes(z)
    return {"bracket_zero": z.is_zero(), "fourth_power_zero": ok, "pass": ok}


def dense_fourth_power_check(L, x, y, form):
    """Reference for ``fourth_power_check``: the fourth power of the ``Map``
    ad_[x,y], as two squarings."""

    def vanishes(z):
        ad = Map.ad(L, z)
        square = ad.compose(ad)
        return not any(square.compose(square).cols)

    return _fourth_power_report(L, x, y, form, vanishes)


# -- routes and lemma checks that only the tests reach ---------------------------


def free_nilpotent_quotient(r, up_to_degree, field=QQ, extra_consistency=False):
    """The free Lie algebra on r generators truncated at a degree: the cover
    engine of ``nilquot`` without the sandwich relations."""
    eng = nilquot._CoverEngine(r, field=field, sandwich=False, extra_consistency=extra_consistency)
    while eng.completed < up_to_degree:
        eng.extend()
    return nilquot.GradedQuotient(eng)


def left_normed_expansions(r, m):
    """{word: tensor expansion} of the left-normed brackets
    [[...[x_a1, x_a2], ...], x_am] on letters 1..r with a1 != a2 (every
    letter when m = 1), with int coefficients.  They span the degree-m
    component of the free Lie algebra (Reutenauer, "Free Lie Algebras",
    1993).  Each expansion is P a - a P from that of its prefix P."""
    out = {(a,): {(a,): 1} for a in range(1, r + 1)}
    for _ in range(m - 1):
        longer = {}
        for word, poly in out.items():
            for a in range(1, r + 1):
                if word != (a,):
                    exp = {t + (a,): c for t, c in poly.items()}
                    for t, c in poly.items():
                        exp[(a,) + t] = exp.get((a,) + t, 0) - c
                    longer[word + (a,)] = {t: c for t, c in exp.items() if c}
        out = longer
    return out


def assoc_algebra_direct_dims(r, max_len=8):
    """R_r by elimination in the free associative algebra: y_i^2 = 0 and
    y_i w y_i = 0 for w in a spanning set of the free Lie algebra.
    Independent of the L_{r+1} route of ``nilquot``."""
    cores = {2: [{(i, i): 1} for i in range(1, r + 1)]}  # core length -> polynomials
    for m in range(1, max_len - 1):
        cores[m + 2] = [
            {(i,) + t + (i,): c for t, c in poly.items()}
            for poly in left_normed_expansions(r, m).values()
            for i in range(1, r + 1)
        ]
    dims = [1]
    for length in range(1, max_len + 1):
        words = sorted(itertools.product(range(1, r + 1), repeat=length))
        pos = {w: k for k, w in enumerate(words)}
        ech = Echelon(QQ, len(words))
        for clen, polys in cores.items():
            for a_len in range(0, length - clen + 1):
                for a in itertools.product(range(1, r + 1), repeat=a_len):
                    for b in itertools.product(range(1, r + 1), repeat=length - clen - a_len):
                        for poly in polys:
                            ech.insert({pos[a + t + b]: c for t, c in poly.items()})
        dims.append(len(words) - ech.dim)
        if dims[-1] == 0:
            break
    while dims and dims[-1] == 0:
        dims.pop()
    return nilquot.AssocDims(r, dims)


def monomial(L, word):
    """The right-nested monomial [x_{w_1},[x_{w_2},[...,x_{w_s}]]] in the
    algebra L of ``GradedQuotient.as_lie_algebra``, where x_i is basis
    element i - 1 (the generators come first)."""
    v = L.basis_element(word[-1] - 1)
    for a in reversed(word[:-1]):
        v = L.bracket(L.basis_element(a - 1), v)
    return v


def check_subalgebra_embedding(r):
    """L_{r-1} sits inside L_r: multidegrees with last coordinate 0 match."""
    big = nilquot.sandwich_algebra(r)
    small = nilquot.sandwich_algebra(r - 1)
    results = []
    seen = set()
    for md, dim in sorted(big.multidegree_dims.items()):
        if md[r - 1] != 0:
            continue
        sub = md[: r - 1]
        seen.add(sub)
        expected = small.multidegree_dims.get(sub, 0)
        results.append({"degree": list(sub), "dim": dim, "expected": expected, "pass": dim == expected})
    for md, dim in sorted(small.multidegree_dims.items()):
        if md not in seen:
            results.append({"degree": list(md), "dim": 0, "expected": dim, "pass": False})
    return {
        "r": r,
        "pass": all(row["pass"] for row in results),
        "recovered_total": sum(row["dim"] for row in results),
        "rows": results,
    }


# The 28 monomials spanning the 4-generator algebra
SPANNING_MONOMIALS_4GEN = [
    (1,), (2,), (3,), (4,),
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 1, 3), (2, 1, 4), (2, 3, 4), (3, 1, 4), (3, 2, 4),
    (1, 2, 3, 4), (1, 3, 2, 4), (2, 1, 3, 4), (2, 3, 1, 4), (3, 1, 2, 4), (3, 2, 1, 4),
    (1, 2, 3, 1, 4), (2, 1, 3, 2, 4), (3, 1, 2, 3, 4), (4, 1, 2, 3, 4),
]

# Jacobi reductions used in the spanning proof; each list of (coeff, word) sums to 0.
SPANNING_IDENTITIES_4GEN = [
    [(1, (1, 2, 3, 4)), (-1, (1, 3, 2, 4)), (1, (1, 4, 2, 3))],
    [(1, (2, 1, 3, 4)), (-1, (2, 3, 1, 4)), (1, (2, 4, 1, 3))],
    [(1, (3, 1, 2, 4)), (-1, (3, 2, 1, 4)), (1, (3, 4, 1, 2))],
    [(1, (4, 1, 2, 3)), (-1, (1, 4, 2, 3)), (1, "[[y,z],[u,x]]")],
    [(1, (4, 2, 1, 3)), (-1, (2, 4, 1, 3)), (1, "[[x,z],[u,y]]")],
    [(1, (4, 3, 1, 2)), (-1, (3, 4, 1, 2)), (1, "[[x,y],[u,z]]")],
    [(1, (1, 2, 3, 4)), (-1, (2, 1, 3, 4)), (1, "[[z,u],[x,y]]")],
    [(1, (1, 3, 2, 4)), (-1, (3, 1, 2, 4)), (1, "[[y,u],[x,z]]")],
    [(1, (2, 3, 1, 4)), (-1, (3, 2, 1, 4)), (1, "[[x,u],[y,z]]")],
]

_GENERATOR_NAMES = {"x": 1, "y": 2, "z": 3, "u": 4}


def _eval_identity_term(L, term):
    """A term is a right-nested word or a string "[[a,b],[c,d]]"."""
    if isinstance(term, tuple):
        return monomial(L, term)
    (a, b), (c, d) = [[_GENERATOR_NAMES[g] for g in pair.split(",")] for pair in term.strip("[]").split("],[")]
    return L.bracket(monomial(L, (a, b)), monomial(L, (c, d)))


def spanning_set_check_4gen():
    """The 28 listed monomials are a basis of L_4, the nine Jacobi reductions
    vanish, and every length-6 monomial evaluates to zero."""
    L = nilquot.sandwich_algebra(4).as_lie_algebra()
    n = L.n
    ech = Echelon(QQ, n)
    inserted = 0
    for word in SPANNING_MONOMIALS_4GEN:
        if ech.insert(monomial(L, word).coeffs) is not None:
            inserted += 1
    identities_ok = []
    for ident in SPANNING_IDENTITIES_4GEN:
        total = L.zero()
        for coeff, term in ident:
            total = total + coeff * _eval_identity_term(L, term)
        identities_ok.append(total.is_zero())
    length6_zero = all(
        monomial(L, word).is_zero() for word in itertools.product((1, 2, 3, 4), repeat=6)
    )
    return {
        "rank": ech.dim,
        "count": len(SPANNING_MONOMIALS_4GEN),
        "is_basis": ech.dim == n == len(SPANNING_MONOMIALS_4GEN) == inserted,
        "identities_zero": identities_ok,
        "length6_all_reduce_to_zero": length6_zero,
        "pass": ech.dim == n == inserted
        and all(identities_ok)
        and length6_zero,
    }


def short_root_decomposition_check(type_, field):
    """The rank-2 decompositions: short root elements lie in the span
    of at most three long root element images (signs are convention-local).
    The short root exponentials used are held to the bracket oracle."""
    if type_ not in ("B2", "G2"):
        raise UnsupportedType("the rank-2 decompositions exist for B2 and G2")
    if type_ == "B2":
        A = ChevalleyAlgebra("B", 2, field)
        rs = A.rootsystem
        e = rs.root_from_eps
        base = e({1: -1, 2: 1})  # -(eps1 - eps2), long
        phi = Map(A.lie, root_exponential(A, e({1: 1}), 1))  # exp at the short x_{eps1}
        image = phi.apply(A.x(base))
        short = e({2: 1})
        long2 = e({1: 1, 2: 1})
        support = set(image.coeffs)
        expected_support = {A.root_index[base], A.root_index[short], A.root_index[long2]}
        coeff_short = image.coeffs.get(A.root_index[short])
        span = echelon_from_rows(field, A.lie.n, [A.x(base).coeffs, A.x(long2).coeffs, image.coeffs])
        short_in_span = span.contains(A.x(short).coeffs)
        bracket_ok = preserves_bracket(phi)
        ok = (
            support == expected_support
            and coeff_short is not None
            and short_in_span
            and bracket_ok
        )
        gen_ok = _long_class_generates(A)
        return {
            "type": "B2",
            "char": field.characteristic,
            "maps_preserve_bracket": bracket_ok,
            "image_support_matches": support == expected_support,
            "short_coefficient_nonzero": coeff_short is not None,
            "short_in_span_of_long_images": short_in_span,
            "long_root_elements_generate": gen_ok,
            "pass": ok and gen_ok,
        }
    A = ChevalleyAlgebra("G", 2, field)
    alpha, beta = (1, 0), (0, 1)  # alpha short, beta long
    phi_plus = Map(A.lie, root_exponential(A, alpha, 1))
    phi_minus = Map(A.lie, root_exponential(A, alpha, -1))
    xb = A.x(beta)
    combo = phi_plus.apply(xb) + phi_minus.apply(xb) - (2 * xb)
    target = A.root_index[(2, 1)]  # 2*alpha + beta, short
    in_line = set(combo.coeffs) == {target}
    bracket_ok = preserves_bracket(phi_plus) and preserves_bracket(phi_minus)
    gen_ok = _long_class_generates(A)
    return {
        "type": "G2",
        "char": field.characteristic,
        "maps_preserve_bracket": bracket_ok,
        "combination_in_short_line": in_line,
        "combination_nonzero": bool(combo.coeffs),
        "long_root_elements_generate": gen_ok,
        "pass": bracket_ok and in_line and bool(combo.coeffs) and gen_ok,
    }


def _long_class_generates(A):
    """Whether the class of long root elements generates the algebra.

    The closure of the long root elements under exp(+-ad x_r) lies in the
    class, and its span is stable under every exp(t ad x_r) (t runs over the
    integers), hence under every ad x_r: over Q, ad x_r = log exp(ad x_r); over
    GF(p) when p exceeds the degree in t.  So that span is the ideal spanned by
    the class, and the class generates exactly when the closure spans, which
    ``extremal_spanning_set`` reports by raising NotSpanning when it does not.
    (The elements x_r of the long roots alone generate only 6 of the 10
    dimensions of B2.)"""
    try:
        extremal_spanning_set(A)
    except NotSpanning:
        return False
    return True


def fourth_power_check(L, x, y, form):
    """ad_{[x,y]}^4 = 0 for extremal x outside Rad(f) and y inside Rad(f),
    by four brackets per basis vector."""

    def vanishes(z):
        return all(L.bracket(z, L.bracket(z, L.bracket(z, L.bracket(z, v)))).is_zero() for v in L.basis_elements())

    return _fourth_power_report(L, x, y, form, vanishes)


class NotASandwich(ValueError):
    """A witness that is not a sandwich: not extremal, or f_x != 0."""


def sandwich_ideal(L, witnesses):
    """The ideal that the sandwich ``witnesses`` generate, a lower bound for
    the ideal that all sandwiches of L generate.  Raises NotASandwich on the
    first witness that is not a sandwich."""
    for idx, w in enumerate(witnesses):
        fx = is_extremal(L, w)
        if fx is None or not fx.is_zero():
            raise NotASandwich("witness %d is not a sandwich" % idx)
    return liealg.ideal_generated(L, witnesses)


class NotADirectSum(ValueError):
    pass


def direct_sum(L1, L2):
    """Direct sum of two algebras over the same field (block structure constants)."""
    if L1.field != L2.field:
        raise ValueError("mixed fields")
    labels = ["A." + s for s in L1.labels] + ["B." + s for s in L2.labels]
    off = L1.n
    table = dict(bracket_table(L1))
    for (i, j), row in bracket_table(L2).items():
        table[(i + off, j + off)] = {k + off: c for k, c in row.items()}
    return LieAlgebra(L1.field, labels, table)


def direct_sum_orthogonality_check(L, part1_indices, part2_indices, spanning_set):
    """For an ideal direct sum L = L1 (+) L2: f(L1, L2) = 0 and each part is
    spanned by projections of the extremal spanning elements."""
    f = L.field
    all_idx = sorted(part1_indices) + sorted(part2_indices)
    if all_idx != list(range(L.n)):
        raise NotADirectSum("parts must partition the basis")
    p1 = Subspace.from_elements(L, [L.basis_element(i) for i in part1_indices])
    p2 = Subspace.from_elements(L, [L.basis_element(i) for i in part2_indices])
    if not (p1.is_ideal() and p2.is_ideal()):
        raise NotADirectSum("parts are not ideals")
    form = extremal_form(L, spanning_set)
    orth = all(
        f.is_zero(form_value(form, L.basis_element(i), L.basis_element(j)))
        for i in part1_indices
        for j in part2_indices
    )
    proj_ok = True
    for part, indices in ((p1, part1_indices), (p2, part2_indices)):
        ech = Echelon(f, L.n)
        for s in spanning_set:
            proj = AlgebraElement(L, {k: c for k, c in s.coeffs.items() if k in indices})
            if proj.is_zero():
                continue
            if is_extremal(L, proj) is None:
                proj_ok = False
            ech.insert(proj.coeffs)
        if ech.dim != part.dim:
            proj_ok = False
    return {"orthogonal": orth, "projections_span_and_extremal": proj_ok, "pass": orth and proj_ok}


def sl2(field=QQ):
    """Standard basis (e, h, f): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    f = field
    table = {
        (0, 1): {0: f.raw(-2)},
        (0, 2): {1: f.one},
        (1, 2): {2: f.raw(-2)},
    }
    return LieAlgebra(f, ["e", "h", "f"], table)


def heisenberg(field=QQ):
    """[x, y] = z, z central."""
    return LieAlgebra(field, ["x", "y", "z"], {(0, 1): {2: field.one}})


def abelian(field, n):
    return LieAlgebra(field, ["a%d" % i for i in range(n)], {})


def two_gen_classify(f_xy, bracket_nonzero, field=QQ):
    """Lemma-level trichotomy for two extremal generators.

    Returns (label, algebra, (index of x, index of y)).
    """
    f = field
    f_xy = f.raw(f_xy)
    if f.is_zero(f_xy):
        if not bracket_nonzero:
            return "abelian", abelian(f, 2), (0, 1)
        return "heisenberg", heisenberg(f), (0, 1)
    lam = f_xy
    table = {
        (0, 1): {0: lam},  # [x, [x,y]] = f(x,y) x
        (0, 2): {1: f.one},
        (1, 2): {2: lam},  # [[x,y], y] = f(x,y) y
    }
    L = LieAlgebra(f, ["x", "[x,y]", "y"], table)
    return "sl2", L, (0, 2)
