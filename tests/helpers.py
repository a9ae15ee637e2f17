"""Shared oracles and a process-wide algebra cache for the tests.

The Witt formulas and the tensor-algebra expansion are independent of the
code paths they check: expected dimensions and bracket values in the test
files are frozen from these, not from the implementation.  The dense form
kernels (``dense_is_associative``, ``dense_killing_gram``, ``dense_center``)
are the per-coefficient ``Field`` loops the package ran before its form
kernels became sparse; the tests hold the sparse ones to them.
"""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd

from extremal_lie.scalars import QQ, GF
from extremal_lie.chevalley import ChevalleyAlgebra
from extremal_lie import nilquot


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


def rng(name):
    return random.Random("extremal-lie:" + name)


def random_fraction(r, span=4):
    return Fraction(r.randint(-span, span), r.randint(1, span))


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

    def reduce(self, vec):
        f = self.field
        v = self._dense(vec)
        for c in sorted(self.rows):
            if not f.is_zero(v[c]):
                coef = v[c]
                row = self.rows[c]
                for j in range(c, self.width):
                    v[j] = f.sub(v[j], f.mul(coef, row[j]))
        return v

    def insert(self, vec):
        f = self.field
        v = self.reduce(vec)
        piv = next((c for c in range(self.width) if not f.is_zero(v[c])), None)
        if piv is None:
            return None
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for c, row in self.rows.items():
            coef = row[piv]
            if not f.is_zero(coef):
                self.rows[c] = [f.sub(row[j], f.mul(coef, v[j])) for j in range(self.width)]
        self.rows[piv] = v
        return piv

    def contains(self, vec):
        return all(self.field.is_zero(x) for x in self.reduce(vec))

    def row(self, c):
        return {j: x for j, x in enumerate(self.rows[c]) if not self.field.is_zero(x)}

    def basis(self):
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def pivot_columns(self):
        return sorted(self.rows)


def tensor_bracket(ta, tb):
    """Commutator in the tensor algebra on word dicts (oracle for freelie)."""
    out = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
            out[wb + wa] = out.get(wb + wa, Fraction(0)) - ca * cb
    return {w: c for w, c in out.items() if c}


def _weight_lines(L, torus, sub):
    """Split ``sub`` into joint eigenlines of ad(t), t in torus; None if the
    decomposition is not multiplicity-free over the base field.  (The
    package used this for its no-solvable-ideal certificate before that
    certificate took the raising operators instead of a torus.)"""
    from extremal_lie.linalg import Coordinates
    from extremal_lie.smallgen import _eigenvalue_candidates, _eigenvectors

    f = L.field
    spaces = [sub.basis()]
    for t in torus:
        t = L.element(t)
        new_spaces = []
        for elems in spaces:
            if len(elems) == 1:
                new_spaces.append(elems)
                continue
            span = Coordinates(f, [e.coeffs for e in elems], L.n)
            coords = [span.solve(L.bracket(t, e).coeffs) for e in elems]
            if any(c is None for c in coords):
                return None
            cands = _eigenvalue_candidates(f, coords)
            if cands is None:
                return None
            found = 0
            for lam in cands:
                eig = _eigenvectors(f, elems, coords, lam)
                if eig:
                    new_spaces.append(eig)
                    found += len(eig)
            if found != len(elems):
                return None
        spaces = new_spaces
    if any(len(elems) != 1 for elems in spaces):
        return None
    return [elems[0] for elems in spaces]


def subset_certificate(L, torus=None):
    """Reference for ``liealg._no_solvable_ideal_certificate``: the search
    the package ran before it checked one ideal per weight line, and before
    it took the raising operators in place of a torus.  After the same
    basis-vector loop over Rad(kappa) it tries every subset of the weight
    lines of Rad(kappa) as a solvable ideal, and gives up (None) when
    Rad(kappa) has dimension above 12 or does not split into lines."""
    from extremal_lie.liealg import (
        Subspace,
        ideal_generated,
        is_solvable_subspace,
        killing_form,
    )

    kappa_rad = killing_form(L).radical()
    if kappa_rad.dim == 0:
        return True
    for v in kappa_rad.basis():
        ideal = ideal_generated(L, [v])
        if ideal.dim and is_solvable_subspace(ideal):
            return ideal
    if torus is not None and kappa_rad.dim <= 12:
        lines = _weight_lines(L, torus, kappa_rad)
        if lines is not None:
            for size in range(1, len(lines) + 1):
                for subset in itertools.combinations(lines, size):
                    sub = Subspace.from_elements(L, list(subset))
                    if sub.dim and sub.is_ideal() and is_solvable_subspace(sub):
                        return sub
            return True
    return None


def dense_is_associative(form):
    """Reference for ``BilinearForm.is_associative``: f([b_i,b_j],b_k) ==
    f(b_i,[b_j,b_k]) on every basis triple, one ``Field`` call per term."""
    L, f = form.algebra, form.algebra.field
    n = L.n
    for i in range(n):
        for j in range(n):
            row = L.bracket_basis(i, j)
            for k in range(n):
                lhs = f.zero
                for m, c in row.items():
                    lhs = f.add(lhs, f.mul(c, form.gram[m][k]))
                rhs = f.zero
                for m, c in L.bracket_basis(j, k).items():
                    rhs = f.add(rhs, f.mul(c, form.gram[i][m]))
                if not f.is_zero(f.sub(lhs, rhs)):
                    return False
    return True


def dense_killing_gram(L):
    """Reference for ``killing_form``: the Gram matrix of trace(ad_x ad_y),
    entry by entry, from the matrices of ad_{b_i} as {(k, j): c} dicts."""
    f = L.field
    n = L.n
    ad_rows = []  # ad_i as {(k, j): c} with [b_i, b_j] = sum c b_k
    for i in range(n):
        m = {}
        for j in range(n):
            for k, c in L.bracket_basis(i, j).items():
                m[(k, j)] = c
        ad_rows.append(m)
    gram = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = f.zero
            for (k, l), c in ad_rows[j].items():
                d = ad_rows[i].get((l, k))
                if d is not None:
                    s = f.add(s, f.mul(c, d))
            gram[i][j] = s
            gram[j][i] = s
    return gram


def dense_center(L):
    """Reference for ``liealg.center``: the kernel of the n blocks of n x n
    dense rows, block j holding the matrix of x -> [x, b_j]."""
    from extremal_lie.linalg import kernel
    from extremal_lie.liealg import Subspace

    f = L.field
    rows = []
    for j in range(L.n):
        block = [[f.zero] * L.n for _ in range(L.n)]
        for i in range(L.n):
            for k, c in L.bracket_basis(i, j).items():
                block[k][i] = c
        rows.extend(block)
    return Subspace.from_elements(L, kernel(f, rows, L.n))


def preserves_form(phi, form):
    """Whether the automorphism ``phi`` keeps the bilinear form: f(phi b_i,
    phi b_j) equals the Gram entry f(b_i, b_j) on every basis pair."""
    L, f = phi.lie, phi.lie.field
    for i in range(L.n):
        fi = phi.apply(L.basis_element(i))
        for j in range(i, L.n):
            v = form.value(fi, phi.apply(L.basis_element(j))).value
            if not f.is_zero(f.sub(v, form.gram[i][j])):
                return False
    return True
