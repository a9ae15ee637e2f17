"""Exact linear algebra over a Field, on raw values.

A vector is a sparse ``{index: raw value}`` dict.  It is *canonical* when it
holds no zero entry and, over GF(p), every entry is a residue in ``[0, p)``
(over Q an entry is an int, or a Fraction when it is not integral).  A
matrix is a list of canonical sparse rows.  Every vector and matrix that
one layer hands to another (algebra elements, structure constants,
automorphism columns, Gram rows, kernels, coordinates, the rows of L_r,
matrix algebras) is in this form, so two vectors are equal exactly when
their dicts are.  ``axpy`` adds a multiple of one vector into another with
plain ``+`` and ``*`` and never reduces; ``canonical`` makes the result
canonical once, at the end.  These two functions are where that rule is
written down.  ``charpoly`` is the one
dense routine: it densifies its matrix internally, and polynomials are
dense coefficient lists.

Everything here is deterministic: pivots are chosen left to right, rows are
kept in fully reduced echelon form, so a subspace has a unique canonical
basis.

``Coordinates`` is the one augmented echelon [rows | identity]: it solves
for coordinates in a span, and its relations among the rows are a kernel.
A linear map is handed to ``kernel`` by its images, e_i -> ``images[i]``,
and ``mat_inverse`` reads its rows off the same echelon.

``Echelon`` stores its rows sparse, as ``{column: value}`` dicts, in a form
chosen per field so that elimination never builds a ``Fraction``:

* over GF(p) a row is the reduced row itself, residues in ``[0, p)`` with
  pivot entry 1;
* over Q a row is the primitive integer multiple of the reduced row (the gcd
  of its entries is 1) that is positive at its pivot.  An input vector is
  first scaled by the lcm of its denominators, and each elimination step
  scales by a cofactor instead of dividing.  A nonzero rational vector has
  exactly one positive multiple that is a primitive integer vector with a
  positive leading entry, so the stored row determines the reduced row and
  back; pivots and ``row(c)`` are those of the reduced echelon form computed
  with fractions.

A reduced row vanishes at every other pivot column, so reducing a vector
only visits the pivot columns in the vector's own support.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def axpy(acc, c, v):
    """Add c * v into the dict ``acc``, in place, with plain ``+`` and ``*``:
    over GF(p) the entries are left unreduced until ``canonical``."""
    get = acc.get
    for j, x in v.items():
        acc[j] = get(j, 0) + c * x


def canonical(field, acc):
    """The canonical vector of the dict ``acc``: its entries reduced mod p
    over GF(p), integral ones as ints over Q, its zeros dropped (see the
    module docstring)."""
    p = field.characteristic
    if p:
        return {j: r for j, x in acc.items() if (r := x % p)}
    return {j: x if type(x) is int or x.denominator != 1 else x.numerator for j, x in acc.items() if x}


def combine(field, coeffs, vecs):
    """The canonical vector sum_k c_k vecs[k], over the items (k, c_k) of
    the dict ``coeffs``."""
    acc = {}
    for k, c in coeffs.items():
        axpy(acc, c, vecs[k])
    return canonical(field, acc)


def _ratio(n, d):
    """n/d for ints, d > 0: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def clear_denominators(v):
    """(w, d) for a dict ``v`` of rationals: d is the lcm of the denominators
    of its entries and w = d * v, a dict of ints (``v`` itself when its
    entries are all ints)."""
    if all(type(x) is int for x in v.values()):
        return v, 1
    d = lcm(*(x.denominator for x in v.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in v.items()}, d


def divide(v, d):
    """The canonical rational vector v / d, for a dict ``v`` of ints and an
    int d > 0: its zeros dropped, an entry an int where d divides it."""
    if d == 1:
        return {j: x for j, x in v.items() if x}
    return {j: _ratio(x, d) for j, x in v.items() if x}


def _make_primitive(v, lead):
    """Divide the dict ``v`` of ints, in place, by the gcd of its entries,
    signed so that ``v[lead]`` becomes positive."""
    g = gcd(*v.values())
    if v[lead] < 0:
        g = -g
    if g != 1:
        for j in v:
            v[j] //= g


class Echelon:
    """Incrementally maintained reduced row echelon basis of a subspace of
    k^width; vectors are dicts (see the module docstring)."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self._p = field.characteristic
        self._rows = {}  # pivot column -> {column: value}, see the module docstring

    @property
    def dim(self):
        return len(self._rows)

    def _sparse(self, vec):
        """(v, den): ``vec`` as a new canonical dict; over Q as integers,
        ``vec`` scaled by ``den``, the lcm of its denominators (den = 1 over
        GF(p))."""
        v = canonical(self.field, vec)
        if self._p:
            return v, 1
        return clear_denominators(v)

    def _cancel(self, u, c, r):
        """Make the dict ``u`` vanish at column ``c``, in place, by
        subtracting a multiple of the row ``r``, whose pivot is ``c``.  Over Q
        ``u`` is first scaled by the least positive integer m that makes the
        multiple integral; returns m (always 1 over GF(p), where r[c] = 1)."""
        p = self._p
        a, x = r[c], u[c]
        m = 1
        if a != 1:
            g = gcd(a, x)
            m, x = a // g, x // g
            if m != 1:
                for j in u:
                    u[j] *= m
        for j, z in r.items():
            w = u.get(j, 0) - x * z
            if p:
                w %= p
            if w:
                u[j] = w
            else:
                del u[j]
        return m

    def _eliminate(self, v):
        """Reduce the dict ``v`` in place against the rows, so that it
        vanishes at every pivot column.  Returns the factor by which ``v`` was
        scaled on the way (always 1 over GF(p))."""
        rows = self._rows
        scale = 1
        for c in v.keys() & rows.keys():
            scale *= self._cancel(v, c, rows[c])
        return scale

    def reduce(self, vec):
        """The residual of ``vec`` after reduction, as a canonical vector;
        does not modify the basis."""
        v, den = self._sparse(vec)
        scale = den * self._eliminate(v)
        if self._p or scale == 1:
            return v
        return divide(v, scale)

    def insert(self, vec):
        """Add ``vec`` to the span.  Returns the new pivot column, or None."""
        v, _ = self._sparse(vec)
        self._eliminate(v)
        if not v:
            return None
        piv = min(v)
        p = self._p
        if p:
            inv = pow(v[piv], -1, p)
            if inv != 1:
                v = {j: x * inv % p for j, x in v.items()}
        else:
            _make_primitive(v, piv)
        for c, r in self._rows.items():
            if piv in r:
                self._cancel(r, piv, v)
                if not p:
                    _make_primitive(r, c)
        self._rows[piv] = v
        return piv

    def contains(self, vec):
        v, _ = self._sparse(vec)
        self._eliminate(v)
        return not v

    def row(self, c):
        """The reduced row with pivot column ``c``, as {column: raw value}
        over its nonzero entries (the entry at ``c`` is 1)."""
        r = self._rows[c]
        a = r[c]
        if a == 1:
            return dict(r)
        return {j: _ratio(x, a) for j, x in r.items()}

    def pivot_columns(self):
        return sorted(self._rows)


def echelon_from_rows(field, width, rows):
    e = Echelon(field, width)
    for r in rows:
        e.insert(r)
    return e


def closure(echelon, seeds, expand):
    """Close ``seeds`` under ``expand`` inside ``echelon``, breadth first.

    Each vector that raises the dimension is kept, and ``expand(v)`` gives
    the next candidates as an iterable that is only drawn from when its turn
    comes, so a lazy one holds no candidates in memory.  Stops at the
    fixpoint, or as soon as the echelon is full.  It always stops: every kept
    vector raises the dimension and expands to finitely many candidates.
    Returns the kept vectors in order.
    """
    kept = []
    work = [seeds]
    for candidates in work:  # grows while it is walked
        for v in candidates:
            if echelon.insert(v) is not None:
                kept.append(v)
                if echelon.dim == echelon.width:
                    return kept
                work.append(expand(v))
    return kept


def rank(field, rows, width):
    """The rank of the matrix ``rows`` with ``width`` columns."""
    return echelon_from_rows(field, width, rows).dim


class Coordinates:
    """Coordinates of vectors in the span of the fixed sparse ``rows`` of
    length ``width``, and the relations among the rows.  The augmented
    echelon [rows | identity] is built once: a reduced row with its pivot
    past ``width`` is (0 | c) with sum_i c_i rows_i = 0, and a solve is one
    reduction against it."""

    def __init__(self, field, rows, width):
        self.field = field
        self.width = width
        self._aug = Echelon(field, width + len(rows))
        for i, row in enumerate(rows):
            v = dict(row)
            v[width + i] = 1
            self._aug.insert(v)

    def _tail(self, c):
        """The reduced row with pivot ``c``, past ``width``, as a vector in
        the row indices."""
        w = self.width
        return {j - w: x for j, x in self._aug.row(c).items() if j >= w}

    def spans(self):
        """Whether the rows span all of k^width."""
        return sum(1 for c in self._aug.pivot_columns() if c < self.width) == self.width

    def relations(self):
        """The canonical basis of {c : sum_i c_i rows_i = 0}: the reduced rows
        with their pivot past ``width`` are the reduced echelon form of that
        subspace, which is unique."""
        return [self._tail(c) for c in self._aug.pivot_columns() if c >= self.width]

    def solve(self, target):
        """The canonical coefficient dict c with sum_i c_i rows_i =
        ``target``, or None.  Only the support of the reduced residual is
        read."""
        w = self.width
        residual = self._aug.reduce(target)
        if any(j < w for j in residual):
            return None
        return canonical(self.field, {j - w: -x for j, x in residual.items()})


def kernel(field, images, width):
    """The canonical basis of the kernel of the linear map that sends e_i to
    ``images[i]``, a vector of length ``width``: the relations among the
    images, as sparse vectors of length ``len(images)``."""
    return Coordinates(field, images, width).relations()


def common_kernel(field, images, width):
    """The canonical basis of the kernel of x -> (m_1 x, ..., m_t x), for t
    linear maps into k^width: ``images[i]`` lists m_1 e_i, ..., m_t e_i.
    The stacked image of e_i holds m_s e_i at the offset s * width."""
    t = len(images[0]) if images else 0
    stacked = [{s * width + k: c for s, v in enumerate(ims) for k, c in v.items()} for ims in images]
    return kernel(field, stacked, t * width)


def solve_in_span(field, basis_rows, width, target):
    """Coefficients expressing ``target`` in the given (independent) rows, or None."""
    return Coordinates(field, basis_rows, width).solve(target)


def mat_mul(field, a, b):
    """The product of the matrices ``a`` and ``b``: row i is the combination
    of the rows of ``b`` with the entries of row i of ``a``."""
    return [combine(field, row, b) for row in a]


def flatten(m):
    """The size x size matrix ``m`` as one vector of length size^2, row-major:
    entry (i, j) at index i * size + j."""
    size = len(m)
    return {i * size + j: x for i, row in enumerate(m) for j, x in row.items()}


def unflatten(v, size):
    """The size x size matrix whose ``flatten`` is ``v``."""
    m = [{} for _ in range(size)]
    for c, x in v.items():
        m[c // size][c % size] = x
    return m


def mat_inverse(field, a):
    """The inverse of the square matrix ``a``: n rows with entries in columns
    0..n-1.  ValueError when it is not square or is singular.  Row c of the
    inverse is the tail of the reduced row with pivot c of [a | identity]."""
    n = len(a)
    if any(not 0 <= j < n for row in a for j in row):
        raise ValueError("matrix is not square")
    coords = Coordinates(field, a, n)
    if not coords.spans():
        raise ValueError("matrix is singular")
    return [coords._tail(c) for c in range(n)]


# -- polynomials (dense coefficient lists, low degree first) -----------------


def poly_mul(field, a, b):
    f = field
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if f.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def charpoly(field, a):
    """Characteristic polynomial det(t*I - A) of the square matrix ``a``,
    via Hessenberg reduction on a dense copy.

    Works over any field; returns monic coefficients, low degree first.
    """
    f = field
    n = len(a)
    h = [[f.zero] * n for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in row.items():
            h[i][j] = x
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if not f.is_zero(h[i][j]):
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = f.inv(h[j + 1][j])
        for i in range(j + 2, n):
            c = f.mul(h[i][j], inv)
            if f.is_zero(c):
                continue
            for k in range(n):
                h[i][k] = f.sub(h[i][k], f.mul(c, h[j + 1][k]))
            for k in range(n):
                h[k][j + 1] = f.add(h[k][j + 1], f.mul(c, h[k][i]))
    # charpoly of Hessenberg matrix by the standard recurrence
    polys = [[f.one]]  # p_0 = 1
    for m in range(1, n + 1):
        term = poly_mul(f, [f.neg(h[m - 1][m - 1]), f.one], polys[m - 1])
        pm = list(term) + [f.zero] * (m + 1 - len(term))
        prod = f.one
        for i in range(m - 1, 0, -1):
            prod = f.mul(prod, h[i][i - 1])
            coef = f.mul(prod, h[i - 1][m - 1])
            if f.is_zero(coef):
                continue
            pi = polys[i - 1]
            for k in range(len(pi)):
                pm[k] = f.sub(pm[k], f.mul(coef, pi[k]))
        polys.append(pm[: m + 1])
    return polys[n]
