"""Exact dense linear algebra over a Field, on raw values.

Everything here is deterministic: pivots are chosen left to right, rows are
kept in fully reduced echelon form, so a subspace has a unique canonical
basis.
"""

from __future__ import annotations


class Echelon:
    """Incrementally maintained reduced row echelon basis of a subspace of k^width."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = {}  # pivot column -> row (list of raw values), pivot entry = 1

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """The residual of ``vec`` after reduction; does not modify the basis."""
        f = self.field
        v = list(vec)
        for c in sorted(self.rows):
            if not f.is_zero(v[c]):
                coef = v[c]
                row = self.rows[c]
                for j in range(c, self.width):
                    v[j] = f.sub(v[j], f.mul(coef, row[j]))
        return v

    def insert(self, vec):
        """Add ``vec`` to the span.  Returns the new pivot column, or None."""
        f = self.field
        v = self.reduce(vec)
        piv = None
        for c in range(self.width):
            if not f.is_zero(v[c]):
                piv = c
                break
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
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec))

    def basis(self):
        """Canonical basis rows, ordered by pivot column."""
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def pivot_columns(self):
        return sorted(self.rows)

    def copy(self):
        e = Echelon(self.field, self.width)
        e.rows = {c: list(r) for c, r in self.rows.items()}
        return e


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


def rank(field, rows, width=None):
    if not rows:
        return 0
    w = width if width is not None else len(rows[0])
    return echelon_from_rows(field, w, rows).dim


def kernel(field, rows, width):
    """Canonical basis of the right kernel {v : rows . v = 0}, rows of length ``width``."""
    e = echelon_from_rows(field, width, rows)
    piv = e.pivot_columns()
    free = [c for c in range(width) if c not in piv]
    basis = []
    for c in free:
        v = [field.zero] * width
        v[c] = field.one
        for pc in piv:
            v[pc] = field.neg(e.rows[pc][c])
        basis.append(v)
    # already reduced echelon w.r.t. the free columns; canonicalize anyway
    return echelon_from_rows(field, width, basis).basis()


class Coordinates:
    """Coordinates of vectors in the span of fixed rows of length ``width``.

    The augmented echelon [rows | identity] is built once; each query is one
    reduction against it."""

    def __init__(self, field, rows, width):
        self.field = field
        self.width = width
        self.count = len(rows)
        self._aug = Echelon(field, width + self.count)
        for i, row in enumerate(rows):
            v = list(row) + [field.zero] * self.count
            v[width + i] = field.one
            self._aug.insert(v)

    def spans(self):
        """Whether the rows span all of k^width."""
        return sum(1 for c in self._aug.rows if c < self.width) == self.width

    def solve(self, target):
        """Coefficients c with sum_i c_i rows_i = ``target``, or None."""
        f = self.field
        residual = self._aug.reduce(list(target) + [f.zero] * self.count)
        if any(not f.is_zero(x) for x in residual[: self.width]):
            return None
        return [f.neg(x) for x in residual[self.width:]]


def solve_in_span(field, basis_rows, width, target):
    """Coefficients expressing ``target`` in the given (independent) rows, or None."""
    return Coordinates(field, basis_rows, width).solve(target)


def mat_mul(field, a, b):
    """The product of an n x k matrix ``a`` and a k x m matrix ``b``, row by
    row, skipping zero entries of both."""
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


def mat_vec(field, a, v):
    f = field
    out = []
    for row in a:
        s = f.zero
        for x, y in zip(row, v):
            if not f.is_zero(x) and not f.is_zero(y):
                s = f.add(s, f.mul(x, y))
        out.append(s)
    return out


def mat_inverse(field, a):
    f = field
    n = len(a)
    e = Echelon(f, 2 * n)
    for i in range(n):
        row = list(a[i]) + [f.zero] * n
        row[n + i] = f.one
        e.insert(row)
    if e.pivot_columns()[: n] != list(range(n)) or e.dim != n:
        raise ValueError("matrix is singular")
    rows = e.basis()
    return [r[n:] for r in rows]


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
    """Characteristic polynomial det(t*I - A), via Hessenberg reduction.

    Works over any field; returns monic coefficients, low degree first.
    """
    f = field
    n = len(a)
    h = [list(row) for row in a]
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
