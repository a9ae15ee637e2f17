"""Chevalley Lie algebras over a chosen field: long-root extremality,
exponentials, natural representations, and minimal extremal generation.

The extra generators of the generation recipes are always computed as
exp-compositions applied to root elements, evaluated in this package's own
sign convention, so every verification is convention-independent.

A ``ChevalleyAlgebra`` is built one way, from type, rank and field, on the
root system and integer constants of ``rootdata.integer_chevalley_data``.

Exponentials are applied to one vector at a time, and no n x n map is
composed.  exp(x, s) of an extremal x (``exp_map``) reads the columns of
ad_x and the f_x of its extremality proof.  exp(s ad x_root) v
sums, over the support of v, the divided powers ad^k x_root b_j / k! of the
columns it reaches, each built once per algebra and kept on the
``ChevalleyAlgebra``.  Those divided powers are integral (Carter, "Simple
Groups of Lie Type", 1972), so one integer column, reduced mod p or read
over Q, serves every field; over GF(3), where 3! = 0, only they give exp.
"""

from __future__ import annotations

from .rootdata import NonIntegral, RootSystem, integer_chevalley_data
from .liealg import (
    AlgebraElement,
    LieAlgebra,
    NotExtremal,
    NotNilpotent,
    commutator,
    extremal_closure,
    is_extremal,
    subalgebra_generated,
    trace_zero,
)
from .linalg import (
    Echelon,
    axpy,
    canonical,
    clear_denominators,
    closure,
    combine,
    divide,
    echelon_from_rows,
    flatten,
    kernel,
    unflatten,
)
from .nilquot import L_DIMS
from .scalars import QQ


class UnsupportedType(ValueError):
    pass


class ChevalleyAlgebra:
    """Lie algebra of Chevalley type: basis {x_alpha} + {h_i}, exact field."""

    def __init__(self, type_, rank, field):
        rs, labels, self.int_table = integer_chevalley_data(type_, rank)
        self.rootsystem = rs
        self.field = field
        self.root_index = {t: k for k, t in enumerate(rs.roots)}
        first = [self.root_index[a] for a in rs.simple_roots + [_neg(rs.highest_root)]]
        self.lie = LieAlgebra(field, labels, self.int_table, first=first)
        self._divided = {}  # (root index, j) -> divided powers, see divided_powers

    @property
    def dim(self):
        return self.lie.n

    def x(self, root):
        return self.lie.basis_element(self.root_index[tuple(root)])

    def divided_powers(self, idx, j):
        """[ad^k x / k! b_j for k = 1, 2, ...] as integer dicts, x the root
        element of basis index ``idx``, built on first use and kept.  Each
        step reads the structure constants [x, b_a] straight from the integer
        table."""
        key = (idx, j)
        out = self._divided.get(key)
        if out is not None:
            return out
        table = self.int_table
        out = []
        vec = {j: 1}  # (ad x)^k b_j over the integers
        factorial = 1
        for k in range(1, 8):
            nxt = {}
            for a, c in vec.items():
                if a > idx:
                    axpy(nxt, c, table.get((idx, a), {}))
                elif a < idx:
                    axpy(nxt, -c, table.get((a, idx), {}))
            vec = canonical(QQ, nxt)
            if not vec:
                break
            factorial *= k
            if any(v % factorial for v in vec.values()):
                raise NonIntegral("divided power of ad x_root is not integral")
            out.append({t: v // factorial for t, v in vec.items()})
        else:
            raise NotNilpotent("ad x_root is not nilpotent of small index")
        self._divided[key] = out
        return out

    def __repr__(self):
        return "ChevalleyAlgebra(%s%d over %r)" % (
            self.rootsystem.type,
            self.rootsystem.rank,
            self.field,
        )


def chevalley_algebra(type_, rank, field):
    """The Chevalley algebra of a type over ``field``, as the commands build it."""
    return ChevalleyAlgebra(type_, rank, field)


class ExpMap:
    """s -> exp(x, s) = 1 + s ad_x + (s^2/2) ad_x^2 for an extremal element
    x, as the factors ``Exp`` that act on vectors (see ``exp_map``).

    It reads the columns [x, b_j] of ad_x and the functional f_x that
    ``is_extremal`` proved: ad_x^2 v = f_x(v) x, so ad_x^2 needs no column.
    Over Q the columns, f_x and x are scaled to ints by the lcms dA, dF and
    dX of their denominators, and with dT = dF dX and s = a/b a factor maps
    the ints w to 2b^2 dA dT w + 2ab dT (dA ad_x w) + a^2 dA (dF f_x(w))(dX x),
    which is 2b^2 dA dT exp(x, s) w."""

    def __init__(self, L, x, fx):
        self.lie = L
        self.functional = fx
        ad, fv, xv = L.ad_columns(x), fx.values, x.coeffs
        if not L.field.characteristic:
            ad, d_ad = clear_denominators(flatten(ad))
            ad = unflatten(ad, L.n)
            fv, d_f = clear_denominators(fv)
            xv, d_x = clear_denominators(xv)
            self._scale = (d_ad, d_f * d_x)
        # what a factor reads; a factor holds this, not the map, so that
        # map and factors form no reference cycle and are freed at once
        self._data = (L.field, ad, fv, xv)
        self._memo = {}

    def __call__(self, s):
        s = self.lie.field.raw(s)
        g = self._memo.get(s)
        if g is None:
            g = self._memo[s] = Exp(self, s)
        return g


class Exp:
    """exp(x, s) for one extremal x and one parameter s: a factor of a group
    word, applied to one vector at a time.  ``act`` maps a canonical dict w
    of ints to den exp(x, s) w, canonical and of ints (``den`` is 1 over
    GF(p)), so a word applied factor by factor divides once at its end."""

    __slots__ = ("_data", "_c", "den")

    def __init__(self, m, s):
        self._data = m._data
        f = m.lie.field
        if f.characteristic:
            self._c, self.den = (1, s, f.div(s * s, 2)), 1
        else:
            d_ad, d_t = m._scale
            a, b = s.numerator, s.denominator
            self.den = 2 * b * b * d_ad * d_t
            self._c = (self.den, 2 * a * b * d_t, a * a * d_ad)

    def act(self, w):
        # the axpy loops are written out: a call per column made the
        # root-group checks of D4 and B3 about 10% slower
        c0, c1, c2 = self._c
        f, ad, fv, xv = self._data
        acc = {j: c0 * v for j, v in w.items()}
        get = acc.get
        g = 0
        for k, v in w.items():
            col = ad[k]
            if col:
                c = c1 * v
                for j, a in col.items():
                    acc[j] = get(j, 0) + c * a
            if k in fv:
                g += v * fv[k]
        if g:
            c = c2 * g
            for j, a in xv.items():
                acc[j] = get(j, 0) + c * a
        return canonical(f, acc)

    def apply(self, elt):
        """exp(x, s) elt, canonical."""
        if self._data[0].characteristic:
            return AlgebraElement(elt.algebra, self.act(elt.coeffs))
        w, e = clear_denominators(elt.coeffs)
        return AlgebraElement(elt.algebra, divide(self.act(w), e * self.den))


def exp_map(L, x):
    """The ``ExpMap`` s -> exp(x, s) of an extremal element x of the
    ``LieAlgebra`` L.  Extremality is proved once, and its by-product f_x,
    with the columns of ad_x, is all a factor reads.  Each parameter's factor
    is built once and kept: a later call with the same raw value returns the
    same ``Exp``.  Its attribute ``functional`` is f_x, so a caller that needs
    both proves x extremal once."""
    fx = is_extremal(L, x)
    if fx is None:
        raise NotExtremal("exp is defined at extremal elements")
    return ExpMap(L, x, fx)


def exp_automorphism(L, x, s):
    """exp(x, s) for an extremal element x, as the factor ``exp_map`` gives."""
    return exp_map(L, x)(s)


def root_exp_apply(A, root, s, v):
    """exp(s ad x_root) v = sum_j v_j (b_j + sum_k s^k ad^k x_root b_j / k!),
    canonical, from the divided powers of the columns in v's support
    (``ChevalleyAlgebra.divided_powers``); the map itself is never built.
    The sum runs on raw values with plain ``+`` and ``*`` and is made
    canonical once, as ``linalg.axpy`` does."""
    f = A.field
    s = f.raw(s)
    idx = A.root_index[tuple(root)]
    acc = {}
    for j, c in v.coeffs.items():
        acc[j] = acc.get(j, 0) + c
        for d in A.divided_powers(idx, j):
            c *= s
            axpy(acc, c, d)
    return AlgebraElement(A.lie, canonical(f, acc))


def root_exponential(A, root, s=1):
    """exp(s ad x_root) with integral divided powers, an automorphism of the
    Chevalley algebra over any field of characteristic != 2, as its n
    columns: the images of the basis vectors under ``root_exp_apply``."""
    L = A.lie
    return [root_exp_apply(A, root, s, L.basis_element(j)).coeffs for j in range(L.n)]


# -- extremality reports --------------------------------------------------------


def long_root_extremality_check(A):
    """Every long root element is extremal; in multi-laced types every short
    root element is not."""
    rs = A.rootsystem
    rows = []
    ok = True
    for root in rs.roots:
        fx = is_extremal(A.lie, A.x(root))
        expected = rs.is_long(root)
        got = fx is not None
        rows.append({"root": root, "long": expected, "extremal": got, "pass": got == expected})
        ok = ok and got == expected
    return {"type": rs.type, "rank": rs.rank, "char": A.field.characteristic, "rows": rows, "pass": ok}


def extremal_spanning_set(A):
    """Extremal elements spanning the algebra: long root elements and their
    images under the root-group generators."""
    rs = A.rootsystem
    steps = [(root, s) for root in rs.roots for s in (1, -1)]
    return extremal_closure(
        A.lie,
        [A.x(root) for root in rs.roots if rs.is_long(root)],
        lambda v: (root_exp_apply(A, root, s, v) for root, s in steps),
    )


# -- minimal generation recipes -------------------------------------------------


def minimal_generator_count(type_, rank):
    """t(g) from the established table (B2 follows the C2 value)."""
    if type_ == "A":
        return rank + 1
    if type_ == "B":
        return 4 if rank == 2 else rank + 1
    if type_ == "C":
        return 2 * rank
    if type_ == "D":
        return rank
    if type_ in ("E", "F"):
        return 5
    if type_ == "G":
        return 4
    raise UnsupportedType(type_)


def _neg(t):
    return tuple(-c for c in t)


class _Recipe:
    """Generators given as root elements and exp-chains exp(x_r1, 1) ...
    exp(x_rk, 1) x_base in this package's sign convention, evaluated into
    ``gens`` as they are recorded."""

    def __init__(self, A):
        self.A = A
        self.gens = []

    def x(self, root):
        self.gens.append(self.A.x(root))

    def chain(self, exp_roots, base_root):
        v = self.A.x(base_root)
        for root in reversed(exp_roots):  # rightmost factor acts first
            v = root_exp_apply(self.A, root, 1, v)
        self.gens.append(v)


def _mingen_recipe(A):
    rs = A.rootsystem
    t, n = rs.type, rs.rank
    r = _Recipe(A)
    if t == "A":
        for s in rs.simple_roots:
            r.x(s)
        r.x(_neg(rs.highest_root))
        return r
    if t == "G":
        r.x((0, 1))
        r.x((3, 1))
        r.x(_neg((3, 2)))
        r.chain([_neg((2, 1))], (3, 2))
        return r
    if t == "F":
        _d4_base(r, lambda eps: rs.root_from_eps(eps))
        r.chain([_neg((1, 2, 3, 1)), (0, 0, 0, 1)], (0, 1, 2, 0))
        return r
    if t == "E":
        emb = _d4_into_e(rs)
        _d4_base(r, emb)
        if n == 6:
            r.chain(
                [_neg((1, 0, 1, 1, 0, 0)), (0, 0, 1, 1, 1, 1), _neg((1, 1, 1, 2, 2, 1))],
                (1, 0, 0, 0, 0, 0),
            )
        elif n == 7:
            r.chain(
                [
                    (0, 1, 1, 1, 1, 1, 1),
                    _neg((1, 0, 1, 0, 0, 0, 0)),
                    _neg((1, 1, 1, 2, 1, 1, 0)),
                    (0, 0, 1, 1, 1, 1, 0),
                    _neg((1, 1, 1, 2, 2, 1, 1)),
                ],
                (1, 0, 0, 0, 0, 0, 0),
            )
        else:
            r.chain(
                [
                    (0, 1, 1, 1, 1, 1, 1, 0),
                    _neg((1, 1, 1, 2, 1, 1, 1, 0)),
                    (0, 1, 1, 2, 2, 1, 1, 1),
                    _neg((1, 0, 1, 1, 1, 1, 1, 1)),
                    (1, 2, 3, 4, 3, 3, 2, 1),
                    _neg((2, 3, 3, 5, 4, 3, 2, 1)),
                ],
                (1, 0, 0, 0, 0, 0, 0, 0),
            )
        return r
    eps = rs.root_from_eps
    if t == "B":
        if n == 2:
            # B2 via the C2 route under the diagram swap
            r.x((1, 0))
            r.x(_neg((1, 0)))
            r.chain([_neg((1, 1))], (1, 2))
            r.chain([(1, 1)], _neg((1, 2)))
            return r
        if n == 3:
            r.x(eps({1: 1, 2: -1}))
            r.x(eps({2: 1, 3: -1}))
            r.x(eps({1: -1, 3: 1}))
            r.chain([eps({1: -1, 2: -1}), eps({1: 1})], eps({1: -1, 2: 1}))
            return r
        _mingen_d_over_eps(r, offset=0, count=n)
        r.chain([eps({2: 1})], eps({1: 1, 2: -1}))
        return r
    if t == "C":
        _mingen_c(r, offset=0, count=n)
        return r
    if t == "D":
        _mingen_d_over_eps(r, offset=0, count=n)
        return r
    raise UnsupportedType(t)


def _mingen_c(r, offset, count):
    """C_count over epsilon indices offset+1 .. offset+count."""
    eps = r.A.rootsystem.root_from_eps
    if count == 1:
        r.x(eps({offset + 1: 2}))
        r.x(eps({offset + 1: -2}))
        return
    _mingen_c(r, offset + 1, count - 1)
    e1, e2 = offset + 1, offset + 2
    r.chain([eps({e1: -1, e2: -1})], eps({e1: 2}))
    r.chain([eps({e1: 1, e2: 1})], eps({e1: -2}))


def _mingen_d_over_eps(r, offset, count):
    """D_count over epsilon indices offset+1 .. offset+count (count >= 4)."""
    eps = r.A.rootsystem.root_from_eps
    if count == 4:
        _d4_base(r, lambda d: eps({offset + i: c for i, c in d.items()}))
        return
    _mingen_d_over_eps(r, offset + 1, count - 1)
    e1, e2 = offset + 1, offset + 2
    r.chain([eps({e1: -1, e2: 1})], eps({e1: 1, e2: -1}))


def _d4_base(r, mroot):
    """The 4-element D4 recipe; mroot maps eps dicts to ambient root tuples."""
    r.x(mroot({1: 1, 2: -1}))
    r.x(mroot({2: 1, 3: -1}))
    r.x(_neg(mroot({1: 1, 3: -1})))
    r.chain(
        [mroot({1: 1, 4: 1}), mroot({3: -1, 4: 1}), _neg(mroot({1: 1, 3: 1}))],
        mroot({3: 1, 4: -1}),
    )


def _d4_into_e(rs):
    """Map from D4 eps dicts into an E-type root system: the D4 subsystem on
    the simple roots (alpha3, alpha4, alpha5, alpha2)."""
    d4 = RootSystem("D", 4)
    images = [2, 3, 4, 1]  # 0-indexed simple indices in E

    def emb(eps_dict):
        coords = d4.root_from_eps(eps_dict)
        vec = [0] * rs.rank
        for k, c in enumerate(coords):
            vec[images[k]] += c
        return rs.root_from_coeffs(tuple(vec))

    return emb


def verify_generation(A, gens):
    dim = subalgebra_generated(A.lie, gens).dim
    return {"dim": dim, "expected": A.lie.n, "pass": dim == A.lie.n}


def dimension_lower_bound(dim):
    """Lower bound on the number of extremal generators from dim alone: an
    algebra generated by r extremal elements has dimension at most dim L_r.
    Past the last tabulated r the bound stays at that r."""
    return next((r for r in sorted(L_DIMS) if dim <= L_DIMS[r]), max(L_DIMS))


def natural_representation(type_, rank, field):
    """The natural module of a classical type: the rank m of a long-root
    matrix X in it and the generation lower bound ceil(N/m).

    The matrix algebra g is a kernel: the trace-zero matrices for A, the
    X with X^T G + G X = 0 for B, C and D.  Either kernel is closed under
    commutators, so g needs no closure and no structure constants.  ``pass``
    checks, on matrices, the premises of the bound: X lies in g and spans an
    inner ideal ([X,[X,Y]] in kX for every basis matrix Y, so X is
    extremal), g is irreducible on the module (``_flag_irreducible`` on the
    flag basis of ``_split_gram``, where the Borel subalgebra of g is upper
    triangular), and dim g is the dimension of the Chevalley algebra of the
    type.  It does not check that every extremal element of g has rank at
    most m."""
    f = field
    basis, long_mat = _natural_module(f, type_, rank)
    size = len(long_mat)
    x = flatten(long_mat)
    line = echelon_from_rows(f, size * size, [x])
    extremal = echelon_from_rows(f, size * size, map(flatten, basis)).contains(x) and all(
        line.contains(commutator(f, long_mat, unflatten(commutator(f, long_mat, y), size))) for y in basis
    )
    dim_expected = len(integer_chevalley_data(type_, rank)[1])
    m = echelon_from_rows(f, size, long_mat).dim
    irreducible = _flag_irreducible(f, basis, size)
    return {
        "type": type_,
        "rank": rank,
        "dim": len(basis),
        "dim_expected": dim_expected,
        "module_dim": size,
        "extremal_matrix_rank": m,
        "extremal_ok": extremal,
        "irreducible": irreducible,
        "lower_bound": -(-size // m),
        "pass": len(basis) == dim_expected and extremal and irreducible,
    }


def _natural_module(f, type_, n):
    """(basis of g, a long-root matrix) for the natural module of a
    classical type of rank n, on the basis of ``_split_gram``: E_01 for A,
    E_0,N-1 for C, E_01 - E_N-2,N-1 for B and D."""
    if type_ not in ("A", "B", "C", "D"):
        raise UnsupportedType("natural representation is for classical types")
    size = {"A": n + 1, "B": 2 * n + 1}.get(type_, 2 * n)
    basis = trace_zero(f, size) if type_ == "A" else _matrices_preserving(f, _split_gram(f, type_, n))
    entries = {"A": {(0, 1): 1}, "C": {(0, size - 1): 1}}.get(type_, {(0, 1): 1, (size - 2, size - 1): -1})
    return basis, _matrix(size, {k: f.raw(v) for k, v in entries.items()})


def _matrix(size, entries):
    """The size x size matrix with the canonical ``{(i, j): value}``
    entries, as sparse rows."""
    m = [{} for _ in range(size)]
    for (i, j), x in entries.items():
        m[i][j] = x
    return m


def _split_gram(f, type_, n):
    """The Gram matrix of the split form of type B, C or D on the Witt basis
    in flag order e_1..e_n, (e_0 for B,) f_n..f_1: the antidiagonal, with
    -1 on its lower half for C."""
    size = 2 * n + 1 if type_ == "B" else 2 * n
    minus = f.raw(-1) if type_ == "C" else 1
    return _matrix(size, {(i, size - 1 - i): minus if i >= n else 1 for i in range(size)})


def _matrices_preserving(f, gram):
    """Basis of {X : X^T G + G X = 0}, the kernel of E_ab -> E_ab^T G +
    G E_ab on flattened matrices (``linalg.flatten``).  An entry G[k][j] = g
    adds g at (b, j) to the image of E_kb and at (k, b) to that of E_jb, for
    every b: one pass over the Gram, two entries per image for a Gram with
    one entry per row and column."""
    size = len(gram)
    images = [{} for _ in range(size * size)]
    for k, row in enumerate(gram):
        for j, g in row.items():
            for b in range(size):
                axpy(images[k * size + b], g, {b * size + j: 1})
                axpy(images[j * size + b], g, {k * size + b: 1})
    return [unflatten(v, size) for v in kernel(f, [canonical(f, v) for v in images], size * size)]


def _flag_irreducible(f, mats, size):
    """True only when the matrices ``mats`` act irreducibly on k^size, in
    any characteristic: the common kernel K of those of ``mats`` that are
    strictly upper triangular is a line, and its closure under ``mats`` is
    k^size.

    Those matrices generate an associative algebra in which every product
    of size elements is 0.  So a nonzero subspace W stable under ``mats``
    holds a nonzero vector that they all kill: the image of a nonzero w in
    W under a longest product of them that does not kill w.  It lies in K,
    so K is in W, and so is the closure of K.  The check can read False on
    an irreducible module whose basis is in the wrong order; it never reads
    True on a reducible one."""
    # the columns of each matrix m, so that m v is combine(f, v, columns)
    columns = [unflatten({j * size + i: x for i, row in enumerate(m) for j, x in row.items()}, size) for m in mats]
    upper = [c for m, c in zip(mats, columns) if all(j > i for i, row in enumerate(m) for j in row)]
    # K, the kernel of e_j -> (m e_j) over the upper m, m e_j at the offset t * size
    images = [{t * size + i: x for t, c in enumerate(upper) for i, x in c[j].items()} for j in range(size)]
    fixed = kernel(f, images, len(upper) * size)
    if len(fixed) != 1:
        return False
    return len(closure(Echelon(f, size), fixed, lambda v: (combine(f, v, c) for c in columns))) == size


def mingen_certify(type_, rank, field):
    """Build the recipe generators, verify generation, and match the lower
    bound: together this certifies the table value t(g)."""
    A = chevalley_algebra(type_, rank, field)
    t = minimal_generator_count(type_, rank)
    gens = _mingen_recipe(A).gens
    gen = verify_generation(A, gens)
    extremal_ok = all(is_extremal(A.lie, g) is not None for g in gens)
    if type_ in ("A", "B", "C", "D") and not (type_ == "B" and rank == 2):
        nat = natural_representation(type_, rank, field)
        lower = nat["lower_bound"] if nat["pass"] else 0
    else:
        lower = dimension_lower_bound(A.lie.n)
    return {
        "dim": A.lie.n,
        "t_claimed": t,
        "generators": len(gens),
        "generators_extremal": extremal_ok,
        "generation_ok": gen["pass"],
        "generated_dim": gen["dim"],
        "lower_bound": lower,
        "pass": gen["pass"] and extremal_ok and lower == t == len(gens),
    }
