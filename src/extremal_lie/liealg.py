"""Finite-dimensional Lie algebras by exact structure constants.

A LieAlgebra is immutable after construction; construction finds a few
basis elements that generate it under ad (``LieAlgebra.generators``) and
decides the Jacobi identity, exactly, as "ad of each generator is a
derivation".  The form, center and ideal checks then look at the generators
only.  All operations are pure functions of their inputs, so concurrent use
is safe.
"""

from __future__ import annotations

from .linalg import (
    Coordinates,
    Echelon,
    axpy,
    canonical,
    closure,
    combine,
    flatten,
    kernel,
    mat_inverse,
    mat_mul,
    unflatten,
)


class JacobiViolation(ValueError):
    pass


class ZeroElement(ValueError):
    pass


class NotExtremal(ValueError):
    pass


class NotSpanning(ValueError):
    pass


class WellDefinednessFailure(ValueError):
    pass


class NotAssociative(WellDefinednessFailure):
    pass


class NotASandwich(ValueError):
    pass


class PreconditionNotMet(ValueError):
    pass


class InvalidGeneratorOrder(ValueError):
    pass


class NotNilpotent(ValueError):
    pass


class LieAlgebra:
    """Lie algebra over an exact field, given by labeled basis and constants.

    ``table`` maps pairs (i, j) with i < j to sparse rows {k: coefficient};
    antisymmetry fills in the rest.  ``generators`` lists basis indices S
    whose ad-closure is L: the least subspace that holds b_s for s in S and
    is closed under v -> [b_s, v] for every s in S.  ``first`` lists distinct
    basis indices that the search for S tries before the rest (see
    ``_ad_generators``).
    """

    def __init__(self, field, labels, table, first=()):
        self.field = field
        self.labels = list(labels)
        self.n = len(self.labels)
        self._adj = [{} for _ in range(self.n)]  # _adj[i]: {j: [b_i, b_j]}, nonzero rows
        for (i, j), row in table.items():
            if not 0 <= i < j < self.n:
                raise ValueError("table keys must satisfy 0 <= i < j < n")
            row = canonical(field, row)
            if row:
                self._adj[i][j] = row
                self._adj[j][i] = canonical(field, {k: -c for k, c in row.items()})
        first = list(first)
        if len(set(first)) != len(first) or not all(0 <= i < self.n for i in first):
            raise InvalidGeneratorOrder("first must list distinct indices in 0..%d, not %r" % (self.n - 1, first))
        self.generators = self._ad_generators(first)
        self._validate_jacobi()

    def bracket_basis(self, i, j):
        """[b_i, b_j] as a sparse row (shared; do not mutate)."""
        return self._adj[i].get(j, {})

    def _ad(self, s, v):
        """[b_s, v] for a sparse row v, as a canonical row."""
        return self.bracket(self.basis_element(s), AlgebraElement(self, v)).coeffs

    def _ad_generators(self, first):
        """Basis indices whose ad-closure is L, taken greedily from the
        indices of ``first``, then from the rest in basis order: b_i joins
        when it is not in the ad-closure of those before it.  The closure then
        grows by b_i, by [b_i, w] for the kept basis w of the old closure, and
        by ad of every generator on each new vector.  It needs no Jacobi
        identity, and it ends full because it holds every b_i.  Correctness
        rests on this closure alone; the order only decides how few are taken.

        A Chevalley algebra puts its simple root elements e_1..e_l first, then
        x_-theta for the highest root theta.  Over Q these l + 1 generate g:
        in the loop algebra g (x) k[t, 1/t] the affine Chevalley generators
        e_1..e_l and e_0 = x_-theta (x) t generate n_+ (x) 1 + g (x) t k[t]
        (Kac, "Infinite-dimensional Lie algebras", ch. 7), and t -> 1 maps
        that onto g and e_0 onto x_-theta.  Where they do not generate (G2
        over GF(3)) the walk goes on through the basis.  E7 takes 8 of its
        133 basis elements, L_r its r generators."""
        one = self.field.one
        ech = Echelon(self.field, self.n)
        gens, kept = [], []
        taken = set(first)
        for i in first + [i for i in range(self.n) if i not in taken]:
            if ech.dim == self.n:
                break
            if not ech.contains({i: one}):
                gens.append(i)
                seeds = [{i: one}] + [self._ad(i, w) for w in kept]
                kept += closure(ech, seeds, lambda v: (self._ad(s, v) for s in gens))
        return gens

    def _validate_jacobi(self):
        """The Jacobi identity, exactly, in derivation form: the defect
        D_i(j, k) = [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] - [b_j,[b_i,b_k]]
        vanishes.  Given antisymmetry, D_i(j, k) is the Jacobi sum on (i, j,
        k), and it is enough that ad_s is a derivation (D_s = 0) for each s in
        ``generators``: the x with ad_x a derivation form a subspace that
        holds them, and ad_[s,x] = [ad_s, ad_x] (this uses only D_s = 0) is a
        commutator of derivations, so the subspace is closed under ad of the
        generators and holds their ad-closure, L.

        The defects are summed by ``_derivation_defects``.  When a generator
        fails, the scan of D_i(j, k) over all i < j < k (a complete check on
        its own) names the first failing triple in lexicographic order."""
        p = self.field.characteristic
        n = self.n
        adj = self._adj
        above = [[] for _ in range(n)]  # above[m]: (j, k, c_jk^m), j < k, nonzero
        for j in range(n):
            for k, row in adj[j].items():
                if j < k:
                    for m, c in row.items():
                        above[m].append((j, k, c))
        if any(_derivation_defects(p, adj, above, s, -1) for s in self.generators):
            for i in range(n):
                failing = _derivation_defects(p, adj, above, i, i)
                if failing:
                    j, k = min(failing)
                    raise JacobiViolation("Jacobi fails on basis triple (%d, %d, %d)" % (i, j, k))

    # -- elements ----------------------------------------------------------------

    def element(self, coeffs):
        """Element from a dict {index: value}, the values made raw."""
        f = self.field
        return AlgebraElement(self, canonical(f, {k: f.raw(v) for k, v in coeffs.items()}))

    def basis_element(self, i):
        return AlgebraElement(self, {i: self.field.one})

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.n)]

    def zero(self):
        return AlgebraElement(self, {})

    def ad_columns(self, x):
        """The columns [x, b_j] of ad_x, summed over the nonzero brackets of
        x's support and not reduced (see ``linalg.axpy``)."""
        cols = [{} for _ in range(self.n)]
        for i, c in x.coeffs.items():
            for j, row in self._adj[i].items():
                axpy(cols[j], c, row)
        return cols

    def bracket(self, a, b):
        adj = self._adj
        out = {}
        for i, ci in a.coeffs.items():
            rows = adj[i]
            for j, cj in b.coeffs.items():
                row = rows.get(j)
                if row:
                    axpy(out, ci * cj, row)
        return AlgebraElement(self, canonical(self.field, out))

    def __repr__(self):
        return "LieAlgebra(dim %d over %r)" % (self.n, self.field)


def _derivation_defects(p, adj, above, i, floor):
    """The pairs (j, k), floor < j < k, on which D_i(j, k) is nonzero in
    characteristic ``p`` (see ``LieAlgebra._validate_jacobi`` for D, ``adj``
    and ``above``).  All of them are summed at once, driven by the nonzero
    constants only: the first term from ``above[m]`` (the nonzero c_jk^m)
    for each m with [b_i,b_m] != 0, the other two as the one family
    [[b_i,b_x],b_y], which lands on (x, y) with sign - when x < y and on
    (y, x) with sign + otherwise.  Every term is a product of two nonzero
    constants, so a pair no term reaches has defect 0.  Sums are accumulated
    unreduced, as in ``axpy``.  The loops are written out because a call per
    term makes E7 construction measurably slower."""
    acc = {}  # (j, k, t) -> coefficient of b_t in D_i(j, k)
    for m, row_im in adj[i].items():
        for j, k, c in above[m]:
            if j > floor:
                for t, w in row_im.items():
                    key = (j, k, t)
                    acc[key] = acc.get(key, 0) + c * w
    for x, row_ix in adj[i].items():
        if x > floor:
            for m, r in row_ix.items():
                for y, row_my in adj[m].items():
                    if y > floor and y != x:
                        j, k, s = (x, y, -r) if x < y else (y, x, r)
                        for t, w in row_my.items():
                            key = (j, k, t)
                            acc[key] = acc.get(key, 0) + s * w
    return [(j, k) for (j, k, _), v in acc.items() if (v % p if p else v)]


class AlgebraElement:
    """Sparse coefficient vector over an algebra basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        axpy(out, 1, other.coeffs)
        return AlgebraElement(self.algebra, canonical(self.algebra.field, out))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scale):
        f = self.algebra.field
        out = {}
        axpy(out, f.raw(scale), self.coeffs)
        return AlgebraElement(self.algebra, canonical(f, out))

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def bracket(self, other):
        return self.algebra.bracket(self, other)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        f = self.algebra.field
        bits = []
        for k in sorted(self.coeffs):
            bits.append("%s*%s" % (f.to_str(self.coeffs[k]), self.algebra.labels[k]))
        return " + ".join(bits)


class Subspace:
    """Canonical (reduced echelon) subspace of an algebra."""

    def __init__(self, algebra, echelon):
        self.algebra = algebra
        self._ech = echelon

    @classmethod
    def from_elements(cls, algebra, elements):
        e = Echelon(algebra.field, algebra.n)
        for v in elements:
            e.insert(v.coeffs if isinstance(v, AlgebraElement) else v)
        return cls(algebra, e)

    @property
    def dim(self):
        return self._ech.dim

    def basis(self):
        return [AlgebraElement(self.algebra, self._ech.row(c)) for c in self._ech.pivot_columns()]

    def contains(self, elt):
        return self._ech.contains(elt.coeffs)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis())

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.algebra is other.algebra and self.basis() == other.basis()

    def sum(self, other):
        e = self._ech.copy()
        for v in other.basis():
            e.insert(v.coeffs)
        return Subspace(self.algebra, e)

    def is_ideal(self):
        """[b_s, v] lies in the subspace W for every generator s and basis
        vector v of W.  That is enough: the x with [x, W] in W form a
        subspace that holds the generators and is closed under their ad,
        since ad_[s,x] = [ad_s, ad_x], so it is all of L."""
        L = self.algebra
        gens = [L.basis_element(s) for s in L.generators]
        return all(self.contains(L.bracket(g, v)) for v in self.basis() for g in gens)

    def bracket_with(self, other):
        L = self.algebra
        return Subspace.from_elements(
            L, [L.bracket(a, b) for a in self.basis() for b in other.basis()]
        )

    def __repr__(self):
        return "Subspace(dim %d of %r)" % (self.dim, self.algebra)


def zero_subspace(L):
    return Subspace(L, Echelon(L.field, L.n))


def full_subspace(L):
    return Subspace.from_elements(L, L.basis_elements())


# -- generation ------------------------------------------------------------------


def _element_closure(L, seeds, expand):
    """``closure`` on elements of L: ``expand(x)`` yields the elements a kept
    element x brings in.  Returns (echelon of the span, kept elements)."""
    ech = Echelon(L.field, L.n)
    kept = closure(
        ech,
        (s.coeffs for s in seeds),
        lambda v: (w.coeffs for w in expand(AlgebraElement(L, v))),
    )
    return ech, [AlgebraElement(L, v) for v in kept]


def subalgebra_generated(L, gens):
    """Smallest subalgebra containing ``gens`` (left-normed closure)."""
    ech, _ = _element_closure(L, gens, lambda v: (L.bracket(g, v) for g in gens))
    return Subspace(L, ech)


def ideal_generated(L, gens):
    """Smallest ideal containing ``gens``: their closure under ad of the
    generators of L, an ideal by the argument of ``Subspace.is_ideal``."""
    ad = [L.basis_element(s) for s in L.generators]
    ech, _ = _element_closure(L, gens, lambda v: (L.bracket(b, v) for b in ad))
    return Subspace(L, ech)


def center(L):
    """Z(L), the kernel of x -> ([x, b_j]) over j in ``L.generators``: x is
    central when [x, b_j] = 0 for every generator j, since the centralizer
    of x is a subalgebra, so it holds the ad-closure of the generators, L.
    The image of b_i holds [b_i, b_j] at the offset t * n of the t-th
    generator j."""
    n = L.n
    images = [
        {t * n + k: c for t, j in enumerate(L.generators) for k, c in L.bracket_basis(i, j).items()} for i in range(n)
    ]
    return Subspace.from_elements(L, kernel(L.field, images, len(L.generators) * n))


def _series(L, sub, derived):
    """The derived series of ``sub`` (L when None) if ``derived``, else its
    lower central series: the term after cur is [cur, cur], or [sub, cur].
    It stops at 0 or when the dimension stops falling."""
    cur = first = sub if sub is not None else full_subspace(L)
    out = [cur]
    while True:
        nxt = (cur if derived else first).bracket_with(cur)
        out.append(nxt)
        if nxt.dim == cur.dim or nxt.dim == 0:
            return out
        cur = nxt


def derived_series(L, sub=None):
    return _series(L, sub, True)


def lower_central_series(L, sub=None):
    return _series(L, sub, False)


def is_solvable_subspace(sub):
    return derived_series(sub.algebra, sub)[-1].dim == 0


def is_nilpotent_subspace(sub):
    return lower_central_series(sub.algebra, sub)[-1].dim == 0


def quotient_algebra(L, ideal):
    """(Q, lift, project): Q = L/ideal on the non-pivot coordinates."""
    if not ideal.dim:
        return L, (lambda elt: elt), (lambda elt: elt)
    f = L.field
    piv = set(ideal._ech.pivot_columns())
    keep = [i for i in range(L.n) if i not in piv]
    pos = {i: t for t, i in enumerate(keep)}

    def project_coeffs(v):
        return {pos[i]: x for i, x in sorted(ideal._ech.reduce(v).items())}

    table = {}
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            w = L.bracket(L.basis_element(keep[a]), L.basis_element(keep[b]))
            table[(a, b)] = project_coeffs(w.coeffs)
    Q = LieAlgebra(f, [L.labels[i] for i in keep], table)

    def project(elt):
        return AlgebraElement(Q, project_coeffs(elt.coeffs))

    def lift(qelt):
        return AlgebraElement(L, {keep[i]: c for i, c in qelt.coeffs.items()})

    return Q, lift, project


# -- extremal machinery -------------------------------------------------------


class ExtremalFunctional:
    """The linear functional f_x with [x,[x,y]] = f_x(y) x."""

    def __init__(self, algebra, values):
        self.algebra = algebra
        self.values = values  # canonical vector {j: f_x(b_j)}

    def __call__(self, y):
        values = self.values
        return self.algebra.field.raw(sum(c * values.get(k, 0) for k, c in y.coeffs.items()))

    def is_zero(self):
        return not self.values


def is_extremal(L, x):
    """The functional f_x when im (ad_x)^2 lies in k.x; None otherwise.

    The columns c_j = [x, b_j] of ad_x are summed once, over the nonzero
    brackets of x's support, and are not reduced: ad_x is linear, so
    ad_x^2 b_j = [x, c_j] = sum_k (c_j)_k c_k, and this one sparse
    combination of the columns, made canonical, is the vector [x, [x, b_j]]
    that two brackets give.  It is compared with lambda_j x; None at the
    first b_j that fails."""
    if x.is_zero():
        raise ZeroElement("extremality is defined for nonzero elements")
    f = L.field
    xc = x.coeffs
    cols = L.ad_columns(x)
    ref = min(xc)
    xr = xc[ref]
    values = {}
    for j, col in enumerate(cols):
        w = combine(f, col, cols) if col else col
        if not w:
            continue
        lam = f.div(w.get(ref, f.zero), xr)
        expected = {}
        axpy(expected, lam, xc)
        if w != canonical(f, expected):
            return None
        values[j] = lam
    return ExtremalFunctional(L, values)


class BilinearForm:
    """Bilinear form given by its Gram matrix on the basis, as canonical
    sparse rows: ``rows[i]`` is f(b_i, .)."""

    def __init__(self, algebra, rows):
        self.algebra = algebra
        self.rows = rows

    def radical(self):
        """The left radical {x : f(x, .) = 0}, the relations among the Gram
        rows.  It is the right radical {y : f(., y) = 0} when f is symmetric,
        and may differ from it when f is not."""
        return Subspace.from_elements(self.algebra, kernel(self.algebra.field, self.rows, self.algebra.n))

    def is_symmetric(self):
        G = self.rows
        return all(G[j].get(i, 0) == c for i, row in enumerate(G) for j, c in row.items())

    def is_associative(self):
        """f([x,y],z) == f(x,[y,z]) on the basis triples (i, j, k) with j in
        ``L.generators``.  That is enough: at y = b_j the identity says ad_y
        is f-skew, the f-skew maps are closed under commutators and
        ad_[s,y] = [ad_s, ad_y], so the y with ad_y f-skew form a subspace
        closed under ad of the generators, all of L.  For each j and i both
        sides are compared over all k at once, as canonical sparse rows:
        f([b_i,b_j], .) = sum_m c_ij^m G[m] and f(b_i, [b_j, .]) =
        sum_m G[i][m] ad[m], where G[m] = f(b_m, .) and ad[m] = {k: c_jk^m}."""
        L = self.algebra
        f, n = L.field, L.n
        G = self.rows
        for j in L.generators:
            ad = [{} for _ in range(n)]
            for k in range(n):
                for m, c in L.bracket_basis(j, k).items():
                    ad[m][k] = c
            for i in range(n):
                if combine(f, L.bracket_basis(i, j), G) != combine(f, G[i], ad):
                    return False
        return True


def killing_form(L):
    """kappa(x, y) = trace(ad_x ad_y).  Row i is kappa(b_i, .) = the sum over
    (l, k) of c_il^k {x: c_xk^l}, one sparse sum per row."""
    f, n = L.field, L.n
    at = {}  # (j, k) -> {i: c_ij^k}, the coefficient of b_k in [b_i, b_j]
    for i in range(n):
        for j, row in L._adj[i].items():
            for k, c in row.items():
                at.setdefault((j, k), {})[i] = c
    rows = []
    for i in range(n):
        acc = {}
        for l in range(n):
            for k, c in L.bracket_basis(i, l).items():
                axpy(acc, c, at.get((k, l), {}))
        rows.append(canonical(f, acc))
    return BilinearForm(L, rows)


def extremal_form(L, basis):
    """The extremal form of L: the bilinear form f with f(s, .) = f_s for
    each element s of ``basis``, an ``ExtremalSet`` of L from
    ``extremal_closure``, checked symmetric and associative.

    ``basis`` is a basis s_1..s_n of L with proved functionals f_1..f_n.
    Write S for the s_a as rows and F for the f_a as rows {j: f_a(b_j)}.
    With C = S^-1, b_i = sum_a C[i][a] s_a, so f(b_i, .) = sum_a C[i][a] f_a
    and the Gram is G = C F.  (The Gram C F_mm C^T, with F_mm[a][b] =
    f_a(s_b), is the same matrix: F_mm = F S^T and C S = I.)  Two things
    need no check: f(s_a, .) = (S S^-1 F)[a] = f_a is an identity, and
    S G S^T = F S^T has the entries f_a(s_b) with S invertible, so G is
    symmetric exactly when f_a(s_b) = f_b(s_a) for all a, b, which
    ``is_symmetric`` decides.  Raises WellDefinednessFailure when it is not,
    and NotAssociative when f is not associative."""
    if getattr(basis, "algebra", None) is not L or len(basis) != L.n:
        raise ValueError("extremal_form takes an extremal basis of L from extremal_closure")
    f = L.field
    inverse = mat_inverse(f, [s.coeffs for s in basis])
    gram = mat_mul(f, inverse, [fx.values for fx in basis.functionals])
    form = BilinearForm(L, gram)
    if not form.is_symmetric():
        raise WellDefinednessFailure("extremal form not symmetric: f_x(y) != f_y(x) on the basis")
    if not form.is_associative():
        raise NotAssociative("extremal form not associative")
    return form


class ExtremalSet(list):
    """Elements of ``algebra`` proved extremal, with their functionals:
    ``functionals[i]`` is f_x for x = self[i].  Built by ``extremal_closure``,
    it is a basis of ``algebra``: the closure keeps only elements that raise
    the dimension of the span, and raises NotSpanning short of the whole
    algebra."""

    def __init__(self, algebra, elements, functionals):
        super().__init__(elements)
        self.algebra = algebra
        self.functionals = functionals


def extremal_closure(L, seeds, expand):
    """Extremal elements spanning L: ``seeds`` closed under ``expand`` (see
    ``_element_closure``), as an ``ExtremalSet``.  Raises NotSpanning when
    the closure stalls short of L, and NotExtremal when a kept element is
    not extremal."""
    ech, out = _element_closure(L, seeds, expand)
    if ech.dim != L.n:
        raise NotSpanning("extremal closure stalled at dimension %d of %d" % (ech.dim, L.n))
    functionals = [is_extremal(L, v) for v in out]
    if None in functionals:
        raise NotExtremal("an element of the extremal closure is not extremal")
    return ExtremalSet(L, out, functionals)


# -- structural subspaces -----------------------------------------------------


def _no_solvable_ideal_certificate(L, raising=(), kappa_rad=None):
    """True if L provably has no nonzero solvable ideal; a Subspace witness
    if one is found; None when undecided.

    The adjoint maps of the ``raising`` elements must generate a nilpotent
    associative algebra; for a Chevalley algebra and its quotients, the
    simple root elements e_i qualify, since each ad e_i raises height by one.
    Let K' be the vectors of Rad(kappa) that every ad e kills.  Then:

    * a nonzero solvable ideal contains a nonzero abelian ideal A (the last
      nonzero term of its derived series), and A lies in Rad(kappa), since
      ad_a ad_y squares to zero for a in A;
    * the ad e map A to itself and generate a nilpotent algebra there, so
      some nonzero v in A is killed by all of them (Engel): A meets K';
    * the ideal generated by such a v lies in A, so it is abelian;
    * so L has a nonzero solvable ideal exactly when some nonzero vector of
      K' generates a solvable ideal.

    The canonical basis vectors of K' are tried; when K' is a line, that
    decides the question (with no raising elements, K' = Rad(kappa)).  When
    Rad(kappa) is nonzero, the chain V = L, V <- span [e, V] must reach 0,
    or PreconditionNotMet is raised.  ``kappa_rad`` is Rad(kappa), if known.
    """
    if kappa_rad is None:
        kappa_rad = killing_form(L).radical()
    if kappa_rad.dim == 0:
        return True
    span = full_subspace(L)
    while span.dim:
        nxt = Subspace.from_elements(L, [L.bracket(e, v) for e in raising for v in span.basis()])
        if nxt.dim == span.dim:
            raise PreconditionNotMet("the raising elements do not act nilpotently")
        span = nxt
    # K' = {sum_i c_i b_i : sum_i c_i [e, b_i] = 0 for every e}, b a basis of
    # Rad(kappa): the kernel of b -> ([e_t, b]), [e_t, b] at the offset t * n
    n, basis = L.n, kappa_rad.basis()
    images = [{t * n + k: c for t, e in enumerate(raising) for k, c in L.bracket(e, b).coeffs.items()} for b in basis]
    vecs = [b.coeffs for b in basis]
    k_prime = Subspace.from_elements(L, [combine(L.field, x, vecs) for x in kernel(L.field, images, len(raising) * n)])
    for v in k_prime.basis():
        ideal = ideal_generated(L, [v])
        if is_solvable_subspace(ideal):
            return ideal
    return True if k_prime.dim == 1 else None


def solvable_radical(L, raising=()):
    """Largest solvable ideal found, with a maximality certificate when possible.

    Returns (Subspace, certified: bool).  ``raising`` is passed, projected to
    each quotient, to ``_no_solvable_ideal_certificate``.
    """
    return _solvable_radical(L, killing_form(L).radical(), raising)


def _solvable_radical(L, kappa_rad, raising):
    """R grows from 0 by the certificate's witness ideals only; each is a
    solvable ideal of L/R, so R stays solvable and grows strictly until
    L/R is certified to have no nonzero solvable ideal (R = Rad(L))."""
    R = zero_subspace(L)
    for _ in range(L.n + 1):
        Q, lift, project = quotient_algebra(L, R)
        if Q.n == 0:
            return R, True
        cert = _no_solvable_ideal_certificate(Q, [project(e) for e in raising], kappa_rad if Q is L else None)
        if cert is True:
            return R, True
        if cert is None:
            return R, False
        R = ideal_generated(L, [lift(v) for v in cert.basis()] + R.basis())
    return R, False


def nilradical(L, rad, extra_candidates=()):
    """Largest nilpotent ideal found in the candidate lattice of the solvable
    ideal ``rad`` (a certified lower bound for the nilpotent radical)."""
    cands = [rad]
    cands.extend(derived_series(L, rad)[1:])
    cands.extend(lower_central_series(L, rad)[1:])
    cands.append(center(L))
    cands.extend(extra_candidates)
    out = zero_subspace(L)
    for c in cands:
        if c.dim and c.is_ideal() and is_nilpotent_subspace(c):
            out = out.sum(c)
    if out.dim and not is_nilpotent_subspace(out):
        # sum of nilpotent ideals is nilpotent; reaching here means a bug
        raise NotNilpotent("nilradical candidate sum is not nilpotent")
    return out


def structural_subspaces(L, raising=()):
    rad, certified = solvable_radical(L, raising=raising)
    return {
        "center": center(L),
        "derived_series": derived_series(L),
        "lower_central_series": lower_central_series(L),
        "solvable_radical": rad,
        "solvable_radical_certified": certified,
        "nilradical": nilradical(L, rad),
    }


# -- chain checks ---------------------------------------------------------------


def sandwich_span_check(L, witnesses, form, raising=()):
    """Ideal span of sandwich witnesses and the chain
    SanRad <= NilRad <= Rad(L) <= Rad(f) <= Rad(kappa)."""
    elems = []
    for idx, w in enumerate(witnesses):
        fx = is_extremal(L, w)
        if fx is None or not fx.is_zero():
            raise NotASandwich("witness %d is not a sandwich" % idx)
        elems.append(w)
    san = ideal_generated(L, elems)
    rad_k = killing_form(L).radical()
    rad, certified = _solvable_radical(L, rad_k, raising)
    nil = nilradical(L, rad, extra_candidates=[san])
    rad_f = form.radical()
    chain = [
        ("SanRad_lower_bound", san),
        ("NilRad", nil),
        ("Rad(L)", rad),
        ("Rad(f)", rad_f),
        ("Rad(kappa)", rad_k),
    ]
    links = []
    san_is_ideal = san.is_ideal()
    ok = san_is_ideal
    for (na, a), (nb, b) in zip(chain, chain[1:]):
        inc = b.contains_subspace(a)
        links.append({"link": "%s <= %s" % (na, nb), "holds": inc, "strict": inc and b.dim > a.dim})
        ok = ok and inc
    return {
        "dims": {name: s.dim for name, s in chain},
        "links": links,
        "witness_span_is_ideal": san_is_ideal,
        "solvable_radical_certified": certified,
        "pass": ok,
    }


def structure_constants_on(field, rows, width, bracket):
    """The structure constants of the span of the independent sparse ``rows``
    of length ``width``: the coordinates over the rows of ``bracket(i, j)``,
    the vector of [row_i, row_j], for i < j.  Returns (table, the
    ``Coordinates`` of the span); the table is None when a bracket leaves
    the span."""
    span = Coordinates(field, rows, width)
    table = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            coeffs = span.solve(bracket(i, j))
            if coeffs is None:
                return None, span
            if coeffs:
                table[(i, j)] = coeffs
    return table, span


# -- matrix algebras ------------------------------------------------------------


def commutator(field, a, b):
    """The commutator ab - ba of the square matrices ``a`` and ``b`` (lists
    of sparse rows, see ``linalg``), flattened by ``linalg.flatten``."""
    acc = flatten(mat_mul(field, a, b))
    axpy(acc, -1, flatten(mat_mul(field, b, a)))
    return canonical(field, acc)


def trace_zero(field, size):
    """The canonical basis of sl(size), the kernel of the trace."""
    images = [{0: 1} if c % (size + 1) == 0 else {} for c in range(size * size)]  # E_ab -> tr E_ab
    return [unflatten(v, size) for v in kernel(field, images, 1)]


def matrix_lie_algebra(field, basis):
    """The Lie algebra on ``basis``, independent square matrices whose span
    is closed under commutators.  Returns (LieAlgebra, element_of), where
    ``element_of(m)`` is the element of the algebra that a matrix m of the
    span stands for."""
    f = field
    size = len(basis[0])
    rows = [flatten(m) for m in basis]
    table, span = structure_constants_on(f, rows, size * size, lambda a, b: commutator(f, basis[a], basis[b]))
    if table is None:
        raise ValueError("matrix span is not closed under commutators")
    L = LieAlgebra(f, ["m%d" % i for i in range(len(rows))], table)

    def element_of(m):
        coeffs = span.solve(flatten(m))
        if coeffs is None:
            raise ValueError("matrix is not in the algebra")
        return L.element(coeffs)

    return L, element_of
