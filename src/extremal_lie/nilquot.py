"""Universal sandwich Lie algebras L_r and the associative companions R_r.

L_r is the quotient of the free Lie algebra on r generators by the ideal
generated by all [f_i,[f_i,u]].  It is computed degree by degree: the degree-d
component is presented by symbols [w, x_i] over the degree-(d-1) basis, and
the relation space is spanned by the images of the defining relations together
with the two-sided antisymmetry rows of basis pairs.  All relations are
homogeneous in the multidegree, so elimination happens in small
per-multidegree blocks; this is what makes r = 5 fast.

The rows are generated block by block.  A block md draws its sandwich rows
from the block md - 2e_i, then its two-sided antisymmetry rows from the pairs
of lower blocks that sum to md (balanced degree splits first).  Most blocks
do not need all of their rows.  Call two blocks of a degree one orbit when a
permutation of the coordinates that carry equal caps maps one onto the other
(the key is sorted(zip(cap, md))); the first of them in sorted order is the
orbit's representative.  The representative takes its rows until they run out
or its echelon is full.  Every other block stops as soon as its rank equals
the representative's.  This is exact, whatever the order of the rows:

* permuting the generators is an automorphism of F/J that maps the box onto
  itself, so the dimension of a block of L and its number of symbols (the
  dimensions of the blocks below it) are the same for every block of an
  orbit, and so is the rank of its relations, their difference;
* a set of relations whose rank is that of the whole relation space spans
  it;
* the ``Echelon`` keeps rows in reduced echelon form with leftmost pivots,
  which is unique for a subspace, so the basis words, the rewrites and the
  relation ranks are those of inserting every row.

So the order only decides how soon a block stops.  Every block, the
representatives included, draws the complete family below and nothing else:
outside verification mode no Jacobi row is built.

The complete family.  Order basis elements by (degree, -index), as
``bracket_basis`` does, and write a > b for that order.  At degree 2 the
symbols are V (x) V, V = L_1, and the relations are the symmetric tensors,
the antisymmetry rows of the generator pairs.  Fix a degree d >= 3, let
T = L_{<d} (in the capped case its blocks in the box, a downward-closed set
that every bracket below respects), and let del(a ^ b ^ c) = [a,b] ^ c +
[b,c] ^ a + [c,a] ^ b be the boundary of the exterior powers of T.

1. The symbols T_{d-1} (x) V are T_{d-1} ^ V, a part of (^2 T)_d, and
   L_d = (^2 T)_d / (del(^3 T)_d + S), S spanned by the sandwich elements
   [u,x_i] ^ x_i.  The bracket maps (^2 T)_d onto L_d and kills both; and
   T with the quotient added as its degree d satisfies the Jacobi identity
   and the defining relations up to degree d, so it is the degree-<=d
   quotient of F/J and the kernel is no larger.
2. Let pi' : (^2 T)_d -> symbols map a ^ x_j (a of degree d-1) to the
   symbol (a, j), and a ^ b with a > b and b = [b', x_j] defined in degree
   at least 2 to pi'([a,b'] ^ x_j) - pi'([a,x_j] ^ b'): the expansion
   through the definition of the smaller element, by recursion on its
   degree.  ``_Expansion`` computes it.  For b = [b', x_j] of degree at
   least 2 let D(a, b) = del(a ^ b' ^ x_j) = [a,b'] ^ x_j - a ^ b -
   [a,x_j] ^ b', the definitional Jacobi element, and let Def be the span
   of all of them, a and b in either order.  pi' is the identity on
   symbols and kills D(a, b) for a > b.  Such a D(a, b) is -a ^ b plus
   pairs whose smaller element has lower degree, so they are independent,
   as many as the pairs outside the symbols, and they span the kernel of
   pi'.  That kernel lies in del(^3 T)_d, so L_d = symbols / Rel with
   Rel = pi'(del(^3 T)_d + S); the sandwich rows are pi'(S).
3. Rel = pi'(Def) + S, the Leibniz argument (Loday, "Une version non
   commutative des algebres de Lie: les algebres de Leibniz", Enseign.
   Math. 39, 1993).  A Lie algebra is a right Leibniz algebra with
   [a,a] = 0, and in a Leibniz algebra the span I of the squares is a
   two-sided ideal of right annihilators.  Let E be the Leibniz product on
   the symbols Sym = T_{d-1} (x) V, computed through the definition of the
   second factor: E(a, x_j) = (a, j) and E(a, [b', x_j]) = ([a,b'], j) -
   E([a,x_j], b').
   * The free Leibniz algebra is Leib_{d-1} (x) V in degree d, so
     F_d = (F_{d-1} (x) V) / span{E(a,b) + E(b,a), E(a,a)}: the cross
     terms with the squares vanish, because squares are right annihilators
     and E(I, .) lands in I_{d-1} (x) V.
   * For L = F/J, E(j, .) vanishes on Sym for j in J, and
     E(b, [[u,x_i],x_i]) is the sandwich row of [b,u] by the Jacobi
     identity below degree d.  So Rel is spanned by S and, over the basis
     pairs, the E(u,v) + E(v,u) and the E(u,u): the square of a sum is a
     sum of these, in every characteristic.
   * By induction on deg b, E(a,b) = pi'(a ^ b + delta) with delta in Def:
     E(a,b) = pi'([a,b'] ^ x_j) - pi'([a,x_j] ^ b' + delta') =
     pi'(a ^ b + D(a,b) - delta').  So Rel lies in pi'(Def) + S, which
     lies in Rel by step 2.
   The two-sided antisymmetry row of a pair u > v is [u,v] through the
   definition of v plus [v,u] through that of u: pi'(u ^ v) +
   pi'(v ^ u + D(v,u)) = pi'(D(v,u)), and pi'(D(u,v)) = 0.  The diagonal
   row of u, [u,u] through the definition of u, is pi'(D(u,u)).  So the
   sandwich rows and the two-sided rows of all pairs, u = v included, span
   Rel: they are the complete family.  The argument holds in every
   characteristic, in free mode (S = 0) and in the capped box.
4. ``_zero_pair`` finds the two-sided rows that are zero by definition,
   and they are never built.  Take u > v with u = [u', x_k].  The pair's
   row is pi'(D(v,u)) = pi'([v,u'] ^ x_k) - pi'(v ^ u) -
   pi'([v,x_k] ^ u').  When [v, x_k] defines z (the symbol (v, k) was
   free, so its rewrite is {z: 1}) and u' > z, pi' writes u' ^ z through
   the definition of z, and D(v,u) = -D(u',z): the row is -pi'(D(u',z)) =
   0, and the engine's expansion writes it as the zero dict, from the same
   memo entries.  When u' < z or u' = z, pi' writes u' ^ z through another
   definition, and the row is kept.

A block whose rows run out below the representative's rank, or whose width
differs from it, raises ``OrbitRankMismatch``.  The verification mode
(``extra_consistency``) makes every block its own representative, builds
every two-sided row, the zero ones included, and adds the Jacobi rows:
pi'(del(u ^ v ^ x_i)) of every triple with a generator, and those on
triples of degree at least 2 each.  It is the all-rows reference of the
tests.

R_r is read off L_{r+1}: its length-k component is the sum of the multidegree
blocks of L_{r+1} whose last coordinate is 1 and whose total degree is k+1.
The engine builds only those blocks and the ones they are made from, by
capping each coordinate of the multidegree (here (inf, ..., inf, 1)), as in
the graded nilpotent-quotient algorithm of Havas, Newman and Vaughan-Lee
("A nilpotent quotient algorithm for graded Lie rings", J. Symbolic Comput.
9, 1990).  The capped result is exact on every block inside the box:

* every relation row is homogeneous, so a block is eliminated against its
  own rows only; and a row of block m expands through brackets and
  definitions of multidegree at most m, which lie in the box because a box
  is downward-closed.  A block in the box thus receives the same symbols,
  in the same order, and the same rows as in the full construction.
* a degree-(d+1) symbol [w, x_i] lies in a box block only if the block of w
  does, so once a degree has no basis element inside the box, no later
  degree has one: the capped run stops at its first empty degree.  The
  full L_{r+1} is nilpotent (Zelmanov and Kostrikin, "A theorem on sandwich
  algebras", 1990), so the capped run stops no later than it does.

Every run, full or capped, extends at most ``MAX_DEGREE`` times; one that
has not reached an empty degree by then raises ``DegreeCapExceeded``.  The
constant is read at each call, so a test can lower it.

The engine keeps its basis in one index, ``blocks`` (degree -> {multidegree:
basis elements}, filled in build order, so a degree flattens to its elements
in index order), and one int, w_index * (r + 1) + i, names the symbol
[w, x_i] in the rows and in ``gen_bracket``.

Basis elements are labeled by left-nested words: the word (a_1, ..., a_s)
stands for [[...[x_{a_1}, x_{a_2}], x_{a_3}], ..., x_{a_s}].  A finished L_r
is read through the validated ``LieAlgebra`` of
``GradedQuotient.as_lie_algebra``.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .scalars import QQ
from .linalg import Echelon, axpy, canonical
from .liealg import LieAlgebra

# The universal dimensions the paper states: dim L_r, dim R_r, and the
# dimension of each length component of R_r (the identity first).
L_DIMS = {1: 1, 2: 3, 3: 8, 4: 28, 5: 537}
R_LENGTHS = {
    1: [1, 1],
    2: [1, 2, 2],
    3: [1, 3, 6, 6, 3],
    4: [1, 4, 12, 24, 36, 40, 36, 24, 12, 4],
}
R_DIMS = {r: sum(p) for r, p in R_LENGTHS.items()}

# The most degrees a construction extends before it raises DegreeCapExceeded
MAX_DEGREE = 16

# The one value of every zero bracket the engine hands out or memoises
_ZERO = MappingProxyType({})


class DegreeCapExceeded(RuntimeError):
    """The graded construction failed to terminate below the safety cap."""


class OrbitRankMismatch(RuntimeError):
    """A block's relations did not reach the rank of its orbit's first block,
    or the two blocks have different widths (see the module docstring)."""


class BasisElement:
    """A basis element of the engine: x_gen for a generator (no parent),
    else defined as [parent, x_gen].  ``order`` is (degree << 40) - index:
    a > b in the order (degree, -index) of the module docstring exactly
    when a.order > b.order."""

    __slots__ = ("index", "degree", "mdeg", "parent", "gen", "word", "order")

    def __init__(self, index, degree, mdeg, parent, gen, word):
        self.index = index
        self.degree = degree
        self.mdeg = mdeg
        self.parent = parent
        self.gen = gen
        self.word = word
        self.order = (degree << 40) - index

    def __repr__(self):
        return "b%d<%s>" % (self.index, ".".join(map(str, self.word)))


def _word_bracket_str(word):
    s = "x%d" % word[0]
    for a in word[1:]:
        s = "[%s,x%d]" % (s, a)
    return s


class _Expansion:
    """pi' of the module docstring on one block of the degree being built,
    memoised: ``esym(a, b)`` is [a, b] written in the block's symbols,
    through the definition of the smaller of a and b under the order
    (degree, -index) of ``bracket_basis``, or as the symbol (a, j) when b
    is the generator x_j.  It holds no reference to itself, so it and its
    memo are freed with the block, and the engine with its last user."""

    __slots__ = ("engine", "memo")

    def __init__(self, engine):
        self.engine = engine
        self.memo = {}

    def __call__(self, a, b):
        if a.index == b.index:
            return _ZERO
        key = (a.index, b.index)
        got = self.memo.get(key)
        if got is None:
            if b.degree > 1 and a.order < b.order:
                got = _negated(self.engine.field, self(b, a))
            else:
                got = self.engine._esym_raw(a, b, self)
            self.memo[key] = got
        return got


class _CoverEngine:
    """Degree-by-degree construction of F/J on r generators.

    ``cap`` bounds each coordinate of the multidegree (entries at least 1);
    blocks outside the box are neither built nor reduced, and a bracket that
    lands outside it comes out as 0.  ``None`` builds every block.
    ``sandwich=False`` drops the defining relations: in this free mode the
    tests check that the consistency rows alone give the Witt and necklace
    dimensions."""

    def __init__(self, r, field=QQ, sandwich=True, extra_consistency=False, cap=None):
        self.r = r
        self.field = field
        self.sandwich = sandwich
        self.extra_consistency = extra_consistency
        self.cap = cap
        self.basis = []  # all BasisElements, by global index
        self.blocks = {1: {}}  # degree -> {mdeg: BasisElements}, nonempty, in build order
        self.gen_bracket = {}  # symbol w_index * (r + 1) + i -> [w, x_i] as {basis_index: raw}
        self.pair_memo = {}  # (u_index, v_index) -> [u, v]; every zero is _ZERO
        self.relation_ranks = []  # per degree starting at 2
        for i in range(1, r + 1):
            md = tuple(1 if j == i - 1 else 0 for j in range(r))
            b = BasisElement(len(self.basis), 1, md, None, i, (i,))
            self.basis.append(b)
            self.blocks[1][md] = [b]
        self.completed = 1

    # -- resolved brackets at completed degrees --------------------------------

    def bracket_basis(self, u, v):
        """[u, v] for basis elements, as {basis_index: raw}, read-only;
        degrees completed.  It expands through the definition of the smaller
        of u and v under the order (degree, -index)."""
        if u.index == v.index:
            return _ZERO
        if u.order < v.order:
            return _negated(self.field, self.bracket_basis(v, u))
        gb, s = self.gen_bracket, self.r + 1
        if v.degree == 1:
            return gb.get(u.index * s + v.gen, _ZERO)
        key = (u.index, v.index)
        memo = self.pair_memo.get(key)
        if memo is not None:
            return memo
        out = {}
        vp, j = v.parent, v.gen
        for w, c in self.bracket_basis(u, vp).items():
            axpy(out, c, gb.get(w * s + j, _ZERO))
        for w, c in gb.get(u.index * s + j, _ZERO).items():
            axpy(out, -c, self.bracket_basis(self.basis[w], vp))
        out = self.pair_memo[key] = canonical(self.field, out) or _ZERO
        return out

    # -- degree step -----------------------------------------------------------

    def extend(self):
        """Construct the next degree; returns the new component dimension.

        The blocks of the degree are reduced in sorted order, each on the
        rows of ``_block_rows``.  The first block of each orbit (see the
        module docstring) takes its rows until they run out or its echelon
        is full; every other block stops as soon as it reaches the rank of
        its orbit's first block.  The symbol [w, x_i] is the int
        w_index * (r + 1) + i, in the rows and as the key of its rewrite in
        ``gen_bracket``.  Each block gets a fresh ``_Expansion``: [a, b]
        and every expansion its recursion asks for lie in the block
        mdeg a + mdeg b, so no other block could read an entry of its
        memo.  ``blocks[d]`` is set after the degree's last block, so
        while the degree is built ``blocks`` holds the degrees below it."""
        d = self.completed + 1
        f = self.field
        s = self.r + 1
        cap = self.cap or (math.inf,) * self.r
        symbols = {}  # mdeg -> list of symbol codes w_index * s + i
        sym_pos = {}
        for elts in self.blocks[d - 1].values():
            for w in elts:
                code = w.index * s
                for i in range(1, self.r + 1):
                    md = _mdeg_add(w.mdeg, i)
                    if md[i - 1] > cap[i - 1]:
                        continue
                    lst = symbols.setdefault(md, [])
                    sym_pos[code + i] = len(lst)
                    lst.append(code + i)

        reps = {}  # orbit key -> (mdeg, Echelon) of its first block
        new = {}  # mdeg -> basis elements, the nonempty blocks of degree d
        rewrites = {}
        total_rank = 0
        for md in sorted(symbols):
            keys = symbols[md]
            e = Echelon(f, len(keys))
            orbit = tuple(sorted(zip(cap, md)))
            rep_md, rep = (md, e) if self.extra_consistency else reps.setdefault(orbit, (md, e))
            if rep.width != e.width:
                raise OrbitRankMismatch("block %s has %d symbols, its orbit's first block %s has %d"
                                        % (md, e.width, rep_md, rep.width))
            goal = rep.dim if rep is not e else e.width
            if e.dim < goal:
                for row in self._block_rows(d, md, _Expansion(self)):
                    row = canonical(f, {sym_pos[key]: c for key, c in row.items()})
                    if row and e.insert(row) is not None and e.dim == goal:
                        break
            if rep is not e and e.dim != goal:
                raise OrbitRankMismatch("block %s reached rank %d, its orbit's first block %s has %d"
                                        % (md, e.dim, rep_md, goal))
            # harvest: non-pivot symbols become the new basis
            total_rank += e.dim
            piv = set(e.pivot_columns())
            free_map = {}
            for pos, key in enumerate(keys):
                if pos in piv:
                    continue
                w, i = divmod(key, s)
                parent = self.basis[w]
                elt = BasisElement(len(self.basis), d, md, parent, i, parent.word + (i,))
                self.basis.append(elt)
                new.setdefault(md, []).append(elt)
                free_map[pos] = elt
                rewrites[key] = {elt.index: f.one}
            for pc in e.pivot_columns():
                row = e.row(pc)
                rewrites[keys[pc]] = canonical(
                    f, {free_map[pos].index: -row[pos] for pos in sorted(row) if pos != pc}
                )
        self.gen_bracket.update(rewrites)
        self.blocks[d] = new
        self.relation_ranks.append(total_rank)
        self.completed = d
        return sum(map(len, new.values()))

    def _block_rows(self, d, md, esym):
        """The relation rows of the degree-d block ``md``, as dicts over its
        symbol codes w_index * (r + 1) + i: the sandwich rows, then the
        two-sided antisymmetry rows of the pairs of lower blocks that sum to
        md (balanced degree splits first, the diagonal pairs u = v
        included).  They are the complete family of the module docstring;
        outside verification mode the pairs that ``_zero_pair`` finds are
        not built, and in verification mode every pair is built and the
        Jacobi rows follow, with a generator and then on heavier triples.
        ``esym`` is the block's ``_Expansion``; the pairs come from
        ``blocks``, which holds the degrees below d."""
        gb = self.gen_bracket
        s = self.r + 1
        empty = {}

        def pairs(a, b, m, diagonal):
            """(u, v) with deg u = a >= deg v = b and mdeg u + mdeg v = m; for
            a = b only v.index < u.index (<= when ``diagonal``)."""
            vs_of = self.blocks.get(b, empty)
            for ma, us in self.blocks.get(a, empty).items():
                vs = vs_of.get(tuple(x - y for x, y in zip(m, ma)))
                if vs is None:
                    continue
                for u in us:
                    for v in vs:
                        if a > b or v.index < u.index or (diagonal and v is u):
                            yield u, v

        # defining relations [[u, x_i], x_i] = 0, u of degree d - 2
        if self.sandwich:
            for i in range(1, self.r + 1):
                if md[i - 1] >= 2:
                    for b in self.blocks.get(d - 2, empty).get(_mdeg_add(md, i, -2), ()):
                        yield {w * s + i: c for w, c in gb.get(b.index * s + i, empty).items()}
        # two-sided antisymmetry of every pair, the diagonal included
        check = self.extra_consistency
        for a in range((d + 1) // 2, d):
            for u, v in pairs(a, d - a, md, True):
                if check or not self._zero_pair(u, v):
                    yield self._pair_row(u, v, esym)
        if check:
            # Jacobi instances [[u,v],x_i] = [[u,x_i],v] + [u,[v,x_i]]
            for a in range(d // 2, d - 1):
                for i in range(1, self.r + 1):
                    if md[i - 1]:
                        for u, v in pairs(a, d - 1 - a, _mdeg_add(md, i, -1), False):
                            yield self._jacobi_row(u, v, i, esym)
            yield from self._heavy_jacobi_rows(d, md, esym)

    def _pair_row(self, u, v, esym):
        """The two-sided antisymmetry row of the pair u, v: [u,v] and [v,u]
        each expanded through the definition of its second element, added;
        for u = v, [u,u] alone."""
        row = self._esym_raw(u, v, esym)
        if u is not v:
            row = dict(row)
            axpy(row, 1, self._esym_raw(v, u, esym))
        return row

    def _zero_pair(self, u, v):
        """Whether the two-sided antisymmetry row of the pair u, v is the
        zero dict: for u > v, u = [u', x_k], [v, x_k] defines z and u' > z
        (see the module docstring)."""
        if u.order < v.order:
            u, v = v, u
        if u is v or u.degree == 1:
            return False
        k = u.gen
        g = self.gen_bracket[v.index * (self.r + 1) + k]
        if len(g) != 1:
            return False
        z = self.basis[next(iter(g))]
        return z.parent is v and z.gen == k and u.parent.order > z.order

    def _jacobi_row(self, u, v, i, esym):
        """The row of [[u,v],x_i] = [[u,x_i],v] + [u,[v,x_i]], expanded into
        symbols: pi' of the boundary of u ^ v ^ x_i (verification mode
        only)."""
        gb = self.gen_bracket
        s = self.r + 1
        row = {w * s + i: c for w, c in self.bracket_basis(u, v).items()}
        for w, c in gb.get(u.index * s + i, _ZERO).items():
            axpy(row, -c, esym(self.basis[w], v))
        for w, c in gb.get(v.index * s + i, _ZERO).items():
            axpy(row, -c, esym(u, self.basis[w]))
        return row

    def _esym_raw(self, a, b, esym):
        """[a, b] expanded into degree-d symbols through the definition of b,
        the brackets of lower degree through ``esym``."""
        s = self.r + 1
        if b.degree == 1:
            return {a.index * s + b.gen: self.field.one}
        vp, j = b.parent, b.gen
        out = {w * s + j: c for w, c in self.bracket_basis(a, vp).items()}
        for w, c in self.gen_bracket.get(a.index * s + j, _ZERO).items():
            axpy(out, -c, esym(self.basis[w], vp))
        return canonical(self.field, out) or _ZERO

    def _heavy_jacobi_rows(self, d, md, esym):
        """Jacobi rows of block ``md`` on triples of weight >= 2 each
        (verification mode only)."""

        def elin(expansion, w):
            out = {}
            for z, c in expansion.items():
                axpy(out, c, esym(self.basis[z], w))
            return out

        for a in range(2, d - 3):
            for b in range(2, d - 1 - a):
                c = d - a - b
                if c < 2:
                    continue
                ws_of = self.blocks.get(c, {})
                for ma, us in self.blocks.get(a, {}).items():
                    for mb, vs in self.blocks.get(b, {}).items():
                        ws = ws_of.get(tuple(x - y - z for x, y, z in zip(md, ma, mb)), ())
                        for u in us:
                            for v in vs:
                                for w in ws:
                                    row = elin(self.bracket_basis(u, v), w)
                                    axpy(row, -1, elin(self.bracket_basis(u, w), v))
                                    for z, cz in self.bracket_basis(v, w).items():
                                        axpy(row, -cz, esym(u, self.basis[z]))
                                    yield row


def _negated(field, vec):
    """-vec, canonical, or the shared zero."""
    return canonical(field, {k: -c for k, c in vec.items()}) or _ZERO


def _mdeg_add(md, i, k=1):
    """md + k e_i."""
    out = list(md)
    out[i - 1] += k
    return tuple(out)


class GradedQuotient:
    """Per-degree exact data for L_r (or a free nilpotent quotient)."""

    def __init__(self, engine):
        self.r = engine.r
        self.field = engine.field
        self._engine = engine
        self.dims_by_degree = [sum(map(len, engine.blocks[d].values())) for d in range(1, engine.completed + 1)]
        while self.dims_by_degree and self.dims_by_degree[-1] == 0:
            self.dims_by_degree.pop()
        self.total_dim = sum(self.dims_by_degree)
        self.multidegree_dims = {md: len(elts) for bs in engine.blocks.values() for md, elts in bs.items()}
        self.relation_ranks = list(engine.relation_ranks)

    def as_lie_algebra(self):
        """The quotient as a validated structure-constant algebra, on the
        engine's basis in index order."""
        eng = self._engine
        elts = eng.basis
        n = len(elts)
        labels = [_word_bracket_str(b.word) for b in elts]
        table = {}
        for a in range(n):
            for b in range(a + 1, n):
                out = eng.bracket_basis(elts[a], elts[b])
                if out:
                    table[(a, b)] = dict(out)
        return LieAlgebra(self.field, labels, table)


def _extend_until_empty(eng):
    """Extend ``eng`` until a degree comes out empty, at most ``MAX_DEGREE``
    times (read at each call); returns ``eng``."""
    for _ in range(MAX_DEGREE):
        if eng.extend() == 0:
            return eng
    raise DegreeCapExceeded("no zero component reached below degree %d" % MAX_DEGREE)


def sandwich_algebra(r, field=QQ):
    """The universal Lie algebra on r sandwich generators, L_r = F/J."""
    if r < 1:
        raise ValueError("need r >= 1")
    return GradedQuotient(_extend_until_empty(_CoverEngine(r, field=field)))


class AssocDims:
    """Dimension profile of R_r, read off the multidegree data of L_{r+1}."""

    def __init__(self, r, dims_by_length):
        self.r = r
        self.dims_by_length = list(dims_by_length)
        self.total_dim = sum(self.dims_by_length)

    @property
    def palindromic_after_identity(self):
        """Whether the length distribution minus the identity word is palindromic."""
        t = self.dims_by_length[1:]
        while t and t[-1] == 0:
            t.pop()
        return t == t[::-1]


def _companion_engine(r, field):
    """L_{r+1} built only on the multidegrees whose last coordinate is at
    most 1 (see the module docstring), run to its first empty degree."""
    cap = (math.inf,) * r + (1,)
    return _extend_until_empty(_CoverEngine(r + 1, field=field, cap=cap))


def assoc_dims_via_embedding(r, field=QQ):
    """dim profile of R_r from the multidegrees of L_{r+1} where the last
    generator appears exactly once (length = total degree of the others)."""
    eng = _companion_engine(r, field)
    by_len = {}
    for d, bs in eng.blocks.items():
        for md, elts in bs.items():
            if md[r] == 1:
                by_len[d - 1] = by_len.get(d - 1, 0) + len(elts)
    return AssocDims(r, [by_len.get(k, 0) for k in range(max(by_len) + 1)])
