"""Root systems of types A-G (Bourbaki labeling) and Chevalley structure
constants under a fixed extraspecial-pair sign convention.

Roots are integer coefficient tuples over the simple roots.  Signs: positive
roots are ordered by (height, coefficients); for each non-simple positive
root the extraspecial pair gets N = +(p+1), and the other positive pairs with
that sum are solved from it.  Each positive pair, once fixed, fills the rest
of its zero-sum triple a+b+c = 0 by the cyclic relation
N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b), then the swapped and negated
pairs by antisymmetry and N(-a,-b) = -N(a,b): every constant is written
once, when its positive pair is.  ``CONVENTION_VERSION`` names this
convention; every ``ChevalleyConstants`` and ``ChevalleyAlgebra`` carries it.
``integer_chevalley_data`` memoises each type's roots and integer constants.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .linalg import rank as linalg_rank
from .scalars import GF, QQ

CONVENTION_VERSION = "extraspecial-heightlex-p1"

_VALID = {"A": lambda n: n >= 1, "B": lambda n: n >= 2, "C": lambda n: n >= 2,
          "D": lambda n: n >= 4, "E": lambda n: n in (6, 7, 8), "F": lambda n: n == 4,
          "G": lambda n: n == 2}


class InvalidRank(ValueError):
    pass


class NonIntegral(ArithmeticError):
    """A quantity that the theory makes an integer came out fractional."""


class RootStringMismatch(ArithmeticError):
    """A solved constant has |N| other than p+1, p the root string down."""


def _exact(num, den, what):
    """num/den for ints, which the theory makes an integer."""
    q, r = divmod(num, den)
    if r:
        raise NonIntegral("%s is not an integer: %s" % (what, Fraction(num, den)))
    return q


def cartan_matrix(type_, rank):
    """Bourbaki Cartan matrix; entry [i][j] = <alpha_j, alpha_i-check>."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, vij=-1, vji=-1):
        a[i][j] = vij
        a[j][i] = vji

    if type_ == "A":
        for i in range(n - 1):
            join(i, i + 1)
    elif type_ == "B":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 2, n - 1, -1, -2)
    elif type_ == "C":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 2, n - 1, -2, -1)
    elif type_ == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif type_ == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif type_ == "F":
        join(0, 1)
        join(1, 2, -1, -2)
        join(2, 3)
    elif type_ == "G":
        join(0, 1, -3, -1)
    else:
        raise InvalidRank("unknown type %r" % type_)
    return a


def cartan_nullity(type_, rank, p):
    """dim Z(L) of the Chevalley algebra of this type over a field of
    characteristic p (0 for Q): rank minus the rank of the Cartan matrix
    over that field.  Z(L) lies in the Cartan subalgebra (a root vector
    component x_a of z would leave h_a in [x_-a, z]), and sum_j c_j h_j is
    central exactly when every alpha_i(sum_j c_j h_j) = sum_j c_j A[j][i]
    vanishes.  Only the Cartan matrix is read, not the structure constants."""
    rows = [dict(enumerate(row)) for row in cartan_matrix(type_, rank)]
    return rank - linalg_rank(GF(p) if p else QQ, rows, rank)


def _symmetrizer(type_, rank):
    """d_i = (alpha_i, alpha_i)/2 with long roots normalized to norm 2."""
    one = Fraction(1)
    if type_ in ("A", "D", "E"):
        return [one] * rank
    if type_ == "B":
        return [one] * (rank - 1) + [Fraction(1, 2)]
    if type_ == "C":
        return [one] * (rank - 1) + [Fraction(2)]
    if type_ == "F":
        return [one, one, Fraction(1, 2), Fraction(1, 2)]
    if type_ == "G":
        return [Fraction(1, 3), one]
    raise InvalidRank(type_)


class RootSystem:
    """Inner products are kept as integers: ``_gram`` is the symmetrised
    Cartan matrix (alpha_i, alpha_j) = d_i A[i][j] times ``_scale``, the lcm
    of the denominators of the d_i, and ``_norm`` memoises the scaled norm of
    each root.  A ratio of two inner products is then a ratio of ints."""

    def __init__(self, type_, rank):
        type_ = type_.upper()
        if type_ not in _VALID or not _VALID[type_](rank):
            raise InvalidRank("invalid pair (%s, %d)" % (type_, rank))
        self.type = type_
        self.rank = rank
        self.cartan = cartan_matrix(type_, rank)
        d = _symmetrizer(type_, rank)
        self._scale = lcm(*(x.denominator for x in d))
        self._gram = [[int(self._scale * di * aij) for aij in row] for di, row in zip(d, self.cartan)]
        self._norm = {}
        self._by_eps = None  # epsilon coordinates -> root, see root_from_eps
        self._build_roots()
        self._classify()

    def _build_roots(self):
        n = self.rank
        pos = set()
        by_height = {1: [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]}
        pos.update(by_height[1])
        h = 1
        while by_height.get(h):
            nxt = []
            for b in by_height[h]:
                for i in range(n):
                    p = 0
                    cur = list(b)
                    while True:
                        cur[i] -= 1
                        t = tuple(cur)
                        if min(t) < 0 or t not in pos:
                            break
                        p += 1
                    pairing = sum(b[j] * self.cartan[i][j] for j in range(n))
                    if p - pairing > 0:
                        up = list(b)
                        up[i] += 1
                        t = tuple(up)
                        if t not in pos:
                            pos.add(t)
                            nxt.append(t)
            h += 1
            if nxt:
                by_height[h] = nxt
        self.positive_roots = sorted(pos, key=lambda t: (sum(t), t))
        self.roots = self.positive_roots + [_neg(t) for t in self.positive_roots]
        self._root_set = set(self.roots)
        self.simple_roots = self.positive_roots[: self.rank]
        self.highest_root = max(self.positive_roots, key=lambda t: (sum(t), t))

    def _classify(self):
        norms = {t: self._scaled_norm(t) for t in self.positive_roots}
        top = max(norms.values())
        self._long = {t for t, v in norms.items() if v == top}
        self._long |= {_neg(t) for t in self._long}

    # -- queries ---------------------------------------------------------------

    def is_root(self, t):
        return tuple(t) in self._root_set

    def is_long(self, t):
        return tuple(t) in self._long

    def _scaled_inner(self, s, t):
        """``_scale`` * (s, t), an int."""
        g = self._gram
        tj = [(j, c) for j, c in enumerate(t) if c]
        return sum(si * sum(c * g[i][j] for j, c in tj) for i, si in enumerate(s) if si)

    def _scaled_norm(self, t):
        """``_scale`` * (t, t), memoised per root."""
        t = tuple(t)
        v = self._norm.get(t)
        if v is None:
            v = self._norm[t] = self._scaled_inner(t, t)
        return v

    def coroot_coords(self, alpha):
        """alpha-check over the simple coroots; integer coefficients:
        alpha_i d_i / ((alpha, alpha)/2), where 2 d_i ``_scale`` is
        ``_gram[i][i]``."""
        n = self._scaled_norm(alpha)
        return tuple(_exact(c * self._gram[i][i], n, "a coroot coordinate") for i, c in enumerate(alpha))

    def root_string_down(self, alpha, beta):
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = _sub(beta, alpha)
        while cur in self._root_set:
            p += 1
            cur = _sub(cur, alpha)
        return p

    # -- epsilon coordinates (classical types and F4) ----------------------------

    def eps_dim(self):
        m = {"A": self.rank + 1, "B": self.rank, "C": self.rank, "D": self.rank, "F": 4}.get(self.type)
        if m is None:
            raise InvalidRank("no epsilon coordinates for type %s" % self.type)
        return m

    def simple_eps(self, i):
        """Epsilon coordinates of alpha_{i+1} (0-indexed i), Bourbaki."""
        n = self.rank
        m = self.eps_dim()
        if self.type == "F":
            half = Fraction(1, 2)
            return [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [half, -half, -half, -half]][i]
        v = [0] * m
        if self.type == "A" or i < n - 1:
            v[i], v[i + 1] = 1, -1
        elif self.type == "D":
            v[n - 2], v[n - 1] = 1, 1
        else:
            v[n - 1] = 2 if self.type == "C" else 1
        return v

    def eps_coords(self, root):
        m = self.eps_dim()
        v = [0] * m
        for i, c in enumerate(root):
            if c:
                for j, x in enumerate(self.simple_eps(i)):
                    v[j] += c * x
        return tuple(v)

    def root_from_eps(self, eps):
        """Root tuple with the given epsilon coordinates (dict index->coeff,
        1-indexed, or full vector), looked up in a dict built on first use:
        an int and the equal ``Fraction`` are the same key."""
        m = self.eps_dim()
        if isinstance(eps, dict):
            if not all(1 <= k <= m for k in eps):
                raise ValueError("epsilon indices run over 1..%d, not %r" % (m, sorted(eps)))
            eps = [eps.get(k, 0) for k in range(1, m + 1)]
        if self._by_eps is None:
            self._by_eps = {self.eps_coords(t): t for t in self.roots}
        root = self._by_eps.get(tuple(eps))
        if root is None:
            raise ValueError("no root with epsilon coordinates %r" % (tuple(eps),))
        return root

    def root_from_coeffs(self, coeffs):
        t = tuple(coeffs)
        if t not in self._root_set:
            raise ValueError("%r is not a root" % (t,))
        return t

    def __repr__(self):
        return "RootSystem(%s%d, %d roots)" % (self.type, self.rank, len(self.roots))


def _neg(t):
    return tuple(-c for c in t)


def _sub(s, t):
    return tuple(a - b for a, b in zip(s, t))


class ChevalleyConstants:
    """N(alpha, beta) for all root pairs with alpha + beta a root, each
    written once, from its positive pair.

    Every ordered pair (alpha, beta) with alpha + beta a root lies in exactly
    one zero-sum triple {alpha, beta, -alpha-beta}, and either two roots of
    that triple are positive or two are negative.  So one positive pair
    (a, b), with c = -a-b, fixes all twelve ordered entries of the triple
    and of its negation:

    - N(b, c) = N(a, b)(a,a)/(c,c) and N(c, a) = N(a, b)(b,b)/(c,c), by the
      cyclic relation, both exact;
    - antisymmetry N(y, x) = -N(x, y) gives the swapped pairs;
    - N(-x, -y) = -N(x, y) gives the negated pairs.

    ``_build`` fixes the positive pairs by their sums in root order.  The
    extraspecial pair of a sum gets +(p+1).  Every other pair is solved
    from constants of triples whose roots all have smaller height, so are
    already written, and must come out +-(p+1) as well.  ``_sums`` maps
    (i, j) to (k, N) with roots[i] + roots[j] = roots[k], in indices of
    ``rs.roots``; ``N`` and ``integer_table`` only read it."""

    def __init__(self, rootsystem):
        self.rs = rootsystem
        self.convention_version = CONVENTION_VERSION
        self._index = {t: k for k, t in enumerate(rootsystem.roots)}
        self._sums = {}
        self._build()

    def _build(self):
        rs, index, sums = self.rs, self._index, self._sums
        roots, npos = rs.roots, len(rs.positive_roots)
        norm = [rs._scaled_norm(t) for t in roots]
        neg = [k + npos for k in range(npos)] + list(range(npos))  # index of -roots[k]

        def fix(a, b, c, n):
            """Write the twelve entries of the triple a + b + c = 0 from N(a, b) = n."""
            nbc = _exact(n * norm[a], norm[c], "a structure constant")
            nca = _exact(n * norm[b], norm[c], "a structure constant")
            for x, y, z, v in ((a, b, c, n), (b, c, a, nbc), (c, a, b, nca)):
                sums[x, y], sums[y, x] = (neg[z], v), (neg[z], -v)
                sums[neg[x], neg[y]], sums[neg[y], neg[x]] = (z, -v), (z, v)

        height = [sum(t) for t in rs.positive_roots]  # ascending, as is root order
        for g in range(npos):
            # a before b means height(a) <= height(gamma)/2
            gamma, below = roots[g], bisect_right(height, height[g] // 2)
            pairs = [(a, b) for a in range(below) if a < (b := index.get(_sub(gamma, roots[a]), -1)) < npos]
            if not pairs:
                continue
            (xi, eta), c = pairs[0], neg[g]
            n_xe = rs.root_string_down(roots[xi], roots[eta]) + 1
            fix(xi, eta, c, n_xe)
            for a, b in pairs[1:]:
                t = 0
                if d1 := sums.get((eta, neg[a])):  # eta - a a root
                    t += d1[1] * sums[xi, d1[0]][1]
                if d2 := sums.get((neg[a], xi)):  # xi - a a root
                    t += d2[1] * sums[eta, d2[0]][1]
                val = _exact(-t * norm[g], n_xe * norm[b], "a structure constant")
                expected = rs.root_string_down(roots[a], roots[b]) + 1
                if abs(val) != expected:
                    raise RootStringMismatch("extraspecial solve gave |N|=%d, want %d" % (abs(val), expected))
                fix(a, b, c, val)

    def N(self, alpha, beta):
        """N in [x_alpha, x_beta] = N x_{alpha+beta}; 0 if alpha+beta is no root."""
        entry = self._sums.get((self._index[tuple(alpha)], self._index[tuple(beta)]))
        return entry[1] if entry else 0

    def integer_table(self):
        """Structure constants of the Chevalley algebra over the integers.

        Basis order: positive roots, negative roots (mirrored order), then
        h_1..h_rank.  Returns (labels, {(i, j): {k: int}}) with i < j: the
        entries of ``_sums`` and the pairs (x_a, x_-a) in sorted key order,
        then the h-part.  A ``LieAlgebra`` keeps its rows in this order.
        """
        rs = self.rs
        nroots, npos = len(rs.roots), len(rs.positive_roots)
        labels = ["x[%s]" % ",".join(map(str, t)) for t in rs.roots] + ["h%d" % (i + 1) for i in range(rs.rank)]
        rows = [((i, j), {k: n}) for (i, j), (k, n) in self._sums.items() if i < j]
        for a in range(npos):
            rows.append(((a, npos + a), {nroots + i: c for i, c in enumerate(rs.coroot_coords(rs.roots[a])) if c}))
        table = dict(sorted(rows))
        for i in range(rs.rank):
            hi = nroots + i
            cartan_row = [(j, a) for j, a in enumerate(rs.cartan[i]) if a]
            for ib, b in enumerate(rs.roots):
                c = sum(b[j] * a for j, a in cartan_row)
                if c:
                    table[ib, hi] = {ib: -c}
        return labels, table


def root_system(type_, rank):
    return RootSystem(type_, rank)


def chevalley_constants(rs):
    return ChevalleyConstants(rs)


_INTEGER_DATA = {}


def integer_chevalley_data(type_, rank):
    """``(root system, labels, table)`` of a type, the table as in
    ``ChevalleyConstants.integer_table``, read off the constants that each
    positive pair writes for its zero-sum triple: built once per process and
    shared by every caller, which must not mutate them."""
    if (type_, rank) not in _INTEGER_DATA:
        rs = root_system(type_, rank)
        _INTEGER_DATA[type_, rank] = (rs,) + chevalley_constants(rs).integer_table()
    return _INTEGER_DATA[type_, rank]
