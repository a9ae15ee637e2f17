"""Free Lie algebra on r generators over the rationals, with a Lyndon-word basis.

Basis elements are Lyndon words (their standard bracketings); arbitrary
brackets are rewritten into the basis by the classical recursion on standard
factorizations.  Left-normed monomials [x1,[x2,...[x_{s-1},x_s]...]] are the
user-facing bracketing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class LyndonWord:
    """A Lyndon word on letters 1..r: strictly smaller than each proper suffix."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        self.letters = tuple(letters)

    def __eq__(self, other):
        return isinstance(other, LyndonWord) and self.letters == other.letters

    def __lt__(self, other):
        return self.letters < other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def multidegree(self, r):
        counts = [0] * r
        for a in self.letters:
            counts[a - 1] += 1
        return tuple(counts)

    def standard_factorization(self):
        """w = uv with v the lexicographically least proper suffix; both Lyndon."""
        w = self.letters
        if len(w) < 2:
            raise ValueError("a single letter has no standard factorization")
        v = min(w[i:] for i in range(1, len(w)))
        return LyndonWord(w[: len(w) - len(v)]), LyndonWord(v)

    def bracketing_str(self, prefix="x"):
        def s(word):
            if len(word) == 1:
                return "%s%d" % (prefix, word[0])
            u, v = LyndonWord(word).standard_factorization()
            return "[%s,%s]" % (s(u.letters), s(v.letters))

        return s(self.letters)

    def __repr__(self):
        return self.bracketing_str()


@lru_cache(maxsize=None)
def lyndon_words(r, d):
    """All Lyndon words of length d on r letters, lexicographically sorted (Duval)."""
    if r < 1 or d < 1:
        raise ValueError("need r >= 1 and d >= 1")
    out = []
    w = [1]
    while w:
        if len(w) == d:
            out.append(tuple(w))
        # extend periodically to length d, then increment
        t = w * (d // len(w)) + w[: d % len(w)]
        t = [c for c in t]
        while t and t[-1] == r:
            t.pop()
        if not t:
            break
        t[-1] += 1
        w = t
    return tuple(out)


def lyndon_basis(r, d):
    return [LyndonWord(w) for w in lyndon_words(r, d)]


class FreeLieElement:
    """Element of the free Lie algebra on r generators, over the rationals.

    ``terms`` maps LyndonWord -> nonzero Fraction.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=None):
        self.r = r
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[w] = c

    def __eq__(self, other):
        return isinstance(other, FreeLieElement) and self.r == other.r and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return FreeLieElement(self.r, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scale):
        scale = Fraction(scale)
        if not scale:
            return FreeLieElement(self.r)
        return FreeLieElement(self.r, {w: scale * c for w, c in self.terms.items()})

    def __neg__(self):
        return -1 * self

    def multidegree(self):
        """The common multidegree of all terms, or None for 0 / mixed elements."""
        mds = {w.multidegree(self.r) for w in self.terms}
        return mds.pop() if len(mds) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w.letters)):
            c = self.terms[w]
            bits.append("%s*%s" % (c, w.bracketing_str()))
        return " + ".join(bits)


def generator(r, i):
    if not 1 <= i <= r:
        raise ValueError("generator index out of range")
    return FreeLieElement(r, {LyndonWord((i,)): Fraction(1)})


@lru_cache(maxsize=None)
def _bracket_words(u, v):
    """[std(u), std(v)] expanded in the Lyndon basis; u, v letter tuples."""
    if u == v:
        return ()
    if v < u:
        return tuple((w, -c) for w, c in _bracket_words(v, u))
    # u < v: uv is Lyndon
    w = u + v
    if len(u) == 1:
        return ((w, Fraction(1)),)
    lw = LyndonWord(u)
    u1, u2 = lw.standard_factorization()
    if u2.letters >= v:
        return ((w, Fraction(1)),)
    # [ [u1,u2], v ] = [[u1,v],u2] + [u1,[u2,v]]
    out = {}
    for z, c in _bracket_words(u1.letters, v):
        for z2, c2 in _bracket_words(z, u2.letters):
            out[z2] = out.get(z2, Fraction(0)) + c * c2
    for z, c in _bracket_words(u2.letters, v):
        for z2, c2 in _bracket_words(u1.letters, z):
            out[z2] = out.get(z2, Fraction(0)) + c * c2
    return tuple(sorted((z, c) for z, c in out.items() if c))


def bracket(a, b):
    """Lie bracket, bilinear over the Lyndon basis."""
    if a.r != b.r:
        raise ValueError("mixed generator counts")
    out = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            for w, cw in _bracket_words(u.letters, v.letters):
                key = LyndonWord(w)
                s = out.get(key, Fraction(0)) + c * cw
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return FreeLieElement(a.r, out)


def monomial(r, word):
    """The left-normed monomial [x_{w1},[x_{w2},...[x_{w_{s-1}},x_{w_s}]...]]."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    e = generator(r, word[-1])
    for a in reversed(word[:-1]):
        e = bracket(generator(r, a), e)
    return e


def as_tensor(a):
    """Expansion in the tensor algebra: dict word-tuple -> Fraction.

    The standard bracketing of a Lyndon word is expanded recursively as
    uv - vu; this is an independent route used to cross-check the Lyndon
    rewriting.
    """

    def expand(word):
        if len(word) == 1:
            return {word: Fraction(1)}
        u, v = LyndonWord(word).standard_factorization()
        eu, ev = expand(u.letters), expand(v.letters)
        out = {}
        for wu, cu in eu.items():
            for wv, cv in ev.items():
                out[wu + wv] = out.get(wu + wv, Fraction(0)) + cu * cv
                out[wv + wu] = out.get(wv + wu, Fraction(0)) - cu * cv
        return {w: c for w, c in out.items() if c}

    out = {}
    for w, c in a.terms.items():
        for t, ct in expand(w.letters).items():
            s = out.get(t, Fraction(0)) + c * ct
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out
