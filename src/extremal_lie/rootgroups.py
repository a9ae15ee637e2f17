"""Root groups U_y = {exp(y, t)} and the identities they satisfy.

A group element is a word in the factors exp(x, s) of
``chevalley.exp_map``, and no n x n map is built or composed.  Two words
are compared on the generators ``L.generators`` only: each word is applied
to each generator vector one factor at a time, exp(x, s) v = v + s[x, v] +
(s^2/2) f_x(v) x, on ints over Q with one division at the end
(``_Words``).  That decides whether the two words are the same map of L:

- ad_x is a derivation (the Jacobi identity, which construction checks) and
  ad_x^2 w = f_x(w) x for every w (``is_extremal`` proves it).  Then
  exp(x, s) is a Lie homomorphism in every characteristic other than 2.
  Compare exp(x, s)[u, v] with [exp(x, s) u, exp(x, s) v] power by power of
  s.  The s^1 and s^2 terms agree by the Leibniz rule for ad_x.  The s^3
  term of the second is (1/2)([f(u) x, [x, v]] + [[x, u], f(v) x]) =
  (1/2)(f(u) f(v) x - f(v) f(u) x) = 0, and the s^4 term is
  (1/4) f(u) f(v) [x, x] = 0; the first has neither, as ad_x^3 = 0.
- A word is a product of such homomorphisms, so the vectors on which two
  words agree form a subalgebra.  It holds the generators, so it holds
  their ad-closure, which is L.  Two words that agree on the generators
  are equal, and the test is an exact equivalence, not only sound.

The generators are few: 5 of the 28 basis vectors for D4, 4 of 21 for B3,
8 of 133 for E7, 9 of 248 for E8.  Within one check each suffix of a word
is applied once.  Over small prime fields the parameter checks are
exhaustive; over the rationals a fixed deterministic sample set is used
(the identities are polynomial in the parameters, of low degree).
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import NotExtremal, PreconditionNotMet, is_extremal
from .linalg import axpy, canonical, echelon_from_rows
from .chevalley import exp_automorphism, exp_map

Q_SAMPLES = (1, -1, 2, -2, Fraction(1, 2), 3)
EXHAUSTIVE_CHAR_BOUND = 11


def parameter_samples(field, seed_extra=()):
    """All field elements for small GF(p); a fixed sample set over Q."""
    if field.characteristic and field.characteristic <= EXHAUSTIVE_CHAR_BOUND:
        return [field.raw(k) for k in range(field.characteristic)]
    vals = [field.raw(v) for v in Q_SAMPLES]
    for v in seed_extra:
        v = field.raw(v)
        if v not in vals:
            vals.append(v)
    return vals


class _Words:
    """Group words, tuples of ``chevalley.Exp`` factors with the rightmost
    acting first, applied to the generator vectors of L.  Images are pairs
    (ints w, den), the image being w / den.  The images of a proper suffix
    are kept, so a suffix that several words share is applied once; those
    of a whole word are not, as most words are compared once."""

    def __init__(self, L):
        self._kept = {(): [({g: 1}, 1) for g in L.generators]}

    def _of(self, word):
        images = self._kept.get(word[1:])
        if images is None:
            images = self._kept[word[1:]] = self._of(word[1:])
        head = word[0]
        return [(head.act(w), d * head.den) for w, d in images]

    def same(self, lhs, rhs):
        """Whether the words lhs and rhs are the same map of L (see the
        module docstring): w / d = v / e on every generator."""
        images = (self._of(word) if word else self._kept[()] for word in (lhs, rhs))
        return all(
            w.keys() == v.keys() and all(c * e == v[k] * d for k, c in w.items())
            for (w, d), (v, e) in zip(*images)
        )


def representative_pairs(A):
    """(class, x, y) for each pair class of long root elements of the
    Chevalley algebra A: x_theta with 2 x_theta ("same-line") and with
    x_-theta ("opposite"), and the first "commuting" and the first
    "f0-noncommuting" pair of long roots in root order (A1 has neither)."""
    rs = A.rootsystem
    theta = rs.highest_root
    longs = [root for root in rs.roots if rs.is_long(root)]
    pairs = [("same-line", A.x(theta), 2 * A.x(theta)), ("opposite", A.x(theta), A.x(tuple(-c for c in theta)))]
    zero = tuple(0 for _ in theta)
    for case, sum_ok in (
        ("commuting", lambda t: t != zero and not rs.is_root(t)),
        ("f0-noncommuting", lambda t: rs.is_root(t) and rs.is_long(t)),
    ):
        sums = ((a, b) for a in longs for b in longs if a != b and sum_ok(tuple(i + j for i, j in zip(a, b))))
        pair = next(sums, None)
        if pair is not None:
            pairs.append((case, A.x(pair[0]), A.x(pair[1])))
    return pairs


def strongcomm_pair(A):
    """(x_theta, [x_theta, x_b]) for the first long root b with
    [x_theta, x_b] != 0 and f(x_theta, x_b) = 0, a commuting pair of
    extremal elements; None when there is no such b (A1, B2 and type C,
    where theta + b is a root for no long b other than -theta)."""
    L, rs = A.lie, A.rootsystem
    x = A.x(rs.highest_root)
    fx = is_extremal(L, x)
    for b in rs.roots:
        if rs.is_long(b):
            z = L.bracket(x, A.x(b))
            if not z.is_zero() and A.field.is_zero(fx(A.x(b))):
                return x, z
    return None


def classify_pair(L, x, y, fx):
    """The class of a pair of extremal elements x, y, where fx is f_x."""
    if echelon_from_rows(L.field, L.n, [x.coeffs, y.coeffs]).dim == 1:
        return "same-line"
    if L.bracket(x, y).is_zero():
        return "commuting"
    if L.field.is_zero(fx(y)):
        return "f0-noncommuting"
    return "opposite"


def verify_abstract_root_properties(L, x, y, samples):
    """The five root-group properties, as identities of group words for
    every pair of raw field values in ``samples`` (``parameter_samples``)."""
    f = L.field
    try:
        ex, ey = exp_map(L, x), exp_map(L, y)
    except NotExtremal:
        raise NotExtremal("root group pairs need extremal elements") from None
    fx = ex.functional
    case = classify_pair(L, x, y, fx)
    checks = []

    def record(prop, ok):
        checks.append({"pair": case, "property": prop, "samples": len(samples), "pass": ok})

    same = _Words(L).same
    # (1) one-parameter group law
    record(
        "(1) exp(y,s)exp(y,t) = exp(y,s+t)",
        all(same((ey(s), ey(t)), (ey(f.add(s, t)),)) for s in samples for t in samples),
    )

    # (2) conjugation transports the root group
    def transports(s):
        g, ginv = ey(s), ey(f.neg(s))
        try:
            ex2 = exp_map(L, ginv.apply(x))
        except NotExtremal:
            return False
        return all(same((ginv, ex(t), g), (ex2(t),)) for t in samples)

    record("(2) (U_x)^{exp(y,s)} = U_{exp(y,-s)x}", all(transports(s) for s in samples))

    if case in ("same-line", "commuting"):
        ok = all(same((ex(s), ey(t)), (ey(t), ex(s))) for s in samples for t in samples)
        record("(3) (U_x, U_y) = 1", ok)
    elif case == "f0-noncommuting":
        ez = exp_map(L, L.bracket(y, x))
        ok = all(
            same((ey(f.neg(t)), ex(f.neg(s)), ey(t), ex(s)), (ez(f.mul(t, s)),)) for t in samples for s in samples
        )
        # class 2: the commutator group is central in <U_x, U_y>
        ok = ok and all(
            same((ez(u), g), (g, ez(u))) for u in samples for s in samples for g in (ex(s), ey(s))
        )
        record("(4) (exp(y,t), exp(x,s)) = exp([y,x], ts), class 2", ok)
    else:
        fxy = fx(y)
        ey2 = exp_map(L, f.div(f.raw(-2), fxy) * y)
        ok = all(
            same(
                (ey2(f.neg(s)), ex(f.mul(f.inv(s), t)), ey2(s)),
                (ex(f.neg(f.inv(s))), ey2(f.neg(f.mul(t, s))), ex(f.inv(s))),
            )
            for s in samples
            if not f.is_zero(s)
            for t in samples
        )
        record("(5) special rank 1 relation (f(x,y) = -2)", ok)

    return {"case": case, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _condition_2prime(L, x, y, fx, fy):
    """(2'): 2[y,[x,z]] = f(x,z) y + f(y,z) x for all z, checked on the
    basis.  At z = b_j, [y, [x, b_j]] is the column [x, b_j] of ad_x carried
    by the columns of ad_y, so no bracket is taken; the test stops at the
    first failing b_j."""
    f = L.field
    ady = L.ad_columns(y)
    for j, col in enumerate(L.ad_columns(x)):
        defect = {}
        for k, c in col.items():
            axpy(defect, 2 * c, ady[k])
        axpy(defect, -fx.values.get(j, 0), y.coeffs)
        axpy(defect, -fy.values.get(j, 0), x.coeffs)
        if canonical(f, defect):
            return False
    return True


def strongcomm_check(L, x, y, samples):
    """For commuting extremal x, y: the equivalent conditions for the line
    kx + ky to consist of extremal elements, and the product identity, over
    the raw field values ``samples``."""
    f = L.field
    if not L.bracket(x, y).is_zero():
        raise PreconditionNotMet("strongcomm needs [x, y] = 0")
    try:
        ex, ey = exp_map(L, x), exp_map(L, y)
    except NotExtremal:
        raise PreconditionNotMet("strongcomm needs extremal x, y") from None

    cond2 = _condition_2prime(L, x, y, ex.functional, ey.functional)
    # (1)/(1'): extremality of sx + ty over the samples; exp(sx + ty, 1) of
    # each extremal point is kept for the product identity
    unit = {}
    results = []
    for s in samples:
        for t in samples:
            if f.is_zero(s) or f.is_zero(t):
                continue
            try:
                unit[(s, t)] = exp_automorphism(L, s * x + t * y, f.one)
            except NotExtremal:
                results.append(False)
            else:
                results.append(True)
    cond1_all = all(results) if results else True
    cond1_exists = any(results) if results else True
    agree = cond2 == cond1_all == cond1_exists
    product_ok = True
    if cond2:
        same = _Words(L).same

        def exp_of_sum(s, t):
            """exp(sx + ty, 1) as a word: empty when sx + ty = 0."""
            v = s * x + t * y
            if v.is_zero():
                return ()
            g = unit.get((s, t))
            if g is None:  # s or t is 0, so v was not in the loop above
                g = exp_automorphism(L, v, f.one)
            return (g,)

        product_ok = all(same((ey(t), ex(s)), exp_of_sum(s, t)) for s in samples for t in samples)
    return {
        "condition_2prime": cond2,
        "condition_1_all_samples": cond1_all,
        "condition_1prime_exists": cond1_exists,
        "conditions_agree": agree,
        "product_identity": product_ok,
        "pass": agree and (not cond2 or product_ok),
    }


def projective_line_check(L, x, y, samples):
    """If x, y and x + y are commuting extremal points of the projective
    line through the independent x and y, every nonzero point of the line
    is extremal: y and x + lam y for lam in the raw field values
    ``samples`` are tested (exhaustive over small GF(p))."""
    f = L.field
    for p in (x, y, x + y):
        if is_extremal(L, p) is None:
            raise PreconditionNotMet("line points must be extremal")
    if not L.bracket(x, y).is_zero():
        raise PreconditionNotMet("x and y must commute")
    if echelon_from_rows(f, L.n, [x.coeffs, y.coeffs]).dim != 2:
        raise PreconditionNotMet("x and y must be independent")
    # y is extremal (checked above); the other points are x + lam y
    points = (x + lam * y for lam in samples)
    bad = [p for p in points if not p.is_zero() and is_extremal(L, p) is None]
    exhaustive = bool(f.characteristic and f.characteristic <= EXHAUSTIVE_CHAR_BOUND)
    return {
        "points_checked": 1 + len(samples),
        "exhaustive": exhaustive,
        "non_extremal_points": bad,
        "pass": not bad,
    }


def chain_nonexistence_probe(A):
    """Search the long root elements of the Chevalley algebra A for a chain
    x1, x2, x3 of extremal elements with (x1, x2) satisfying the strong
    commuting conditions ([x1, x2] = 0 and (2')), [x2, x3] = 0 and
    f(x1, x3) != 0, with x1 = x_theta, the highest root element.

    Fixing x1 loses no chain.  The long roots are one orbit of the Weyl
    group W, which the reflections s_alpha generate.  Each s_alpha lifts to
    n_alpha = exp(ad x_alpha) exp(-ad x_-alpha) exp(ad x_alpha), an
    automorphism of the Chevalley Z-form (its divided powers are integral,
    see ``ChevalleyAlgebra.divided_powers``), so it exists over every field
    here, and it maps each x_beta to +-x_{s_alpha beta} (Carter, "Simple
    Groups of Lie Type", 1972, 6.4).  Each condition of a chain is kept by
    automorphisms, as f_{phi x}(phi z) = f_x(z), and none depends on the
    signs of x1, x2, x3: (2') is homogeneous in x and y, and the others are
    a bracket that vanishes and a value of f that does not.  So a chain
    (x_beta, x_gamma, x_delta) and a w in W with w beta = theta give the
    chain (x_theta, x_{w gamma}, x_{w delta}).

    The probe tests (2') at most once per long root: only on the x2 that
    commute with x_theta and that some x3 completes.  The first witness in
    (x2, x3) root order is returned.  ``outcome`` is "witness" or "no
    witness" (among long root elements, not among all extremal elements);
    only "no witness" passes."""
    L, rs, f = A.lie, A.rootsystem, A.field
    pool = [A.x(root) for root in rs.roots if rs.is_long(root)]
    x1 = A.x(rs.highest_root)
    f1 = is_extremal(L, x1)
    # no long root element is extremal when x_theta is not: they are one orbit
    completing = [] if f1 is None else [z for z in pool if not f.is_zero(f1(z)) and is_extremal(L, z) is not None]
    for x2 in pool:
        if x2 == x1 or not L.bracket(x1, x2).is_zero():
            continue
        x3 = next((z for z in completing if L.bracket(x2, z).is_zero()), None)
        if x3 is None:
            continue
        f2 = is_extremal(L, x2)
        if f2 is not None and _condition_2prime(L, x1, x2, f1, f2):
            return {"witness": (x1, x2, x3), "outcome": "witness", "pass": False}
    return {"witness": None, "outcome": "no witness", "pass": True}
