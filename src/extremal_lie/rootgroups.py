"""Root groups U_y = {exp(y, t)} and the identities they satisfy.

Group elements are only ever stored as exact matrices, the
``chevalley.Automorphism`` form: sparse integer columns over one positive
denominator, primitive over Q (residue columns over denominator 1 over
GF(p)), so equal words have equal columns and equality of group words is
decidable.  Words are composed in integers; a rational value appears only
when a map is applied.  Each ``exp_map`` builds exp(y, t) once per
parameter, so the double loops below reuse their factors.  Over small prime
fields the parameter checks are exhaustive; over the rationals a fixed
deterministic sample set is used (the identities are polynomial in the
parameters, of low degree).
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import NotExtremal, PreconditionNotMet, is_extremal
from .linalg import echelon_from_rows
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


def _samples(field, sample_params):
    """The given parameters, or ``parameter_samples``, as raw field values."""
    return [field.raw(s) for s in (parameter_samples(field) if sample_params is None else sample_params)]


def classify_pair(L, x, y, fx):
    """The class of a pair of extremal elements x, y, where fx is f_x."""
    if echelon_from_rows(L.field, L.n, [x.coeffs, y.coeffs]).dim == 1:
        return "same-line"
    if L.bracket(x, y).is_zero():
        return "commuting"
    if L.field.is_zero(fx(y)):
        return "f0-noncommuting"
    return "opposite"


def verify_abstract_root_properties(L, x, y, sample_params=None):
    """The five root-group properties, as exact matrix identities for every
    sampled (or exhaustive) parameter pair."""
    x = L.element(x)
    y = L.element(y)
    f = L.field
    try:
        ex, ey = exp_map(L, x), exp_map(L, y)
    except NotExtremal:
        raise NotExtremal("root group pairs need extremal elements") from None
    fx = ex.functional
    case = classify_pair(L, x, y, fx)
    samples = _samples(f, sample_params)
    checks = []

    def record(prop, ok):
        checks.append({"pair": case, "property": prop, "samples": len(samples), "pass": ok})

    # (1) one-parameter group law
    ok = True
    for s in samples:
        for t in samples:
            if ey(s).compose(ey(t)) != ey(f.add(s, t)):
                ok = False
    record("(1) exp(y,s)exp(y,t) = exp(y,s+t)", ok)

    # (2) conjugation transports the root group
    ok = True
    for s in samples:
        g = ey(s)
        ginv = ey(f.neg(s))
        try:
            ex2 = exp_map(L, ginv.apply(x))
        except NotExtremal:
            ok = False
            continue
        for t in samples:
            if ginv.compose(ex(t)).compose(g) != ex2(t):
                ok = False
    record("(2) (U_x)^{exp(y,s)} = U_{exp(y,-s)x}", ok)

    if case in ("same-line", "commuting"):
        ok = True
        for s in samples:
            for t in samples:
                a, b = ex(s), ey(t)
                if a.compose(b) != b.compose(a):
                    ok = False
        record("(3) (U_x, U_y) = 1", ok)
    elif case == "f0-noncommuting":
        ez = exp_map(L, L.bracket(y, x))
        ok = True
        for t in samples:
            for s in samples:
                comm = ey(f.neg(t)).compose(ex(f.neg(s))).compose(ey(t)).compose(ex(s))
                if comm != ez(f.mul(t, s)):
                    ok = False
        # class 2: the commutator group is central in <U_x, U_y>
        for u in samples:
            gz = ez(u)
            for s in samples:
                for g in (ex(s), ey(s)):
                    if gz.compose(g) != g.compose(gz):
                        ok = False
        record("(4) (exp(y,t), exp(x,s)) = exp([y,x], ts), class 2", ok)
    else:
        fxy = fx(y)
        ey2 = exp_map(L, f.div(f.raw(-2), fxy) * y)
        ok = True
        for s in samples:
            if f.is_zero(s):
                continue
            sinv = f.inv(s)
            for t in samples:
                lhs = ey2(f.neg(s)).compose(ex(f.mul(sinv, t))).compose(ey2(s))
                rhs = ex(f.neg(sinv)).compose(ey2(f.neg(f.mul(t, s)))).compose(ex(sinv))
                if lhs != rhs:
                    ok = False
        record("(5) special rank 1 relation (f(x,y) = -2)", ok)

    return {"case": case, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _condition_2prime(L, x, y, fx, fy):
    """(2'): 2[y,[x,z]] = f(x,z) y + f(y,z) x for all z, checked on the basis."""
    # the basis elements are built one at a time: all() stops at the first failing z
    return all(
        2 * L.bracket(y, L.bracket(x, z)) == fx(z) * y + fy(z) * x for z in map(L.basis_element, range(L.n))
    )


def strongcomm_check(L, x, y, sample_params=None):
    """For commuting extremal x, y: the equivalent conditions for the line
    kx + ky to consist of extremal elements, and the product identity."""
    x = L.element(x)
    y = L.element(y)
    f = L.field
    if not L.bracket(x, y).is_zero():
        raise PreconditionNotMet("strongcomm needs [x, y] = 0")
    try:
        ex, ey = exp_map(L, x), exp_map(L, y)
    except NotExtremal:
        raise PreconditionNotMet("strongcomm needs extremal x, y") from None
    samples = _samples(f, sample_params)

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
        for s in samples:
            for t in samples:
                lhs = ey(t).compose(ex(s))
                v = s * x + t * y
                if v.is_zero():
                    rhs_ok = lhs.is_identity()
                else:
                    rhs = unit.get((s, t))
                    if rhs is None:  # s or t is 0, so v was not in the loop above
                        rhs = exp_automorphism(L, v, f.one)
                    rhs_ok = lhs == rhs
                if not rhs_ok:
                    product_ok = False
    return {
        "condition_2prime": cond2,
        "condition_1_all_samples": cond1_all,
        "condition_1prime_exists": cond1_exists,
        "conditions_agree": agree,
        "product_identity": product_ok,
        "pass": agree and (not cond2 or product_ok),
    }


def _non_extremal_points(L, x, y, lambdas):
    """The nonzero points x + lam y that are not extremal (lazily)."""
    points = (x + lam * y for lam in lambdas)
    return (p for p in points if not p.is_zero() and is_extremal(L, p) is None)


def projective_line_check(L, x, y, third_point, sample_params=None):
    """If three commuting extremal points lie on one projective line, every
    nonzero point of the line is extremal (exhaustive over small GF(p))."""
    f = L.field
    x = L.element(x)
    y = L.element(y)
    third = L.element(third_point)
    pts = [x, y, third]
    for p in pts:
        if is_extremal(L, p) is None:
            raise PreconditionNotMet("line points must be extremal")
    for i in range(3):
        for j in range(i + 1, 3):
            if not L.bracket(pts[i], pts[j]).is_zero():
                raise PreconditionNotMet("line points must commute pairwise")
    ech = echelon_from_rows(f, L.n, [x.coeffs, y.coeffs])
    if ech.dim != 2 or not ech.contains(third.coeffs):
        raise PreconditionNotMet("the three points must span one projective line")
    # y is extremal (checked above); the other points are x + lam y
    lambdas = _samples(f, sample_params)
    bad = list(_non_extremal_points(L, x, y, lambdas))
    exhaustive = bool(f.characteristic and f.characteristic <= EXHAUSTIVE_CHAR_BOUND)
    return {
        "points_checked": 1 + len(lambdas),
        "exhaustive": exhaustive,
        "non_extremal_points": bad,
        "pass": not bad,
    }


def chain_nonexistence_probe(L, pool):
    """Search every triple of the pool for a chain x1, x2, x3 of extremal
    elements with (x1, x2) satisfying the strong commuting conditions,
    [x2, x3] = 0 and f(x1, x3) != 0.

    The conditions on x3 do not involve (2'), so the commuting relation and
    the f != 0 relation of the pool are computed once, and (2') is tested
    only on commuting pairs (x1, x2) that some x3 completes.  The first
    witness in (x1, x2, x3) pool order is returned.  ``outcome`` is
    "witness" or "no witness" (for the pool, not for every extremal element);
    only "no witness" passes."""
    f = L.field
    funcs = []
    for p in map(L.element, pool):
        fx = is_extremal(L, p)
        if fx is not None:
            funcs.append((p, fx))
    idx = range(len(funcs))
    commutes = [{k for k in idx if L.bracket(x, funcs[k][0]).is_zero()} for x, _ in funcs]
    f_nonzero = [{k for k in idx if not f.is_zero(fx(funcs[k][0]))} for _, fx in funcs]
    for i, (x1, f1) in enumerate(funcs):
        for j in sorted(commutes[i] - {i}):
            x2, f2 = funcs[j]
            completions = commutes[j] & f_nonzero[i]
            if completions and _condition_2prime(L, x1, x2, f1, f2):
                return {"witness": (x1, x2, funcs[min(completions)][0]), "outcome": "witness", "pass": False}
    return {"witness": None, "outcome": "no witness", "pass": True}
