"""Lie algebras on three extremal generators.

The three-generator algebra M is built on the eight spanning monomials
x, y, z, [x,y], [x,z], [y,z], [x,[y,z]], [y,[x,z]] with a rewrite table:
every bracket of two spanning monomials reduces by a fixed, ordered rule
list (extremality, the two pivot identities of an extremal element, the two
squaring identities of an extremal pair, the degree-six identity, and
Jacobi/antisymmetry).  The table below records
for each unordered pair which rule reduces it; a missing pair would raise
RewriteIncomplete.  Construction validates the Jacobi identity, so a bad
reduction cannot survive silently.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QQ
from .linalg import Coordinates, canonical, kernel
from .liealg import (
    LieAlgebra,
    PreconditionNotMet,
    Subspace,
    center,
    derived_series,
    is_extremal,
    lower_central_series,
    matrix_lie_algebra,
    quotient_algebra,
    solvable_radical,
    structure_constants_on,
    subalgebra_generated,
    trace_zero,
)
from . import nilquot
from .rootdata import cartan_nullity


class RewriteIncomplete(RuntimeError):
    pass


class CentralNotZero(ValueError):
    pass


MONOMIAL_LABELS = ["x", "y", "z", "[x,y]", "[x,z]", "[y,z]", "[x,[y,z]]", "[y,[x,z]]"]

# index shorthands
_X, _Y, _Z, _XY, _XZ, _YZ, _XYZ, _YXZ = range(8)

# E_12 = x and E_23 = -y + ([x,y] + [y,z] + [y,[x,z]])/2 of ``sl3_example``
# on the eight monomials (the map that ``isomorphic_by_monomials`` checks):
# strictly upper triangular, so their adjoint maps raise
_SL3_RAISING = ({_X: 1}, {_Y: -1, _XY: Fraction(1, 2), _YZ: Fraction(1, 2), _YXZ: Fraction(1, 2)})


def _half(field):
    return field.div(field.one, field.raw(2))


def _pair_rules(field, a, b, c):
    """The 28 reductions [m_i, m_j], i < j, as (rule name, sparse row).

    Parameters: a = f(x,y), b = f(x,z), c = f(y,z); the central parameter
    f(x,[y,z]) is zero (enforced by the caller), which is what makes the
    right-hand sides below close on the eight monomials.
    """
    f = field
    h = _half(f)

    def m(**kw):
        idx = {"x": _X, "y": _Y, "z": _Z, "xy": _XY, "xz": _XZ, "yz": _YZ, "xyz": _XYZ, "yxz": _YXZ}
        return canonical(f, {idx[key]: v for key, v in kw.items()})

    neg, mul = f.neg, f.mul
    rules = {
        # letter-letter brackets are basis monomials
        (_X, _Y): ("basis", m(xy=f.one)),
        (_X, _Z): ("basis", m(xz=f.one)),
        (_Y, _Z): ("basis", m(yz=f.one)),
        # extremality [u,[u,v]] = f_u(v) u
        (_X, _XY): ("extremal", m(x=a)),
        (_X, _XZ): ("extremal", m(x=b)),
        (_Y, _YZ): ("extremal", m(y=c)),
        (_Y, _XY): ("extremal", m(y=neg(a))),
        (_Z, _XZ): ("extremal", m(z=neg(b))),
        (_Z, _YZ): ("extremal", m(z=neg(c))),
        # remaining letter-pair brackets: basis or Jacobi
        (_X, _YZ): ("basis", m(xyz=f.one)),
        (_Y, _XZ): ("basis", m(yxz=f.one)),
        (_Z, _XY): ("jacobi", m(yxz=f.one, xyz=neg(f.one))),
        # letter-triple brackets: extremality or the nested-pivot identity
        (_X, _XYZ): ("extremal", {}),
        (_Y, _YXZ): ("extremal", {}),
        (_X, _YXZ): ("pivot-nested", m(xy=neg(mul(h, b)), xz=neg(mul(h, a)))),
        (_Y, _XYZ): ("pivot-nested", m(xy=mul(h, c), yz=neg(mul(h, a)))),
        (_Z, _XYZ): ("pivot-nested", m(xz=neg(mul(h, c)), yz=neg(mul(h, b)))),
        (_Z, _YXZ): ("pivot-nested", m(xz=neg(mul(h, c)), yz=neg(mul(h, b)))),
        # pair-pair brackets: the common-pivot identity
        (_XY, _XZ): ("pivot-pairs", m(xy=mul(h, b), xz=neg(mul(h, a)))),
        (_XY, _YZ): ("pivot-pairs", m(xy=mul(h, c), yz=mul(h, a))),
        (_XZ, _YZ): ("pivot-pairs", m(xz=neg(mul(h, c)), yz=mul(h, b))),
        # pair-triple brackets: the squaring identities of two extremals
        (_XY, _XYZ): ("square1", m(x=mul(h, mul(c, a)), xyz=neg(mul(h, a)))),
        (_XY, _YXZ): ("square1", m(y=neg(mul(h, mul(b, a))), yxz=mul(h, a))),
        (_XZ, _XYZ): ("square1", m(x=neg(mul(h, mul(c, b))), xyz=neg(mul(h, b)))),
        (_XZ, _YXZ): (
            "square2",
            m(x=neg(mul(h, mul(b, c))), z=neg(mul(h, mul(b, a))), xyz=neg(b), yxz=mul(h, b)),
        ),
        (_YZ, _XYZ): (
            "square2",
            m(y=neg(mul(h, mul(c, b))), z=neg(mul(h, mul(c, a))), xyz=mul(h, c), yxz=neg(c)),
        ),
        (_YZ, _YXZ): ("square1", m(y=neg(mul(h, mul(b, c))), yxz=neg(mul(h, c)))),
        # triple-triple: the degree-six identity
        (_XYZ, _YXZ): (
            "degree6",
            m(xy=neg(mul(h, mul(b, c))), xz=mul(h, mul(a, c)), yz=neg(mul(h, mul(a, b)))),
        ),
    }
    return rules


class TriangleParams:
    """The four parameters of a triple of extremal generators."""

    def __init__(self, field, edge_xy, edge_xz, edge_yz, central):
        self.field = field
        self.edge_xy, self.edge_xz, self.edge_yz, self.central = (
            field.raw(v) for v in (edge_xy, edge_xz, edge_yz, central)
        )

    def edges(self):
        return (self.edge_xy, self.edge_xz, self.edge_yz)

    def nonzero_edges(self):
        return sum(0 if self.field.is_zero(e) else 1 for e in self.edges())

    def __eq__(self, other):
        return (
            isinstance(other, TriangleParams)
            and self.field == other.field
            and self.edges() == other.edges()
            and self.central == other.central
        )

    def __repr__(self):
        f = self.field
        return "TriangleParams(%s, %s, %s; central %s)" % tuple(
            f.to_str(v) for v in (self.edge_xy, self.edge_xz, self.edge_yz, self.central)
        )

    def permute(self, sigma):
        """Parameters of the reordered triple (u_{sigma[0]}, u_{sigma[1]}, u_{sigma[2]})."""
        f = self.field
        e = {frozenset((0, 1)): self.edge_xy, frozenset((0, 2)): self.edge_xz, frozenset((1, 2)): self.edge_yz}
        parity = 1
        s = list(sigma)
        for i in range(3):
            for j in range(i + 1, 3):
                if s[i] > s[j]:
                    parity = -parity
        central = self.central if parity == 1 else f.neg(self.central)
        return TriangleParams(
            f,
            e[frozenset((sigma[0], sigma[1]))],
            e[frozenset((sigma[0], sigma[2]))],
            e[frozenset((sigma[1], sigma[2]))],
            central,
        )


def exp_transform_params(params, s):
    """Parameters of the triple (x, y, exp(x,s)z)."""
    f = params.field
    s = f.raw(s)
    a, b, c, d = params.edge_xy, params.edge_xz, params.edge_yz, params.central
    new_yz = f.add(f.sub(c, f.mul(s, d)), f.mul(_half(f), f.mul(f.mul(s, s), f.mul(a, b))))
    new_central = f.sub(d, f.mul(s, f.mul(b, a)))
    return TriangleParams(f, a, b, new_yz, new_central)


def scale_params(params, alpha, beta, gamma):
    """Parameters of (alpha x, beta y, gamma z); requires central = 0."""
    f = params.field
    if not f.is_zero(params.central):
        raise CentralNotZero("scaling is only applied after the central parameter vanishes")
    al, be, ga = (f.raw(v) for v in (alpha, beta, gamma))
    if any(f.is_zero(v) for v in (al, be, ga)):
        raise ValueError("scaling factors must be nonzero")
    return TriangleParams(
        f,
        f.mul(f.mul(al, be), params.edge_xy),
        f.mul(f.mul(al, ga), params.edge_xz),
        f.mul(f.mul(be, ga), params.edge_yz),
        f.zero,
    )


class NormalizationTrace:
    """Steps is a list of ("exp", pivot, target, s), ("permute", sigma) and
    ("scale", alpha, beta, gamma), with raw field values; replaying them on
    the input parameters yields ``final``."""

    def __init__(self, start, steps, final, extension_required=False):
        self.start = start
        self.steps = steps
        self.final = final
        self.extension_required = extension_required

    @property
    def case(self):
        return self.final.nonzero_edges()

    def replay(self):
        p = self.start
        for kind, *args in self.steps:
            if kind == "exp":
                p = _exp_step(p, *args)
            elif kind == "permute":
                p = p.permute(*args)
            else:
                p = scale_params(p, *args)
        return p


def _exp_step(params, pivot, target, s):
    """Replace generator ``target`` by exp(u_pivot, s) u_target."""
    other = next(k for k in range(3) if k not in (pivot, target))
    sigma = (pivot, other, target)
    q = exp_transform_params(params.permute(sigma), s)
    inverse = [0, 0, 0]
    for pos, orig in enumerate(sigma):
        inverse[orig] = pos
    return q.permute(tuple(inverse))


def normalize(params):
    """Transform to central = 0 with all nonzero edges equal to -2, one at xy
    or two at xy and xz.

    With three nonzero edges a, b, c it needs the square root of -2c/(ab);
    over a field where it is missing the trace is returned with
    extension_required = True.
    """
    f = params.field
    steps = []
    p = params
    guard = 0
    while not f.is_zero(p.central):
        guard += 1
        if guard > 6:
            raise RuntimeError("central reduction failed to terminate")
        edges = {
            frozenset((0, 1)): p.edge_xy,
            frozenset((0, 2)): p.edge_xz,
            frozenset((1, 2)): p.edge_yz,
        }
        pivot = None
        for cand in range(3):
            incident = [e for key, e in edges.items() if cand in key]
            if all(not f.is_zero(e) for e in incident[:2]) and sum(
                0 if f.is_zero(e) else 1 for e in incident
            ) >= 2:
                pivot = cand
                break
        if pivot is not None:
            target = max(k for k in range(3) if k != pivot)
            other = next(k for k in range(3) if k not in (pivot, target))
            ep_t = edges[frozenset((pivot, target))]
            ep_o = edges[frozenset((pivot, other))]
            sigma = (pivot, other, target)
            central_frame = p.permute(sigma).central
            s = f.div(central_frame, f.mul(ep_t, ep_o))
            steps.append(("exp", pivot, target, s))
            p = _exp_step(p, pivot, target, s)
            continue
        # at most one nonzero edge: create one more edge first
        nz = [key for key, e in edges.items() if not f.is_zero(e)]
        if nz:
            i, j = sorted(nz[0])
            target = next(k for k in range(3) if k not in (i, j))
            pivot = i
        else:
            pivot, target = 0, 2
        steps.append(("exp", pivot, target, f.one))
        p = _exp_step(p, pivot, target, f.one)
    # move one nonzero edge to xy, two to xy and xz
    sigma = _placement(f, p)
    if sigma != (0, 1, 2):
        steps.append(("permute", sigma))
        p = p.permute(sigma)
    # scale nonzero edges to -2
    minus2 = f.raw(-2)
    nz = p.nonzero_edges()
    if nz and not all(f.is_zero(e) or e == minus2 for e in p.edges()):
        a, b, c = p.edge_xy, p.edge_xz, p.edge_yz
        al = be = ga = f.one
        if nz < 3:
            be = f.div(minus2, a)
            if nz == 2:
                ga = f.div(minus2, b)
        else:
            # al^2 = -2c/(ab), be = -2/(a al) and ga = -2/(b al) bring every
            # edge to -2: only al needs a square root
            al = f.sqrt_raw(f.div(f.mul(minus2, c), f.mul(a, b)))
            if al is None:
                return NormalizationTrace(params, steps, p, extension_required=True)
            be = f.div(minus2, f.mul(a, al))
            ga = f.div(minus2, f.mul(b, al))
        steps.append(("scale", al, be, ga))
        p = scale_params(p, al, be, ga)
    if not all(f.is_zero(e) or e == minus2 for e in p.edges()):
        raise RuntimeError("normalization left an edge other than 0 and -2")
    return NormalizationTrace(params, steps, p)


def _placement(f, p):
    """The order of the generators that puts one nonzero edge at xy, or two
    at xy and xz (the edges the case checks of ``verify_3gen_structure``
    read); the identity order otherwise."""
    nz = [k for k, e in zip(((0, 1), (0, 2), (1, 2)), p.edges()) if not f.is_zero(e)]
    if len(nz) == 1:
        i, j = nz[0]
        return (i, j, 3 - i - j)
    if len(nz) == 2:
        shared = (set(nz[0]) & set(nz[1])).pop()
        return (shared,) + tuple(k for k in range(3) if k != shared)
    return (0, 1, 2)


def build_M(params):
    """The universal dim-8 algebra with prescribed normalized parameters."""
    f = params.field
    if not f.is_zero(params.central):
        raise ValueError("build_M needs the central parameter reduced to zero")
    minus2 = f.raw(-2)
    for e in params.edges():
        if not (f.is_zero(e) or e == minus2):
            raise ValueError("build_M needs nonzero edges normalized to -2")
    a, b, c = params.edge_xy, params.edge_xz, params.edge_yz
    rules = _pair_rules(f, a, b, c)
    table = {}
    applied = {}
    for i in range(8):
        for j in range(i + 1, 8):
            if (i, j) not in rules:
                raise RewriteIncomplete("no rule reduces the pair (%d, %d)" % (i, j))
            rule, row = rules[(i, j)]
            applied[(i, j)] = rule
            if row:
                table[(i, j)] = row
    M = LieAlgebra(f, list(MONOMIAL_LABELS), table)
    # generators are extremal with exactly the prescribed parameter values
    for idx, (other1, val1), (other2, val2) in (
        (_X, (_Y, a), (_Z, b)),
        (_Y, (_X, a), (_Z, c)),
        (_Z, (_X, b), (_Y, c)),
    ):
        fx = is_extremal(M, M.basis_element(idx))
        if fx is None:
            raise RewriteIncomplete("generator %s lost extremality" % MONOMIAL_LABELS[idx])
        opposite = _YZ if idx == _X else _XZ if idx == _Y else _XY
        if (
            fx(M.basis_element(other1)) != val1
            or fx(M.basis_element(other2)) != val2
            or not f.is_zero(fx(M.basis_element(opposite)))
        ):
            raise RewriteIncomplete("generator %s has the wrong form values" % MONOMIAL_LABELS[idx])
    return M, {"rules": applied, "case": params.nonzero_edges()}


def sl3_example(field=QQ):
    """sl3 on the trace-zero basis, with three explicit 3x3 matrices whose
    pairwise form values are all -2 with vanishing central parameter;
    returns (algebra, x, y, z) with those as elements of the algebra.  That
    they generate sl3 is checked by ``isomorphic_by_monomials``."""
    f = field
    x = [{1: 1}, {}, {}]
    y = [{}, {0: 1}, {}]
    z = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {0: -2, 1: -2, 2: -2}]
    mats = [[canonical(f, row) for row in m] for m in (x, y, z)]
    L, element_of = matrix_lie_algebra(f, trace_zero(f, 3))
    return (L,) + tuple(element_of(m) for m in mats)


def _monomials_of(L, x, y, z):
    xy = L.bracket(x, y)
    xz = L.bracket(x, z)
    yz = L.bracket(y, z)
    return [x, y, z, xy, xz, yz, L.bracket(x, yz), L.bracket(y, xz)]


def isomorphic_by_monomials(M, L, x, y, z):
    """Explicit isomorphism test: the monomial map m_i -> m_i(L) matches all
    structure constants and is invertible."""
    mons = _monomials_of(L, x, y, z)
    target, span = structure_constants_on(
        L.field, [m.coeffs for m in mons], L.n, lambda i, j: L.bracket(mons[i], mons[j]).coeffs
    )
    return (
        L.n == 8
        and span.spans()
        and target is not None
        and all(M.bracket_basis(i, j) == target.get((i, j), {}) for i in range(8) for j in range(i + 1, 8))
    )


def verify_3gen_structure(M, case):
    """The per-case structural claims for the normalized algebra M.

    Case 2 over GF(3).  Here a = b = -2, c = 0.  Let v = y + z - [x,[y,z]]
    - [y,[x,z]] and take the basis r1 = y - [y,[x,z]]/2, r2 = z - [y,[x,z]]/2,
    r3 = [x,y] - [x,z], r4 = [y,z], r5 = [x,[y,z]] of the radical R.  In
    every characteristic the rules give [x, v] = [y, v] = 0, [z, v] =
    -3[y,z], [r1, r2] = (3/2)[y,z], [r1, r3] = v, [r2, r3] = -v - 3[x,[y,z]]
    and [ri, rj] = 0 for the other pairs.  When 3 = 0, v is central (x, y, z
    generate M), so [R,R] = span{v} and [R,[R,R]] = 0.  Z(M), a solvable
    ideal, lies in R.  For r = sum ci ri, [x, r] = (c2 - c1)([x,y] - [x,z])
    + c4 [x,[y,z]] vanishes only if c1 = c2 and c4 = 0; then [y, r] =
    (c2 + c5)[y,z] - c3 (y + [y,[x,z]]) vanishes only if c3 = 0 and
    c5 = -c2.  So r = c1 v, and Z(M) = span{v}.  In other characteristics
    case 2 checks Z(M) = 0 and the larger [R,R] and [R,[R,R]]."""
    f = M.field
    e = M.basis_element
    checks = {}
    if case == 0:
        lcs = lower_central_series(M)
        checks["nilpotent"] = lcs[-1].dim == 0
        mm = Subspace.from_elements(M, [e(i) for i in (_XY, _XZ, _YZ, _XYZ, _YXZ)])
        checks["commutator"] = derived_series(M)[1] == mm
        zc = Subspace.from_elements(M, [e(_XYZ), e(_YXZ)])
        checks["center"] = center(M) == zc
        checks["center_is_second_lcs"] = lcs[2] == zc
        L3 = nilquot.sandwich_algebra(3, field=f).as_lie_algebra()
        checks["isomorphic_to_L3"] = isomorphic_by_monomials(M, L3, *L3.basis_elements()[:3])
    elif case == 1:
        zvec = e(_Z) - e(_XYZ) - e(_YXZ)
        zc = center(M)
        checks["center"] = zc == Subspace.from_elements(M, [zvec])
        mm = derived_series(M)[1]
        checks["direct_sum"] = mm.dim == 7 and not mm.contains(zvec)
        rad, certified = solvable_radical(M)
        R = Subspace.from_elements(M, [e(_Z), e(_XZ), e(_YZ), e(_XYZ), e(_YXZ)])
        checks["radical"] = rad == R and certified
        checks["sl2_part"] = _check_sl2_part(M)
        checks["modules_irreducible"] = _modules_irreducible(
            M, [[e(_XZ), e(_YXZ)], [e(_YZ), e(_XYZ)]]
        )
    elif case == 2:
        v = e(_Y) + e(_Z) - e(_XYZ) - e(_YXZ)
        if f.characteristic == 3:  # see the docstring
            checks["center"] = center(M) == Subspace.from_elements(M, [v])
            rr_span, rrr_span = [v], []
        else:
            checks["center_trivial"] = center(M).dim == 0
            rr_span = [e(_Y) + e(_Z) - e(_YXZ), e(_YZ), e(_XYZ)]
            rrr_span = [e(_YZ), e(_XYZ)]
        checks["perfect"] = derived_series(M)[1].dim == 8
        half = _half(f)
        r_vecs = [
            e(_Y) - half * e(_YXZ),
            e(_Z) - half * e(_YXZ),
            e(_XY) - e(_XZ),
            e(_YZ),
            e(_XYZ),
        ]
        R = Subspace.from_elements(M, r_vecs)
        rad, certified = solvable_radical(M)
        checks["radical"] = rad == R and certified and R.dim == 5
        rr = R.bracket_with(R)
        checks["RR"] = rr == Subspace.from_elements(M, rr_span)
        rrr = R.bracket_with(rr)
        checks["RRR"] = rrr == Subspace.from_elements(M, rrr_span)
        checks["sl2_part"] = _check_sl2_part(M)
        checks["centralized_line"] = rr.contains(v) and all(
            M.bracket(e(i), v).is_zero() for i in (_X, _Y, _XY)
        )
    elif case == 3:
        L, x, y, z = sl3_example(f)
        checks["isomorphic_to_sl3"] = isomorphic_by_monomials(M, L, x, y, z)
        # Rad(M) = Z(M): the center is abelian and M/Z(M) has no solvable
        # ideal (Z(M) is not 0 when p = 3)
        checks["radical"] = False
        if checks["isomorphic_to_sl3"]:
            Z = center(M)
            Q, _, project = quotient_algebra(M, Z)
            rad, certified = solvable_radical(Q, [project(M.element(r)) for r in _SL3_RAISING])
            checks["radical"] = Z.dim == cartan_nullity("A", 2, f.characteristic) and rad.dim == 0 and certified
    checks["dim8"] = M.n == 8
    checks["pass"] = all(checks.values())
    return checks


def _check_sl2_part(M):
    e = M.basis_element
    if subalgebra_generated(M, [e(_X), e(_Y)]).dim != 3:
        return False
    # sl2 structure: [x,y] = m4, [x,m4] = -2x, [y,m4] = 2y
    f = M.field
    return (
        M.bracket(e(_X), e(_XY)) == M.element({_X: f.raw(-2)})
        and M.bracket(e(_Y), e(_XY)) == M.element({_Y: f.raw(2)})
    )


def _modules_irreducible(M, modules):
    """No S-invariant line inside the given S-modules, S = span{x, y, [x,y]}.

    S is sl2, so [S, S] = S in characteristic != 2 (checked here).  S acts on
    an invariant line by a character, which vanishes on [S, S] = S: the
    invariant lines are the lines that x and y kill.  So each module is
    decided in every characteristic by one kernel, of ad x and ad y stacked
    and restricted to the module."""
    f = M.field
    e = M.basis_element
    s_elts = [e(_X), e(_Y), e(_XY)]
    S = Subspace.from_elements(M, s_elts)
    if S.bracket_with(S) != S:
        raise PreconditionNotMet("span{x, y, [x,y]} is not perfect")
    for mod in modules:
        span = Coordinates(f, [v.coeffs for v in mod], M.n)
        for s in s_elts:
            for v in mod:
                if span.solve(M.bracket(s, v).coeffs) is None:
                    return False  # not even a module
        # row (a, k): the b_k-coefficients of [s, v], s = x (a = 0) or y (a = 1)
        rows = {}
        for c, v in enumerate(mod):
            for a, s in enumerate(s_elts[:2]):
                for k, w in M.bracket(s, v).coeffs.items():
                    rows.setdefault((a, k), {})[c] = w
        if kernel(f, list(rows.values()), len(mod)):
            return False
    return True
