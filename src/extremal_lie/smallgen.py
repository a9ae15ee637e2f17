"""Lie algebras on three extremal generators.

The three-generator algebra M is built on the eight spanning monomials
x, y, z, [x,y], [x,z], [y,z], [x,[y,z]], [y,[x,z]] with a rewrite table:
every bracket of two spanning monomials reduces by one identity
(extremality, the two pivot identities of an extremal element, the two
squaring identities of an extremal pair, the degree-six identity, and
Jacobi/antisymmetry), named in the comment above its group of
``_pair_rules``.  Construction validates the Jacobi identity, and the
generators' extremality and form values are checked after it
(RewriteIncomplete), so a bad reduction cannot survive silently.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QQ
from .linalg import Coordinates, canonical, common_kernel
from .liealg import (
    LieAlgebra,
    PreconditionNotMet,
    Subspace,
    center,
    derived_series,
    is_extremal,
    is_solvable_subspace,
    lower_central_series,
    matrix_lie_algebra,
    structural_subspaces,
    structure_constants_on,
    subalgebra_generated,
    trace_zero,
)
from . import nilquot
from .rootdata import radical_dims, root_system


class RewriteIncomplete(RuntimeError):
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
    """The 28 reductions [m_i, m_j], i < j, as sparse rows.

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
    return {
        # letter-letter brackets are basis monomials
        (_X, _Y): m(xy=f.one),
        (_X, _Z): m(xz=f.one),
        (_Y, _Z): m(yz=f.one),
        # extremality [u,[u,v]] = f_u(v) u
        (_X, _XY): m(x=a),
        (_X, _XZ): m(x=b),
        (_Y, _YZ): m(y=c),
        (_Y, _XY): m(y=neg(a)),
        (_Z, _XZ): m(z=neg(b)),
        (_Z, _YZ): m(z=neg(c)),
        # remaining letter-pair brackets: basis or Jacobi
        (_X, _YZ): m(xyz=f.one),
        (_Y, _XZ): m(yxz=f.one),
        (_Z, _XY): m(yxz=f.one, xyz=neg(f.one)),
        # letter-triple brackets: extremality or the nested-pivot identity
        (_X, _XYZ): {},
        (_Y, _YXZ): {},
        (_X, _YXZ): m(xy=neg(mul(h, b)), xz=neg(mul(h, a))),
        (_Y, _XYZ): m(xy=mul(h, c), yz=neg(mul(h, a))),
        (_Z, _XYZ): m(xz=neg(mul(h, c)), yz=neg(mul(h, b))),
        (_Z, _YXZ): m(xz=neg(mul(h, c)), yz=neg(mul(h, b))),
        # pair-pair brackets: the common-pivot identity
        (_XY, _XZ): m(xy=mul(h, b), xz=neg(mul(h, a))),
        (_XY, _YZ): m(xy=mul(h, c), yz=mul(h, a)),
        (_XZ, _YZ): m(xz=neg(mul(h, c)), yz=mul(h, b)),
        # pair-triple brackets: the squaring identities of two extremals
        (_XY, _XYZ): m(x=mul(h, mul(c, a)), xyz=neg(mul(h, a))),
        (_XY, _YXZ): m(y=neg(mul(h, mul(b, a))), yxz=mul(h, a)),
        (_XZ, _XYZ): m(x=neg(mul(h, mul(c, b))), xyz=neg(mul(h, b))),
        (_XZ, _YXZ): m(x=neg(mul(h, mul(b, c))), z=neg(mul(h, mul(b, a))), xyz=neg(b), yxz=mul(h, b)),
        (_YZ, _XYZ): m(y=neg(mul(h, mul(c, b))), z=neg(mul(h, mul(c, a))), xyz=mul(h, c), yxz=neg(c)),
        (_YZ, _YXZ): m(y=neg(mul(h, mul(b, c))), yxz=neg(mul(h, c))),
        # triple-triple: the degree-six identity
        (_XYZ, _YXZ): m(xy=neg(mul(h, mul(b, c))), xz=mul(h, mul(a, c)), yz=neg(mul(h, mul(a, b)))),
    }


class TriangleParams:
    """The four parameters of a triple of extremal generators u_0, u_1, u_2:
    the edges f(u_i, u_j), held at index i + j - 1 of ``edges()``, and the
    central value f(u_0, [u_1, u_2])."""

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


def _even(pivot, target):
    """Whether (pivot, other, target) is an even permutation of (0, 1, 2)."""
    return target == (pivot + 2) % 3


def exp_transform_params(params, pivot, target, s):
    """Parameters of the triple with u_target replaced by exp(u_pivot, s) u_target.

    Let o be the third index, e(i, j) = f(u_i, u_j), and d = f(u_p, [u_o, u_t]),
    the central value times the sign of the permutation (p, o, t).  Then
    e(o, t) becomes e(o, t) - s d + s^2 e(p, o) e(p, t) / 2, d becomes
    d - s e(p, o) e(p, t), and e(p, o), e(p, t) stay.
    """
    f = params.field
    s = f.raw(s)
    other = 3 - pivot - target
    edges = list(params.edges())
    e_po, e_pt, e_ot = edges[pivot + other - 1], edges[pivot + target - 1], edges[other + target - 1]
    even = _even(pivot, target)
    d = params.central if even else f.neg(params.central)
    square = f.mul(_half(f), f.mul(f.mul(s, s), f.mul(e_po, e_pt)))
    edges[other + target - 1] = f.add(f.sub(e_ot, f.mul(s, d)), square)
    d = f.sub(d, f.mul(s, f.mul(e_pt, e_po)))
    return TriangleParams(f, *edges, d if even else f.neg(d))


def normalize(params):
    """The normal form of the triple, or None when it needs a square root
    that the field lacks.

    Exp steps (``exp_transform_params``) clear the central value.  A
    generator u_p on two nonzero edges is the pivot, the larger other index
    the target, and s = d / (e(p, o) e(p, t)) clears d in one step.  With at
    most one nonzero edge e(i, j) (or none: i, j = 0, 1), exp(u_i, 1) u_k
    first makes e(j, k) = -d in the frame (i, j, k), so at most three steps
    are taken.  The number n of nonzero edges then fixes the case.
    Reordering the generators puts one nonzero edge at xy, two at xy and
    xz, and scaling (x, y, z) by (alpha, beta, gamma) multiplies the edges
    a, b, c by alpha beta, alpha gamma, beta gamma: beta = -2/a for one
    edge; beta = -2/a, gamma = -2/b for two; alpha^2 = -2c/(ab),
    beta = -2/(a alpha), gamma = -2/(b alpha) for three, where alpha may
    be missing.  So the normal form is central 0 and edges (0,0,0),
    (-2,0,0), (-2,-2,0) or (-2,-2,-2).
    """
    f = params.field
    p = params
    while not f.is_zero(p.central):
        e = p.edges()
        nonzero = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if not f.is_zero(e[i + j - 1])]
        pivot = next((k for k in range(3) if sum(k in pair for pair in nonzero) == 2), None)
        if pivot is None:
            i, j = nonzero[0] if nonzero else (0, 1)
            p = exp_transform_params(p, i, 3 - i - j, f.one)
            continue
        target = 1 if pivot == 2 else 2
        other = 3 - pivot - target
        s = f.div(p.central, f.mul(e[pivot + target - 1], e[pivot + other - 1]))
        p = exp_transform_params(p, pivot, target, s if _even(pivot, target) else f.neg(s))
    n = p.nonzero_edges()
    minus2 = f.raw(-2)
    if n == 3 and not f.is_square(f.div(f.mul(minus2, p.edge_yz), f.mul(p.edge_xy, p.edge_xz))):
        return None
    return TriangleParams(f, *(minus2 if k < n else 0 for k in range(3)), 0)


def build_M(params):
    """The universal dim-8 algebra with prescribed normalized parameters, and
    its case (the number of nonzero edges)."""
    f = params.field
    if not f.is_zero(params.central):
        raise ValueError("build_M needs the central parameter reduced to zero")
    minus2 = f.raw(-2)
    for e in params.edges():
        if not (f.is_zero(e) or e == minus2):
            raise ValueError("build_M needs nonzero edges normalized to -2")
    a, b, c = params.edge_xy, params.edge_xz, params.edge_yz
    rows = _pair_rules(f, a, b, c)
    M = LieAlgebra(f, list(MONOMIAL_LABELS), {pair: row for pair, row in rows.items() if row})
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
    return M, params.nonzero_edges()


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
        R = Subspace.from_elements(M, [e(_Z), e(_XZ), e(_YZ), e(_XYZ), e(_YXZ)])
        checks["radical"] = _is_levi_radical(M, R)
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
        checks["radical"] = _is_levi_radical(M, R)
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
        # Rad(M) = Z(M), proved with E_12 and E_23 (Z(M) is not 0 when p = 3)
        checks["radical"] = False
        if checks["isomorphic_to_sl3"]:
            sub = structural_subspaces(M, [M.element(r) for r in _SL3_RAISING])
            z = radical_dims(root_system("A", 2), f.characteristic)[0]
            checks["radical"] = sub["center"].dim == z and sub["radical_is_center"]
    checks["pass"] = all(checks.values())
    return checks


def _is_levi_radical(M, R):
    """Whether Rad(M) = R is proved: R is a solvable ideal of dimension 5,
    S = span{x, y, [x,y]} is sl2 (``_check_sl2_part``), and S + R = M, so
    S and R meet in 0.  Then M/R is isomorphic to S, which is simple in
    characteristic != 2, so Rad(M)/R, a solvable ideal of M/R, is 0."""
    e = M.basis_element
    return (
        R.dim == 5
        and R.is_ideal()
        and is_solvable_subspace(R)
        and _check_sl2_part(M)
        and Subspace.from_elements(M, [e(_X), e(_Y), e(_XY)] + R.basis()).dim == 8
    )


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
        if common_kernel(f, [[M.bracket(s, v).coeffs for s in s_elts[:2]] for v in mod], M.n):
            return False
    return True
