"""The bilinear form f, the Killing form, and the chain of radicals.

For a Lie algebra spanned by extremal elements there is a unique symmetric
associative form f with [x,[x,y]] = f(x,y) x, and a chain of ideals

    SanRad(L) <= NilRad(L) <= Rad(L) <= Rad(f) <= Rad(kappa).

G_2 in characteristic 3 separates the middle links: the algebra is simple-ish
enough that Rad(L) = 0, yet the short root elements span a 7-dimensional
radical of f.

That Rad(L) is no larger is certified from the simple root elements e_i: a
nonzero solvable ideal would contain a vector of Rad(kappa) that every ad e_i
kills, and the ideals of those vectors are tried.  The same argument settles
sl3 over GF(3), where the Killing form vanishes and Rad(L) is the center.
"""

import sys

sys.path.insert(0, "src")

from extremal_lie.chevalley import ChevalleyAlgebra, extremal_spanning_set
from extremal_lie.liealg import (
    extremal_form,
    killing_form,
    phi_spectrum_check,
    sandwich_span_check,
    sl2,
    solvable_radical,
)
from extremal_lie.scalars import QQ, GF

print("sl3 over Q")
A = ChevalleyAlgebra("A", 2, QQ)
form = extremal_form(A.lie, extremal_spanning_set(A))
kappa = killing_form(A.lie)
x, mx = A.x((1, 0)), A.x((-1, 0))
print("  f(x_a, x_-a) =", form.value(x, mx), "   kappa(x_a, x_-a) =", kappa.value(x, mx))
print("  eigenvalue profile of ad_x ad_y:", phi_spectrum_check(A.lie, x, mx))

print()
print("sl3 over GF(3): the Killing form vanishes identically")
A3 = ChevalleyAlgebra("A", 2, GF(3))
k3 = killing_form(A3.lie)
print("  kappa == 0:", not any(k3.rows))
rad, certified = solvable_radical(A3.lie, raising=[A3.x(a) for a in A3.rootsystem.simple_roots])
print("  Rad(L) dim:", rad.dim, "(the center; certified maximal: %s)" % certified)

print()
print("G_2 over GF(3)")
G = ChevalleyAlgebra("G", 2, GF(3))
formg = extremal_form(G.lie, extremal_spanning_set(G))
raising = [G.x(a) for a in G.rootsystem.simple_roots]
rad, certified = solvable_radical(G.lie, raising=raising)
print("  Rad(L) dim:", rad.dim, "(certified maximal: %s)" % certified)
print("  Rad(f) dim:", formg.radical().dim, " (the span of the short root elements)")
print("  Rad(kappa) dim:", killing_form(G.lie).radical().dim)
chain = sandwich_span_check(G.lie, [], formg, raising=raising)
for link in chain["links"]:
    print("  %-40s holds=%s strict=%s" % (link["link"], link["holds"], link["strict"]))

print()
print("sl2: everything collapses to zero")
L = sl2(QQ)
print("  Rad(L) dim:", solvable_radical(L)[0].dim)
