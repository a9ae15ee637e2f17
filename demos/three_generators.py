"""Three extremal generators: four parameters, four algebras.

A triple of extremal generators is controlled by the edge parameters f(x,y),
f(x,z), f(y,z) and the central parameter f(x,[y,z]).  Exp-transformations
kill the central parameter, a reordering of the generators puts the nonzero
edges at xy (or xy and xz), and scalings push every nonzero edge to -2 (at
the cost of a square root that may be missing over a small field).  The number of
nonzero edges then selects one of four eight-dimensional algebras:

    0 edges -> the sandwich algebra L_3          2 edges -> sl2 + 5-dim radical
    1 edge  -> sl2 + radical, 1-dim center       3 edges -> sl3
"""

import sys

sys.path.insert(0, "src")

from extremal_lie.smallgen import TriangleParams, build_M, normalize, verify_3gen_structure
from extremal_lie.scalars import QQ, GF


def show(trace):
    f = trace.start.field
    for kind, *args in trace.steps:
        if kind == "exp":
            pivot, target, s = args
            u, v = "xyz"[pivot], "xyz"[target]
            print("   step: %s -> exp(%s, %s) %s" % (v, u, f.to_str(s), v))
        elif kind == "permute":
            print("   step: reorder the generators as (%s)" % ", ".join("xyz"[k] for k in args[0]))
        else:
            print("   step: scale x, y, z by", ", ".join(f.to_str(a) for a in args))
    print("   final:", trace.final, "  replay consistent:", trace.replay() == trace.final)


print("normalizing (1, 0, 0; central 5) over GF(7)")
show(normalize(TriangleParams(GF(7), 1, 0, 0, 5)))

print()
print("normalizing (0, 0, 3; central 0) over Q: the one edge moves to xy")
show(normalize(TriangleParams(QQ, 0, 0, 3, 0)))

print()
print("a missing square root over Q is reported, not forced")
trace = normalize(TriangleParams(QQ, -8, -2, -1, 0))
print("   (-8, -2, -1): extension_required =", trace.extension_required)

print()
print("the four normalized cases")
for edges in [(0, 0, 0), (-2, 0, 0), (-2, -2, 0), (-2, -2, -2)]:
    M, info = build_M(TriangleParams(QQ, *edges, 0))
    checks = verify_3gen_structure(M, info["case"])
    names = sorted(k for k, v in checks.items() if k != "pass" and v)
    print("   case %d: dim %d, pass=%s  (%s)" % (info["case"], M.n, checks["pass"], ", ".join(names)))
