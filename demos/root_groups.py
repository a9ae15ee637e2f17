"""Root groups U_y = {exp(y, t)} and their defining identities.

Each extremal element y gives a one-parameter group of automorphisms.  For a
pair of extremal elements the bracket and the form value decide which group
identity applies: commuting groups, a class-2 commutator formula, or the
special rank-1 relation for f(x, y) = -2.  All checks are exact matrix
identities, exhaustive over small prime fields.
"""

import sys

sys.path.insert(0, "src")

from extremal_lie.chevalley import ChevalleyAlgebra
from extremal_lie.rootgroups import (
    chain_nonexistence_probe,
    projective_line_check,
    strongcomm_check,
    verify_abstract_root_properties,
)
from extremal_lie.scalars import GF

A = ChevalleyAlgebra("A", 2, GF(5))
x, y = A.x((1, 0)), A.x((0, 1))

print("pairs in sl3 over GF(5) (all parameters exhausted)")
for label, u, v in [
    ("opposite roots", x, A.x((-1, 0))),
    ("f = 0, bracket != 0", x, y),
    ("commuting", x, A.x((1, 1))),
]:
    rep = verify_abstract_root_properties(A.lie, u, v)
    print("  %-22s case=%-16s pass=%s" % (label, rep["case"], rep["pass"]))
    for c in rep["checks"]:
        print("      %-50s %s" % (c["property"], "ok" if c["pass"] else "FAIL"))

print()
print("strong commuting: x together with [x,y] spans a fully extremal line")
z = A.lie.bracket(x, y)
rep = strongcomm_check(A.lie, x, z)
print("  conditions agree:", rep["conditions_agree"], " product identity:", rep["product_identity"])
line = projective_line_check(A.lie, x, z, x + z)
print("  all %d projective points extremal: %s" % (line["points_checked"], line["pass"]))

print()
pool = [A.x(r) for r in A.rootsystem.roots]
probe = chain_nonexistence_probe(A.lie, pool)
print("forbidden chain probe over all %d roots, every triple: %s" % (len(pool), probe["outcome"]))
