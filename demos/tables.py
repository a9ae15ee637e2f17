"""The dimension tables for the universal sandwich algebras.

L_r is the universal Lie algebra on r generators x_i with [x_i,[x_i,u]] = 0;
R_r is its associative companion with y_i^2 = 0 and y_i w y_i = 0.  Both are
computed by exact elimination, degree by degree and multidegree block by
multidegree block, and both land on the known table:

    r :   1   2   3    4    5
  L_r :   1   3   8   28  537
  R_r :   2   5  19  193    ?
"""

import sys, time

sys.path.insert(0, "src")

from extremal_lie import nilquot

print("universal sandwich algebras L_r")
print("%3s %8s %8s  %s" % ("r", "dim", "class", "dims by degree"))
for r in range(1, 6):
    t0 = time.time()
    q = nilquot.sandwich_algebra(r)
    print("%3d %8d %8d  %s   (%.1fs)" % (r, q.total_dim, q.nilpotency_class, q.dims_by_degree, time.time() - t0))

print()
print("associative companions R_r (read off the blocks of L_{r+1} where x_{r+1} appears at most once)")
for r in range(1, 5):
    a = nilquot.assoc_dims_via_embedding(r)
    print("%3d %8d  lengths %s  palindromic after the identity: %s" % (
        r, a.total_dim, a.dims_by_length, a.palindromic_after_identity))

print()
print("L_{r-1} inside L_r (multidegrees not involving the last generator):")
for r in (2, 3, 4):
    rep = nilquot.check_subalgebra_embedding(r)
    print("  r=%d: recovered dim %d, pass=%s" % (r, rep["recovered_total"], rep["pass"]))

print()
rep = nilquot.spanning_set_check_4gen()
print("the 28 spanning monomials of the 4-generator algebra: rank %d, basis=%s" % (rep["rank"], rep["is_basis"]))
