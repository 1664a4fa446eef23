"""
The maximal-torus method: where it works and where it breaks
============================================================

For the unitary groups the equivariant classifying space of U(m) can
be recovered from the classifying space of its diagonal m-torus by
taking symmetric-group invariants, level by level.  This script runs
that comparison exactly, then turns to SU(2), whose Weyl group acts by
inversion rather than permutation: taking the torus components at face
value overcounts, and folding them into Weyl orbits repairs the count.
Invariant series are computed by the power-sum recurrence, never by
floating point.
"""

from math import gcd

from ratstems.classifying import (
    fixed_point_data,
    sym_invariants_series,
    torus_check_su2,
    torus_check_u,
    weyl_eigendata,
)
from ratstems.mackey import classify
from ratstems.series import TruncatedSeries

bound = 10

# -- symmetric invariants, exactly ----------------------------------------------
# The invariants of two interchangeable copies of a polynomial ring on
# one degree-2 class form a polynomial ring on classes of degree 2 and
# 4: the elementary symmetric functions.

circle = TruncatedSeries.geometric(bound, 2)
inv = sym_invariants_series([circle], 2, bound)
target = TruncatedSeries.geometric(bound, 2) * TruncatedSeries.geometric(bound, 4)
print("invariants of the square of a circle factor:")
print(f"  computed: {inv}")
print(f"  expected: {target}")
assert inv == target

# -- the U(m) comparison ----------------------------------------------------------
# At every subgroup level, U(m) fixed components are indexed by how an
# m-dimensional character decomposition distributes over the characters
# of the level quotient, and their total series must equal the
# invariants of the corresponding torus power.

print()
for n, m in [(1, 2), (2, 2), (2, 3)]:
    report = torus_check_u(n, m, bound)
    print(f"U({m}) against its torus at n={n}: {report.verdict()}")
    for h, lhs, rhs in report.levels:
        print(f"  level {h}: {lhs}  ==  {rhs}")

# -- SU(2): the Weyl group is not a permutation group ------------------------------
# The top-level fixed components of the SU(2) space number 2^(n-1) + 1,
# while its torus has 2^n component labels.  Treating the labels as
# Weyl-inert (the treatment that worked for U(m)) fails as soon as the
# label set has more than two elements; folding j with -j restores the
# count exactly.

print()
print("SU(2) top-level component counts:")
for n in range(1, 5):
    naive = torus_check_su2(n, "trivial")
    folded = torus_check_su2(n, "permutation")
    print(f"  n={n}: assembled {naive.lhs}; torus labels {naive.rhs}"
          f" ({naive.verdict()}), Weyl-folded {folded.rhs} ({folded.verdict()})")

# -- what folding means for the eigenvalue bookkeeping -------------------------------
# Each Weyl orbit of components contributes eigendata: a fixed label
# gives an invariant line, a free orbit pair gives one symmetric and
# one antisymmetric line, and longer orbits throw dimensions into an
# "other" slot that no rational Mackey functor can absorb.

n = 2
print()
print("degree-0 eigendata of the inversion-folded torus, per level:")
for lc in fixed_point_data("torus", n, 0, m=1).levels:
    labels = lc.count()
    fixed = gcd(2, labels)  # the solutions of 2j = 0 mod labels
    free_pairs = (labels - fixed) // 2
    series = lc.components[0][0]
    row = [(series, 1, 1, fixed)]
    if free_pairs:
        row.append((series, 2, 1, free_pairs))
    plus, minus, other = weyl_eigendata(row, 0)
    print(f"  level {lc.level}: plus {plus}, minus {minus}, other {other}")

# Only sign-isotypic eigendata assembles into Mackey classes.  The
# circle diagram's degree-0 dimensions are all invariant:
circle_data = [(2 ** h, 0, 0) for h in range(n + 1)]
print(f"circle eigendata {circle_data} classifies as {classify(n, circle_data)}")

# A size-4 orbit would leave 2 dimensions outside the +-1 eigenspaces,
# and the classifier refuses such data outright.
plus, minus, other = weyl_eigendata([(circle, 4, 1, 1)], 0)
try:
    classify(0, [(plus, minus, other)])
except Exception as exc:
    print(f"size-4 orbit gives (plus, minus, other) = ({plus}, {minus}, {other})"
          f": {type(exc).__name__}")
