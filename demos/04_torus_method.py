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

# -- folding by Burnside's lemma ---------------------------------------------------
# The Weyl group of SU(2) has order 2 and acts on the N = 2^n torus
# labels by j -> -j.  Burnside's lemma counts its orbits as the average
# number of fixed labels: N for the identity and gcd(2, N) for the
# inversion (the solutions of 2j = 0 mod N).  This is the count the
# folded comparison uses.

print()
print("Weyl orbits of the torus labels, per level:")
for lc in fixed_point_data("torus", 4, 0, m=1).levels:
    labels = lc.count()
    orbits = (labels + gcd(2, labels)) // 2
    if lc.level:
        assert orbits == torus_check_su2(lc.level, "permutation").rhs
    print(f"  level {lc.level}: {labels} labels, {orbits} orbits")

# That Weyl group belongs to SU(2), not to the cyclic group.  The
# cyclic group is abelian, so its own residual action on fixed-point
# components is trivial, and every level's dimension is an invariant
# ("plus") slot of the classifier:
n = 2
circle_data = [(2 ** h, 0, 0) for h in range(n + 1)]
print(f"circle degree-0 data {circle_data} classifies as {classify(n, circle_data)}")

# Dimensions outside the +-1 eigenspaces fit no rational Mackey functor,
# and the classifier refuses a nonzero "other" slot outright.
try:
    classify(0, [(1, 0, 2)])
except Exception as exc:
    print(f"(plus, minus, other) = (1, 0, 2): {type(exc).__name__}")
