"""
Cohomology of equivariant classifying spaces from fixed-point geometry
======================================================================

The geometric fixed points of an equivariant classifying space are
ordinary classifying spaces, finitely many components per subgroup
level.  Because the coefficients are rational and the group is a
cyclic 2-group, those component counts and their ordinary cohomology
series determine the whole Mackey-valued answer: each degree assembles
from the level dimensions alone.  This script assembles the circle
case, checks it against a finite presentation, compares two routes to
the two-point case, and runs the eigenvalue collapse used to split a
finite cover class.
"""

from ratstems.classifying import (
    bgs1_presentation,
    bsigma2_consistency,
    collapse,
    collapse_expand,
    fixed_point_data,
    gm_assemble,
)

n = 2  # the cyclic group of order 4
bound = 8

# -- the circle: fixed points are lens-space limits ----------------------------
# At level h the fixed points form 2^h copies of the ordinary circle
# classifying space, one per character of the quotient group.

diagram = fixed_point_data("bs1", n, bound)
print(f"circle classifying space over the cyclic group of order {2 ** n}:")
for lc in diagram.levels:
    print(f"  level {lc.level}: {lc.count()} component(s), total series {lc.series}")

# Assembly: per degree, feed the level dimensions to the classifier
# that recognizes direct sums of simple Mackey functors.  The group is
# abelian, so it acts trivially on each level's components, and a
# level's coefficient is the multiplicity of its simple functor.
table = gm_assemble(diagram)
print("assembled cohomology (even degrees only):")
for d in table.degrees()[:4]:
    print(f"  degree {d}: {table.get(d)}")

# -- the finite presentation and the completion elements ------------------------
# The same answer has a closed presentation: a polynomial Euler class w
# in degree 2 over the Burnside algebra extended by orthogonal character
# classes u[m,j].  The sum of each conductor's classes is pinned to a
# transferred idempotent, which is where completion enters.

pres = bgs1_presentation(n, bound)
print()
print(f"presentation: generators {tuple(name for name, _ in pres.degrees)}")
print("relations:")
for r in pres.relations:
    print(f"  {r}")
print("completion elements (conductor, Burnside element, marks):")
for m, elt in pres.completion:
    marks = ", ".join(str(q) for q in elt.marks())
    print(f"  {m}: {elt}  marks ({marks})")
assert pres.table == table, "presentation disagrees with assembly"
print(f"presentation table matches assembly; top-level series {pres.top_series()}")

# -- two routes to the two-point space ------------------------------------------
# The two-point classifying space can be assembled directly, or read
# off from the circle answer by killing the Euler class w.  The two
# routes agree for the group of order 2 and differ in one degree-0
# entry for order 4; the report records the discrepancy rather than
# hiding it.

print()
for group_n in (1, 2):
    report = bsigma2_consistency(group_n)
    verdict = "agree" if report.agree() else "differ"
    print(f"two-point space at n={group_n}: routes {verdict}")
    for degree, level, assembled, quotient in report.differences:
        print(f"  degree {degree}, level {level}: "
              f"assembled dim {assembled}, quotient dim {quotient}")

# -- splitting a finite cover class by its spectrum ------------------------------
# A class e carried by an s-sheeted cover satisfies e(e-1)...(e-s) = 0.
# Lagrange interpolation on the spectrum splits it into idempotents,
# and any polynomial in e expands over that basis by evaluation.

def coeff_row(coeffs):
    return "(" + ", ".join(str(q) for q in coeffs) + ")"


s = 2
pres = collapse(s)
print()
print(f"collapse of a class with spectrum 0..{s}:")
print(f"  minimal polynomial coefficients {coeff_row(pres.minimal_polynomial)}")
for i in range(1, s + 1):
    print(f"  idempotent e_{i} as a polynomial in e: {coeff_row(pres.idempotent(i))}")

# e^2 = 0*1 + 1*e_1 + 4*e_2: squaring scales each eigenspace by its
# eigenvalue squared.
print(f"  e^2 expands as {coeff_row(collapse_expand((0, 0, 1), s))}")
