"""
Rational equivariant stable stems, computed three ways
======================================================

A virtual degree for the cyclic group of order 2^n mixes a trivial
part, the sign character sigma, and the planar rotations l0, l1, ...
The stem in each degree is a finite direct sum of simple rational
Mackey functors M0..Mn (with an optional sign twist below the top),
and the library computes it by three independent routes: a closed-form
tuple decoding, sector-by-sector lattice membership, and honest sphere
homology assembled from fixed-point geometry.  This script shows the
three agreeing and walks through the interesting degrees.
"""

from ratstems.mackey import MackeyClass
from ratstems.rolattice import parse_degree
from ratstems.stems import STEM_METHODS, decode_degree, sphere_homology, stem_at

n = 2  # work with the cyclic group of order 4 throughout

# -- landmark degrees ---------------------------------------------------------
# Written exactly the way the CLI accepts them.  Each method answers a
# whole column: the nonzero stems of every degree d + s*sigma + ... that
# shares the degree's s and rotation coefficients, keyed by d.  Every
# method must return the same class; we print the shared answer.

landmarks = ["0", "1 - sigma", "2*sigma - 2", "-sigma", "2 - l0", "-l0", "l0", "3"]

print(f"stems for the cyclic group of order {2 ** n}")
for text in landmarks:
    v = parse_degree(text, n)
    results = {name: column(n, v.s, v.c).get(v.d, MackeyClass.zero(n))
               for name, column in STEM_METHODS.items()}
    assert len(set(results.values())) == 1, f"methods disagree at {v}"
    print(f"  {text:>12}  ->  {results['closed']}")

# The integer degrees away from 0 are all zero: equivariantly there is
# nothing in the rational stable stems besides degree 0 on the integer
# axis, matching the classical picture after rationalization.

# -- a chart along the sign axis ----------------------------------------------
# Stems of d + s*sigma for small d and s.  The nonzero classes line up
# on the antidiagonal d = -s (the sign sector) and the axis d = 0 (the
# top sector), and nowhere else.

print()
print("chart of stems at d + s*sigma (rows d = 2..-2, columns s = -2..2)")
for d in range(2, -3, -1):
    cells = []
    for s in range(-2, 3):
        text = f"{d} {'+' if s >= 0 else '-'} {abs(s)}*sigma"
        cells.append(str(stem_at(parse_degree(text, n))).center(14))
    print("  " + " ".join(cells))

# -- one degree, two decompositions -------------------------------------------
# Most degrees decode to a single exponent tuple.  l0 - 2*sigma is the
# smallest degree hit by two distinct tuples; their sector runs are
# disjoint, so the stem is simply the sum of both contributions.

v = parse_degree("l0 - 2*sigma", n)
print()
print(f"decoding {v}:")
for t in decode_degree(v):
    print(f"  orientation exponents {t.j}, Euler exponents {t.j_prime},"
          f" sectors {list(t.run())}")
print(f"  stem = {stem_at(v)}")

# -- sphere homology is the referee -------------------------------------------
# The oracle route actually builds the Bredon homology table of a
# representation sphere.  For the sign sphere the table has the unit in
# degree 0 and the full complement of sign lines in degree 1.

table = sphere_homology(parse_degree("sigma", n))
print()
print("homology of the sign sphere:")
for d in table.degrees():
    print(f"  degree {d}: {table.get(d)}")
