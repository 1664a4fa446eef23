"""Exact rational stable equivariant computations for cyclic 2-groups.

The package computes, in exact arithmetic over the rationals:

* the Burnside algebra of each subgroup level, with marks, restriction,
  transfer and idempotents (``burnside``);
* the semisimple algebra of rational Mackey-functor classes, box
  products, and the classifier from Weyl eigenvalue data (``mackey``);
* the lattice of virtual representation degrees, with restriction and
  fixed-point data, plus a parser for degree expressions (``rolattice``);
* RO(G)-graded rational stable stems by three independent methods, the
  monomial model of the point ring, its presentation, and the
  geometric/homotopy fixed-point lattices (``stems``);
* cohomology of equivariant classifying spaces assembled from
  fixed-point diagrams, the circle presentation, maximal-torus
  comparisons and the idempotent collapse (``classifying``);
* a command-line interface over all of it (``cli``).

The submodules are the API; the package itself defines only
``__version__``.
"""

__version__ = "0.1.0"
