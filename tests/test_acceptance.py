"""Acceptance gate: ten criteria, one verdict line each.

Every test emits exactly one ``PASS criterion N: ...`` or ``FAIL
criterion N: ...`` line (shown in the terminal summary; also printed
inline for ``-s`` runs) and then asserts.  Time budgets are part of
the criteria and are asserted with ``time.monotonic``.
"""

import sys
import time
from fractions import Fraction

import pytest

from ratstems.burnside import BurnsideElement, idempotents
from ratstems.classifying import (bgs1_presentation, bsigma2_consistency,
                                  collapse, collapse_expand, fixed_point_data,
                                  gm_assemble, torus_check_su2, torus_check_u)
from ratstems.cli import compare_methods
from ratstems.mackey import (MINUS, PLUS, MackeyClass, NonSignIsotypicError,
                             classify)
from ratstems.rolattice import VirtualRep
from ratstems.series import TruncatedSeries
from ratstems.stems import STEM_METHODS, lattice_mismatches, sphere_homology


def _report(record, num, label, fn):
    try:
        failures = fn()
    except Exception as exc:
        record(f"FAIL criterion {num}: {label} ({exc})")
        raise
    line = f"{'PASS' if not failures else 'FAIL'} criterion {num}: {label}"
    record(line)
    print(line)
    assert not failures, f"criterion {num} ({label}): {failures[:3]}"


def M(n, *pairs):
    return MackeyClass(n, tuple((i, s, 1) for i, s in pairs))


# ---------------------------------------------------------------------------

def test_criterion_1_three_way_agreement_with_anchors(criterion_report):
    def body():
        failures = []
        start = time.monotonic()
        for n in (1, 2, 3, 4):
            checked, bad = compare_methods(n, 3)
            if checked != (2 * 3 + 1) ** (n + 1):
                failures.append(f"n={n}: scanned {checked} degrees")
            for v, results in bad[:3]:
                failures.append(f"n={n}: methods disagree at {v}: {results}")
            one, sig = VirtualRep.one(n, 1), VirtualRep.sigma(n)
            anchors = [
                (VirtualRep.zero(n), MackeyClass.burnside_class(n)),
                (one - sig, M(n, *((i, MINUS) for i in range(n)))),
                (VirtualRep.one(n, 3), MackeyClass.zero(n)),
            ]
            for k in range(n - 1):
                lam = VirtualRep.lam(n, k)
                anchors.append((VirtualRep.one(n, 2) - lam,
                                M(n, *((i, PLUS) for i in range(k + 1)))))
                anchors.append((-lam,
                                M(n, *((i, PLUS) for i in range(k + 1, n + 1)))))
            for v, want in anchors:
                got = {column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(n))
                       for column in STEM_METHODS.values()}
                if got != {want}:
                    failures.append(f"anchor {v}: expected {want}, got {got}")
        elapsed = time.monotonic() - start
        if elapsed >= 60.0:
            failures.append(f"box scan took {elapsed:.1f}s (budget 60s)")
        return failures

    _report(criterion_report, 1, "stems agree across all three methods on [-3,3] boxes, n <= 4",
            body)


def test_criterion_2_sphere_tables(criterion_report):
    def body():
        failures = []
        for n in (1, 2, 3, 4):
            cases = [(VirtualRep.sigma(n), {
                0: M(n, (n, PLUS)),
                1: M(n, *((i, MINUS) for i in range(n))),
            }), (2 * VirtualRep.sigma(n), {
                0: M(n, (n, PLUS)),
                1: MackeyClass.zero(n),
                2: M(n, *((i, PLUS) for i in range(n))),
            })]
            for k in range(n - 1):
                cases.append((VirtualRep.lam(n, k), {
                    0: M(n, *((i, PLUS) for i in range(k + 1, n + 1))),
                    1: MackeyClass.zero(n),
                    2: M(n, *((i, PLUS) for i in range(k + 1))),
                }))
            for v, want in cases:
                table = sphere_homology(v)
                for d, cls in want.items():
                    if table.get(d) != cls:
                        failures.append(
                            f"S^({v}) degree {d}: expected {cls}, got {table.get(d)}")
        return failures

    _report(criterion_report, 2, "sphere homology tables match the displayed equations, n <= 4",
            body)


def test_criterion_3_burnside_suite(criterion_report):
    def body():
        failures = []
        start = time.monotonic()
        for n in range(1, 6):
            for i in range(n + 1):
                basis = [BurnsideElement.one(n, i)] + [
                    BurnsideElement.x(n, i, j) for j in range(i)]
                for a in basis:
                    for b in basis:
                        lhs = (a * b).marks()
                        rhs = tuple(p * q for p, q in zip(a.marks(), b.marks()))
                        if lhs != rhs:
                            failures.append(f"marks not multiplicative at n={n}, i={i}")
                es = idempotents(n, i)
                total = es[0]
                for e in es[1:]:
                    total = total + e
                if total != BurnsideElement.one(n, i):
                    failures.append(f"idempotents incomplete at n={n}, i={i}")
                for h, e in enumerate(es):
                    for k, f in enumerate(es):
                        want = e if h == k else BurnsideElement.zero(n, i)
                        if e * f != want:
                            failures.append(f"idempotents not orthogonal at n={n}, i={i}")
                if i >= 1:
                    y = BurnsideElement.y(n, i)
                    if not y.res(i - 1).is_zero():
                        failures.append(f"res(y_{i}) nonzero one level down at n={n}")
                if i < n:
                    if BurnsideElement.one(n, i).tr() != BurnsideElement.x(n, i + 1, i):
                        failures.append(f"tr(1) wrong at n={n}, i={i}")
                    for j in range(i):
                        if BurnsideElement.x(n, i, j).tr() != BurnsideElement.x(n, i + 1, j):
                            failures.append(f"tr(x[{i},{j}]) wrong at n={n}")
                    above = [BurnsideElement.one(n, i + 1)] + [
                        BurnsideElement.x(n, i + 1, j) for j in range(i + 1)]
                    for a in basis:
                        for b in above:
                            if (a * b.res(i)).tr() != a.tr() * b:
                                failures.append(f"Frobenius fails at n={n}, i={i}")
        elapsed = time.monotonic() - start
        if elapsed >= 5.0:
            failures.append(f"suite took {elapsed:.1f}s (budget 5s)")
        return failures

    _report(criterion_report, 3, "Burnside arithmetic: marks, Frobenius, idempotents, transfers, n <= 5",
            body)


def test_criterion_4_circle_classifying_space(criterion_report):
    def body():
        failures = []
        for n in (1, 2, 3, 4):
            pres = bgs1_presentation(n, 40)
            assembled = gm_assemble(fixed_point_data("bs1", n, 40))
            if pres.table != assembled:
                failures.append(f"n={n}: presentation table differs from assembly")
            for h in range(n + 1):
                if pres.table.poincare(h, 40) != assembled.poincare(h, 40):
                    failures.append(f"n={n}: level {h} series differ")
            want_top = TruncatedSeries.geometric(40, 2).scale(2 ** (n + 1) - 1)
            if pres.top_series() != want_top:
                failures.append(f"n={n}: top series is not (2^(n+1)-1)/(1-t^2)")
        return failures

    _report(criterion_report, 4, "circle answer: assembly equals presentation to degree 40, n <= 4",
            body)


def test_criterion_5_torus_method_unitary(criterion_report):
    def body():
        failures = []
        start = time.monotonic()
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                check = torus_check_u(n, m, 20)
                if not check.holds():
                    bad = [h for h, lhs, rhs in check.levels if lhs != rhs]
                    failures.append(f"U({m}) at n={n}: levels {bad} disagree")
        elapsed = time.monotonic() - start
        if elapsed >= 30.0:
            failures.append(f"comparisons took {elapsed:.1f}s (budget 30s)")
        return failures

    _report(criterion_report, 5, "maximal-torus method exact for U(m) to degree 20, n <= 3, m <= 3",
            body)


def test_criterion_6_torus_method_su2(criterion_report):
    def body():
        failures = []
        for n in range(1, 7):
            check = torus_check_su2(n)
            # re-derive both counts from the component diagrams
            lhs = fixed_point_data("bsu2", n, 0).level(n).count()
            rhs = fixed_point_data("torus", n, 0, m=1).level(n).count()
            if (check.lhs, check.rhs) != (lhs, rhs):
                failures.append(f"n={n}: counts not taken from the diagrams")
            if (check.lhs, check.rhs) != (2 ** (n - 1) + 1, 2 ** n):
                failures.append(
                    f"n={n}: expected (2^(n-1)+1, 2^n), got {(check.lhs, check.rhs)}")
            if check.holds() != (n == 1):
                failures.append(f"n={n}: verdict {check.verdict()} unexpected")
        return failures

    _report(criterion_report, 6, "SU(2) counts (2^(n-1)+1 vs 2^n): holds only at n=1, n <= 6",
            body)


def test_criterion_7_collapse_round_trip(criterion_report):
    def body():
        failures = []
        if collapse(2).idempotent(1) != (0, 2, -1):
            failures.append("worked case e_1 = 2e - e^2 broken")
        if collapse_expand((0, 0, 1), 2) != (0, 1, 4):
            failures.append("worked expansion of e^2 broken")
        for s in range(1, 9):
            pres = collapse(s)
            for i in range(1, s + 1):
                if collapse_expand(pres.idempotent(i), s) != tuple(
                        1 if j == i else 0 for j in range(s + 1)):
                    failures.append(f"round trip fails at s={s}, i={i}")
            probe = tuple(Fraction(3 * j - s, 2) for j in range(s + 1))
            expanded = collapse_expand(probe, s)
            back = [expanded[0]] + [expanded[0] + expanded[i] for i in range(1, s + 1)]
            direct = []
            for x in range(s + 1):
                val = Fraction(0)
                for c in reversed(probe):
                    val = val * x + c
                direct.append(val)
            if back != direct:
                failures.append(f"spectrum evaluation disagrees at s={s}")
        return failures

    _report(criterion_report, 7, "idempotent collapse: exact round trip for s <= 8", body)


def test_criterion_8_fixed_point_lattices(criterion_report):
    def body():
        failures = []
        for n in (1, 2, 3, 4):
            bad = lattice_mismatches(n, 3)
            failures.extend(bad[:3])
        return failures

    _report(criterion_report, 8, "fixed-point ring lattices match stem multiplicities on the "
               "criterion-1 boxes", body)


def test_criterion_9_two_point_report(criterion_report):
    def body():
        failures = []
        report1 = bsigma2_consistency(1)
        if report1.differences != ():
            failures.append(f"n=1: expected no differences, got {report1.differences}")
        report2 = bsigma2_consistency(2)
        if report2.differences != ((0, 2, 5, 7),):
            failures.append(f"n=2: expected ((0, 2, 5, 7),), got {report2.differences}")
        return failures

    _report(criterion_report, 9, "two-point comparison report matches the derived values "
               "(no adjudication)", body)


def test_criterion_10_negative_controls(criterion_report):
    def body():
        failures = []
        corrupted = dict(STEM_METHODS)
        corrupted["sector"] = lambda n, s, c: {}
        _, bad = compare_methods(1, 1, corrupted)
        if not bad:
            failures.append("corrupted method table not flagged")
        shifted = dict(STEM_METHODS)
        shifted["closed"] = lambda n, s, c: {
            d - 2: cls for d, cls in STEM_METHODS["closed"](n, s, c).items()}
        _, bad = compare_methods(2, 2, shifted)
        if not bad:
            failures.append("degree-shifted method not flagged")
        try:
            classify(1, [(0, 0, 2), (1, 0, 0)])
        except NonSignIsotypicError:
            pass
        else:
            failures.append("classifier accepted a non-sign character slot")
        return failures

    _report(criterion_report, 10, "negative controls: corrupted methods and bad eigendata are "
                "rejected", body)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
