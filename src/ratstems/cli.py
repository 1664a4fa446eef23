"""Command-line front end.

Ten subcommands expose the library: ``stems`` (one degree or a box
scan, every method cross-checked), ``sphere`` (homology table of a
virtual representation sphere), ``point-presentation``, ``burnside``
(basis, marks and idempotents of one level), ``bgs1`` / ``bgsigma2`` /
``bgu`` (classifying-space tables and diagrams), ``torus-check``
(maximal-torus comparisons for U(m) and SU(2)), ``consistency`` (the
two B_G Sigma_2 candidates) and ``selftest``.

Output is line-oriented text with `` | `` separated fields, or JSON
lines under ``--format records``; ``--out PATH`` tees the output to a
file.  Each ``cmd_*`` handler returns ``(rows, status)``: one
``(template, record)`` pair per record, the record being its JSON line
and ``template.format_map`` of it its text rows.
Exit codes: 0 on success (including comparisons whose documented
verdict is FAILS), 1 when mathematics breaks (method disagreement, a
non-sign-isotypic Weyl module, selftest failure), 2 on usage or syntax
errors.

``run(argv)`` may be called repeatedly in one process: the parser is built
on the first call, and each call looks its ``cmd_*`` handler up by name.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import islice, repeat
from math import lcm

from . import __version__
from .burnside import BurnsideElement, _transferred_tops, from_marks, idempotents
from .classifying import (_eval_at, bgs1_presentation, bsigma2_consistency,
                          collapse, collapse_expand, fixed_point_data, gm_assemble,
                          torus_check_su2, torus_check_u)
from .mackey import MackeyClass, NonSignIsotypicError
from .rolattice import VirtualRep, parse_degree
from .series import _numerators
from .stems import (STEM_METHODS, SectorElement, box_columns, face_columns,
                    lattice_mismatches, point_presentation, sphere_homology)


def _agree(results: Mapping[str, Any]) -> bool:
    values = list(results.values())
    return values.count(values[0]) == len(values)


# a stem method's column function, and a handler's (template, record)
# output row, named in annotations only
Column = "Callable[[int, int, tuple[int, ...]], Mapping[int, MackeyClass]]"
Row = "tuple[str, dict]"

# Columns per chunk of a scan: each method answers a chunk in one map,
# and a chunk whose methods' answer lists are equal is accepted whole.
_CHUNK = 128


def _disagreeing_columns(n: int, columns: Iterable[tuple[int, tuple[int, ...]]],
                         table: Mapping[str, Column],
                         ) -> Iterator[tuple[int, tuple[int, ...], dict[str, Mapping]]]:
    """The columns (s, c) where the methods' mappings differ, each with
    the methods' answers by name.  The columns go in chunks, method by
    method, each method answering them in order, and a chunk whose
    methods' lists of answers are equal is accepted whole."""
    columns = iter(columns)
    while chunk := list(islice(columns, _CHUNK)):
        ss, cs = zip(*chunk)
        found = [list(map(column, repeat(n), ss, cs)) for column in table.values()]
        if found.count(found[0]) == len(found):
            continue
        for (s, c), *answers in zip(chunk, *found):
            if answers.count(answers[0]) != len(answers):
                yield s, c, dict(zip(table, answers))


def compare_methods(n: int, bound: int, methods: Mapping[str, Column] | None = None,
                    ) -> tuple[int, list[tuple[VirtualRep, dict[str, MackeyClass]]]]:
    """Evaluate every stem method over the coordinate box and collect
    the degrees where they disagree, ordered by d, then s, then c.

    A method is a column function (n, s, c) -> {d: stem at its nonzero
    d}, and the walk is column-major: each method answers each (s, c)
    once, in box order, a chunk of columns at a time.  A chunk or a
    column whose methods return equal mappings is accepted whole; in a
    column that differs the methods are compared at each d of the window
    where one of them is nonzero.  ``methods`` may replace the default
    table, as the negative controls do."""
    table = dict(STEM_METHODS if methods is None else methods)
    if not table:
        raise ValueError("need at least one method")
    window = range(-bound, bound + 1)
    zero = MackeyClass.zero(n)
    disagreements = []
    for s, c, answers in _disagreeing_columns(n, box_columns(n, bound), table):
        for d in sorted({d for stems_by_d in answers.values() for d in stems_by_d
                         if d in window}):
            results = {name: stems_by_d.get(d, zero) for name, stems_by_d in answers.items()}
            if not _agree(results):
                disagreements.append((VirtualRep(n, d, s, c), results))
    disagreements.sort(key=lambda item: (item[0].d, item[0].s, item[0].c))
    return len(window) ** (n + 1), disagreements


def sector_to_burnside(elem: SectorElement) -> BurnsideElement:
    """The degree-0 bridge: a sector element of trivial degree is a
    Burnside element, each sector line mapping to the transferred top
    idempotent of its own level.

    At level L that image is closed-form: line i < L maps to
    x[L,i] - x[L,i-1]/2 (just x[L,0] for i = 0), and line L maps to
    y_L = 1 - x[L,L-1]/2 (just 1 for L = 0); see
    ``burnside.transferred_tops``, here on the element's numerators."""
    v = elem.degree
    if v.d or v.s or any(v.c):
        raise ValueError("only degree-0 elements live in the Burnside algebra")
    return _transferred_tops(elem.n, elem.level, elem.den, enumerate(elem.nums))


# ---------------------------------------------------------------------------
# Selftest battery.

def _check_three_way(n_max: int, box: int) -> str | None:
    """The methods on one column per face of the braid arrangement, which
    covers every degree (``stems.face_columns``).  A disagreement is
    described by the box scan when the box meets it, and by its face's
    column otherwise."""
    for n in range(1, n_max + 1):
        for s, c, _ in _disagreeing_columns(n, face_columns(n), STEM_METHODS):
            checked, bad = compare_methods(n, box)
            if not bad:
                return (f"n={n}: the methods disagree on the face of "
                        f"{VirtualRep(n, 0, s, c)}, which the box misses")
            v, results = bad[0]
            got = ", ".join(f"{k}={results[k]}" for k in sorted(results))
            return f"n={n}: {len(bad)}/{checked} degrees disagree, first {v}: {got}"
    return None


def _check_burnside(n_max: int) -> str | None:
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            basis = [BurnsideElement.one(n, i)] + [
                BurnsideElement.x(n, i, j) for j in range(i)]
            sample = basis[0]
            for pos, b in enumerate(basis):
                sample = sample + b.scale(Fraction(pos + 1, 2))
            if from_marks(n, i, sample.marks()) != sample:
                return f"marks round trip fails at n={n} level {i}"
            es = idempotents(n, i)
            for h, e in enumerate(es):
                for k, f in enumerate(es):
                    want = e if h == k else BurnsideElement.zero(n, i)
                    if e * f != want:
                        return f"idempotents not orthogonal at n={n} level {i}"
            if i < n:
                upper = [BurnsideElement.one(n, i + 1)] + [
                    BurnsideElement.x(n, i + 1, j) for j in range(i + 1)]
                lowered = [b.res(i) for b in upper]
                for a in basis:
                    raised = a.tr()
                    if raised.res(i) != a.scale(2):
                        return f"res after tr is not doubling at n={n} level {i}"
                    for b, b_low in zip(upper, lowered):
                        if (a * b_low).tr() != raised * b:
                            return f"Frobenius fails at n={n} level {i}"
    return None


def _check_sector_bridge(n_max: int) -> str | None:
    for n in range(1, n_max + 1):
        for h in range(n + 1):
            elems = [SectorElement.unit(n, h)]
            for i in range(h + 1):
                e = SectorElement.y_class(n, i)
                for _ in range(h - i):
                    e = e.tr()
                elems.append(e)
            images = [sector_to_burnside(a) for a in elems]
            for a, a_img in zip(elems, images):
                for b, b_img in zip(elems, images):
                    if sector_to_burnside(a * b) != a_img * b_img:
                        return f"degree-0 products disagree at n={n} level {h}"
            if h < n:
                for a, a_img in zip(elems, images):
                    if sector_to_burnside(a.tr()) != a_img.tr():
                        return f"transfer bridge fails at n={n} level {h}"
            if h > 0:
                for a, a_img in zip(elems, images):
                    if sector_to_burnside(a.res(h - 1)) != a_img.res(h - 1):
                        return f"restriction bridge fails at n={n} level {h}"
    return None


def _check_lattices(n_max: int, box: int) -> str | None:
    for n in range(1, n_max + 1):
        bad = lattice_mismatches(n, box)
        if bad:
            return f"n={n}: {bad[0]}"
    return None


def _check_circle(n_max: int) -> str | None:
    for n in range(1, n_max + 1):
        pres = bgs1_presentation(n, 8)
        assembled = gm_assemble(fixed_point_data("bs1", n, 8))
        if pres.table != assembled:
            return f"presentation table differs from assembly at n={n}"
        for m, elem in pres.completion:
            if m >= 1 and not elem.res(m - 1).is_zero():
                return f"completion element of conductor {m} does not restrict to 0"
    return None


def _check_torus(n_max: int) -> str | None:
    if not torus_check_u(min(n_max, 2), 2, 12).holds():
        return "U(2) torus comparison fails"
    if not torus_check_su2(1).holds():
        return "SU(2) comparison should hold at n=1"
    if n_max >= 2 and torus_check_su2(2).holds():
        return "SU(2) comparison unexpectedly holds at n=2"
    for n in range(1, n_max + 1):
        if not torus_check_su2(n, action="permutation").holds():
            return f"orbit-corrected SU(2) comparison fails at n={n}"
    return None


def _check_collapse(s_max: int) -> str | None:
    """f(x) = 0 + 1*x + ... + s*x^s against its collapse expansion
    c_0 + sum_i c_i * e_i(x) on the spectrum x = 0..s, compared over the
    expansion's denominator times the lcm of the idempotents' ones."""
    for s in range(1, s_max + 1):
        pres = collapse(s)
        f = tuple(range(s + 1))
        eden, enums = _numerators(collapse_expand(f, s))
        common = lcm(*(d for d, _ in pres.idempotents))
        idems = [(common // d, nums) for d, nums in pres.idempotents]
        for x in range(s + 1):
            direct = _eval_at(f, x) * eden * common
            recon = enums[0] * common + sum(c * scale * _eval_at(nums, x)
                                            for c, (scale, nums) in zip(enums[1:], idems))
            if direct != recon:
                return f"collapse expansion breaks at s={s}, eigenvalue {x}"
    return None


def _check_negative_control() -> str | None:
    broken = dict(STEM_METHODS)
    broken["sector"] = lambda n, s, c: {}
    _, bad = compare_methods(1, 1, broken)
    if not bad:
        return "a corrupted method went undetected"
    return None


def cmd_selftest(args: argparse.Namespace) -> tuple[list[Row], int]:
    n_max, box = (3, 3) if args.deep else (2, 2)
    checks: list[tuple[str, Callable[[], str | None]]] = [
        ("three_way_agreement", lambda: _check_three_way(n_max, box)),
        ("burnside_axioms", lambda: _check_burnside(n_max + 1)),
        ("sector_burnside_bridge", lambda: _check_sector_bridge(n_max)),
        ("fixed_point_lattices", lambda: _check_lattices(n_max, box)),
        ("circle_presentation", lambda: _check_circle(n_max)),
        ("torus_comparisons", lambda: _check_torus(n_max)),
        ("collapse_roundtrip", lambda: _check_collapse(8 if args.deep else 5)),
        ("negative_control", _check_negative_control),
    ]
    rows = []
    for name, fn in checks:
        detail = fn()
        rows.append(("check={check} | status=ok" if detail is None else
                     "check={check} | status=FAIL | detail={detail}",
                     {"check": name, "ok": detail is None, "detail": detail}))
    failed = sum(1 for _, rec in rows if not rec["ok"])
    rows.append(("checks={checks} | failed={failed}",
                 {"checks": len(checks), "failed": failed}))
    return rows, 1 if failed else 0


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (rows, exit status), a row being a
# (template, record) pair: the record is its JSON line, and the
# str.format_map template, written where the record is built, its text
# rows (one per line of the template, read through ``_View``).

def _class_record(cls: MackeyClass) -> dict:
    rec = cls.to_record()
    rec["text"] = str(cls)
    return rec


def cmd_stems(args: argparse.Namespace) -> tuple[list[Row], int]:
    names = [args.method] if args.method else sorted(STEM_METHODS)
    table = {name: STEM_METHODS[name] for name in names}
    # a --degree answer names n, a --scan disagreement does not
    head = "n={n} | degree={degree}" if args.degree is not None else "degree={degree}"
    row = " | ".join([head, *(f"{name}={{results[{name}][text]}}" for name in names),
                      "agree={agree}"])

    def record(v: VirtualRep, results: Mapping[str, MackeyClass]) -> Row:
        return row, {"command": "stems", "n": args.n, "degree": str(v),
                     "results": {name: _class_record(results[name]) for name in names},
                     "agree": _agree(results)}

    if args.degree is not None:
        v = parse_degree(args.degree, args.n)
        zero = MackeyClass.zero(v.n)
        results = {name: column(v.n, v.s, v.c).get(v.d, zero)
                   for name, column in table.items()}
        return [record(v, results)], 0 if _agree(results) else 1
    checked, bad = compare_methods(args.n, args.scan, table)
    rows = [record(v, results) for v, results in bad]
    rows.append(("n={n} | scanned={scanned} | disagreements={disagreements}",
                 {"command": "stems", "n": args.n, "scanned": checked,
                  "disagreements": len(bad)}))
    return rows, 1 if bad else 0


def cmd_sphere(args: argparse.Namespace) -> tuple[list[Row], int]:
    v = parse_degree(args.rep, args.n)
    sphere = str(v)
    return [("degree={degree} | class={class[text]} | level_dims={level_dims}",
             {"command": "sphere", "n": args.n, "sphere": sphere, "degree": d,
              "class": _class_record(cls), "level_dims": list(cls.level_dims())})
            for d, cls in sphere_homology(v).entries], 0


def cmd_point_presentation(args: argparse.Namespace) -> tuple[list[Row], int]:
    pres = point_presentation(args.n)
    # a degree takes O(n) to format and the generators of one degree are
    # consecutive, so each distinct degree is formatted once
    degree, text = None, ""
    rows = []
    for g in pres.generators:
        if g.degree is not degree:
            degree, text = g.degree, str(g.degree)
        rows.append(("family={family} | sector={sector} | degree={degree} | name={name}"
                     " | partner={partner} | spans={spans}",
                     {"command": "point-presentation", "kind": "generator",
                      "family": g.family, "sector": g.sector,
                      "lam_index": g.lam_index, "degree": text,
                      "name": g.name, "partner": g.partner, "spans": g.spans()}))
    rows += [("relation={relation}",
              {"command": "point-presentation", "kind": "relation", "relation": rel})
             for rel in pres.relations]
    rows.append(("normalization={normalization}\ngenerators={generators}",
                 {"command": "point-presentation", "kind": "summary",
                  "normalization": pres.normalization,
                  "generators": pres.generator_count()}))
    return rows, 0


def cmd_burnside(args: argparse.Namespace) -> tuple[list[Row], int]:
    level = args.n if args.level is None else args.level
    basis = [("1", BurnsideElement.one(args.n, level))]
    basis += [(f"x[{level},{j}]", BurnsideElement.x(args.n, level, j))
              for j in range(level)]
    rows = [("element={element} | marks={marks}",
             {"command": "burnside", "n": args.n, "level": level,
              "element": name, "marks": [str(q) for q in elem.marks()]})
            for name, elem in basis]
    rows += [("idempotent=e{idempotent} | expansion={expansion}",
              {"command": "burnside", "n": args.n, "level": level,
               "idempotent": h, "expansion": str(e), "element_record": e.to_record()})
             for h, e in enumerate(idempotents(args.n, level))]
    return rows, 0


def cmd_bgs1(args: argparse.Namespace) -> tuple[list[Row], int]:
    pres = bgs1_presentation(args.n, args.maxdeg)
    assembled = gm_assemble(fixed_point_data("bs1", args.n, args.maxdeg))
    matches = pres.table == assembled
    rows = [("generator={name} | degree={degree}",
             {"command": "bgs1", "kind": "generator", "name": name, "degree": deg})
            for name, deg in pres.degrees]
    rows += [("relation={relation}", {"command": "bgs1", "kind": "relation", "relation": rel})
             for rel in pres.relations]
    rows += [("completion | conductor={conductor} | element={element}",
              {"command": "bgs1", "kind": "completion", "conductor": m,
               "element": str(elem), "element_record": elem.to_record()})
             for m, elem in pres.completion]
    rows += [("degree={degree} | class={class[text]}",
              {"command": "bgs1", "kind": "table", "degree": d, "class": _class_record(cls)})
             for d, cls in pres.table.entries]
    rows.append(("top_series={top_series}\nmatches_assembly={matches_assembly}",
                 {"command": "bgs1", "kind": "summary", "n": args.n,
                  "maxdeg": args.maxdeg, "top_series": str(pres.top_series()),
                  "matches_assembly": matches}))
    return rows, 0 if matches else 1


def cmd_bgsigma2(args: argparse.Namespace) -> tuple[list[Row], int]:
    diagram = fixed_point_data("bsigma2", args.n, args.maxdeg)
    table = gm_assemble(diagram)
    rows = [("level={level} | components={components}",
             {"command": "bgsigma2", "kind": "level", "level": h,
              "components": level.count()})
            for h, level in enumerate(diagram.levels)]
    rows += [("degree={degree} | class={class[text]} | level_dims={level_dims}",
              {"command": "bgsigma2", "kind": "table", "degree": d,
               "class": _class_record(cls), "level_dims": list(cls.level_dims())})
             for d, cls in table.entries]
    return rows, 0


def cmd_bgu(args: argparse.Namespace) -> tuple[list[Row], int]:
    diagram = fixed_point_data("bu", args.n, args.maxdeg, m=args.m)
    return [("level={level} | components={components} | series={series}",
             {"command": "bgu", "kind": "level", "n": args.n, "m": args.m, "level": h,
              "components": level.count(), "series": str(level.series)})
            for h, level in enumerate(diagram.levels)], 0


def cmd_torus_check(args: argparse.Namespace) -> tuple[list[Row], int]:
    if args.lie == "um":
        result = torus_check_u(args.n, args.m, args.maxdeg)
        rows = [("level={level} | lhs={lhs} | rhs={rhs} | match={match}",
                 {"command": "torus-check", "lie": "um", "n": args.n, "m": args.m,
                  "level": h, "lhs": str(lhs), "rhs": str(rhs), "match": lhs == rhs})
                for h, lhs, rhs in result.levels]
        rows.append(("verdict={verdict}",
                     {"command": "torus-check", "lie": "um", "n": args.n,
                      "m": args.m, "verdict": result.verdict()}))
        return rows, 0 if result.holds() else 1
    result = torus_check_su2(args.n, action=args.su2_torus_action)
    return [("action={action} | lhs={lhs} | rhs={rhs} | verdict={verdict}",
             {"command": "torus-check", "lie": "su2", "n": args.n,
              "action": result.action, "lhs": result.lhs,
              "rhs": result.rhs, "verdict": result.verdict()})], 0


def cmd_consistency(args: argparse.Namespace) -> tuple[list[Row], int]:
    comp = bsigma2_consistency(args.n, args.maxdeg)
    rows = [("degree={degree} | level={level} | assembled={assembled} | quotient={quotient}",
             {"command": "consistency", "target": args.target, "n": args.n,
              "degree": degree, "level": level, "assembled": da, "quotient": dq})
            for degree, level, da, dq in comp.differences]
    rows.append(("differences={differences} | agree={agree}",
                 {"command": "consistency", "target": args.target, "n": args.n,
                  "differences": len(comp.differences), "agree": comp.agree()}))
    return rows, 0


# ---------------------------------------------------------------------------
# Parser plumbing.

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratstems",
        description="Exact rational equivariant stable stems for cyclic 2-groups.")
    parser.add_argument("--version", action="version", version=f"ratstems {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "records"], default="text",
                        help="text rows (default) or one JSON record per row")
    common.add_argument("--out", metavar="PATH",
                        help="also write the output to this file")
    needs_n = argparse.ArgumentParser(add_help=False)
    needs_n.add_argument("--n", type=int, required=True, help="group exponent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stems", parents=[common, needs_n],
                       help="compute one stem, or scan a coordinate box, "
                            "cross-checking all methods")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--degree", help='virtual degree, e.g. "1 - 1*sigma"')
    mode.add_argument("--scan", type=int, metavar="BOUND",
                      help="scan all degrees with coordinates in [-BOUND, BOUND]")
    p.add_argument("--method", choices=sorted(STEM_METHODS),
                   help="use a single method (default: run and compare all)")

    p = sub.add_parser("sphere", parents=[common, needs_n],
                       help="homology table of a virtual representation sphere")
    p.add_argument("--rep", required=True,
                   help='virtual representation, e.g. "2*sigma - l0"')

    p = sub.add_parser("point-presentation", parents=[common, needs_n],
                       help="generators and relations of the point ring")

    p = sub.add_parser("burnside", parents=[common, needs_n],
                       help="basis, marks and idempotents of one Burnside level")
    p.add_argument("--level", type=int, help="subgroup level (default: top)")

    p = sub.add_parser("bgs1", parents=[common, needs_n],
                       help="circle classifying space: presentation and table")
    p.add_argument("--maxdeg", type=int, default=20, help="top cohomological degree")

    p = sub.add_parser("bgsigma2", parents=[common, needs_n],
                       help="Sigma_2 classifying space: assembled table")
    p.add_argument("--maxdeg", type=int, default=6)

    p = sub.add_parser("bgu", parents=[common, needs_n],
                       help="U(m) classifying space: fixed-point diagram")
    p.add_argument("--m", type=int, default=1, help="unitary group size")
    p.add_argument("--maxdeg", type=int, default=20)

    p = sub.add_parser("torus-check", parents=[common, needs_n],
                       help="maximal-torus comparison for U(m) or SU(2)")
    p.add_argument("--lie", choices=["um", "su2"], required=True)
    p.add_argument("--m", type=int, default=2, help="unitary group size (lie=um)")
    p.add_argument("--maxdeg", type=int, default=20)
    p.add_argument("--su2-torus-action", choices=["trivial", "permutation"],
                   default="trivial", dest="su2_torus_action",
                   help="treatment of the Weyl involution on torus components")

    # one choice only, but every records line carries "target": "bsigma2";
    # a parent ahead of --n, so a usage error names it first
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("target", choices=["bsigma2"], help="which comparison to run")
    p = sub.add_parser("consistency", parents=[common, target, needs_n],
                       help="compare two candidate answers for one space")
    p.add_argument("--maxdeg", type=int, default=6)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in consistency battery")
    p.add_argument("--deep", action="store_true",
                   help="larger groups and boxes (slower)")
    return parser


def _join_degree_values(argv: Sequence[str]) -> list[str]:
    """argv with a ``--degree`` or ``--rep`` value that starts with a
    single "-", such as "-1*sigma", joined to its option by "=":
    argparse would read that value as an option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--degree", "--rep")
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _View(dict):
    """A record as its text rows read it: a bool as yes or no, and a
    list as its items joined by commas."""

    def __getitem__(self, key: str) -> Any:
        value = dict.__getitem__(self, key)
        if value is True or value is False:
            return "yes" if value else "no"
        return ",".join(map(str, value)) if type(value) is list else value


# json.dumps(rec, sort_keys=True) without a new encoder for every record
_encode_record = json.JSONEncoder(sort_keys=True).encode


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_degree_values(sys.argv[1:] if argv is None else argv))
        # argparse before Python 3.12 parses "--opt=--" to an empty list
        if [] in vars(args).values():
            parser.error("'--' is not a value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # looked up on every run, so a rebound cmd_* global takes effect
        rows, status = globals()["cmd_" + args.command.replace("-", "_")](args)
        if args.format == "records":
            lines = [_encode_record(rec) for _, rec in rows]
        else:
            lines = [template.format_map(_View(rec)) for template, rec in rows]
        text = "\n".join(lines)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(text + "\n")
    except NonSignIsotypicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad degree, int past the str limit, bad --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a size whose tables cannot be allocated, such as --n 10**15
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size past the platform's index range, such as --n 10**20
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: the answer keeps its status, and
        # stdout points at devnull so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
