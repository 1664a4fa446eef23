"""Answer checks for benchmark ops, built on the paper's own identities.

``evaluate`` decides whether one op failed: an exception escaped
``cli.run``, the exit code is not the expected one, or the output breaks
its check.  Every check reads both output formats: text rows of
``key=value`` fields joined by `` | ``, and JSON records.

The checks compute their expectations from the op's parameters, not from
the program's parse of its own argv.  Stems are compared with the closed
form ``stem_at``; everything else is compared with counting formulas.
Checks run in the benchmark runner, outside every timed window.

The runner must put the ratstems source tree on ``sys.path`` before it
imports this module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from ratstems.rolattice import VirtualRep
from ratstems.stems import stem_at


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _fields(row: str) -> dict[str, str]:
    out = {}
    for part in row.split(" | "):
        key, sep, value = part.partition("=")
        if sep:
            out[key] = value
    return out


def _lines(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    _require(bool(lines), "no output")
    return lines


def _rows(stdout: str, params: dict) -> list[dict]:
    """Output as a list of dicts; records keep their JSON types, text
    rows become string fields."""
    parse = json.loads if params.get("records") else _fields
    return [parse(line) for line in _lines(stdout)]


def _degree(params: dict) -> VirtualRep:
    return VirtualRep(params["n"], params["d"], params["s"], tuple(params["c"]))


# ---------------------------------------------------------------------------

def check_scan(p: dict, stdout: str) -> None:
    """No disagreements, and scanned = (2B+1)^(N+1)."""
    rows = _rows(stdout, p)
    _require(len(rows) == 1, f"{len(rows) - 1} disagreement rows")
    row = rows[0]
    want = (2 * p["bound"] + 1) ** (p["n"] + 1)
    _require(str(row.get("scanned")) == str(want), f"scanned {row.get('scanned')} != {want}")
    _require(str(row.get("disagreements")) == "0", "disagreements reported")


def check_sphere(p: dict, stdout: str) -> None:
    """Row e of the table for S^V equals stem_at(e - V), every nonzero
    stem_at(e - V) between the extreme fixed-point dimensions has a row,
    and level_dims are the class's level dimensions."""
    v, n = _degree(p), p["n"]
    table = {}
    for row in _rows(stdout, p):
        if p["records"]:
            table[int(row["degree"])] = (row["class"]["text"],
                                         ",".join(map(str, row["level_dims"])))
        else:
            table[int(row["degree"])] = (row["class"], row["level_dims"])
    fixed = [v.fixed_dim(h) for h in range(n + 1)]
    for e in sorted(set(range(min(fixed), max(fixed) + 1)) | set(table)):
        want = stem_at(VirtualRep.one(n, e) - v)
        if want.is_zero():
            _require(e not in table, f"row at degree {e} where the stem is 0")
            continue
        _require(e in table, f"missing row at degree {e}")
        dims = ",".join(str(want.level_dim(h)) for h in range(n + 1))
        _require(table[e] == (str(want), dims),
                 f"degree {e}: got {table[e]}, want {(str(want), dims)}")


def check_stem(p: dict, stdout: str) -> None:
    """Every requested method equals stem_at, and the methods agree."""
    want = str(stem_at(_degree(p)))
    rows = _rows(stdout, p)
    _require(len(rows) == 1, "expected one row")
    row = rows[0]
    if p["records"]:
        got = {m: r["text"] for m, r in row["results"].items()}
        agree = row["agree"] is True
    else:
        got = {m: row.get(m) for m in p["methods"]}
        agree = row.get("agree") == "yes"
    _require(sorted(got) == sorted(p["methods"]), f"methods {sorted(got)}")
    for method, text in got.items():
        _require(text == want, f"{method}={text}, stem_at={want}")
    _require(agree, "methods do not agree")


def check_bgu(p: dict, stdout: str) -> None:
    """Level h has C(2^h+m-1, m) components, and the level series starts
    with that count (every component contributes 1 in degree 0)."""
    rows = _rows(stdout, p)
    _require(len(rows) == p["n"] + 1, "one row per level")
    for h, row in enumerate(rows):
        want = comb(2 ** h + p["m"] - 1, p["m"])
        _require(int(row["level"]) == h, "levels out of order")
        _require(int(row["components"]) == want, f"level {h}: {row['components']} != {want}")
        _require(str(row["series"]).split(" + ")[0] == str(want),
                 f"level {h}: series does not start with {want}")


def check_torus_um(p: dict, stdout: str) -> None:
    """Every level matches and the verdict is HOLDS."""
    rows = _rows(stdout, p)
    _require(len(rows) == p["n"] + 2, "one row per level plus the verdict")
    for row in rows[:-1]:
        _require(row["match"] in (True, "yes"), f"level {row['level']} does not match")
    _require(rows[-1]["verdict"] == "HOLDS", "verdict is not HOLDS")


def check_torus_su2(p: dict, stdout: str) -> None:
    """lhs = 2^(n-1)+1 components; the torus side counts 2^n characters,
    or 2^(n-1)+1 orbits under the Weyl involution, so the naive method
    FAILS for n >= 2 and the permutation one HOLDS."""
    rows = _rows(stdout, p)
    _require(len(rows) == 1, "expected one row")
    row, n = rows[0], p["n"]
    lhs = 2 ** (n - 1) + 1
    rhs = lhs if p["action"] == "permutation" else 2 ** n
    _require((int(row["lhs"]), int(row["rhs"])) == (lhs, rhs),
             f"lhs={row['lhs']} rhs={row['rhs']}, want {lhs} {rhs}")
    _require(row["action"] == p["action"], "wrong action")
    _require(row["verdict"] == ("HOLDS" if lhs == rhs else "FAILS"), "wrong verdict")


def _circle_class(n: int) -> str:
    return " + ".join("M0" if h == 0 else f"{2 ** h}*M{h}" for h in range(n + 1))


def check_bgs1(p: dict, stdout: str) -> None:
    """matches_assembly=yes, and the table has 2^h*M_h in every even
    degree up to maxdeg."""
    rows = _rows(stdout, p)
    if p["records"]:
        summary = rows[-1]
        _require(summary["matches_assembly"] is True, "matches_assembly is not yes")
        table = {r["degree"]: r["class"]["text"] for r in rows if r.get("kind") == "table"}
    else:
        _require(rows[-1].get("matches_assembly") == "yes", "matches_assembly is not yes")
        table = {int(r["degree"]): r["class"] for r in rows if "degree" in r and "class" in r}
    want = {d: _circle_class(p["n"]) for d in range(0, p["maxdeg"] + 1, 2)}
    _require(table == want, "table differs from 2^h*M_h in even degrees")


def check_bgsigma2(p: dict, stdout: str) -> None:
    """One component at level 0 and two above; a single table row in
    degree 0 with level dimensions 1+2h."""
    rows = _rows(stdout, p)
    n = p["n"]
    levels = [r for r in rows if "components" in r]
    table = [r for r in rows if "class" in r]
    _require([int(r["components"]) for r in levels] == [1] + [2] * n, "component counts")
    _require(len(table) == 1 and int(table[0]["degree"]) == 0, "table is not degree 0 alone")
    dims = table[0]["level_dims"]
    if not p["records"]:
        dims = [int(x) for x in dims.split(",")]
    _require(list(dims) == [1 + 2 * h for h in range(n + 1)], "level dimensions")


def check_consistency(p: dict, stdout: str) -> None:
    """The two B_G Sigma_2 candidates differ exactly at levels h >= 2,
    with dimensions 1+2h against 2^(h+1)-1."""
    rows = _rows(stdout, p)
    n = p["n"]
    diffs = [(int(r["level"]), int(r["assembled"]), int(r["quotient"]))
             for r in rows[:-1]]
    want = [(h, 1 + 2 * h, 2 ** (h + 1) - 1) for h in range(2, n + 1)]
    _require(diffs == want, f"differences {diffs}")
    _require(int(rows[-1]["differences"]) == len(want), "difference count")
    _require(rows[-1]["agree"] in ((True, "yes") if not want else (False, "no")), "agree flag")


def _burnside_coeffs(text: str, level: int) -> list[Fraction]:
    coeffs = [Fraction(0)] * (level + 1)
    for term in text.split(" + "):
        q, _, basis = term.partition("*")
        coeffs[0 if basis == "1" else 1 + int(basis.split(",")[1].rstrip("]"))] += Fraction(q)
    return coeffs


def check_burnside(p: dict, stdout: str) -> None:
    """Marks of the basis are 1 everywhere for the unit and 2^(L-j) at
    levels h <= j for x[L,j]; the L+1 idempotents sum to 1."""
    rows = _rows(stdout, p)
    level = p["level"]
    elements = [r for r in rows if "element" in r]
    idems = [r for r in rows if "expansion" in r]
    _require(len(elements) == level + 1 and len(idems) == level + 1, "row counts")
    for pos, row in enumerate(elements):
        marks = row["marks"] if p["records"] else row["marks"].split(",")
        if pos == 0:
            want = [1] * (level + 1)
        else:
            j = pos - 1
            want = [2 ** (level - j) if h <= j else 0 for h in range(level + 1)]
        _require([Fraction(m) for m in marks] == want, f"marks of {row['element']}")
    total = [Fraction(0)] * (level + 1)
    for row in idems:
        if p["records"]:
            coeffs = [Fraction(q) for q in row["element_record"]["coeffs"]]
        else:
            coeffs = _burnside_coeffs(row["expansion"], level)
        total = [a + b for a, b in zip(total, coeffs)]
    _require(total == [1] + [0] * level, "idempotents do not sum to 1")


def check_point_presentation(p: dict, stdout: str) -> None:
    """n(n+1) invertible generator pairs, and n(n+1) + n + n(n-1)/2
    relations."""
    rows = _rows(stdout, p)
    n = p["n"]
    if p["records"]:
        gens = [r for r in rows if r["kind"] == "generator"]
        rels = [r for r in rows if r["kind"] == "relation"]
        count = rows[-1]["generators"]
    else:
        gens = [r for r in rows if "family" in r]
        rels = [r for r in rows if "relation" in r]
        count = int(rows[-1]["generators"])
    _require(len(gens) == n * (n + 1), f"{len(gens)} generator rows")
    _require(count == 2 * n * (n + 1), f"generators={count}")
    _require(len(rels) == n * (n + 1) + n + n * (n - 1) // 2, f"{len(rels)} relations")


def check_selftest(p: dict, stdout: str) -> None:
    """Every check ok and failed=0."""
    rows = _rows(stdout, p)
    checks, summary = rows[:-1], rows[-1]
    _require(all(r.get("status", r.get("ok")) in ("ok", True) for r in checks), "a check failed")
    _require(int(summary["checks"]) == len(checks), "check count")
    _require(int(summary["failed"]) == 0, "failed != 0")


def check_usage_error(p: dict, stdout: str) -> None:
    """A usage error prints nothing on stdout."""
    _require(stdout == "", "output on a usage error")


CHECKS = {
    "scan": check_scan,
    "sphere": check_sphere,
    "stem": check_stem,
    "bgu": check_bgu,
    "torus_um": check_torus_um,
    "torus_su2": check_torus_su2,
    "bgs1": check_bgs1,
    "bgsigma2": check_bgsigma2,
    "consistency": check_consistency,
    "burnside": check_burnside,
    "point_presentation": check_point_presentation,
    "selftest": check_selftest,
    "usage_error": check_usage_error,
}


def evaluate(op, code: int | None, exc: str | None, stdout: str) -> str | None:
    """Why the op failed, or None if it passed."""
    if exc is not None:
        return f"exception {exc}"
    if code != op.exit_code:
        return f"exit {code}, expected {op.exit_code}"
    try:
        CHECKS[op.check](op.params, stdout)
    except CheckError as err:
        return f"check failed: {err}"
    except (KeyError, ValueError, IndexError, TypeError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"
    return None
