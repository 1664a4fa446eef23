"""Seeded op lists for the two benchmark workloads.

An op is one ``ratstems`` command line plus what its answer must satisfy
(see ``checks.py``).  Four parts build the ops, each a fixed mix of op
shapes (command, group exponent, bound, depth), so that the amount of
work in a list barely depends on the seed; the seed picks the concrete
degrees, the order of the list, which ops use ``--format records`` and
similar choices.

* ``scan``: box scans through all three stem methods; the sphere cache
  mostly hits.
* ``spheres``: single degrees with long cold smash chains; the cache
  mostly misses.
* ``diagrams``: fixed-point diagrams and torus comparisons; series
  products do the work and the stem methods none.
* ``algebra``: Burnside rings, the point presentation and selftest.

The workloads pair the parts by op length: ``heavy`` is scan plus
diagrams, ``light`` is spheres plus algebra.  Two workloads rather than
four give each run twice the time within the same budget, which the
host's minute-scale drift in speed needs.

Probes are ops that hit known defects.  They run after the timed list,
never inside it, and are expected to fail until the defect is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

RECORDS_SHARE = 0.3
MAX_COEFF = 60


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    exit_code: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _records_flags(rng: random.Random, count: int, share: float = RECORDS_SHARE) -> list[bool]:
    """Exactly round(share * count) True values at seeded positions."""
    chosen = set(rng.sample(range(count), round(share * count)))
    return [i in chosen for i in range(count)]


def _fmt(records: bool) -> tuple[str, ...]:
    return ("--format", "records") if records else ()


def degree_text(d: int, s: int, c: tuple[int, ...]) -> str:
    """A degree in the CLI's syntax, built from coordinates so that the
    checks do not depend on the program's own parser or printer."""
    terms = [(d, "")] + [(s, "sigma")] + [(ck, f"l{k}") for k, ck in enumerate(c)]
    out = ""
    for coeff, name in terms:
        if coeff == 0:
            continue
        body = str(abs(coeff)) + (f"*{name}" if name else "")
        if not out:
            out = body if coeff > 0 else f"-{body}"
        else:
            out += (" + " if coeff > 0 else " - ") + body
    return out or "0"


# ---------------------------------------------------------------------------
# scan: box scans through all three stem methods, sphere cache mostly hit.

SCAN_BOUNDS = {
    1: list(range(1, 13)) * 3,
    2: list(range(1, 7)) * 6,
    3: list(range(1, 5)) * 4,
    4: [1] * 10 + [2] * 4 + [3] * 2,
}


def scan(seed: int) -> tuple[list[Op], list[Op]]:
    rng = _rng("scan", seed)
    shapes = [(n, b) for n, bounds in SCAN_BOUNDS.items() for b in bounds]
    rng.shuffle(shapes)
    ops = [Op(("stems", "--n", str(n), "--scan", str(b)) + _fmt(rec), "scan",
              {"n": n, "bound": b, "records": rec})
           for (n, b), rec in zip(shapes, _records_flags(rng, len(shapes)))]
    return ops, []


# ---------------------------------------------------------------------------
# spheres: single degrees with long cold smash chains, cache mostly missed.

SPHERE_OPS_PER_SHAPE = 10
SPHERE_RECORDS = 4


def _split_depth(rng: random.Random, depth: int, slots: int) -> list[int]:
    """Random signed coordinates with |coordinates| summing to depth,
    each at most MAX_COEFF in size."""
    mags = [0] * slots
    for _ in range(depth):
        open_slots = [k for k in range(slots) if mags[k] < MAX_COEFF]
        mags[rng.choice(open_slots)] += 1
    return [m * rng.choice((1, -1)) for m in mags]


def spheres(seed: int) -> tuple[list[Op], list[Op]]:
    """For each n in 1..6 and each of three op kinds, ten degrees whose
    total coefficient size runs evenly up to 57*n (below the recursion
    depth at which the oracle breaks).  Degrees are passed as
    ``--degree=TEXT``: argparse takes a separate value that starts with
    '-' for an option, which the third probe records."""
    rng = _rng("spheres", seed)
    ops = []
    for n in range(1, 7):
        for kind in ("sphere", "stems-all", "stems-oracle"):
            records = _records_flags(rng, SPHERE_OPS_PER_SHAPE,
                                     SPHERE_RECORDS / SPHERE_OPS_PER_SHAPE)
            for i in range(SPHERE_OPS_PER_SHAPE):
                depth = round((i + 0.5) * MAX_COEFF * n / SPHERE_OPS_PER_SHAPE)
                s, *c = _split_depth(rng, depth, n)
                d = rng.randint(-MAX_COEFF, MAX_COEFF)
                text = degree_text(d, s, tuple(c))
                params = {"n": n, "d": d, "s": s, "c": c}
                if kind == "sphere":
                    ops.append(Op(("sphere", "--n", str(n), f"--rep={text}") + _fmt(records[i]),
                                  "sphere", {**params, "records": records[i]}))
                elif kind == "stems-all":
                    ops.append(Op(("stems", "--n", str(n), f"--degree={text}"), "stem",
                                  {**params, "methods": ["closed", "oracle", "sector"],
                                   "records": False}))
                else:
                    ops.append(Op(("stems", "--n", str(n), f"--degree={text}",
                                   "--method", "oracle", "--format", "records"), "stem",
                                  {**params, "methods": ["oracle"], "records": True}))
    rng.shuffle(ops)
    probes = [
        Op(("sphere", "--n", "1", "--rep", "3000*sigma"), "sphere",
           {"n": 1, "d": 0, "s": 3000, "c": [], "records": False}),
        Op(("stems", "--n", "2", "--degree", "5000*sigma", "--method", "oracle"), "stem",
           {"n": 2, "d": 0, "s": 5000, "c": [0], "methods": ["oracle"], "records": False}),
        Op(("stems", "--n", "2", "--degree", "-1*sigma"), "stem",
           {"n": 2, "d": 0, "s": -1, "c": [0], "methods": ["closed", "oracle", "sector"],
            "records": False}),
    ]
    return ops, probes


# ---------------------------------------------------------------------------
# diagrams: fixed-point diagrams and torus comparisons, series arithmetic.

def diagrams(seed: int) -> tuple[list[Op], list[Op]]:
    """One hot-spot op at n=4, m=3 (bgu or torus-check, by seed), the
    other U(m) shapes with n <= 4 and m <= 3 once each for both commands,
    and the cheap families with n <= 6 and maxdeg in {20, 50, 80}."""
    rng = _rng("diagrams", seed)
    shapes: list[tuple[tuple[str, ...], str, dict]] = []
    hot = rng.choice(("bgu", "um"))
    um_grid = [(n, m) for n in range(1, 5) for m in range(1, 4)]
    for n, m in um_grid:
        for kind in ("bgu", "um"):
            if (n, m) == (4, 3) and kind != hot:
                continue
            if kind == "bgu":
                shapes.append((("bgu", "--n", str(n), "--m", str(m)), "bgu", {"n": n, "m": m}))
            else:
                shapes.append((("torus-check", "--n", str(n), "--lie", "um", "--m", str(m)),
                               "torus_um", {"n": n, "m": m}))
    for n in range(1, 7):
        for action in ("trivial", "permutation") * 2:
            shapes.append((("torus-check", "--n", str(n), "--lie", "su2",
                            "--su2-torus-action", action), "torus_su2",
                           {"n": n, "action": action}))
        for maxdeg in (20, 50, 80):
            shapes.append((("bgs1", "--n", str(n), "--maxdeg", str(maxdeg)), "bgs1",
                           {"n": n, "maxdeg": maxdeg}))
            shapes.append((("consistency", "bsigma2", "--n", str(n), "--maxdeg", str(maxdeg)),
                           "consistency", {"n": n}))
            if (n, maxdeg) != (1, 20):
                shapes.append((("bgsigma2", "--n", str(n), "--maxdeg", str(maxdeg)),
                               "bgsigma2", {"n": n}))
    rng.shuffle(shapes)
    ops = [Op(argv + _fmt(rec), check, {**params, "records": rec})
           for (argv, check, params), rec in zip(shapes, _records_flags(rng, len(shapes)))]
    return ops, []


# ---------------------------------------------------------------------------
# algebra: Burnside rings, the point presentation and the selftest battery.

def algebra(seed: int) -> tuple[list[Op], list[Op]]:
    """Every Burnside level of n <= 10 once, plus three top levels given
    by default; point presentations for n <= 12, six each; ten selftests
    and four deep ones."""
    rng = _rng("algebra", seed)
    shapes: list[tuple[tuple[str, ...], str, dict]] = []
    for n in range(1, 11):
        for level in range(n + 1):
            shapes.append((("burnside", "--n", str(n), "--level", str(level)), "burnside",
                           {"n": n, "level": level}))
    for n in rng.sample(range(1, 11), 3):
        shapes.append((("burnside", "--n", str(n)), "burnside", {"n": n, "level": n}))
    for n in list(range(1, 13)) * 6:
        shapes.append((("point-presentation", "--n", str(n)), "point_presentation", {"n": n}))
    shapes += [(("selftest",), "selftest", {})] * 10
    shapes += [(("selftest", "--deep"), "selftest", {})] * 4
    rng.shuffle(shapes)
    ops = [Op(argv + _fmt(rec), check, {**params, "records": rec})
           for (argv, check, params), rec in zip(shapes, _records_flags(rng, len(shapes)))]
    probes = [
        Op(("stems", "--n", "-1", "--scan", "1"), "usage_error", {}, exit_code=2),
        Op(("burnside", "--n", "3", "--level", "-1"), "usage_error", {}, exit_code=2),
    ]
    return ops, probes


def _mix(workload: str, seed: int, *parts: Callable[[int], tuple[list[Op], list[Op]]]
         ) -> tuple[list[Op], list[Op]]:
    ops: list[Op] = []
    probes: list[Op] = []
    for part in parts:
        part_ops, part_probes = part(seed)
        ops += part_ops
        probes += part_probes
    _rng(workload, seed).shuffle(ops)
    return ops, probes


def heavy(seed: int) -> tuple[list[Op], list[Op]]:
    """Long ops: the scan and diagrams parts, shuffled together."""
    return _mix("heavy", seed, scan, diagrams)


def light(seed: int) -> tuple[list[Op], list[Op]]:
    """Short ops: the spheres and algebra parts, shuffled together."""
    return _mix("light", seed, spheres, algebra)


WORKLOADS: dict[str, Callable[[int], tuple[list[Op], list[Op]]]] = {
    "heavy": heavy,
    "light": light,
}
