"""Spans and counts around the public entry points of ratstems.

``install`` replaces each traced function where its callers look it up:
module globals for functions that modules import by name (``cli`` binds
``sphere_homology``, ``fixed_point_data`` and the like through
``from ... import``), class attributes for methods, and the values of the
shared ``STEM_METHODS`` dict.  The program itself is not edited.

A span records its name, its parent span and its start and end times.
Spans stay in memory; ``write_spans`` dumps them once the run is over.
A name's self time is the sum of its spans' durations minus the time
their child spans cover.  Counts are plain integers bumped at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._parent = array("q")
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self.names.index(name)

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        idx = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        parents, names, starts, ends = self._parent, self._name, self._start, self._end

        def traced(*args, **kwargs):
            sid = len(names)
            parents.append(stack[-1][0] if stack else -1)
            names.append(idx)
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                starts[sid] = start
                ends[sid] = end
                calls[idx] += 1
                total_ns[idx] += dur
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_instances(self, cls: type, name: str) -> None:
        """Count constructions of a dataclass through its __post_init__,
        which the generated __init__ looks up on the class."""
        original = cls.__post_init__
        counts = self.counts
        counts.setdefault(name, 0)

        def post_init(obj):
            counts[name] += 1
            original(obj)

        cls.__post_init__ = post_init

    def summary(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "total_ns": dict(zip(self.names, self.total_ns)),
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> int:
        """Write one JSON header line, then one JSON array per span:
        id, parent id (-1 at the top), name index, and start and end in
        ns from the first span's start.  Returns the number of spans."""
        t0 = self._start[0] if self._start else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "spans": len(self._name),
                                  "fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            out.write("\n")
            for sid, (parent, name, start, end) in enumerate(
                    zip(self._parent, self._name, self._start, self._end)):
                out.write(f"[{sid},{parent},{name},{start - t0},{end - t0}]\n")
        return len(self._name)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ratstems module."""
    from ratstems import burnside, classifying, cli, mackey, rolattice, series, stems

    span = tracer.span

    def both(name: str, fn: Callable, *modules) -> None:
        wrapped = span(name, fn)
        for module in modules:
            setattr(module, fn.__name__, wrapped)

    # cli: the worker calls cli.run through the module, and build_parser
    # reads the cmd_* globals on every run
    cli.run = span("cli.run", cli.run)
    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        setattr(cli, attr, span("cli.handler", getattr(cli, attr)))
    both("cli.compare_methods", cli.compare_methods, cli)

    both("rolattice.parse_degree", rolattice.parse_degree, cli)
    tracer.count_instances(rolattice.VirtualRep, "rolattice.VirtualRep.new")

    methods = stems.STEM_METHODS
    closed = span("stems.closed", methods["closed"])
    methods["closed"] = closed
    stems.stem_at = closed
    methods["sector"] = span("stems.sector", methods["sector"])
    methods["oracle"] = span("stems.oracle", methods["oracle"])
    both("stems.decode_degree", stems.decode_degree, stems)
    both("stems.sphere_homology", stems.sphere_homology, cli)
    both("stems.point_presentation", stems.point_presentation, cli)

    both("mackey.classify", mackey.classify, stems, classifying)
    mackey.MackeyClass.box = span("mackey.MackeyClass.box", mackey.MackeyClass.box)
    table_box = span("mackey.GradedTable.box", mackey.GradedTable.box)

    def graded_box(self, other):
        tracer.count("mackey.GradedTable.box.pairs", len(self.entries) * len(other.entries))
        return table_box(self, other)

    tracer.counts.setdefault("mackey.GradedTable.box.pairs", 0)
    mackey.GradedTable.box = graded_box
    tracer.count_instances(mackey.MackeyClass, "mackey.MackeyClass.new")

    series.TruncatedSeries.__mul__ = span("series.mul", series.TruncatedSeries.__mul__)

    both("classifying.fixed_point_data", classifying.fixed_point_data, cli, classifying)
    compositions = classifying.compositions
    tracer.counts.setdefault("classifying.compositions.yielded", 0)

    def counted_compositions(total, parts):
        for comp in compositions(total, parts):
            tracer.counts["classifying.compositions.yielded"] += 1
            yield comp

    classifying.compositions = counted_compositions
    both("classifying.gm_assemble", classifying.gm_assemble, cli, classifying)
    both("classifying.torus_check_u", classifying.torus_check_u, cli)
    both("classifying.sym_invariants_series", classifying.sym_invariants_series, classifying)

    burnside.BurnsideElement.__mul__ = span("burnside.mul", burnside.BurnsideElement.__mul__)
    both("burnside.from_marks", burnside.from_marks, cli, burnside)
    both("burnside.idempotents", burnside.idempotents, cli)
