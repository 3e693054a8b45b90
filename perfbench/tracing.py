"""Access to the public rtrees API, optionally wrapped in timing spans.

The benchmark reaches the library only through :class:`Api`.  Untraced, it
hands out the library's own functions, so the timed loop pays nothing.
Traced, every function it hands out records one span per call: its name
(``<module>.<function>[.<variant>]``), start, end, the task span that made
the call and that task's id.  Spans are kept in flat arrays in memory and
written out once the run ends.
"""

from __future__ import annotations

import json
import time
from array import array

# The layer (module) of every public function the benchmark calls.  Fixed
# here rather than read from ``fn.__module__`` so that moving a function
# between modules inside the library does not rename its metrics.
LAYER = {
    "distance": "skeleton",
    "materialize": "skeleton",
    "validate": "skeleton",
    "median": "geometry",
    "gromov_product": "geometry",
    "spanned_subtree": "geometry",
    "project_to_subtree": "geometry",
    "tree_to_matrix": "matrices",
    "four_point_check": "matrices",
    "realize_tree": "matrices",
    "delta_hyperbolicity": "matrices",
    "eval_quantified": "formulas",
    "check_rt_axioms": "formulas",
    "parse_formula": "formulas",
    "rb_deficiency": "deficiency",
    "psi_at": "deficiency",
    "psi_grid_oracle": "deficiency",
    "glue_family": "amalgams",
    "amalgamate": "amalgams",
    "type_of": "typespace",
    "realize_type": "typespace",
    "type_distance_search": "typespace",
    "is_star_independent": "independence",
    "random_tree": "generators",
    "rb_extend": "generators",
    "degree_family_tree": "generators",
    "au_sample_ball": "generators",
    "tripod": "generators",
    "segment": "generators",
    "random_point": "generators",
    "point_on_edge": "skeleton",
    "main": "cli",
}

# Span outcome flags.
OK, EXACT, RAISED = 0, 1, 2


class Tracer:
    """In-memory span store.  Task spans are opened by run.py; API
    spans are children of the task span open when the call is made."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.flag = array("b")
        self.task_sizes: dict[int, dict] = {}
        self.overhead_s = 0.0
        self._open_span = -1
        self._open_task = -1

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid, t0, t1, parent, task, flag) -> int:
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.task.append(task)
        self.flag.append(flag)
        return len(self.name) - 1

    def open_task(self, task_id: int, kind: str, size: dict, t0: float) -> None:
        """Reserve the task's span; its end is filled in by close_task."""
        self._open_span = self._append(self.intern("task." + kind), t0, t0, -1, task_id, OK)
        self._open_task = task_id
        self.task_sizes[task_id] = {"kind": kind, **size}

    def close_task(self, t1: float, failed: bool) -> None:
        self.end[self._open_span] = t1
        self.flag[self._open_span] = RAISED if failed else OK
        self._open_span = self._open_task = -1

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        clock = time.perf_counter
        exact_flag = name.startswith(("formulas.eval_quantified", "typespace.type_distance_search"))

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                t1 = clock()
                result = fn(*args, **kwargs)
                t2 = clock()
            except BaseException:
                t2 = clock()
                self._append(nid, t1, t2, self._open_span, self._open_task, RAISED)
                self.overhead_s += (t1 - t0) + (clock() - t2)
                raise
            flag = EXACT if exact_flag and result.lower == result.upper else OK
            self._append(nid, t1, t2, self._open_span, self._open_task, flag)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as one JSON document."""
        spans = [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.task[i], self.flag[i]]
            for i in range(len(self.name))
        ]
        doc = {
            **meta,
            "span_fields": ["name", "start", "end", "parent", "task", "flag"],
            "flags": {"ok": OK, "exact": EXACT, "raised": RAISED},
            "spans": spans,
            "task_sizes": {str(k): v for k, v in self.task_sizes.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Api:
    """Public rtrees functions by name, traced when a tracer is given.

    ``api.fn(name, variant)`` returns the callable; ``variant`` only
    refines the span name (``psi_at.vertex``, ``distance.deep``, ...).
    Only names in ``rtrees.__all__`` and ``rtrees.cli.main`` are served.
    """

    def __init__(self, rtrees, cli_main, tracer: Tracer | None = None) -> None:
        self.rt = rtrees
        self._main = cli_main
        self.tracer = tracer
        self._cache: dict[tuple[str, str | None], object] = {}

    def fn(self, name: str, variant: str | None = None):
        key = (name, variant)
        got = self._cache.get(key)
        if got is not None:
            return got
        if name == "main":
            raw = self._main
        elif name in self.rt.__all__:
            raw = getattr(self.rt, name)
        else:
            raise KeyError(f"{name} is not part of the public rtrees API")
        if self.tracer is None:
            got = raw
        else:
            span = f"{LAYER[name]}.{name}" + (f".{variant}" if variant else "")
            got = self.tracer.wrap(raw, span)
        self._cache[key] = got
        return got

    def __getattr__(self, name: str):
        # Classes (Vertex, MetricMatrix, FourPointViolation, ...) are served
        # as values; functions must go through fn() so that they are traced.
        obj = getattr(self.rt, name, None) if name in self.rt.__all__ else None
        if isinstance(obj, type):
            return obj
        raise AttributeError(name)
