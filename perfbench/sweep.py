#!/usr/bin/env python3
"""One-off size sweep at the ROADMAP's baseline sizes: ``python3 perfbench/sweep.py``.

Times each item once through the same span code as the traced benchmark
and prints one line per item with its input size, next to the baseline
the ROADMAP recorded.  Not a graded workload: the largest items take
5-25 s each, about a minute in all.  Spans go to
``.perfbench-out/sweep.json``.
"""

from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import RADIUS as R, grid_count, tree_size  # noqa: E402
from run import import_rtrees  # noqa: E402
from tracing import Api, Tracer  # noqa: E402


def main() -> int:
    rtrees, cli_main = import_rtrees()
    tracer = Tracer()
    api = Api(rtrees, cli_main, tracer)
    f = api.fn
    rng = random.Random("perfbench-sweep")
    trip = rtrees.tripod(1, 1, 1)
    items = []  # (label, size, roadmap seconds, call)
    for k, base in ((0, 0.12), (4, 1.25), (6, 5.1)):
        tree = rtrees.rb_extend(trip, R, k)
        items.append((f"rb_deficiency k={k}", tree_size(tree, k=k), base,
                      lambda tree=tree, k=k: f("rb_deficiency", f"k{k}")(tree, R)))
    items.append(("psi_grid_oracle tripod mesh r/128", tree_size(trip, grid_points=grid_count(trip, R / 128)),
                  0.85, lambda: f("psi_grid_oracle")(trip, rtrees.Vertex("p"), R, R / 128)))
    rb2 = rtrees.rb_extend(trip, R, 2)
    items.append(("check_rt_axioms rb depth 2 mesh r/8", tree_size(rb2, grid_points=grid_count(rb2, R / 8)),
                  14.0, lambda: f("check_rt_axioms")(rb2, R, R / 8)))
    for n, base in ((10, 0.09), (20, 1.1), (40, 21.0)):
        tree = rtrees.random_tree(rng, max_nodes=n + 4, min_nodes=n // 2, radius=R)
        pts = [rtrees.random_point(rng, tree) for _ in range(n)]
        m = rtrees.tree_to_matrix(tree, pts, labels=[f"x{i}" for i in range(n)])
        items.append((f"realize_tree n={n}", {"n": n, **tree_size(tree)}, base,
                      lambda m=m, n=n: f("realize_tree", f"n{n}")(m, "x0")))

    print(f"{'item':40} {'seconds':>9} {'roadmap':>8}  size")
    for task_id, (label, size, base, call) in enumerate(items):
        tracer.open_task(task_id, label.split()[0], size, time.perf_counter())
        call()
        tracer.close_task(time.perf_counter(), False)
        api_span = len(tracer.name) - 1
        seconds = tracer.end[api_span] - tracer.start[api_span]
        print(f"{label:40} {seconds:9.3f} {base:8.2f}  {size}", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".perfbench-out", "sweep.json"), {"sweep": True, "radius": str(Fraction(R))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
