#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at a tiny size, untraced and traced, and asserts that
no task fails and that every declared metric (and every per-layer metric
the benchmark documents) is emitted.  Also checks that the benchmark names
only public rtrees functions, and that it refuses to run without sources.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics documented in README.md; each must be in every traced
# run's span file, whether or not BENCHMARK.json grades it.
DOCUMENTED = """
skeleton.distance.calls skeleton.distance.shallow.mean_us skeleton.distance.deep.mean_us
skeleton.materialize.busy_s skeleton.validate.busy_s
geometry.median.busy_s geometry.gromov_product.busy_s geometry.spanned_subtree.busy_s
geometry.project_to_subtree.busy_s
matrices.tree_to_matrix.busy_s matrices.four_point_check.busy_s matrices.realize_tree.busy_s
matrices.realize_tree.n8.mean_s matrices.realize_tree.n16.mean_s matrices.realize_tree.n24.mean_s
matrices.realize_tree.rejected matrices.delta_hyperbolicity.busy_s
formulas.eval_quantified.exact.busy_s formulas.eval_quantified.grid.busy_s
formulas.eval_quantified.exact_ratio formulas.check_rt_axioms.busy_s formulas.check_rt_axioms.grid_points
deficiency.rb_deficiency.busy_s deficiency.rb_deficiency.k2.mean_s deficiency.rb_deficiency.k3.mean_s
deficiency.rb_deficiency.k4.mean_s deficiency.psi_at.vertex.busy_s deficiency.psi_at.interior.busy_s
deficiency.psi_grid_oracle.busy_s
amalgams.glue_family.busy_s amalgams.amalgamate.busy_s
typespace.type_of.busy_s typespace.realize_type.busy_s typespace.type_distance_search.busy_s
typespace.type_distance_search.exact_ratio
independence.is_star_independent.busy_s
generators.random_tree.busy_s generators.rb_extend.busy_s generators.degree_family_tree.busy_s
generators.au_sample_ball.busy_s
cli.main.busy_s cli.main.unexpected_exit
trace.overhead_s trace.overhead_ratio
""".split()


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []

    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--tiny", "--seconds", "1", "--trace", str(trace)])
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: failures\n{proc.stdout}")
            want = {m["name"] for m in bench[section]}
            if set(result["metrics"]) != want:
                problems.append(f"{label}: metrics differ by {sorted(set(result['metrics']) ^ want)}")
            if trace:
                path = os.path.join(ROOT, ".perfbench-out", f"trace-{workload}-seed1.json")
                with open(path, encoding="utf-8") as fh:
                    emitted = json.load(fh)["metrics"]
                missing = [name for name in DOCUMENTED if name not in emitted]
                if missing:
                    problems.append(f"{label}: documented metrics missing: {missing}")
            print(f"ok {label}: {result['attempted']} tasks", flush=True)

    # only public names: rtrees.__all__ plus the CLI entry point
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rtrees

    public = set(rtrees.__all__) | {"main", "__all__"}
    found = len(problems)
    for fname in ("run.py", "workloads.py", "common.py", "tracing.py", "sweep.py"):
        with open(os.path.join(HERE, fname), encoding="utf-8") as fh:
            text = fh.read()
        used = set(re.findall(r'\bf(?:n)?\("(\w+)"', text)) | set(re.findall(r"\b(?:rt|api)\.([A-Za-z_]\w*)", text))
        used -= {"rt", "fn", "tracer"}  # attributes of the benchmark's own Api object
        if "from rtrees" in text or "import rtrees." in text:
            problems.append(f"{fname}: imports rtrees directly")
        if used - public:
            problems.append(f"{fname}: non-public names {sorted(used - public)}")
    if len(problems) == found:
        print("ok public API only", flush=True)

    # without sources the benchmark must fail fast and print no result
    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a checkout without sources did not fail")
    else:
        print("ok fails without sources", flush=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
