"""Every demo script runs standalone, exits 0 and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, recorded before psi evaluated edge points
# in place; a demo whose output is meant to change gets a new hash here
STDOUT_SHA256 = {
    "01_trees_and_geometry": "33f07a16fd224772f4a9952b706f24393c142e9c3c5650770daefa96aa574fcf",
    "02_additive_metrics": "ec7a2cf1955035f8a9bd3221844c6af1a5ad9e0ba4f96ee47ecf4886faa23a10",
    "03_formulas_and_axioms": "83fc4cf71a52642717eaa2d9ed9023e2f34b3eee0a7c2d0c29acad2469e0d2f9",
    "04_amalgamation": "9d9a6ac04a5f794964c50d43c64b91eb8ea8dd750fa5926c2c2f583b6dfaa398",
    "05_types_and_independence": "19573ec3904deb281deb1fc3784d0e3813285a8799aa253b5128159be68928e9",
    "06_generators_and_deficiency": "aa47204970f0868b3661cabe52289c8da25b41b6c60432d988f86ecce4e7fee3",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
