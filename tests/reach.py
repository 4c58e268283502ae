"""Reach probe: the census at seven and eight blow-ups, one child per row.

Runs cp2(1), product_0(1), product_1(1) and twisted_2(2), each with the
first k of the capacities 1/6, 2/13, 1/7, 2/15, 1/8, 2/17, 1/9, 2/19 for
k = 7 and 8.  Each row is one census in a fresh child process that
imports the package from this tree's `src/`, and prints its seconds (the
`run_census` call alone), its toric and maximal circle counts, and the
child's peak RSS.

    python3 tests/reach.py

Stdlib only, with no options; pytest does not collect it.  The slowest
row, product_0(1) at k = 8, takes some 20 s and 300 MiB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CAPACITIES = ("1/6", "2/13", "1/7", "2/15", "1/8", "2/17", "1/9", "2/19")
BASES = (
    ("cp2(1)", {"kind": "cp2", "lambda": "1"}),
    ("product_0(1)", {"kind": "product_ruled", "genus": 0, "mu": "1", "fiber": "1"}),
    ("product_1(1)", {"kind": "product_ruled", "genus": 1, "mu": "1", "fiber": "1"}),
    ("twisted_2(2)", {"kind": "twisted_ruled", "genus": 2, "mu": "2", "fiber": "1"}),
)
# One row in the child: the census timed, its counts, and peak RSS in MiB
# (Linux reports ru_maxrss in KiB).
CHILD = """
import json, resource, sys, time
from torus_census.census import run_census, spec_from_json
spec = spec_from_json(json.loads(sys.argv[1]))
start = time.perf_counter()
counts = run_census(spec).counts
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds, counts.toric_count, counts.maximal_circle_count, rss]))
"""


def run_row(base: dict, k: int) -> list:
    """[seconds, toric count, maximal circle count, peak RSS MiB] of one row."""
    recipe = json.dumps({"base": base, "capacities": list(CAPACITIES[:k])})
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", CHILD, recipe],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def main() -> int:
    print(f"{'recipe':<14}{'k':>2}{'seconds':>9}{'toric':>7}{'circles':>9}{'peak MiB':>10}")
    for name, base in BASES:
        for k in (7, 8):
            seconds, toric, circles, rss = run_row(base, k)
            print(f"{name:<14}{k:>2}{seconds:>9.2f}{toric:>7}{circles:>9}{rss:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
