"""The benchmark's pinned answers, checked as ordinary tests.

`bench/pins.json` holds the sha256 of every answer of every workload for
seeds 0-9.  Each request of `bench/workloads.generate` runs here through
`cli.main` in this process, as `bench/run.py` sends it, and its output
must have the pinned digest.  A change that moves a pinned answer then
fails here, not only when the benchmark runs.  The test only reads
`bench/`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from torus_census import cli  # noqa: E402

PINS = checks.load_pins()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", range(10))
def test_answers_match_the_bench_pins(workload, seed):
    requests = workloads.generate(workload, seed)
    pins = PINS[workload][str(seed)]
    assert len(pins) == len(requests)
    moved = []
    for index, (request, pin) in enumerate(zip(requests, pins)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(request["argv"])
        if code != 0 or checks.digest(out.getvalue()) != pin["sha256"]:
            moved.append((index, request["verb"], code))
    assert moved == []
