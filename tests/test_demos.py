"""The demos run to completion, and print the same under ``python -O``.

Each script in ``demos/`` is run in a subprocess against the package in
``src/``, once as is and once with asserts stripped; it must exit 0, write
nothing to stderr, and print the same bytes both times.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torus_census

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run(script: Path, *flags: str) -> subprocess.CompletedProcess:
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_the_same_under_optimize(script):
    plain = _run(script)
    assert plain.returncode == 0, plain.stderr
    assert plain.stderr == ""
    assert plain.stdout
    optimized = _run(script, "-O")
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stderr == ""
    assert optimized.stdout == plain.stdout
