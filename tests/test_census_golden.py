"""Golden census gate: `census --format json` output, byte for byte.

`census_golden.json` holds, for recipes over all three bases (reduced
and non-reduced cp2 recipes, genus-0 ruled recipes with mu < 1, and
positive-genus ruled recipes), the sha256 of the JSON document the CLI
prints and its count triple (toric, maximal circles, total).  The
digests were recorded before the census hot path was memoised, so any
change to an answer, a provenance or an output byte shows up here.
Each recipe runs in well under a second.  One more test runs every
recipe again under `python -O`, where asserts are stripped, and requires
the same digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torus_census
from torus_census.cli import main

GOLDEN = json.loads((Path(__file__).parent / "census_golden.json").read_text())


@pytest.mark.parametrize(
    "row", GOLDEN, ids=[json.dumps(row["spec"], sort_keys=True) for row in GOLDEN]
)
def test_census_json_matches_golden_digest(capsys, row):
    code = main(["census", "--spec", json.dumps(row["spec"]), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    counts = json.loads(out)["counts"]
    assert [
        counts["toric"],
        counts["maximal_circles"],
        counts["total_maximal_tori"],
    ] == row["counts"]
    assert hashlib.sha256(out.encode()).hexdigest() == row["sha256"]


OPTIMIZED_GOLDEN_RUN = """
import contextlib, hashlib, io, json, sys
from torus_census.cli import main
for spec in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["census", "--spec", json.dumps(spec), "--format", "json"])
    print(__debug__, code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_census_json_matches_golden_digest_under_optimize():
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_GOLDEN_RUN],
        input=json.dumps([row["spec"] for row in GOLDEN]),
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"False 0 {row['sha256']}" for row in GOLDEN
    ]
