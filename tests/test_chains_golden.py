"""Golden chains gate: minimal blow-down chains of seeded recipes.

`chains_golden.json` holds 32 seeded recipes over all three bases whose
chains blow down classes other than a bare exceptional symbol: L - E1 - E2
on cp2#2 (an S^2 x S^2 result), and classes whose blow-down needs a new
rational frame, at cp2, twisted and product genus-0 stages, with and
without two equal capacities.  For each recipe it pins what does not
depend on the standard basis a blow-down picks for the smaller stage: the
chain count and, for each chain, its classes written in the recipe's basis
(`original_coeffs`), their areas and the terminal model.  Where no stage
of any chain has two equal capacities the row also pins the sha256 of
`chains --format json`.  The values were recorded with the ball-walk
frame search, before blow-downs became a closed-form descent.  One more
test runs every recipe again under `python -O` and requires the same
answers.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torus_census
from torus_census import homology as hm
from torus_census.census import spec_from_json, spec_to_symplectic
from torus_census.cli import main
from torus_census.rationals import format_rational

GOLDEN = json.loads((Path(__file__).parent / "chains_golden.json").read_text())


def pinned_chains(spec: dict) -> list:
    chains = hm.minimal_blowdown_chains(spec_to_symplectic(spec_from_json(spec)))
    return [
        {
            "original_coeffs": [list(step.original_coeffs) for step in chain.steps],
            "areas": [format_rational(step.area) for step in chain.steps],
            "terminal": hm.symplectic_to_json(chain.terminal),
        }
        for chain in chains
    ]


def chains_json_digest(spec: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chains", "--spec", json.dumps(spec), "--format", "json"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "row", GOLDEN, ids=[json.dumps(row["spec"], sort_keys=True) for row in GOLDEN]
)
def test_chains_match_golden(row):
    chains = pinned_chains(row["spec"])
    assert len(chains) == row["count"]
    assert chains == row["chains"]
    if "sha256" in row:
        assert chains_json_digest(row["spec"]) == row["sha256"]


OPTIMIZED_GOLDEN_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_chains_golden import _digest, chains_json_digest, pinned_chains
for row in json.loads(sys.stdin.read()):
    digest = chains_json_digest(row["spec"]) if "sha256" in row else "-"
    print(__debug__, _digest(pinned_chains(row["spec"])), digest)
"""


def test_chains_match_golden_under_optimize():
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_GOLDEN_RUN, str(Path(__file__).parent)],
        input=json.dumps(GOLDEN),
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"False {_digest(row['chains'])} {row.get('sha256', '-')}" for row in GOLDEN
    ]
