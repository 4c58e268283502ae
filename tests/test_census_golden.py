"""Golden census gate: `census --format json` output, byte for byte.

`census_golden.json` holds, for recipes over all three bases (reduced
and non-reduced cp2 recipes, genus-0 ruled recipes with mu < 1, and
positive-genus ruled recipes), the sha256 of the JSON document the CLI
prints and its count triple (toric, maximal circles, total).  The
digests were recorded before the census hot path was memoised, so any
change to an answer, a provenance or an output byte shows up here.
Each recipe runs in well under a second.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
