"""Command-line front end: golden outputs, exit codes, round trips.

Golden text blocks were produced by running the tool and reviewing the
output by eye; they pin byte-for-byte behavior of the table and JSON
formats.  Larger JSON payloads are re-parsed and checked field by field.
"""

import json

import pytest

from torus_census.cli import main, thread_budget

SQUARE = '{"vertices": [["0","0"],["1","0"],["1","1"],["0","1"]]}'
TRIANGLE_TALL = '{"vertices": [["0","0"],["1","0"],["0","2"]]}'
MOVED_SQUARE = '{"vertices": [["5","7"],["6","7"],["6","8"],["5","8"]]}'
BLOWN_SQUARE = (
    '{"vertices": [["0", "1/4"], ["1/4", "0"], ["1", "0"],'
    ' ["1", "1"], ["0", "1"]]}'
)
PLANE_QUARTER = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/4"]}'
TWO_SURFACES = (
    '{"edges": [], "vertices": ['
    '{"id": 0, "moment": "0", "surface": {"area": "1", "genus": 0}},'
    '{"id": 1, "moment": "1", "surface": {"area": "1", "genus": 0}}]}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Golden table and JSON output


def test_invariants_table_golden(capsys):
    code, out, err = run(capsys, "invariants", "--polygon", SQUARE)
    assert code == 0
    assert err == ""
    assert out == (
        "Delzant polygon with 4 edges (b2 = 2)\n"
        "euclidean area 1, anticanonical perimeter 4\n"
        "edge  vertex  direction  normal   length  self\n"
        "0     (0, 0)  (1, 0)     (0, -1)  1       0\n"
        "1     (1, 0)  (0, 1)     (1, 0)   1       0\n"
        "2     (1, 1)  (-1, 0)    (0, 1)   1       0\n"
        "3     (0, 1)  (0, -1)    (-1, 0)  1       0\n"
    )


def test_invariants_json_golden(capsys):
    code, out, err = run(capsys, "invariants", "--polygon", SQUARE, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "edge_count": 4,
        "b2": 2,
        "euclidean_area": "1",
        "anticanonical_perimeter": "4",
        "edge_areas": ["1", "1", "1", "1"],
        "self_intersections": [0, 0, 0, 0],
    }


def test_check_reports_non_delzant_vertex(capsys):
    code, out, err = run(capsys, "check", "--polygon", TRIANGLE_TALL)
    assert code == 0
    assert out == (
        "delzant: no\n"
        "  vertex 1 at (1, 0): edge direction determinant 2\n"
    )


def test_check_json_for_valid_polygon(capsys):
    code, out, err = run(capsys, "check", "--polygon", SQUARE, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "diagnostics": []}


def test_canon_translates_to_origin(capsys):
    code, out, err = run(
        capsys, "canon", "--polygon", MOVED_SQUARE, "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    }


def test_feasibility_table_golden(capsys):
    code, out, err = run(capsys, "feasibility", "--k", "4", "--delta", "1/3")
    assert code == 0
    assert out == (
        "feasibility for 4 equal capacities 1/3\n"
        "  toric formula (k <= 3 and delta < lambda/3): no\n"
        "  toric census nonempty: no (agreement: yes)\n"
        "  circle formula ((k-1) delta < lambda): no\n"
        "  any circle action in census: no (agreement: yes)\n"
        "  maximal circle census nonempty: no (agreement: yes)\n"
    )


def test_census_table_golden_twisted(capsys):
    spec = '{"base": {"kind": "twisted_ruled", "genus": 1, "mu": "3/2"}}'
    code, out, err = run(capsys, "census", "--spec", spec)
    assert code == 0
    assert out == (
        "census for twisted ruled base, genus 1, section area 3/2,"
        " fiber area 1; capacities: none\n"
        "counts: toric 0, maximal circles 2, total maximal tori 2\n"
        "warning: no toric actions on a positive-genus base\n"
        "toric entries: none\n"
        "maximal circle entries:\n"
        "  [0] 2 components, 0 Z_k edges, moment span 1\n"
        "      ruled base graph of degree 3\n"
        "  [1] 2 components, 0 Z_k edges, moment span 1\n"
        "      ruled base graph of degree 1\n"
    )


def test_project_table_golden(capsys):
    code, out, err = run(capsys, "project", "--polygon", SQUARE, "--xi", "1,1")
    assert code == 0
    assert out == (
        "circle-action graph with 4 fixed components and 0 Z_k edges\n"
        "  [0] moment 0: isolated, weights (1, 1)\n"
        "  [1] moment 1: isolated, weights (1, -1)\n"
        "  [3] moment 1: isolated, weights (1, -1)\n"
        "  [2] moment 2: isolated, weights (-1, -1)\n"
    )


# ---------------------------------------------------------------------------
# JSON payloads, checked field by field


def test_census_json_payload(capsys):
    code, out, err = run(
        capsys, "census", "--spec", PLANE_QUARTER, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == {
        "base": {"kind": "cp2", "lambda": "1"},
        "capacities": ["1/4"],
    }
    assert payload["counts"] == {
        "toric": 1,
        "maximal_circles": 0,
        "total_maximal_tori": 1,
    }
    assert payload["toric"] == [
        {"vertices": [["0", "0"], ["1/4", "0"], ["1", "3/4"], ["0", "3/4"]]}
    ]
    assert payload["toric_provenance"] == [
        {
            "base": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
            "steps": [{"delta": "1/4", "site": 0}],
        }
    ]
    assert payload["maximal_circles"] == []
    assert payload["circle_provenance"] == []
    assert payload["warnings"] == []


def test_chains_json_payload(capsys):
    spec = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/3", "1/4", "1/5"]}'
    code, out, err = run(capsys, "chains", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    steps = payload["canonical"]["steps"]
    assert [(s["stage"], s["class"]["coeffs"], s["area"]) for s in steps] == [
        (1, ["0", "0", "0", "1"], "1/5"),
        (2, ["0", "0", "1"], "1/4"),
        (3, ["0", "1"], "1/3"),
    ]
    assert payload["canonical"]["terminal"] == {"lambda": "1", "capacities": []}
    assert payload["chains"] == [payload["canonical"]]


def test_threshold_json_payload(capsys):
    spec = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/5"]}'
    code, out, err = run(capsys, "threshold", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["binding"] == [
        {"basis": {"kind": "rational", "k": 1}, "coeffs": ["1", "-1"]}
    ]


def test_exceptional_json_payload(capsys):
    spec = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/3", "1/4"]}'
    code, out, err = run(capsys, "exceptional", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == "1/4"
    assert payload["bound"] == "1/4"
    e2 = {"basis": {"kind": "rational", "k": 2}, "coeffs": ["0", "0", "1"]}
    assert payload["minimal_classes"] == [e2]
    assert payload["candidates"] == [{"class": e2, "area": "1/4"}]


def test_feasibility_json_from_spec(capsys):
    spec = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["2/5", "2/5"]}'
    code, out, err = run(capsys, "feasibility", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blowups"] == 2
    assert payload["delta"] == "2/5"
    assert payload["toric_formula"] is False
    assert payload["toric_nonempty"] is True
    assert payload["toric_agrees"] is False
    assert payload["circle_agrees_existence"] is True
    assert payload["circle_agrees_maximal"] is False
    assert payload["warnings"] == [
        "case-analysis regime: some capacity exceeds a third of the line area"
    ]


# ---------------------------------------------------------------------------
# Round trips through the executable


def test_blowup_blowdown_round_trip(capsys):
    code, out, err = run(
        capsys,
        "blowup", "--polygon", SQUARE,
        "--vertex", "0", "--delta", "1/4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == json.loads(BLOWN_SQUARE)
    code, out, err = run(
        capsys, "blowdown", "--polygon", out, "--edge", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == json.loads(SQUARE)


def test_project_output_feeds_graph_verbs(capsys):
    code, out, err = run(
        capsys, "project", "--polygon", SQUARE, "--xi", "0,1", "--format", "json"
    )
    assert code == 0
    graph_json = out
    assert json.loads(graph_json) == {
        "edges": [],
        "vertices": [
            {"id": 0, "moment": "0", "surface": {"area": "1", "genus": 0}},
            {"id": 1, "moment": "1", "surface": {"area": "1", "genus": 0}},
        ],
    }
    code, out, err = run(
        capsys, "invariants", "--graph", graph_json, "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "components": 2,
        "edges": 0,
        "min_moment": "0",
        "max_moment": "1",
        "extends_to_toric": True,
    }


def test_graph_blowup_stays_valid(capsys):
    code, out, err = run(
        capsys, "project", "--polygon", SQUARE, "--xi", "0,1", "--format", "json"
    )
    code, out, err = run(
        capsys,
        "blowup", "--graph", out,
        "--vertex", "0", "--delta", "1/3", "--format", "json",
    )
    assert code == 0
    blown = out
    code, out, err = run(capsys, "check", "--graph", blown, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "diagnostics": []}


def test_file_path_input(capsys, tmp_path):
    target = tmp_path / "square.json"
    target.write_text(SQUARE, encoding="utf-8")
    code, out, err = run(
        capsys, "invariants", "--polygon", str(target), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["euclidean_area"] == "1"


# ---------------------------------------------------------------------------
# SVG output


def test_polygon_svg(capsys):
    code, out, err = run(capsys, "canon", "--polygon", SQUARE, "--format", "svg")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert out.rstrip().endswith("</svg>")


def test_graph_svg(capsys):
    code, out, err = run(
        capsys, "project", "--polygon", SQUARE, "--xi", "0,1", "--format", "json"
    )
    code, out, err = run(capsys, "canon", "--graph", out, "--format", "svg")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert out.rstrip().endswith("</svg>")


def test_svg_rejected_for_reports(capsys):
    code, out, err = run(
        capsys, "census", "--spec", PLANE_QUARTER, "--format", "svg"
    )
    assert code == 1
    assert err.strip() == "--format svg is not available for census"


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_file_is_exit_one(capsys):
    code, out, err = run(capsys, "check", "--polygon", "nope.json")
    assert code == 1
    assert err.strip() == "no such file: nope.json"


def test_invalid_json_is_exit_one(capsys):
    code, out, err = run(capsys, "check", "--polygon", '{"vertices": oops}')
    assert code == 1
    assert err.startswith("invalid JSON:")


def test_non_object_document_is_exit_one(capsys, tmp_path):
    target = tmp_path / "array.json"
    target.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run(capsys, "check", "--polygon", str(target))
    assert code == 1
    assert err.strip() == "top-level JSON value must be an object"


def test_subject_is_required_and_unique(capsys):
    code, out, err = run(capsys, "check")
    assert code == 1
    assert err.strip() == "give exactly one of --polygon or --graph"
    code, out, err = run(capsys, "check", "--polygon", SQUARE, "--graph", TWO_SURFACES)
    assert code == 1
    assert err.strip() == "give exactly one of --polygon or --graph"


def test_blowup_requires_vertex_and_delta(capsys):
    code, out, err = run(capsys, "blowup", "--polygon", SQUARE, "--vertex", "0")
    assert code == 1
    assert err.strip() == "blowup needs --delta"
    code, out, err = run(capsys, "blowup", "--polygon", SQUARE, "--delta", "1/4")
    assert code == 1
    assert err.strip() == "blowup needs --vertex"


def test_malformed_direction_is_exit_one(capsys):
    code, out, err = run(capsys, "project", "--polygon", SQUARE, "--xi", "1;2")
    assert code == 1
    assert "direction must be two integers" in err


def test_missing_spec_is_exit_one(capsys):
    code, out, err = run(capsys, "census")
    assert code == 1
    assert err.strip() == "this verb needs --spec"


def test_unknown_verb_is_exit_one(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_precondition_failures_are_exit_two(capsys):
    code, out, err = run(capsys, "blowdown", "--polygon", SQUARE, "--edge", "1")
    assert code == 2
    assert err.strip() == "edge not exceptional: self-intersection 0"
    bad_spec = (
        '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/4", "1/3"]}'
    )
    code, out, err = run(capsys, "census", "--spec", bad_spec)
    assert code == 2
    assert err.strip() == "capacities must be weakly decreasing"


def test_recipe_outside_cone_is_exit_two(capsys):
    # L - E1 - E2 has area 1 - 1/2 - 1/2 = 0 although the volume is positive.
    spec = '{"base":{"kind":"cp2","lambda":"1"},"capacities":["1/2","1/2"]}'
    code, out, err = run(capsys, "census", "--spec", spec)
    assert code == 2
    assert out == ""
    assert "outside the symplectic cone" in err


@pytest.mark.parametrize(
    "spec",
    [
        # F - E1 and S - E1: a cap of 3/4 exceeds the section area 1/2.
        '{"base":{"kind":"product_ruled","mu":"1/2"},"capacities":["3/4"]}',
        # On a genus-1 base F - E1 has area 1 - 3/2 < 0.
        '{"base":{"kind":"product_ruled","genus":1,"mu":"3"},"capacities":["3/2"]}',
    ],
)
def test_ruled_recipe_outside_cone_is_exit_two(capsys, spec):
    code, out, err = run(capsys, "census", "--spec", spec)
    assert code == 2
    assert out == ""
    assert "outside the symplectic cone" in err


def test_blowup_too_large_is_exit_two(capsys):
    code, out, err = run(
        capsys, "blowup", "--polygon", SQUARE, "--vertex", "0", "--delta", "2"
    )
    assert code == 2
    assert "capacity too large" in err


# ---------------------------------------------------------------------------
# Thread budget


def test_thread_budget_clamps(monkeypatch):
    monkeypatch.delenv("TORUS_CENSUS_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("TORUS_CENSUS_THREADS", "8")
    assert thread_budget() == 8
    monkeypatch.setenv("TORUS_CENSUS_THREADS", "500")
    assert thread_budget() == 64
    monkeypatch.setenv("TORUS_CENSUS_THREADS", "0")
    assert thread_budget() == 1


def test_thread_budget_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("TORUS_CENSUS_THREADS", "abc")
    code, out, err = run(capsys, "check", "--polygon", SQUARE)
    assert code == 1
    assert err.strip() == "TORUS_CENSUS_THREADS must be an integer, got 'abc'"


def test_large_thread_budget_still_runs(capsys, monkeypatch):
    monkeypatch.setenv("TORUS_CENSUS_THREADS", "500")
    code, out, err = run(capsys, "check", "--polygon", SQUARE, "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True
