"""Command-line front end: golden outputs, exit codes, round trips.

Golden text blocks were produced by running the tool and reviewing the
output by eye; they pin byte-for-byte behavior of the table and JSON
formats.  Larger JSON payloads are re-parsed and checked field by field.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import torus_census
from torus_census import census as cs
from torus_census import circle_graph as cg
from torus_census import cli, render
from torus_census import homology as hm
from torus_census import polygon as pg
from torus_census.cli import main
from torus_census.errors import PreconditionError

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



def _crowd_graph(pairs):
    """Surfaces at 0 and 10, five (1,-1) points at 1, Z_2-linked pairs."""
    vertices = [
        {"id": 0, "moment": "0", "surface": {"genus": 0, "area": "1"}},
        {"id": 1, "moment": "10", "surface": {"genus": 0, "area": "1"}},
    ]
    vertices += [{"id": 2 + i, "moment": "1", "weights": [1, -1]} for i in range(5)]
    edges = []
    for i in range(pairs):
        south, north = 7 + 2 * i, 8 + 2 * i
        vertices.append({"id": south, "moment": "3", "weights": [2, -1]})
        vertices.append({"id": north, "moment": "5", "weights": [1, -2]})
        edges.append({"north": north, "south": south, "k": 2})
    return json.dumps({"vertices": vertices, "edges": edges})


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


def test_chains_answer_past_eight_blowups_and_on_a_negative_section(capsys):
    # A blow-down to nine blow-ups, and a genus-1 chain whose twisted
    # terminal has a section of negative area.
    ten_caps = ["12/25", "12/25", "1/20", "1/21", "1/22", "1/23"] + ["1/24"] * 4
    genus_one = ["9/10", "13/15", "23/30", "27/38", "17/30", "5/13"]
    for base, caps, first, terminal in (
        ({"kind": "cp2", "lambda": "1"}, ten_caps,
         "stage 1: blow down L - E1 - E2 (area 1/25)", "product ruled surface"),
        ({"kind": "product_ruled", "mu": "5/3", "genus": 1}, genus_one,
         "stage 1: blow down F - E1 (area 1/10)",
         "twisted ruled surface, genus 1, section area -41/285, fiber area 1"),
    ):
        spec = json.dumps({"base": base, "capacities": caps})
        code, out, err = run(capsys, "chains", "--spec", spec)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[2].strip() == first
        assert lines[-1].strip().startswith("terminal: " + terminal)


def _tied_specs():
    """cp2(1; 2/5 x4), which has 48 chains, and seeded recipes with ties."""
    rng = random.Random(47)
    specs = [{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["2/5"] * 4}]
    for kind, genus in (("cp2", 0), ("product_ruled", 0), ("twisted_ruled", 0), ("product_ruled", 1)):
        for k in (2, 3, 4, 5):
            caps = sorted(rng.choices(("1/3", "2/7", "1/4", "1/5", "2/11"), k=k), key=Fraction)
            base = {"kind": "cp2", "lambda": "1"} if kind == "cp2" else {
                "kind": kind, "genus": genus, "mu": rng.choice(("1", "3/2")), "fiber": "1"
            }
            specs.append({"base": base, "capacities": caps[::-1]})
    return specs


def test_chains_come_from_one_walk(capsys):
    counts = []
    for spec in _tied_specs():
        omega = cs.spec_to_symplectic(cs.spec_from_json(spec))
        text = json.dumps(spec)
        chains = hm.minimal_blowdown_chains(omega)
        code, out, err = run(capsys, "chains", "--spec", text, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["chains"] == [cli._chain_json(c) for c in chains]
        assert payload["canonical"] == payload["chains"][0]
        code, out, err = run(capsys, "chains", "--spec", text)
        assert out == render.chains_table(chains) + "\n"
        counts.append(payload["count"])
    assert counts[0] == 48
    assert sum(count > 1 for count in counts) >= 8


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


# E3 has area 1/3; L - E1 - E2 and L - E1 - E3 have the least area, 1/6.
_UNEQUAL_THREE = '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/2", "1/3", "1/3"]}'


@pytest.mark.parametrize("bound, walks", [("1/4", 2), ("1/3", 1), ("1", 1)])
def test_exceptional_walks_once_from_the_last_capacity_up(capsys, monkeypatch, bound, walks):
    omega = cs.spec_to_symplectic(cs.spec_from_json(json.loads(_UNEQUAL_THREE)))
    minimal = hm.minimal_exceptional_classes(omega)
    candidates = hm.enumerate_exceptional_candidates(omega, Fraction(bound))
    assert minimal.epsilon == Fraction(1, 6) and len(minimal.classes) == 2
    calls = []
    original = hm.enumerate_exceptional_candidates

    def counted(data, area_bound, search_ceiling=hm.DEFAULT_SEARCH_CEILING):
        calls.append(area_bound)
        return original(data, area_bound, search_ceiling)

    monkeypatch.setattr(hm, "enumerate_exceptional_candidates", counted)
    code, out, err = run(capsys, "exceptional", "--spec", _UNEQUAL_THREE, "--bound", bound)
    assert (code, err) == (0, "")
    assert out == render.exceptional_table(omega, minimal, Fraction(bound), candidates) + "\n"
    assert len(calls) == walks
    code, out, err = run(
        capsys, "exceptional", "--spec", _UNEQUAL_THREE, "--bound", bound, "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "epsilon": "1/6",
        "minimal_classes": [hm.class_to_json(c) for c in minimal.classes],
        "bound": bound,
        "candidates": [
            {"class": hm.class_to_json(c), "area": str(hm.area(c, omega))} for c in candidates
        ],
    }
    assert len(calls) == 2 * walks


def test_threshold_on_a_reduced_recipe_with_a_large_first_capacity(capsys):
    spec = '{"base": {"kind": "cp2", "lambda": "11/3"}, "capacities": ["8/3", "2/3"]}'
    code, out, err = run(capsys, "threshold", "--spec", spec, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "value": "1/2",
        "binding": [{"basis": {"kind": "rational", "k": 2}, "coeffs": ["1", "-1", "-1"]}],
    }


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
# The JSON writer against json.dumps(indent=2, sort_keys=True)


_AWKWARD_STRINGS = (
    "", "plain", 'quote"inside', "back\\slash", "tab\tline\nfeed\r",
    "\x00\x1f\x7f", "caf\u00e9", "\u2202\u03c9", "\U0001f600", "</tag>",
)


def _random_value(rng, depth):
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return "".join(rng.choice(_AWKWARD_STRINGS) for _ in range(rng.randrange(3)))
    if kind == 1:
        return rng.choice((0, -1, 7, -(10**20), 2**64, -(2**64) - 1, 3**90))
    if kind == 2:
        return rng.choice((True, False, None, {}, [], ()))
    size = rng.randrange(1, 5)
    items = [_random_value(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    # Keys are drawn unsorted, so the writer has to sort them.
    keys = rng.sample([f"k{i}" for i in range(9)] + list(_AWKWARD_STRINGS), size)
    return dict(zip(keys, items))


def test_json_writer_matches_json_dumps():
    rng = random.Random(8)
    for _ in range(400):
        value = {"payload": _random_value(rng, 0), "b": (), "a": [{}, []]}
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    for scalar in ("", "\u00e9", 0, -5, 2**64, True, False, None):
        assert cli._json_text(scalar) == json.dumps(scalar, indent=2, sort_keys=True)


def census_payload(result: cs.CensusResult) -> dict:
    """The census JSON document as a dict: the reference for `_census_text`."""
    toric_prov = [
        {
            "base": pg.polygon_to_json(p.base),
            "steps": [
                {"delta": cli.format_rational(s.delta), "site": s.site}
                for s in p.steps
            ],
        }
        for p in result.toric_provenance
    ]
    circle_prov = []
    for p in result.circle_provenance:
        entry: dict = {"origin": p.origin, "stage": p.stage}
        if p.degree is not None:
            entry["degree"] = p.degree
        if p.polygon is not None:
            entry["polygon"] = pg.polygon_to_json(p.polygon)
        if p.xi is not None:
            entry["xi"] = list(p.xi)
        entry["steps"] = [
            {"delta": cli.format_rational(s.delta), "site": s.site} for s in p.steps
        ]
        circle_prov.append(entry)
    return {
        "spec": cs.spec_to_json(result.spec),
        "counts": {
            "toric": result.counts.toric_count,
            "maximal_circles": result.counts.maximal_circle_count,
            "total_maximal_tori": result.counts.total_maximal_tori,
        },
        "toric": [pg.polygon_to_json(p) for p in result.toric],
        "maximal_circles": [cg.graph_to_json(g) for g in result.maximal_circles],
        "toric_provenance": toric_prov,
        "circle_provenance": circle_prov,
        "warnings": list(result.warnings),
    }


def _random_recipe(rng):
    """A small seeded recipe: any base kind, genus 0-3, up to four caps.

    Caps up to 2/3 reach the maximal circle actions that a rational base
    gets by projection; a recipe outside the cone raises PreconditionError.
    """
    kind = rng.choice(cs.BASE_KINDS)
    genus = 0 if kind == cs.CP2 else rng.randrange(4)
    area = Fraction(rng.randrange(2, 7), rng.randrange(1, 4))
    caps = [Fraction(rng.randrange(1, 3), rng.randrange(2, 8)) for _ in range(rng.randrange(5))]
    caps.sort(reverse=True)
    return cs.ManifoldSpec(kind, genus, area, Fraction(1), tuple(caps))


def test_census_text_matches_its_payload_on_seeded_recipes():
    rng = random.Random(10)
    seen = set()
    checked = 0
    while checked < 40:
        try:
            spec = _random_recipe(rng)
            result = cs.run_census(spec)
        except PreconditionError:
            continue
        checked += 1
        reference = json.dumps(census_payload(result), indent=2, sort_keys=True)
        assert cli._census_text(result) == reference
        seen.add((spec.base, spec.genus))
        if not result.maximal_circles:
            seen.add("empty frontier")
        if any(p.polygon and p.xi for p in result.circle_provenance):
            seen.add("projection")
        if any(p.degree is not None for p in result.circle_provenance):
            seen.add("ruled base")
        if result.warnings:
            seen.add("warnings")
    kinds = {item[0] for item in seen if isinstance(item, tuple)}
    genera = {item[1] for item in seen if isinstance(item, tuple)}
    assert kinds == set(cs.BASE_KINDS)
    assert genera == {0, 1, 2, 3}
    assert {"empty frontier", "projection", "ruled base", "warnings"} <= seen


def _hand_built_graphs():
    F = cg.FixedComponent
    return [
        # Negative and Fraction moments, a Z_3 and a Z_2 edge.
        cg.S1Graph(
            (
                F(0, Fraction(-7, 3), (1, 3)),
                F(4, Fraction(-1, 3), (3, -2)),
                F(9, -2, (2, -1)),
                F(2, Fraction(5, 2), (-1, -1)),
            ),
            ((4, 0, 3), (2, 9, 2)),
        ),
        # Two surfaces of positive genus and no edges.
        cg.S1Graph(
            (
                F(0, -1, genus=2, area=Fraction(3, 4)),
                F(1, 0, (1, -1)),
                F(7, Fraction(1, 2), genus=0, area=11),
            )
        ),
        # An integer graph, as a census builds before unscaling.
        cg.S1Graph((F(3, 0, (1, 1)), F(5, 4, (-1, -1)))),
        cg.S1Graph(()),
    ]


def test_graph_text_matches_json_text():
    for graph in _hand_built_graphs():
        for indent in ("\n", "\n  ", "\n      "):
            expected = cli._json_text(cg.graph_to_json(graph), indent)
            assert cli._graph_text(graph, indent) == expected


def test_returned_graphs_share_components_and_their_text():
    # The golden genus-2 recipe with 230 maximal circles.
    caps = tuple(Fraction(1, q) for q in (5, 6, 7, 8))
    spec = cs.ManifoldSpec("product_ruled", 2, Fraction(5, 2), Fraction(1), caps)
    result = cs.run_census(spec)
    vertices = [v for g in result.maximal_circles for v in g.vertices]
    values = {(v.id, v.moment, v.weights, v.genus, v.area) for v in vertices}
    assert len({id(v) for v in vertices}) == len(values) < len(vertices)
    assert result.counts.maximal_circle_count == 230
    # One memo over the whole result, at the indent _census_text uses.
    memo = {}
    for graph in result.maximal_circles:
        assert cli._graph_text(graph, "\n    ", memo) == cli._graph_text(graph, "\n    ")
    assert len(memo) == len(values)


def test_provenance_shares_its_steps_and_their_text():
    # One step per (stage, site): every provenance recorded at a stage, toric
    # or circle, shares that stage's steps, so one memo writes each once.
    caps = tuple(Fraction(1, q) for q in (5, 6, 7, 8))
    for spec in (
        cs.ManifoldSpec("product_ruled", 2, Fraction(5, 2), Fraction(1), caps),
        cs.ManifoldSpec("cp2", 0, Fraction(2), Fraction(1), caps),
    ):
        result = cs.run_census(spec)
        provenance = result.toric_provenance + result.circle_provenance
        steps = [s for p in provenance for s in p.steps]
        values = {(i, s) for p in provenance for i, s in enumerate(p.steps)}
        assert len({id(s) for s in steps}) == len(values) < len(steps)
        memo = {}
        for p in provenance:
            payload = [{"delta": cli.format_rational(s.delta), "site": s.site} for s in p.steps]
            text = cli._json_text(payload, "\n      ")
            assert cli._steps_text(p.steps, "\n      ", memo) == text
        assert len(memo) == len(values)


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            cs.ManifoldSpec(
                "product_ruled", 2, Fraction(5, 2), Fraction(1),
                tuple(Fraction(1, q) for q in (5, 6, 7, 8)),
            ),
            "3efe8ee544eeaa4b9a4c6deff4cd7f22ecc52868d416caad28daf1da3a590cdc",
        ),
        (
            cs.ManifoldSpec(
                "cp2", 0, Fraction(1), Fraction(1),
                (Fraction(1, 6), Fraction(2, 13), Fraction(1, 7), Fraction(2, 15)),
            ),
            "846375d39647f4d08c389656d45e3d4cd09fd317cde8fcc3855abc153769db31",
        ),
    ],
)
def test_census_table_checks_each_toric_entry_once(monkeypatch, spec, digest):
    # The table reads each toric entry through the public `pg.invariants`,
    # so each is checked Delzant exactly once, and no other polygon is.  The
    # digest pins the bytes the table printed when it wrote shared steps
    # and spans from memos and read the invariants unchecked.
    result = cs.run_census(spec)
    checked, is_delzant = [], pg.is_delzant
    monkeypatch.setattr(pg, "is_delzant", lambda p: checked.append(p) or is_delzant(p))
    table = render.census_table(result)
    assert hashlib.sha256(table.encode()).hexdigest() == digest
    assert list(map(id, checked)) == list(map(id, result.toric))


def test_help_says_what_each_verb_does(capsys, monkeypatch):
    # argparse wraps the list by the terminal's width: make it wide enough
    # to keep each phrase whole, and read the list as words.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    listing = (
        "check check whether a polygon is Delzant or a circle-action graph is valid",
        "canon canonical form of a polygon or circle-action graph",
        "invariants invariants of a polygon or circle-action graph",
        "blowup equivariant blow-up",
    )
    assert " ".join(listing) in text
    assert "canon a polygon" not in text and "invariants a polygon" not in text


def test_graph_json_refuses_booleans_for_integers(capsys):
    # Python's bools are ints, but JSON true and false are not integers.
    surface = '{"genus": 0, "area": "1"}'
    for vertices in (
        f'[{{"id": false, "moment": "0", "surface": {surface}}}]',
        '[{"id": 0, "moment": "0", "surface": {"genus": true, "area": "1"}}]',
        '[{"id": 0, "moment": "0", "weights": [true, 1]}]',
    ):
        code, out, err = run(capsys, "canon", "--graph", f'{{"vertices": {vertices}}}')
        assert (code, out) == (1, "")
    edge = '{"north": 1, "south": 0, "k": true}'
    graph = TWO_SURFACES.replace('"edges": []', f'"edges": [{edge}]')
    code, out, err = run(capsys, "check", "--graph", graph)
    assert (code, err) == (1, "edge fields must be integers\n")


def test_recipe_json_refuses_a_boolean_genus(capsys):
    spec = '{"base": {"kind": "product_ruled", "genus": true, "mu": "1"}, "capacities": []}'
    code, out, err = run(capsys, "census", "--spec", spec)
    assert (code, out, err) == (1, "", "genus must be an integer\n")
    spec = '{"base": {"kind": "cp2", "genus": true, "lambda": "1"}, "capacities": []}'
    assert run(capsys, "census", "--spec", spec) == (1, "", "genus must be an integer\n")
    with pytest.raises(PreconditionError):
        cs.ManifoldSpec(cs.PRODUCT_RULED, True)


def _recipe(base, capacities='[]'):
    return f'{{"base": {base}, "capacities": {capacities}}}'


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--spec", _recipe('{"kind": "cp2", "lambda": true}')),
        ("census", "--spec", _recipe('{"kind": "product_ruled", "mu": true}')),
        ("census", "--spec", _recipe('{"kind": "twisted_ruled", "mu": "1", "fiber": true}')),
        ("census", "--spec", _recipe('{"kind": "cp2", "lambda": "1"}', '["1/3", true]')),
        ("check", "--graph", TWO_SURFACES.replace('"moment": "1"', '"moment": true')),
        ("check", "--graph", TWO_SURFACES.replace('"area": "1"', '"area": true', 1)),
        ("check", "--polygon", SQUARE.replace('["1","1"]', '[true,"1"]')),
    ],
    ids=["lambda", "mu", "fiber", "capacity", "moment", "area", "point"],
)
def test_json_refuses_booleans_for_rationals(capsys, argv):
    # JSON true would otherwise be the Python int 1.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "expected a rational literal, got bool\n")


def test_closed_stdout_pipe_ends_without_a_traceback():
    # Five capacities print about 360 kB of JSON, more than a pipe holds, so
    # the write meets the closed pipe.
    caps = ", ".join(f'"1/{q}"' for q in range(6, 11))
    spec = f'{{"base": {{"kind": "product_ruled", "genus": 1, "mu": "1"}}, "capacities": [{caps}]}}'
    src = str(Path(torus_census.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "torus_census.cli", "census", "--format", "json", "--spec", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=120)
    assert (first, code, err) == (b"{\n", 1, b"")


def test_reader_closing_after_one_byte_is_exit_one(capsys, monkeypatch):
    # In process, so the handler's own lines run here: a reader thread takes
    # one byte and closes the pipe while the census JSON (about 360 kB, more
    # than a pipe holds) is still being written.
    caps = ", ".join(f'"1/{q}"' for q in range(6, 11))
    spec = f'{{"base": {{"kind": "product_ruled", "genus": 1, "mu": "1"}}, "capacities": [{caps}]}}'
    read_end, write_end = os.pipe()
    first = []

    def reader():
        first.append(os.read(read_end, 1))
        os.close(read_end)

    thread = threading.Thread(target=reader)
    thread.start()
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(["census", "--format", "json", "--spec", spec])
        monkeypatch.undo()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert (first, code, capsys.readouterr().err) == ([b"{"], 1, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # The handler points stdout at devnull through a descriptor of its own,
    # which it closes once stdout holds a copy.
    spec = '{"base": {"kind": "product_ruled", "genus": 1, "mu": "1"}, "capacities": ["1/6"]}'
    before = set(os.listdir("/proc/self/fd"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(["census", "--format", "json", "--spec", spec])
        monkeypatch.undo()
    assert (code, set(os.listdir("/proc/self/fd")) - before) == (1, set())


_RULED_GENUS_ONE = (
    '{"base": {"kind": "product_ruled", "genus": 1, "mu": "1", "fiber": "1"},'
    ' "capacities": ["1/5", "1/7"]}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--polygon", SQUARE),
        ("check", "--graph", TWO_SURFACES),
        ("canon", "--polygon", MOVED_SQUARE),
        ("canon", "--graph", TWO_SURFACES),
        ("invariants", "--polygon", SQUARE),
        ("invariants", "--graph", TWO_SURFACES),
        ("blowup", "--polygon", SQUARE, "--vertex", "0", "--delta", "1/4"),
        ("blowup", "--graph", TWO_SURFACES, "--vertex", "0", "--delta", "1/4"),
        ("blowdown", "--polygon", BLOWN_SQUARE, "--edge", "0"),
        ("project", "--polygon", SQUARE, "--xi", "1,1"),
        ("census", "--spec", PLANE_QUARTER),
        pytest.param(("census", "--spec", _RULED_GENUS_ONE), id="census-genus-one"),
        # asdict(report) keeps the warnings as a tuple, which json writes
        # as a list; a writer without a tuple branch fails here.
        pytest.param(
            ("feasibility", "--spec", PLANE_QUARTER.replace('"1/4"', '"2/5", "2/5"')),
            id="feasibility-warnings-tuple",
        ),
        ("exceptional", "--spec", PLANE_QUARTER),
        ("chains", "--spec", PLANE_QUARTER),
        ("threshold", "--spec", PLANE_QUARTER),
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]),
)
def test_json_output_of_every_verb_is_its_payload(capsys, monkeypatch, argv):
    # Each verb's payload is recorded where it is made: the dict handed to
    # _emit_json, the graph handed to _emit_graph as graph_to_json gives
    # it, or the census result as census_payload gives it.  The graph and
    # census writers build their text without these dicts.
    payloads = []
    emit_json, emit_graph, run_census = cli._emit_json, cli._emit_graph, cs.run_census
    monkeypatch.setattr(
        cli, "_emit_json", lambda payload: (payloads.append(payload), emit_json(payload))
    )
    monkeypatch.setattr(
        cli,
        "_emit_graph",
        lambda graph, fmt: (payloads.append(cg.graph_to_json(graph)), emit_graph(graph, fmt)),
    )
    if argv[0] == "census":

        def census(spec):
            result = run_census(spec)
            payloads.append(census_payload(result))
            return result

        monkeypatch.setattr(cs, "run_census", census)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err, len(payloads)) == (0, "", 1)
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"
    assert json.loads(out) == json.loads(json.dumps(payloads[0]))


def test_one_parser_serves_every_call(capsys, monkeypatch):
    requests = [
        ("census", "--spec", PLANE_QUARTER, "--bogus"),
        ("--help",),
        ("chains", "--help"),
        ("blowdown", "--polygon", SQUARE, "--edge", "1"),
        ("check", "--polygon", SQUARE),
        ("canon", "--graph", TWO_SURFACES, "--format", "json"),
        ("invariants", "--polygon", SQUARE),
        ("blowup", "--polygon", SQUARE, "--vertex", "0", "--delta", "1/4"),
        ("blowdown", "--polygon", BLOWN_SQUARE, "--edge", "0", "--format", "svg"),
        ("project", "--polygon", SQUARE, "--xi", "1,1"),
        ("census", "--spec", PLANE_QUARTER),
        ("feasibility", "--k", "2", "--delta", "1/4", "--format", "json"),
        ("exceptional", "--spec", PLANE_QUARTER, "--bound", "1"),
        ("chains", "--spec", PLANE_QUARTER),
        ("threshold", "--spec", PLANE_QUARTER, "--format", "json"),
    ]

    def outputs():
        seen = []
        for argv in requests:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outputs()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared
    codes = [code for code, _, _ in shared]
    assert codes == [1, "SystemExit 0", "SystemExit 0", 2] + [0] * (len(requests) - 4)


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


def _not_utf8(tmp_path):
    target = tmp_path / "latin1.json"
    target.write_bytes(b'{"base": {"kind": "cp2", "lambda": "1\xe9"}}')
    return ("census", "--spec", str(target))


_LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        # Capacities nested past the decoder's recursion limit.
        (
            "census", "--spec",
            '{"base": {"kind": "cp2", "lambda": "1"}, "capacities": '
            + "[" * 5000 + "]" * 5000 + "}",
        ),
        # A JSON number past the interpreter's digit limit.
        ("census", "--spec", '{"base": {"kind": "cp2", "lambda": ' + _LONG + "}}"),
        # Rational strings past the digit limit, in a recipe, a polygon and an option.
        ("census", "--spec", '{"base": {"kind": "cp2", "lambda": "' + _LONG + '"}}'),
        ("check", "--polygon", SQUARE.replace('"1"', '"' + _LONG + '"', 1)),
        ("blowup", "--polygon", SQUARE, "--vertex", "0", "--delta", _LONG),
        # A path too long for the file system.
        ("check", "--polygon", "x" * 5000),
        _not_utf8,
    ],
    ids=["deep-nesting", "long-number", "long-lambda", "long-coordinate",
         "long-delta", "long-path", "not-utf8"],
)
def test_oversized_or_undecodable_input_is_exit_one(capsys, tmp_path, argv):
    if callable(argv):
        argv = argv(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1, err[:200]


def _cp2_recipe(lam, *capacities):
    return json.dumps({"base": {"kind": "cp2", "lambda": lam}, "capacities": list(capacities)})


@pytest.mark.parametrize(
    "argv",
    [
        # The areas parse, but the toric entries' areas outgrow the limit.
        ("census", "--spec", _cp2_recipe("1" * 4000, "1/2")),
        ("census", "--format", "json", "--spec", _cp2_recipe("1" * 3000, "1/" + "7" * 3000)),
    ],
    ids=["table", "json"],
)
def test_answer_past_the_digit_limit_is_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"answer too long to print: a number has more than {limit} digits\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("blowdown", "--edge", "0"), "blowdown needs --polygon"),
        (("blowdown", "--polygon", SQUARE), "blowdown needs --edge"),
        (("project", "--xi", "1,0"), "project needs --polygon"),
        (("project", "--polygon", SQUARE), "project needs --xi"),
        (("project", "--polygon", SQUARE, "--xi", "1,x"), "direction must be two integers a,b, got '1,x'"),
        (("feasibility",), "feasibility needs --spec, or --k and --delta"),
        (("feasibility", "--k", "3"), "feasibility needs --spec, or --k and --delta"),
        (
            ("check", "--graph", '{"vertices": [{"id": 0, "moment": "0", "surface": {"genus": 0}}]}'),
            "surface data needs genus and area",
        ),
    ],
)
def test_missing_or_malformed_arguments_are_exit_one(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", message + "\n")


@pytest.mark.parametrize("delta", ["0", "-1/4"])
def test_nonpositive_blowup_capacity_is_exit_two(capsys, delta):
    argv = ("blowup", "--polygon", SQUARE, "--vertex", "0", f"--delta={delta}")
    assert run(capsys, *argv) == (2, "", "blow-up capacity must be positive\n")


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
    # A cp2 recipe's genus and fiber are refused as ManifoldSpec refuses them.
    for key, value in (("genus", "2"), ("fiber", '"3"')):
        spec = f'{{"base": {{"kind": "cp2", "lambda": "1", "{key}": {value}}}, "capacities": ["1/4"]}}'
        message = f"a cp2 base has no {key} parameter\n"
        assert run(capsys, "census", "--spec", spec) == (2, "", message)


LONE_SURFACE = '{"vertices": [{"id": 0, "moment": "0", "surface": {"genus": 1, "area": "2"}}]}'
LONE_POINT = '{"vertices": [{"id": 0, "moment": "0", "weights": [1, 1]}]}'


@pytest.mark.parametrize("graph", [LONE_SURFACE, LONE_POINT])
def test_one_level_graph_is_refused(capsys, graph):
    code, out, err = run(capsys, "check", "--graph", graph)
    assert (code, out, err) == (0, "valid circle-action graph: no\n  min moment equals max moment\n", "")
    for argv in (
        ["canon", "--graph", graph],
        ["invariants", "--graph", graph],
        ["invariants", "--graph", graph, "--format", "json"],
        ["blowup", "--graph", graph, "--vertex", "0", "--delta", "1/2"],
    ):
        assert run(capsys, *argv) == (2, "", "graph invalid: min moment equals max moment\n")


def test_recipe_outside_cone_is_exit_two(capsys):
    # L - E1 - E2 has area 1 - 1/2 - 1/2 = 0 although the volume is positive.
    spec = '{"base":{"kind":"cp2","lambda":"1"},"capacities":["1/2","1/2"]}'
    code, out, err = run(capsys, "census", "--spec", spec)
    assert code == 2
    assert out == ""
    assert "outside the symplectic cone" in err


def test_feasibility_refuses_a_recipe_outside_the_cone_first(capsys):
    # The recipe is refused where it is made, before feasibility asks for a
    # cp2 base or equal capacities: S - E1 has area 1/2 - 3/4 < 0 on the
    # product base, and L - E1 - E2 has area 0 on the plane.
    for spec in (
        '{"base":{"kind":"product_ruled","mu":"1/2"},"capacities":["3/4"]}',
        '{"base":{"kind":"cp2","lambda":"1"},"capacities":["3/5","2/5"]}',
    ):
        code, out, err = run(capsys, "feasibility", "--spec", spec)
        assert (code, out) == (2, "")
        assert err.startswith("recipe outside the symplectic cone"), err


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


@pytest.mark.parametrize("verb", ["exceptional", "chains", "threshold"])
@pytest.mark.parametrize(
    "spec",
    [
        # L - E1 - E2 has area 0.
        '{"base":{"kind":"cp2","lambda":"1"},"capacities":["1/2","1/2"]}',
        # S - E1 has area 1/2 - 3/4 < 0.
        '{"base":{"kind":"product_ruled","mu":"1/2"},"capacities":["3/4"]}',
    ],
)
def test_homology_verbs_refuse_recipes_outside_cone(capsys, verb, spec):
    code, out, err = run(capsys, verb, "--spec", spec)
    assert code == 2
    assert out == ""
    assert "outside the symplectic cone" in err


def test_canon_graph_with_interchangeable_edgeless_points(capsys):
    graph = _crowd_graph(pairs=1)
    code, out, err = run(capsys, "check", "--graph", graph)
    assert code == 0
    code, out, err = run(capsys, "canon", "--graph", graph, "--format", "json")
    assert code == 0
    assert err == ""
    assert len(json.loads(out)["vertices"]) == 9


def test_canon_graph_with_many_like_linked_pairs(capsys):
    # Ties among vertices with edges are broken exactly, with no search
    # and no refusal, so every relabelling prints the same bytes.
    rng = random.Random(79)
    for pairs in (5, 8):
        code, first, err = run(capsys, "canon", "--graph", _crowd_graph(pairs))
        assert (code, err) == (0, "")
        for _ in range(10):
            payload = json.loads(_crowd_graph(pairs))
            ids = [v["id"] for v in payload["vertices"]]
            relabel = dict(zip(ids, rng.sample(ids, len(ids))))
            for vertex in payload["vertices"]:
                vertex["id"] = relabel[vertex["id"]]
            for edge in payload["edges"]:
                edge["north"], edge["south"] = relabel[edge["north"]], relabel[edge["south"]]
            rng.shuffle(payload["vertices"])
            code, out, err = run(capsys, "canon", "--graph", json.dumps(payload))
            assert (code, out, err) == (0, first, "")


def test_blowup_too_large_is_exit_two(capsys):
    code, out, err = run(
        capsys, "blowup", "--polygon", SQUARE, "--vertex", "0", "--delta", "2"
    )
    assert code == 2
    assert "capacity too large" in err

