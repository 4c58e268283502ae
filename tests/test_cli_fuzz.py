"""Seeded random input through every CLI verb: always exit 0, 1 or 2.

Recipes, polygons and graphs are drawn with `random.Random(seed)`, in and
out of the symplectic cone, valid and perturbed (moved vertices, dropped
entries, wrong types, malformed literals).  Whatever the input, `main`
must return 0 (answered), 1 (unparseable input) or 2 (a violated
precondition), never raise.  Sizes stay small: at most three capacities
for the census verbs, and `--bound` at most 3, because the exceptional
walk grows with the cube of the bound.
"""

import json
import random
from fractions import Fraction as Q

import pytest

from polygon_corpus import build_corpus
from torus_census import circle_graph as cg
from torus_census import polygon as pg
from torus_census.cli import main
from torus_census.errors import TorusCensusError

VERBS = (
    "check",
    "canon",
    "invariants",
    "blowup",
    "blowdown",
    "project",
    "census",
    "feasibility",
    "exceptional",
    "chains",
    "threshold",
)
FORMATS = ("table", "json", "svg")
JUNK = ("1.5", "", "-1", "0", "1/0", "x", None, 2, [], {})
CORPUS = build_corpus()


def _rational(rng, top=8):
    return f"{rng.randrange(1, top + 1)}/{rng.randrange(1, top + 1)}"


def _capacity(rng):
    """A capacity below 1, the fiber area of a ruled recipe."""
    den = rng.randrange(2, 10)
    return f"{rng.randrange(1, den)}/{den}"


def _spoil(rng, payload):
    """Replace, drop or retype one field of a JSON object (in place)."""
    key = rng.choice(sorted(payload))
    roll = rng.random()
    if roll < 0.4:
        del payload[key]
    elif roll < 0.8:
        payload[key] = rng.choice(JUNK)
    elif isinstance(payload[key], list) and payload[key]:
        payload[key][rng.randrange(len(payload[key]))] = rng.choice(JUNK)
    return payload


def _recipe(rng, max_caps=3):
    kind = rng.choice(("cp2", "product_ruled", "twisted_ruled"))
    caps = [_capacity(rng) for _ in range(rng.randrange(0, max_caps + 1))]
    if rng.random() < 0.8:
        caps.sort(key=Q, reverse=True)
    if kind == "cp2":
        base = {"kind": kind, "lambda": _rational(rng, 3)}
    else:
        base = {"kind": kind, "mu": _rational(rng, 3)}
        if rng.random() < 0.5:
            base["genus"] = rng.choice((0, 1, 2))
    payload = {"base": base, "capacities": caps}
    if rng.random() < 0.15:
        _spoil(rng, rng.choice((payload, base)))
    return json.dumps(payload)


def _polygon(rng):
    points = [[x, y] for x, y in pg.polygon_to_json(rng.choice(CORPUS))["vertices"]]
    roll = rng.random()
    if roll < 0.2:
        i = rng.randrange(len(points))
        points[i] = [str(Q(points[i][0]) + Q(rng.randrange(-2, 3), 4)), points[i][1]]
    elif roll < 0.3:
        del points[rng.randrange(len(points))]
    elif roll < 0.4:
        points.reverse()
    elif roll < 0.5:
        points.append(list(points[0]))
    elif roll < 0.6:
        points = [[_rational(rng, 4), _rational(rng, 4)] for _ in range(rng.randrange(0, 6))]
    payload = {"vertices": points}
    if rng.random() < 0.1:
        _spoil(rng, payload)
    return json.dumps(payload)


def _graph(rng):
    polygon = rng.choice(CORPUS)
    xi = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)))
    try:
        payload = cg.graph_to_json(cg.graph_from_polygon(polygon, xi))
    except TorusCensusError:
        payload = cg.graph_to_json(cg.graph_from_polygon(polygon, (1, 0)))
    vertices, edges = payload["vertices"], payload["edges"]
    roll = rng.random()
    if roll < 0.15:
        rng.choice(vertices)["moment"] = _rational(rng, 4)
    elif roll < 0.3:
        vertex = rng.choice(vertices)
        if "weights" in vertex:
            vertex["weights"] = [rng.randrange(-3, 4), rng.randrange(-3, 4)]
        else:
            vertex["surface"] = {"genus": rng.randrange(0, 3), "area": _rational(rng, 4)}
    elif roll < 0.4 and edges:
        del edges[rng.randrange(len(edges))]
    elif roll < 0.5:
        ids = [v["id"] for v in vertices]
        edges.append({"north": rng.choice(ids), "south": rng.choice(ids), "k": rng.randrange(0, 4)})
    elif roll < 0.6:
        del vertices[rng.randrange(len(vertices))]
    elif roll < 0.65:
        vertices.append(dict(vertices[0]))
    elif roll < 0.75:
        _spoil(rng, rng.choice(vertices))
    elif roll < 0.8:
        _spoil(rng, payload)
    return json.dumps(payload)


def _subject(rng):
    roll = rng.random()
    if roll < 0.45:
        return ["--polygon", _polygon(rng)]
    if roll < 0.9:
        return ["--graph", _graph(rng)]
    if roll < 0.95:
        return []
    return ["--polygon", _polygon(rng), "--graph", _graph(rng)]


def _argv(rng, verb):
    argv = [verb]
    if rng.random() < 0.9:
        argv += ["--format", rng.choice(FORMATS) if rng.random() < 0.3 else "json"]
    if verb in ("check", "canon", "invariants"):
        argv += _subject(rng)
    elif verb == "blowup":
        argv += _subject(rng)
        argv += ["--vertex", str(rng.randrange(-1, 9)), "--delta", _capacity(rng)]
    elif verb == "blowdown":
        argv += ["--polygon", _polygon(rng), "--edge", str(rng.randrange(-1, 7))]
    elif verb == "project":
        argv += ["--polygon", _polygon(rng)]
        argv.append(f"--xi={rng.randrange(-3, 4)},{rng.randrange(-3, 4)}")
    elif verb == "feasibility" and rng.random() < 0.5:
        argv += ["--k", str(rng.randrange(-1, 5)), "--delta", _capacity(rng)]
        if rng.random() < 0.5:
            argv += ["--lambda", _rational(rng, 3)]
    else:
        max_caps = 3 if verb in ("census", "feasibility") else 4
        argv += ["--spec", _recipe(rng, max_caps)]
        if verb == "exceptional" and rng.random() < 0.5:
            argv += ["--bound", str(Q(rng.randrange(1, 13), 4))]
        if verb == "exceptional" and rng.random() < 0.2:
            argv += ["--ceiling", str(rng.randrange(-1, 4))]
    if rng.random() < 0.03:
        argv.append("--no-such-flag")
    return argv


@pytest.mark.parametrize("seed", range(6))
def test_every_verb_exits_zero_one_or_two(capsys, seed):
    rng = random.Random(seed)
    codes = {}
    for index in range(len(VERBS) * 20):
        verb = VERBS[index % len(VERBS)]
        argv = _argv(rng, verb)
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes.setdefault(verb, set()).add(code)
    # Every verb is reached, and most verbs answer some draws.
    assert set(codes) == set(VERBS)
    assert sum(0 in found for found in codes.values()) >= 8
