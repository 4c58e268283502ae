"""Differential harness: the same CLI requests through two source trees.

From a seed it builds a corpus of `census`, `chains`, `exceptional`,
`threshold`, `feasibility`, `canon`, `check`, `blowup`, `invariants`,
`blowdown` and `project` requests, runs each through `cli.main` for the
working tree and for `git archive <rev>` unpacked into a temporary
directory, under `python` and `python -O`, and prints, per verb, how many
requests differ in exit code, stdout or stderr, and which.

    python3 tests/differential.py [--rev REV] [--seed N] [--size N]

The exit status is 0 when no request differs.  Recipes cover all three
bases, genus 0-2 and 0-4 capacities, half of them equal, some outside the
symplectic cone; `chains` also runs the recipes of `chains_golden.json`,
and half the `feasibility` requests give `--k` and `--delta` instead.
The verbs that print a polygon or graph (`cli._SVG_VERBS`) draw their
`--format` from table, JSON and SVG, the others from table and JSON; the
corpus ends with one SVG request per other verb, which the CLI refuses with
exit 1 before any work.
Graphs and polygons come from the toric polygons of small censuses, and
their projections, that this tree computes while it builds the corpus.
`canon`, `check`, `invariants` and `blowup` take a graph or a polygon,
`blowdown` and `project` a polygon.  Graphs are relabelled, moved or
spoiled; polygons are moved by an integral affine map, their vertex list
rotated, or spoiled.  `blowup` picks any vertex, extremal or interior, or a polygon
vertex index out of range, and a capacity that may be zero or too large;
`blowdown` picks a -1 edge or any edge index; `project` an edge normal or
a small direction that may not be primitive.  One corpus goes to every
run.  Each run is one child process that imports the package from
the tree under test and reads the corpus on stdin.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from fractions import Fraction as Q
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
VERBS = (
    "census", "chains", "exceptional", "threshold", "feasibility", "canon", "check",
    "blowup", "invariants", "blowdown", "project",
)

SPEC_VERBS = ("census", "chains", "exceptional", "threshold", "feasibility")
# The source of each fixed SVG refusal; the refusal comes before it is read.
REFUSED_RECIPE = json.dumps({"base": {"kind": "cp2", "lambda": "1"}, "capacities": ["1/3"]})
REFUSED_GRAPH = json.dumps({"vertices": [], "edges": []})

POOL = [Q(1, q) for q in range(2, 9)] + [Q(2, 3), Q(2, 5), Q(2, 7), Q(3, 10)]
# Small censuses whose polygons, graphs, and the projections of whose
# polygons feed the polygon and graph verbs.
GRAPH_RECIPES = (
    ("cp2", 0, Q(1), (Q(1, 3), Q(1, 4), Q(1, 5))),
    ("product_ruled", 0, Q(1), (Q(1, 3), Q(1, 5))),
    ("twisted_ruled", 0, Q(3, 2), (Q(1, 3), Q(1, 4))),
    ("product_ruled", 1, Q(1), (Q(1, 3), Q(1, 4), Q(1, 5))),
)


def _text(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _recipe(rng: random.Random, most: int = 4) -> str:
    kind = rng.choice(("cp2", "product_ruled", "twisted_ruled"))
    k = rng.randint(0, most)
    if k and rng.random() < 0.5:
        caps = [rng.choice(POOL)] * k
    else:
        caps = sorted((rng.choice(POOL) for _ in range(k)), reverse=True)
    if kind == "cp2":
        base = {"kind": kind, "lambda": rng.choice(("1", "3/4", "3/2", "2"))}
    else:
        mu = rng.choice(("1/2", "1", "3/2", "2"))
        base = {"kind": kind, "genus": rng.randint(0, 2), "mu": mu}
    return json.dumps({"base": base, "capacities": [_text(c) for c in caps]})


def _pools() -> tuple[list[dict], list[dict]]:
    """Maximal circle graphs and projections of the toric polygons of
    GRAPH_RECIPES, and those polygons, as this tree computes them."""
    from torus_census import circle_graph as cg
    from torus_census import polygon as pg
    from torus_census.census import ManifoldSpec, run_census

    graphs, polygons = [], []
    for kind, genus, area, caps in GRAPH_RECIPES:
        result = run_census(ManifoldSpec(kind, genus, area, Q(1), caps))
        graphs += result.maximal_circles
        polygons += result.toric
        for polygon in result.toric[:4]:
            graphs += [cg.graph_from_polygon(polygon, e.normal) for e in pg.edges(polygon)]
    return [cg.graph_to_json(g) for g in graphs], [pg.polygon_to_json(p) for p in polygons]


def _crowd(pairs: int) -> dict:
    """Surfaces at 0 and 10, five (1,-1) points at 1, Z_2-linked pairs: ties."""
    vertices = [
        {"id": 0, "moment": "0", "surface": {"genus": 0, "area": "1"}},
        {"id": 1, "moment": "10", "surface": {"genus": 0, "area": "1"}},
    ]
    vertices += [{"id": 2 + i, "moment": "1", "weights": [1, -1]} for i in range(5)]
    edges = []
    for i in range(pairs):
        vertices.append({"id": 7 + 2 * i, "moment": "3", "weights": [2, -1]})
        vertices.append({"id": 8 + 2 * i, "moment": "5", "weights": [1, -2]})
        edges.append({"north": 8 + 2 * i, "south": 7 + 2 * i, "k": 2})
    return {"vertices": vertices, "edges": edges}


def _relabelled(rng: random.Random, graph: dict) -> dict:
    """The same graph with fresh ids and shuffled vertex and edge lists."""
    ids = [v["id"] for v in graph["vertices"]]
    fresh = dict(zip(ids, rng.sample(range(100), len(ids))))
    vertices = [dict(v, id=fresh[v["id"]]) for v in graph["vertices"]]
    edges = [
        {"north": fresh[e["north"]], "south": fresh[e["south"]], "k": e["k"]}
        for e in graph["edges"]
    ]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def _moved(rng: random.Random, graph: dict) -> dict:
    shift = Q(rng.randint(-9, 9), rng.randint(1, 5))
    vertices = [dict(v, moment=_text(Q(v["moment"]) + shift)) for v in graph["vertices"]]
    return dict(graph, vertices=vertices)


def _spoiled(rng: random.Random, graph: dict) -> dict:
    """One local change: a point moved by 1/1000, a weight negated, or an
    edge dropped."""
    vertices = [dict(v) for v in graph["vertices"]]
    points = [v for v in vertices if "weights" in v]
    way = rng.choice(("shift", "weight", "edge"))
    if way == "edge" and graph["edges"]:
        edges = list(graph["edges"])
        edges.pop(rng.randrange(len(edges)))
        return {"vertices": vertices, "edges": edges}
    if not points:
        return graph
    point = rng.choice(points)
    if way == "shift":
        point["moment"] = _text(Q(point["moment"]) + rng.choice((Q(1, 1000), Q(-1, 1000))))
    else:
        m, n = point["weights"]
        point["weights"] = [-m, n]
    return {"vertices": vertices, "edges": graph["edges"]}


def _moved_polygon(rng: random.Random, polygon: dict) -> dict:
    """The image under a random unimodular map and translation, its vertex
    list rotated and, where the map reverses orientation, reversed."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    sign = rng.choice((1, -1))
    matrix = rng.choice((((1, a), (0, 1)), ((1, 0), (b, 1)), ((a * b + 1, a), (b, 1))))
    matrix = ((sign * matrix[0][0], sign * matrix[0][1]), matrix[1])
    shift = (Q(rng.randint(-9, 9), rng.randint(1, 5)), Q(rng.randint(-9, 9), rng.randint(1, 5)))
    points = [(Q(x), Q(y)) for x, y in polygon["vertices"]]
    (p, q), (r, t) = matrix
    image = [(p * x + q * y + shift[0], r * x + t * y + shift[1]) for x, y in points]
    if sign < 0:
        image.reverse()
    turn = rng.randrange(len(image))
    image = image[turn:] + image[:turn]
    return {"vertices": [[_text(x), _text(y)] for x, y in image]}


def _spoiled_polygon(rng: random.Random, polygon: dict) -> dict:
    """One vertex moved by 1/1000 along an axis: not Delzant, or not convex."""
    rows = [list(row) for row in polygon["vertices"]]
    row = rng.choice(rows)
    axis = rng.randrange(2)
    row[axis] = _text(Q(row[axis]) + rng.choice((Q(1, 1000), Q(-1, 1000))))
    return {"vertices": rows}


def _polygon_request(rng: random.Random, verb: str, polygons: list[dict]) -> list[str]:
    from torus_census import polygon as pg
    from torus_census.errors import PreconditionError

    polygon = rng.choice(polygons)
    change = rng.choice((None, _moved_polygon, _spoiled_polygon))
    polygon = polygon if change is None else change(rng, polygon)
    argv = [verb, "--polygon", json.dumps(polygon)]
    n = len(polygon["vertices"])
    if verb == "blowup":
        vertex = rng.randint(-1, n) if rng.random() < 0.2 else rng.randrange(n)
        delta = rng.choice(("0", "1/1000", "1/100", "1/30", "1/9", "1"))
        argv += ["--vertex", str(vertex), "--delta", delta]
    elif verb in ("blowdown", "project"):
        try:
            shape = pg.polygon_from_json(polygon)
            minus_one = [
                e.index for e in pg.edges(shape) if pg.self_intersection(shape, e.index) == -1
            ]
            normals = [e.normal for e in pg.edges(shape)]
        except PreconditionError:
            minus_one, normals = [], []
        aimed = rng.random() < 0.5
        if verb == "blowdown":
            edge = rng.choice(minus_one) if aimed and minus_one else rng.randint(-1, n)
            argv += ["--edge", str(edge)]
        else:
            xi = (rng.randint(-2, 2), rng.randint(-2, 2))
            if aimed and normals:
                xi = rng.choice(normals)
            # One token, as a leading minus sign would read as an option.
            argv.append(f"--xi={xi[0]},{xi[1]}")
    return argv


def build_corpus(seed: int, size: int) -> list[list[str]]:
    """size requests, taking the verbs in turn, drawn from seed, then one
    SVG refusal per verb that prints no SVG."""
    from torus_census.cli import _SVG_VERBS

    rng = random.Random(seed)
    golden = json.loads((HERE / "chains_golden.json").read_text())
    graphs, polygons = _pools()
    pool = graphs + [_crowd(pairs) for pairs in range(1, 9)]
    corpus = []
    for i in range(size):
        verb = VERBS[i % len(VERBS)]
        formats = ("table", "json", "svg") if verb in _SVG_VERBS else ("table", "json")
        form = ["--format", rng.choice(formats)]
        if verb == "census":
            argv = [verb, "--spec", _recipe(rng)] + form
        elif verb == "chains":
            if rng.random() < 0.5:
                spec = json.dumps(rng.choice(golden)["spec"])
            else:
                spec = _recipe(rng)
            argv = [verb, "--spec", spec] + form
        elif verb == "exceptional":
            bound = rng.choice(((), ("--bound", "1/2"), ("--bound", "1")))
            argv = [verb, "--spec", _recipe(rng), *bound] + form
        elif verb == "threshold":
            argv = [verb, "--spec", _recipe(rng)] + form
        elif verb == "feasibility":
            if rng.random() < 0.5:
                argv = [verb, "--spec", _recipe(rng)] + form
            else:
                k, delta = rng.randint(0, 5), _text(rng.choice(POOL))
                argv = [verb, "--k", str(k), "--delta", delta] + form
        elif verb in ("blowdown", "project") or rng.random() < 0.5:
            argv = _polygon_request(rng, verb, polygons) + form
        else:
            graph = rng.choice(pool)
            change = rng.choice((None, _relabelled, _moved, _spoiled))
            graph = graph if change is None else change(rng, graph)
            argv = [verb, "--graph", json.dumps(graph)] + form
            if verb == "blowup":
                vertex = rng.choice(graph["vertices"])["id"]
                delta = rng.choice(("1/1000", "1/9", "1/5", "1/3", "1"))
                argv += ["--vertex", str(vertex), "--delta", delta]
        corpus.append(argv)
    for verb in VERBS:
        if verb in _SVG_VERBS:
            continue
        source = ["--spec", REFUSED_RECIPE] if verb in SPEC_VERBS else ["--graph", REFUSED_GRAPH]
        corpus.append([verb, *source, "--format", "svg"])
    return corpus


def _serve(src: str) -> None:
    """Child side: run each request of stdin through src's cli.main."""
    sys.path.insert(0, src)
    from torus_census import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not a module under {src}")
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        results.append([code, digest, err.getvalue()])
    json.dump(results, sys.__stdout__)


def run_corpus(src: Path, corpus: list[list[str]], optimize: bool) -> list[list]:
    """[exit code, stdout sha256, stderr] for each request, run on src."""
    flags = ["-O"] if optimize else []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, *flags, __file__, "--serve", str(src)],
        input=json.dumps(corpus),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def differing(corpus: list[list[str]], left: list, right: list) -> dict[str, list[int]]:
    """Request numbers whose results differ, by verb."""
    found = defaultdict(list)
    for number, (argv, a, b) in enumerate(zip(corpus, left, right)):
        if a != b:
            found[argv[0]].append(number)
    return dict(found)


def _archive(rev: str, into: Path) -> Path:
    """src/ of rev, unpacked under into."""
    blob = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=600, help="number of requests")
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        _serve(args.serve)
        return 0
    sys.path.insert(0, str(REPO / "src"))
    corpus = build_corpus(args.seed, args.size)
    rev = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", args.rev],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    diffs = {}
    with tempfile.TemporaryDirectory() as tmp:
        other = _archive(args.rev, Path(tmp))
        for name, optimize in (("python", False), ("python -O", True)):
            mine = run_corpus(REPO / "src", corpus, optimize)
            theirs = run_corpus(other, corpus, optimize)
            diffs[name] = differing(corpus, mine, theirs)
    print(f"seed {args.seed}, {len(corpus)} requests: working tree against {rev}")
    print(f"{'verb':<12}{'requests':>9}{'python':>9}{'python -O':>11}")
    for verb in VERBS:
        total = sum(argv[0] == verb for argv in corpus)
        counts = [len(diffs[name].get(verb, ())) for name in diffs]
        print(f"{verb:<12}{total:>9}{counts[0]:>9}{counts[1]:>11}")
    for name, found in diffs.items():
        for verb, numbers in found.items():
            print(f"differ under {name}, {verb}: {', '.join(map(str, numbers))}")
    return 1 if any(diffs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
