"""Every graph the census builds passes `validate` and the DH check.

The census builds graph tables by projection, from ruled bases and by
blow-up, through `cg._projected`, `cg._ruled_base` and `cg._blow_up`.
These are hooked to collect every table built, kept or not (the last
stage of a rational base drops the blow-ups that extend to a toric action
before keying them), as its graph (`cg._graph`), with the stage it
belongs to: the number of `census._blow_up_all` calls begun when it was
built, so its manifold is the model's base blown up at the first that
many capacities of the census's reduced form (`census._reduced_form`).
The check runs in the census's scaled units, D = 2 lcd for the lcd of
`integer_area`, where the volume is D^2 times the stage's.  The returned
graphs are checked too, in the recipe's units.
The same passes check the census's two hottest cores against references
that share none of their pruning: every built table's toric verdict
against a scan of every gap's midpoint on its graph
(`_extends_by_component_scan`),
and every polygon `pg._canonical` is given against the least flattened
vertex list over all 2N starts (`_reference_canonical_form`).
Three corpora: the golden recipes, the criterion-03 grid and a seeded
fuzz over all three bases.  A mutation pin shows that the DH check sees
what `validate` does not.
"""

import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from dh_oracle import dh_problems
from test_acceptance import GRID_DELTAS, GRID_KS, OUTSIDE_CONE
from test_circle_graph import _extends_by_component_scan
from test_polygon import _reference_canonical_form
from torus_census import census
from torus_census import circle_graph as cg
from torus_census import polygon as pg
from torus_census.census import ManifoldSpec, run_census, spec_from_json
from torus_census.errors import PreconditionError
from torus_census.homology import Basis, SymplecticData

GOLDEN = json.loads((Path(__file__).parent / "census_golden.json").read_text())


def _stage(model, i):
    """The volume of the model's manifold after its first i blow-ups, and
    its Euler number."""
    kind, genus = model.basis.kind, model.basis.genus
    base = 3 if kind == "rational" else 4 - 4 * genus
    caps = model.capacities[:i]
    stage = SymplecticData(Basis(kind, genus, i), caps, model.lam, model.mu, model.fiber)
    return stage.volume_quantity() / 2, base + i


def hook_census_builds(monkeypatch):
    """Hook the census's table builders.  Returns run(spec), which runs the
    census and gives its result and a (graph, stage, table) triple for
    every table `cg._blow_up`, `cg._projected` or `cg._ruled_base` built
    for it, in the census's scaled units: the table as built and its graph,
    `cg._graph(table)`, whose vertex ids are the table's positions.  The
    stage is the number of `_blow_up_all` calls begun: 0 for the seeds, i
    for stage i's blow-ups and the projections of stage i's polygons."""
    built, stage = [], [0]
    blow_up_all = census._blow_up_all

    def staged(*args):
        stage[0] += 1
        return blow_up_all(*args)

    monkeypatch.setattr(census, "_blow_up_all", staged)
    for name in ("_blow_up", "_projected", "_ruled_base"):

        def recorded(*args, original=getattr(cg, name)):
            table = original(*args)
            built.append((cg._graph(table), stage[0], table))
            return table

        monkeypatch.setattr(cg, name, recorded)

    def run(spec):
        built.clear()
        stage[0] = 0
        result = run_census(spec)
        return result, list(built)

    return run


def _oracle_failures(monkeypatch, specs):
    """(spec, stage, problems) for each built or returned graph that fails
    `validate` or, when it passes, the DH check, for each built table whose
    toric verdict differs from the reference scan of its graph, and for
    each polygon whose canonical form differs from the reference search;
    and the number of built graphs checked."""
    run = hook_census_builds(monkeypatch)
    canonicalised, canonical = [], pg._canonical
    monkeypatch.setattr(pg, "_canonical", lambda p: canonicalised.append(p) or canonical(p))
    failures, checked = [], 0
    for spec in specs:
        canonicalised.clear()
        result, built = run(spec)
        model = census._reduced_form(spec)
        scale = 2 * model.integer_area[1]
        for graph, i, table in built:
            volume, euler = _stage(model, i)
            problems = cg.validate(graph)[1] or dh_problems(graph, volume * scale**2, euler)
            if problems:
                failures.append((spec, i, problems))
            elif cg._extends_to_toric(table) != _extends_by_component_scan(graph):
                failures.append((spec, i, ("toric verdict differs from the scan",)))
        for polygon in canonicalised:
            form, matrix, _ = canonical(polygon)
            if (form.vertices, matrix) != _reference_canonical_form(polygon)[:2]:
                failures.append((spec, "canonical", polygon.vertices))
        for graph in result.maximal_circles:
            volume, euler = _stage(model, spec.blowups)
            problems = cg.validate(graph)[1] or dh_problems(graph, volume, euler)
            if problems:
                failures.append((spec, "result", problems))
        checked += len(built)
    return failures, checked


def _fuzz_recipes(seed, count):
    """In-cone recipes over all three bases, genus 0-2 and 0-4 capacities."""
    rng = random.Random(seed)
    pool = [Q(1, q) for q in range(2, 9)] + [Q(2, 5), Q(3, 8), Q(2, 7)]
    recipes = []
    while len(recipes) < count:
        caps = sorted((rng.choice(pool) for _ in range(rng.randint(0, 4))), reverse=True)
        kind = rng.choice(census.BASE_KINDS)
        genus = 0 if kind == census.CP2 else rng.randint(0, 2)
        areas = (Q(1), Q(3, 4)) if kind == census.CP2 else (Q(1, 2), Q(1))
        areas += (Q(3, 2), Q(2))
        area = rng.choice(areas)
        try:
            spec = ManifoldSpec(kind, genus, area, Q(1), tuple(caps))
            census._reduced_form(spec)
        except PreconditionError:
            continue
        recipes.append(spec)
    return recipes


def test_dh_and_validate_hold_on_every_graph_the_golden_censuses_keep(monkeypatch):
    specs = [spec_from_json(row["spec"]) for row in GOLDEN]
    failures, checked = _oracle_failures(monkeypatch, specs)
    assert failures == []
    assert checked > 900


def test_dh_and_validate_hold_on_every_graph_the_grid_censuses_keep(monkeypatch):
    specs = [
        ManifoldSpec("cp2", 0, Q(1), Q(1), (delta,) * k)
        for k in GRID_KS
        for delta in GRID_DELTAS
        if (k, delta) not in OUTSIDE_CONE
    ]
    failures, checked = _oracle_failures(monkeypatch, specs)
    assert len(specs) == 24
    assert failures == []
    assert checked > 150


@pytest.mark.parametrize("seed", [0, 1])
def test_dh_and_validate_hold_on_every_graph_seeded_censuses_keep(monkeypatch, seed):
    specs = _fuzz_recipes(seed, 30)
    assert {spec.base for spec in specs} == set(census.BASE_KINDS)
    assert {spec.genus for spec in specs} == {0, 1, 2}
    failures, checked = _oracle_failures(monkeypatch, specs)
    assert failures == []
    assert checked > 2000


def test_dh_flags_every_shifted_point_that_validate_accepts():
    # One isolated point of a maximal graph moved by +-1/1000: the local
    # axioms still hold, the areas no longer add up.
    spec = ManifoldSpec("product_ruled", 1, Q(2), Q(1), (Q(1, 3), Q(1, 4), Q(1, 5)))
    result = run_census(spec)
    volume, euler = _stage(census._reduced_form(spec), spec.blowups)
    assert len(result.maximal_circles) == 33
    shifted = []
    for graph in result.maximal_circles:
        assert dh_problems(graph, volume, euler) == []
        for vertex in graph.vertices:
            if vertex.is_surface:
                continue
            for step in (Q(1, 1000), Q(-1, 1000)):
                moved = cg.isolated(vertex.id, vertex.moment + step, vertex.weights)
                others = tuple(v for v in graph.vertices if v.id != vertex.id)
                shifted.append(cg.S1Graph(others + (moved,), graph.edges))
    assert len(shifted) == 198
    assert all(cg.validate(graph) == (True, ()) for graph in shifted)
    assert all(dh_problems(graph, volume, euler) for graph in shifted)
