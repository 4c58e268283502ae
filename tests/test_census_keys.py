"""Every graph the census builds is keyed to the exhaustive search's least
serialization.

The census's table builders are hooked, as in `test_dh_oracle.py`, to
collect every table the census builds, in the census's scaled units: the
ones it keys and keeps, and the last-stage blow-ups it drops unkeyed for
extending to a toric action.  `circle_graph._key` of each table must
equal `key_oracle.least_serialization` of its graph, which permutes every
class of like vertices with edges in both reflections and shares none of
the shortcuts of `circle_graph._key`.
Three corpora: the golden recipes with the genus-0 recipes of the
reference census in `test_census.py`, a seeded fuzz over all three bases,
and the square-base genus-0 recipes with three or more equal capacities,
the only census inputs seen to reach `circle_graph._refined`.
"""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from key_oracle import least_serialization
from test_census import _oracle_recipes
from test_dh_oracle import _fuzz_recipes, hook_census_builds
from torus_census import census
from torus_census import circle_graph as cg
from torus_census.census import ManifoldSpec, spec_from_json

GOLDEN = json.loads((Path(__file__).parent / "census_golden.json").read_text())


def _key_mismatches(monkeypatch, specs):
    """(spec, key) for each built table whose key is not the oracle's; the
    number of keys checked; and the number of `_refined` calls made in
    keying them."""
    run = hook_census_builds(monkeypatch)
    refined = [0]
    refine = cg._refined

    def counted_refined(*args):
        refined[0] += 1
        return refine(*args)

    mismatches, checked = [], 0
    for spec in specs:
        _, built = run(spec)
        monkeypatch.setattr(cg, "_refined", counted_refined)
        for graph, _, table in built:
            key = cg._key(table)
            if key != least_serialization(graph):
                mismatches.append((spec, key))
        monkeypatch.setattr(cg, "_refined", refine)
        checked += len(built)
    return mismatches, checked, refined[0]


def test_golden_census_keys_match_the_search(monkeypatch):
    specs = [spec_from_json(row["spec"]) for row in GOLDEN]
    assert len(specs) == 13
    mismatches, checked, _ = _key_mismatches(monkeypatch, specs + _oracle_recipes())
    assert mismatches == []
    assert checked > 1500


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_census_keys_match_the_search(monkeypatch, seed):
    specs = _fuzz_recipes(seed, 100)
    assert {spec.base for spec in specs} == set(census.BASE_KINDS)
    mismatches, checked, _ = _key_mismatches(monkeypatch, specs)
    assert mismatches == []
    assert checked > 4000


def test_square_base_census_keys_match_the_search_through_refinement(monkeypatch):
    # product_ruled genus 0 with mu = fiber = 1: the base is a square, and
    # three or more equal capacities leave like Z_k-linked vertices.
    specs = [
        ManifoldSpec("product_ruled", 0, Q(1), Q(1), (cap,) * count)
        for cap in (Q(1, 4), Q(1, 5), Q(1, 6), Q(1, 7), Q(1, 8), Q(2, 7), Q(2, 9))
        for count in (3, 4, 5, 6)
    ]
    mismatches, checked, refined = _key_mismatches(monkeypatch, specs)
    assert mismatches == []
    assert checked > 700
    assert refined > 250
