"""Every key the census keeps is the exhaustive search's least serialization.

`_expand` is hooked, as in `test_dh_oracle.py`, to collect every entry a
stage keeps: the census's key and the graph as built, in the census's
scaled units.  The key must equal `key_oracle.least_serialization` of the
graph, which permutes every class of like vertices with edges in both
reflections and shares none of the shortcuts of `circle_graph._key`.
Three corpora: the golden recipes, a seeded fuzz over all three bases,
and the square-base genus-0 recipes with three or more equal capacities,
the only census inputs seen to reach `circle_graph._refined`.
"""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from key_oracle import least_serialization
from test_dh_oracle import _fuzz_recipes
from torus_census import census
from torus_census import circle_graph as cg
from torus_census.census import ManifoldSpec, run_census, spec_from_json

GOLDEN = json.loads((Path(__file__).parent / "census_golden.json").read_text())


def _key_mismatches(monkeypatch, specs):
    """(spec, key) for each kept graph whose key is not the oracle's; the
    number of keys checked; and the number of `_refined` calls made."""
    kept = []
    expand = census._expand

    def recording_expand(*args, **kwargs):
        stage = expand(*args, **kwargs)
        kept.extend((key, entry[0]) for key, entry in stage.items() if type(entry[0]) is cg.S1Graph)
        return stage

    refined = [0]
    refine = cg._refined

    def counted_refined(*args):
        refined[0] += 1
        return refine(*args)

    monkeypatch.setattr(census, "_expand", recording_expand)
    monkeypatch.setattr(cg, "_refined", counted_refined)
    mismatches, checked = [], 0
    for spec in specs:
        kept.clear()
        run_census(spec)
        for key, graph in kept:
            if key != least_serialization(graph):
                mismatches.append((spec, key))
        checked += len(kept)
    return mismatches, checked, refined[0]


def test_golden_census_keys_match_the_search(monkeypatch):
    specs = [spec_from_json(row["spec"]) for row in GOLDEN]
    mismatches, checked, _ = _key_mismatches(monkeypatch, specs)
    assert len(specs) == 13
    assert mismatches == []
    assert checked > 1500


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_census_keys_match_the_search(monkeypatch, seed):
    specs = _fuzz_recipes(seed, 30)
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
