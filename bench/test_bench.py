"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from torus_census import cli, homology, linalg  # noqa: E402


class WorkloadTest(unittest.TestCase):
    def test_same_seed_gives_same_requests(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 3), workloads.generate(name, 3))
            self.assertNotEqual(workloads.generate(name, 3), workloads.generate(name, 4))

    def test_lattice_walk_has_at_most_two_equal_caps(self):
        for seed in range(30):
            for request in workloads.generate("lattice_walk", seed):
                ties = Counter(request["recipe"]["capacities"])
                self.assertLessEqual(max(ties.values()), 2)


class SelfTimeTest(unittest.TestCase):
    # cli.main [0, 10] > run_census [1, 9] > canonical_form [2, 4] > edges [2.5, 3]
    #                                      > validate [5, 6]
    TREE = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["census.run_census", 1.0, 9.0, 0, 0],
        ["polygon.canonical_form", 2.0, 4.0, 1, 0],
        ["circle_graph.validate", 5.0, 6.0, 1, 0],
        ["polygon.edges", 2.5, 3.0, 2, 0],
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(spans.self_times(self.TREE), [2.0, 5.0, 1.5, 1.0, 0.5])

    def test_layer_metrics_from_spans(self):
        recorder = spans.Recorder()
        recorder.spans = [list(span) for span in self.TREE]
        values = spans.pass_metrics(recorder, output_bytes=7)
        self.assertEqual(values["cli.self_s"], 2.0)
        self.assertEqual(values["census.self_s"], 5.0)
        self.assertEqual(values["polygon.self_s"], 2.0)
        self.assertEqual(values["polygon.canonical_form.s"], 2.0)
        self.assertEqual(values["circle_graph.validate.s"], 1.0)
        self.assertEqual(values["cli.output_bytes"], 7)

    def test_nested_same_name_counts_once(self):
        tree = [["homology.f", 0.0, 4.0, -1, 0], ["homology.f", 1.0, 2.0, 0, 0]]
        self.assertEqual(spans.inclusive_times(tree)["homology.f"], 4.0)
        self.assertEqual(sum(spans.self_times(tree)), 4.0)

    def test_instrument_wraps_imported_names_and_generators(self):
        original = homology.mat_inverse
        recorder = spans.Recorder()
        with spans.instrument(recorder):
            self.assertIsNot(homology.mat_inverse, original)
            points = list(linalg.enumerate_quadratic_ball([[Q(1), Q(0)], [Q(0), Q(1)]], Q(1)))
        self.assertIs(homology.mat_inverse, original)
        self.assertEqual(len(points), 5)
        self.assertEqual(recorder.counts["linalg.enumerate_quadratic_ball.calls"], 1)
        self.assertEqual(recorder.counts["linalg.enumerate_quadratic_ball.points"], 5)
        # One span per resumption, and ldl_decomposition inside the first one.
        names = [span[0] for span in recorder.spans]
        self.assertEqual(names.count("linalg.enumerate_quadratic_ball"), 6)
        self.assertEqual(names.count("linalg.ldl_decomposition"), 1)

    def test_walk_hit_ratio_counts_only_the_exceptional_walk(self):
        recipe = workloads._cp2(["1/5", "1/7", "1/9"])
        recorder = spans.Recorder()
        with spans.instrument(recorder):
            run.send(cli, workloads._lattice("threshold", recipe), recorder)
            run.send(cli, workloads._lattice("exceptional", recipe, "1"), recorder)
        counts = recorder.counts
        inside = counts["linalg.enumerate_quadratic_ball.exceptional_points"]
        self.assertGreater(inside, 0)
        # The threshold walk yields points outside the exceptional walk.
        self.assertGreater(counts["linalg.enumerate_quadratic_ball.points"], inside)
        values = spans.pass_metrics(recorder, output_bytes=0)
        returned = counts["homology.enumerate_exceptional_candidates.returned"]
        self.assertEqual(values["homology.walk_hit_ratio"], returned / inside)


class ErrorRateTest(unittest.TestCase):
    def setUp(self):
        recipe = workloads._cp2(["1/5", "1/7"])
        self.request = workloads._census(recipe)
        self.good = run.run_pass(cli, [self.request], keep_text=True)
        self.assertEqual(self.good["replies"][0]["code"], 0)

    def corrupted(self) -> dict:
        reply = dict(self.good["replies"][0])
        doc = json.loads(reply["text"])
        doc["counts"]["toric"] += 1
        reply["text"] = json.dumps(doc, indent=2, sort_keys=True)
        reply["sha256"] = checks.digest(reply["text"])
        return {"replies": [reply]}

    def test_correct_answer_passes(self):
        result = run.score([self.request], [self.good], "t", None)
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))

    def test_count_off_by_one_is_an_error(self):
        result = run.score([self.request], [self.corrupted()], "t", None)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_answer_that_changes_between_passes_is_an_error(self):
        result = run.score([self.request], [self.good, self.corrupted()], "t", None)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))

    def test_pinned_answer_must_match(self):
        text = self.good["replies"][0]["text"]
        pin = {"summary": checks.summary(self.request, text), "sha256": "0" * 64}
        result = run.score([self.request], [self.good], "t", [pin])
        self.assertEqual(result["failed"], 1)

    def test_wrong_exceptional_area_is_an_error(self):
        recipe = workloads._cp2(["1/5", "1/7", "1/9", "1/11", "1/13", "1/15"])
        request = workloads._lattice("exceptional", recipe, "1")
        reply = run.send(cli, request)
        self.assertEqual(checks.check(request, reply["text"], "t"), [])
        wrong = reply["text"].replace("(area 1/5)", "(area 1/6)")
        self.assertNotEqual(checks.check(request, wrong, "t"), [])


if __name__ == "__main__":
    unittest.main()
