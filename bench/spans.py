"""Outside-in spans around the public functions of each census layer.

The program is not changed.  ``instrument`` replaces each traced function,
in every ``torus_census`` module namespace that holds it, with a wrapper
that records a span: its name, start, end, parent span and request.  The
replacement has to happen where the caller looks the name up, because
``circle_graph`` binds ``polygon.edges`` and ``polygon.is_delzant`` and
``homology`` binds the ``linalg`` functions through ``from ... import``.
The generator ``linalg.enumerate_quadratic_ball`` is timed across its
iteration: every resumption is one span, so the time its caller spends
between two points stays with the caller.  Its points are also counted
apart while ``homology.enumerate_exceptional_candidates`` is open, because
the chains and threshold walks draw on the same generator; the walk hit
ratio divides that walk's classes by that walk's points only.

Spans stay in memory until the end of a pass; ``pass_metrics`` turns them
into per-layer calls, inclusive time and self time.  ``rationals`` and
``errors`` run only inside other layers' spans and are not timed apart.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "torus_census"

# The benchmark opens this span around each ``cli.main`` call.
CLI_SPAN = "cli.main"

# Traced functions per layer; None means every public function of the layer.
TRACED = {
    "render": None,
    "census": ("run_census",),
    "polygon": ("blow_up", "canonical_form", "is_delzant", "edges"),
    "circle_graph": (
        "graph_from_polygon",
        "canonical_serialization",
        "canonical_form",
        "validate",
        "blow_up",
        "can_blow_up",
        "extends_to_toric",
    ),
    "homology": (
        "enumerate_exceptional_candidates",
        "minimal_blowdown_chains",
        "canonical_blowdown_chain",
        "min_capacity_threshold",
    ),
    "linalg": ("mat_inverse", "ldl_decomposition", "enumerate_quadratic_ball"),
}
LAYERS = ("cli",) + tuple(TRACED)
GENERATORS = {"linalg.enumerate_quadratic_ball"}
EXCEPTIONAL_WALK = "homology.enumerate_exceptional_candidates"

# Per-layer metrics: name -> unit, in the order they are reported.
METRICS: dict[str, str] = {"cli.self_s": "s", "cli.output_bytes": "bytes"}
METRICS.update({"render.calls": "count", "render.self_s": "s"})
METRICS.update({"census.run_census.calls": "count", "census.self_s": "s"})
for _layer in ("polygon", "circle_graph", "homology", "linalg"):
    for _fn in TRACED[_layer]:
        METRICS[f"{_layer}.{_fn}.calls"] = "count"
        METRICS[f"{_layer}.{_fn}.s"] = "s"
    METRICS[f"{_layer}.self_s"] = "s"
METRICS.update(
    {
        "polygon.blow_up.rejected": "count",
        "polygon.dedup_ratio": "ratio",
        "circle_graph.can_blow_up.infeasible": "count",
        "circle_graph.dedup_ratio": "ratio",
        "homology.walk_hit_ratio": "ratio",
        "linalg.enumerate_quadratic_ball.points": "count",
        "trace.overhead_frac": "ratio",
    }
)


class Recorder:
    """Spans and counters of one traced pass.

    A span is ``[name, start, end, parent, request]``; ``parent`` is the
    index of the enclosing span, or -1.  ``distinct`` collects, per request,
    the keys whose count over calls gives a dedup ratio.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.request = -1
        self.open: Counter = Counter()
        self._stack: list[int] = []

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.open[name] += 1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        return index

    def stop(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.open[self.spans[index][0]] -= 1
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        finally:
            self.stop(index)

    def begin_request(self, request: int) -> None:
        self.request = request

    def end_request(self) -> None:
        for key, seen in self.distinct.items():
            self.counts[key + ".distinct"] += len(seen)
        self.distinct.clear()


def _observe(recorder: Recorder, name: str, result) -> None:
    """Counters that need a traced function's result."""
    if name == "polygon.canonical_form":
        recorder.distinct[name].add(result[0].vertices)
    elif name == "circle_graph.canonical_serialization":
        recorder.distinct[name].add(hash(result))
    elif name == "circle_graph.can_blow_up" and not result[0]:
        recorder.counts[name + ".infeasible"] += 1
    elif name == EXCEPTIONAL_WALK:
        recorder.counts[name + ".returned"] += len(result)


def _wrap(recorder: Recorder, name: str, fn):
    if name in GENERATORS:

        def generator(*args, **kwargs):
            recorder.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                index = recorder.start(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.stop(index)
                recorder.counts[name + ".points"] += 1
                if recorder.open[EXCEPTIONAL_WALK]:
                    recorder.counts[name + ".exceptional_points"] += 1
                yield item

        return functools.wraps(fn)(generator)

    def call(*args, **kwargs):
        recorder.counts[name + ".calls"] += 1
        index = recorder.start(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            recorder.counts[name + ".raised"] += 1
            raise
        finally:
            recorder.stop(index)
        _observe(recorder, name, result)
        return result

    return functools.wraps(fn)(call)


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, type)
    )


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every traced function where its callers look it up; undo on exit."""
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for fn_name in names or _public_functions(module):
            original = getattr(module, fn_name)
            wrappers[id(original)] = _wrap(recorder, f"{layer}.{fn_name}", original)
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, request) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            low = max(child_start, reach)
            high = min(child_end, end)
            if high > low:
                covered += high - low
                reach = high
        result.append(end - start - covered)
    return result


def inclusive_times(spans: list[list]) -> dict[str, float]:
    """Summed duration per span name, counting a nested same-name span once."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, request in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] += end - start
    return totals


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def pass_metrics(recorder: Recorder, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_frac``."""
    spans = recorder.spans
    counts = recorder.counts
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        layer_self[span[0].split(".", 1)[0]] += own
    inclusive = inclusive_times(spans)
    values: dict[str, float] = {
        "cli.output_bytes": output_bytes,
        "render.calls": sum(
            n for key, n in counts.items()
            if key.startswith("render.") and key.endswith(".calls")
        ),
        "census.run_census.calls": counts["census.run_census.calls"],
        "polygon.blow_up.rejected": counts["polygon.blow_up.raised"],
        "polygon.dedup_ratio": _ratio(
            counts["polygon.canonical_form.distinct"],
            counts["polygon.canonical_form.calls"],
        ),
        "circle_graph.can_blow_up.infeasible": counts[
            "circle_graph.can_blow_up.infeasible"
        ],
        "circle_graph.dedup_ratio": _ratio(
            counts["circle_graph.canonical_serialization.distinct"],
            counts["circle_graph.canonical_serialization.calls"],
        ),
        "homology.walk_hit_ratio": _ratio(
            counts[EXCEPTIONAL_WALK + ".returned"],
            counts["linalg.enumerate_quadratic_ball.exceptional_points"],
        ),
        "linalg.enumerate_quadratic_ball.points": counts[
            "linalg.enumerate_quadratic_ball.points"
        ],
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    for metric in METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "calls" and metric not in values:
            values[metric] = counts[metric]
        elif kind == "s":
            values[metric] = inclusive[name]
    return values
