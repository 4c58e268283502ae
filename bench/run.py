"""The census benchmark: time to a correct census, end to end and per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload rational_fold --seed 0 --seconds 30 --trace 0

The benchmark imports ``torus_census`` from ``src/`` and sends the
workload's requests (see ``workloads.py``) one at a time through the CLI
entry point ``torus_census.cli.main`` in this process, with stdout
captured: a closed loop with one client, no threads, each request sent
when the previous one has completed.  One pass sends every request once;
passes repeat until ``--seconds`` have gone by, and at least
``MIN_PASSES`` of them run.  Every answer is checked (``checks.py``).

Every time is reported at the reference speed.  The machine's speed can
drift with other load on the host (on a shared 2-vCPU x86-64 virtual
machine, by 20% and more within seconds), which no amount of work in one
run averages out.  So a burst of a fixed exact-arithmetic loop runs
between requests, at most ``SEGMENT_S`` of requests apart, and each
request's time is multiplied by ``REFERENCE_S`` over the median loop time
of the two bursts around it; each set-up repeat gets the same treatment.
The loop is benchmark code that no change to the program touches, so the
correction leaves program speed-ups and slow-downs visible; the raw
seconds and the speed factors go to the result file.  A loop running on
the other CPU at the same time does not track this drift, so the bursts
run in this process, between the requests.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median over passes of the seconds one pass takes, the sum
  of its request latencies (the bursts between requests are left out);
- ``latency_p50_s``: median seconds per request, from ``main()`` entry to
  the captured output;
- ``latency_tail_s``: the latency at the percentile printed beside it, the
  highest whole percentile that leaves at least ten samples beyond it in
  ``MIN_PASSES`` passes (so it does not move with the number of passes);
- ``peak_rss_mib``: peak resident memory of the process, read before the
  answers are checked;
- ``setup_s``: median over ``SETUP_REPEATS`` of importing ``torus_census``,
  building the CLI parser and generating the workload, each repeat between
  two bursts.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` as medians over traced passes, plus
``trace.overhead_frac``, the traced over the untraced median pass time,
minus 1.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A request fails on an exception, a nonzero
exit code, an answer that fails a check, or an answer that differs from
the first pass's answer to the same request; ``failed / attempted`` is the
error rate, also printed above that line.  A result file with the machine,
the Python version and per-request answers goes to ``.bench_out/``, with
the spans of the first traced pass beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "torus_census"

MIN_PASSES = 4
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 30
TAIL_BEYOND = 10
# Median seconds of one reference loop on an unloaded 2.1 GHz x86-64 core
# under CPython 3.11: the speed every reported time is scaled to.
REFERENCE_S = 0.0028
REFERENCE_BURST = 10
# Requests closer together than this share the bursts around them.
SEGMENT_S = 0.25


def set_up(workload: str, seed: int):
    """Import the package afresh, build the CLI parser, generate the requests."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    # Collect the previous import's garbage now, not inside the timing.
    gc.collect()
    start = perf_counter()
    cli = importlib.import_module(PACKAGE + ".cli")
    cli.build_parser()
    requests = workloads.generate(workload, seed)
    return perf_counter() - start, cli, requests


def reference_burst() -> list[float]:
    """Seconds of ``REFERENCE_BURST`` runs of a fixed loop of Fraction sums,
    the kind of interpreter work the census does."""
    samples = []
    for _ in range(REFERENCE_BURST):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 1000):
            total += Fraction(1, i)
        samples.append(perf_counter() - start)
    return samples


class Reference:
    """Reference bursts; each closes one segment of measured work and opens
    the next, and a segment's slowdown comes from the bursts on both sides."""

    def __init__(self) -> None:
        self.burst = reference_burst()
        self.since = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.since >= SEGMENT_S

    def close(self) -> float:
        """How much slower than the reference speed the machine ran."""
        before, self.burst = self.burst, reference_burst()
        self.since = perf_counter()
        return statistics.median(before + self.burst) / REFERENCE_S


def send(cli, request: dict, recorder=None) -> dict:
    """One request through ``cli.main``; its exit code, output and latency."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if recorder is None:
                code = cli.main(request["argv"])
            else:
                with recorder.span(spans.CLI_SPAN):
                    code = cli.main(request["argv"])
        text = out.getvalue()
    except Exception as exc:  # the benchmark counts a crash as a failed request
        code, text, error = None, out.getvalue(), repr(exc)
    latency = perf_counter() - start
    return {"code": code, "text": text, "stderr": err.getvalue(), "error": error, "latency": latency}


def run_pass(
    cli, requests: list[dict], recorder=None, keep_text: bool = False, reference=None
) -> dict:
    """Send every request once, with ``reference`` bursts in between.

    Each reply gets the slowdown of its segment.  ``wall`` is the summed
    latency and ``scaled`` the summed latency at the reference speed.
    Outputs are reduced to their digest and size after the pass, so that
    memory does not grow with the pass count; ``keep_text`` keeps them too,
    for the full checks."""
    reference = reference or Reference()
    replies, segment = [], []
    for index, request in enumerate(requests):
        if recorder is not None:
            recorder.begin_request(index)
        reply = send(cli, request, recorder)
        if recorder is not None:
            recorder.end_request()
        replies.append(reply)
        segment.append(reply)
        if reference.due() or index == len(requests) - 1:
            factor = reference.close()
            for done in segment:
                done["slowdown"] = factor
            segment = []
    for reply in replies:
        text = reply["text"] if keep_text else reply.pop("text")
        reply["sha256"] = checks.digest(text)
        reply["bytes"] = len(text.encode("utf-8"))
    wall = sum(reply["latency"] for reply in replies)
    scaled = sum(reply["latency"] / reply["slowdown"] for reply in replies)
    return {"wall": wall, "scaled": scaled, "slowdown": wall / scaled, "replies": replies}


def tail_latency(latencies: list[float], min_samples: int) -> tuple[float, int]:
    """The latency at the highest whole percentile that leaves ``TAIL_BEYOND``
    samples beyond it in ``min_samples`` samples, and that percentile."""
    percentile = max(0, 100 * (min_samples - TAIL_BEYOND) // min_samples)
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], percentile


def score(requests: list[dict], passes: list[dict], sample_seed: str, pins: list | None) -> dict:
    """Check every answer; the first pass in full, later ones against it."""
    first = passes[0]["replies"]
    problems: dict[int, list[str]] = {}
    for index, (request, reply) in enumerate(zip(requests, first)):
        if reply["error"] is not None or reply["code"] != 0:
            found = [f"exit {reply['code']}: {reply['error'] or reply['stderr'].strip()}"]
        elif pins is not None and len(pins) != len(requests):
            found = [f"pins.json holds {len(pins)} answers for {len(requests)} requests"]
        else:
            pin = pins[index] if pins is not None else None
            found = checks.check(request, reply["text"], f"{sample_seed}:{index}", pin)
        if found:
            problems[index] = found
    expected = [reply["sha256"] for reply in first]
    failed = 0
    for run in passes:
        for index, reply in enumerate(run["replies"]):
            if index in problems or reply["code"] != 0:
                failed += 1
            elif reply["sha256"] != expected[index]:
                failed += 1
                problems.setdefault(index, []).append("answer differs between passes")
    return {
        "attempted": len(requests) * len(passes),
        "failed": failed,
        "problems": problems,
        "sha256": expected,
    }


def measure_setup(workload: str, seed: int):
    """``SETUP_REPEATS`` set-ups, each between two reference bursts; their
    raw seconds and slowdowns, and the last set-up's CLI and requests."""
    reference = Reference()
    times, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, requests = set_up(workload, seed)
        times.append(elapsed)
        slowdowns.append(reference.close())
    return times, slowdowns, cli, requests


def measure(cli, requests: list[dict], seconds: float, trace: bool):
    """Untraced passes, and with ``trace`` traced ones in between, for ``seconds``."""
    deadline = perf_counter() + seconds
    plain, traced, layers, kept_spans = [], [], [], None
    reference = Reference()
    while True:
        plain.append(run_pass(cli, requests, keep_text=not plain, reference=reference))
        if trace:
            recorder = spans.Recorder()
            with spans.instrument(recorder):
                run = run_pass(cli, requests, recorder, reference=reference)
            traced.append(run)
            output_bytes = sum(r["bytes"] for r in run["replies"])
            values = spans.pass_metrics(recorder, output_bytes)
            for name, unit in spans.METRICS.items():
                if unit == "s":
                    values[name] /= run["slowdown"]
            layers.append(values)
            if kept_spans is None:
                kept_spans = recorder.spans
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(plain) >= MIN_PASSES
        if enough and perf_counter() >= deadline:
            return plain, traced, layers, kept_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / PACKAGE / "cli.py").is_file():
        print(f"no {PACKAGE} sources under {SOURCE}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SOURCE))
    setups, setup_slowdowns, cli, requests = measure_setup(args.workload, args.seed)
    if Path(cli.__file__).resolve().parent != SOURCE / PACKAGE:
        print(f"{PACKAGE} was imported from {cli.__file__}, not {SOURCE}", file=sys.stderr)
        return 1
    plain, traced, layers, kept_spans = measure(cli, requests, args.seconds, bool(args.trace))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pins = checks.load_pins().get(args.workload, {}).get(str(args.seed))
    check_start = perf_counter()
    result = score(requests, plain + traced, f"{args.workload}:{args.seed}", pins)
    check_s = perf_counter() - check_start
    latencies = [r["latency"] / r["slowdown"] for run in plain for r in run["replies"]]
    tail, percentile = tail_latency(latencies, MIN_PASSES * len(requests))
    wall_s = statistics.median(run["scaled"] for run in plain)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(t / f for t, f in zip(setups, setup_slowdowns)), "s"),
    }
    raw_latencies = [r["latency"] for run in plain for r in run["replies"]]
    raw = {
        "wall_s": statistics.median(run["wall"] for run in plain),
        "latency_p50_s": statistics.median(raw_latencies),
        "latency_tail_s": tail_latency(raw_latencies, MIN_PASSES * len(requests))[0],
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        per_layer = {
            name: (statistics.median_low(values[name] for values in layers), unit)
            for name, unit in spans.METRICS.items()
            if name != "trace.overhead_frac"
        }
        traced_wall = statistics.median(run["scaled"] for run in traced)
        per_layer["trace.overhead_frac"] = (traced_wall / wall_s - 1, "ratio")
        reported = per_layer
    else:
        reported = end_to_end

    error_rate = result["failed"] / result["attempted"]
    for index, found in sorted(result["problems"].items()):
        print(f"request {index} ({requests[index]['verb']}): {'; '.join(found[:5])}")
    for name, (value, unit) in end_to_end.items():
        measured = f" (measured {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{name} = {value:.6g} {unit}{measured}")
    speeds = [run["slowdown"] for run in plain + traced]
    print(f"slowdown against the reference speed: {min(speeds):.3g} to {max(speeds):.3g}")
    print(
        f"latency_tail_s is p{percentile} of {len(latencies)} samples; "
        f"{len(plain)} untraced and {len(traced)} traced passes of {len(requests)} requests"
    )
    print(
        f"error_rate = {error_rate:.6g} ({result['failed']} of {result['attempted']}); "
        f"answers checked in {check_s:.3g} s"
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    first = plain[0]["replies"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version,
        "machine": platform.platform(),
        "processor": platform.machine(),
        "nproc": os.cpu_count(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "latency_tail": {"percentile": percentile, "samples": len(latencies)},
        "error_rate": error_rate,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **reported}.items()},
        "measured_s": raw,
        "slowdown": {"setup": setup_slowdowns, "passes": speeds},
        "requests": [
            {
                "argv": request["argv"],
                "summary": checks.summary(request, reply["text"]),
                "sha256": digest,
                "measured_latency_s": [run["replies"][i]["latency"] for run in plain],
                "slowdown": [run["replies"][i]["slowdown"] for run in plain],
                "problems": result["problems"].get(i, []),
            }
            for i, (request, reply, digest) in enumerate(zip(requests, first, result["sha256"]))
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if kept_spans is not None:
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": kept_spans}, handle)

    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
