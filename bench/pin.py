"""Write ``pins.json``: every request's summary and output sha256 per seed.

Usage, from the root of the repository:

    python3 bench/pin.py

Each workload runs one pass per seed 0 .. ``SEEDS`` - 1 (0 is the
benchmark's default seed); every answer must pass the structural checks
before it is pinned.  Re-pin only in a change that alters answers on
purpose, and say which pins moved and why.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

SEEDS = 10


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    pins: dict = {}
    for workload in sorted(workloads.WORKLOADS):
        pins[workload] = {}
        for seed in range(SEEDS):
            _, cli, requests = run.set_up(workload, seed)
            single = run.run_pass(cli, requests, keep_text=True)
            result = run.score(requests, [single], f"{workload}:{seed}", None)
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = [
                {"summary": checks.summary(request, reply["text"]), "sha256": digest}
                for request, reply, digest in zip(requests, single["replies"], result["sha256"])
            ]
            print(f"{workload} seed {seed}: {len(requests)} answers pinned", flush=True)
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
