"""One workload process: set up the inputs, then run a timed or traced pass.

Started by ``run.py`` in a fresh, single-threaded interpreter with ``src`` on
its path. ``setup`` mode stops after set-up; ``timed`` and ``traced`` run one
whole pass, ``traced`` with the layer wrappers installed. Prints one JSON
object as its last line of standard output.

    python3 bench/worker.py --workload NAME --seed N --mode setup|timed|traced
        --work DIR --spawned-at MONOTONIC
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer

# keep every k-th LP for the HiGHS comparison: about 50-250 LPs per workload
CAPTURE_EVERY = {"sharp-fit": 1, "feature-corpus": 50}


def timed_pass(run, inputs):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = run(inputs)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def save_captured(tracer: Tracer, path: Path) -> None:
    arrays = {}
    for i, (problem, status, objective, seconds) in enumerate(tracer.captured):
        arrays[f"c{i}"] = problem.objective
        arrays[f"A{i}"] = problem.lhs
        arrays[f"b{i}"] = problem.rhs
        arrays[f"lo{i}"] = problem.lower
        arrays[f"hi{i}"] = problem.upper
    arrays["status"] = np.array([c[1] for c in tracer.captured], dtype=str)
    arrays["objective"] = np.array([c[2] for c in tracer.captured], dtype=float)
    arrays["seconds"] = np.array([c[3] for c in tracer.captured], dtype=float)
    np.savez(path, **arrays)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    inputs = wl.make_inputs(args.workload, args.seed, args.work)
    run = wl.PASSES[args.workload]
    report = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode == "timed":
        result, wall, cpu = timed_pass(run, inputs)
    elif args.mode == "traced":
        tracer = Tracer(capture_every=CAPTURE_EVERY[args.workload])
        with tracer:
            result, wall, cpu = timed_pass(run, inputs)
        tracer.write_spans(args.work / "spans.jsonl")
        save_captured(tracer, args.work / "lps.npz")
    else:
        result = None

    if result is not None:
        report.update(
            wall_s=wall,
            cpu_s=cpu,
            calls=result.calls,
            failures=[f"{name}: {detail}" for name, detail in result.failures.items()],
            digest=result.digest,
            achieved=result.achieved,
            info=result.info,
        )
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
