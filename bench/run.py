"""Run one ratmin benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh single-threaded
worker processes (``worker.py``) that call only ratmin's public functions.
With ``--trace 0`` it times as many whole passes as fit in ``--seconds``,
each in its own process (median ``wall_s`` and ``cpu_s`` per pass), and
sets up several more times around them (median ``setup_s``). With
``--trace 1`` it times one plain pass and one traced pass and reports the
per-layer numbers. Either way a separate process (``reference.py``) computes
the HiGHS reference the outputs are checked against: a checked fit whose
achieved deviation exceeds the reference by more than its ceiling (in eps)
fails. Metric names and units come from ``BENCHMARK.json``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".bench_state"

# Set-up-only processes before each timed pass and after the last one, so
# that the set-up samples spread over the whole run; within a batch they are
# spaced apart because the shared machine's speed changes in bursts of a few
# seconds, which a set-up of a few tenths of a second would otherwise catch
# whole (on a shared 2-core machine, 1-s spacing took the spread of a
# batch's median from 0.14 to 0.08).
SETUP_BATCH = 4
SETUP_GAP_S = 1.0
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self._spawned = 0

    def python(self, script: str, *args: str) -> str:
        """Run a benchmark script to completion; return its standard output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / script), *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc.stdout

    def worker(self, mode: str) -> dict:
        self._spawned += 1
        work = self.work / f"{mode}{self._spawned}"
        args = ["--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
                "--work", str(work)]
        out = self.python("worker.py", *args, "--spawned-at", repr(time.monotonic()))
        report = json.loads(out.strip().splitlines()[-1])
        report["work"] = work
        return report

    def reference(self) -> dict:
        """Reference deviation per checked fit; depends only on workload and seed."""
        digest = hashlib.sha256()
        for name in ("reference.py", "workloads.py"):
            digest.update((BENCH / name).read_bytes())
        cache = STATE / "cache" / f"ref-{digest.hexdigest()[:16]}-{self.workload}-{self.seed}.json"
        if not cache.exists():
            cache.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.work / "ref.json"
            self.python("reference.py", "z", "--workload", self.workload,
                        "--seed", str(self.seed), "--out", str(tmp))
            os.replace(tmp, cache)
        return json.loads(cache.read_text())

    def highs(self, lps: Path) -> dict:
        out = self.work / "highs.json"
        self.python("reference.py", "highs", "--lps", str(lps), "--out", str(out))
        return json.loads(out.read_text())


def z_excess(reference: dict, achieved: dict) -> dict:
    """(achieved - reference) / eps per checked fit that produced an output."""
    return {key: (achieved[key] - ref["z"]) / ref["eps"]
            for key, ref in reference.items() if key in achieved}


def timed_passes(runner: Runner, seconds: int) -> tuple[list[dict], list[float]]:
    """Whole passes, each in its own process, as many as fit in ``seconds``
    of pass time (at least one), with set-up-only runs around them.

    Returns the pass reports and every set-up time measured.
    """
    def setup_batch():
        for _ in range(SETUP_BATCH):
            setups.append(runner.worker("setup")["setup_s"])
            time.sleep(SETUP_GAP_S)

    passes, setups = [], []
    measured = 0.0
    while True:
        setup_batch()
        report = runner.worker("timed")
        passes.append(report)
        setups.append(report["setup_s"])
        measured += report["wall_s"]
        if measured + report["wall_s"] > seconds:
            break
    setup_batch()
    return passes, setups


def run(spec: dict, workload: str, seed: int, seconds: int, trace: bool):
    """Return (correct, attempted, failed, metrics, notes); ``spec`` is the
    parsed BENCHMARK.json, which lists the metrics to report."""
    work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work)
        if trace:
            plain = runner.worker("timed")
            traced = runner.worker("traced")
            reports = [plain, traced]
        else:
            reports, setups = timed_passes(runner, seconds)
        reference = runner.reference()

        notes = [f"{k}: {v}" for k, v in reports[0]["info"].items()]
        notes += [f"FAILED {f}" for r in reports for f in r["failures"]]
        attempted = sum(r["calls"] for r in reports)
        failed = sum(len(r["failures"]) for r in reports)
        if len({r["digest"] for r in reports}) != 1:
            notes.append("FAILED outputs differ between passes"
                         + (" (traced vs untraced)" if trace else ""))
            failed += 1
        excess = {}
        for r in reports:
            for key, value in z_excess(reference, r["achieved"]).items():
                excess[key] = max(value, excess.get(key, value))
        for key, value in excess.items():
            ceiling = reference[key]["ceiling"]
            if value > ceiling:
                notes.append(f"FAILED {key}: z_excess_eps {value:.4g} > {ceiling:g}")
                failed += 1
        worst = max(excess.values(), default=0.0)
        notes.append(f"z_excess_eps: {worst:.4g}")
        notes.append(f"fail_share: {failed}/{attempted}")
        correct = failed == 0

        if trace:
            metrics = layer_metrics(read_spans(traced["work"] / "spans.jsonl"))
            highs = runner.highs(traced["work"] / "lps.npz")
            metrics["lp_solver.highs_compared"] = highs["compared"]
            metrics["lp_solver.highs_mismatch"] = highs["mismatches"]
            metrics["lp_solver.highs_ratio"] = (
                highs["ratmin_s"] / highs["highs_s"] if highs["highs_s"] > 0 else 0.0)
            metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
            metrics["check.z_excess_eps"] = worst
            if metrics["minimax.fits"] <= 10:
                notes.append("minimax.fit_tail_s omitted (10 fits or fewer): reported as 0")
            listed = spec["per_layer"]
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in reports),
                "cpu_s": statistics.median(r["cpu_s"] for r in reports),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            }
            notes.append(f"passes: {len(reports)}, set-ups: {len(setups)}")
            listed = spec["end_to_end"]
        missing = [m["name"] for m in listed if m["name"] not in metrics]
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
        return correct, attempted, failed, {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        }, notes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (ROOT / "src" / "ratmin" / "__init__.py").is_file():
        print(f"ratmin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        correct, attempted, failed, metrics, notes = run(
            spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
