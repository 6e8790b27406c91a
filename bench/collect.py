"""Run the benchmark on one or two checkouts and save every result.

    python3 bench/collect.py --out-dir DIR [--seeds 1-10] PARENT [CHANGE]

Runs every workload in BENCHMARK.json with ``--trace 0`` for its
``run_seconds`` and writes ``DIR/parent.jsonl`` (and ``DIR/change.jsonl``),
one line per run: ``{"workload", "seed", "result"}``. Both files are written
afresh. With two checkouts every seed runs once on each, alternating which
side goes first; both must hold the same benchmark files. ``compare.py``
reads the two files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, help="parent checkout [change checkout]")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one or two checkouts")
    roots = [root.resolve() for root in args.roots]
    sides = ["parent", "change"][: len(roots)]
    for root in roots[1:]:
        for file in sorted(BENCH.glob("*.py")):
            other = root / "bench" / file.name
            if not other.is_file() or other.read_bytes() != file.read_bytes():
                parser.error(f"{other} differs from {file}: compare with identical benchmarks")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {side: open(args.out_dir / f"{side}.jsonl", "w") for side in sides}
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for turn, seed in enumerate(args.seeds):
                order = list(zip(sides, roots))
                if turn % 2:
                    order.reverse()
                for side, root in order:
                    result = run_once(root, workload, seed, spec["run_seconds"])
                    line = {"workload": workload, "seed": seed, "result": result}
                    outputs[side].write(json.dumps(line) + "\n")
                    outputs[side].flush()
                    print(side, workload, seed, "correct" if result["correct"] else "INCORRECT",
                          flush=True)
    finally:
        for handle in outputs.values():
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
