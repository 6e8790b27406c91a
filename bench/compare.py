"""Compare two result sets, parent and change, metric by metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Reads files written by ``collect.py`` and, for every
workload and end-to-end metric in BENCHMARK.json, prints each side's median
and quartiles, the fraction of pairs the change won, and one verdict:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ by more than the
  parent's own quartile distance;
- unresolved: the run-to-run spread (quartile distance over median, on
  either side) is wider than the metric's bound, and not every run of the
  change reads better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

Runs pair by workload and seed; a seed that appears twice in one file, or
in only one of the two, is an error (exit 2). Exits 1 if any verdict is
worse or any run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class PairingError(ValueError):
    """The two files do not hold one run per workload and seed each."""


def load(path) -> dict:
    """(workload, seed) -> result."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                key = (row["workload"], row["seed"])
                if key in runs:
                    raise PairingError(f"{path}: {key[0]} seed {key[1]} appears twice")
                runs[key] = row["result"]
    return runs


def pair(parent_runs: dict, change_runs: dict, workload: str) -> list[tuple]:
    """(parent result, change result) per seed of the workload."""
    seeds = {s for w, s in parent_runs if w == workload}
    other = {s for w, s in change_runs if w == workload}
    if seeds != other:
        raise PairingError(f"{workload}: seeds {sorted(seeds ^ other)} are in only one file")
    return [(parent_runs[workload, s], change_runs[workload, s]) for s in sorted(seeds)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, bound, lower_is_better) -> tuple[str, float]:
    """(verdict, fraction of pairs won by the change)."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum((c - p) * sign < 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    gain = (p_med - c_med) * sign
    if len(pairs) >= 10 and won >= 0.9 and gain > p_q3 - p_q1:
        return "improved", won
    all_better = (max(change) < min(parent)) if lower_is_better else (min(change) > max(parent))
    if spread > bound and not all_better:
        return "unresolved", won
    if -gain > bound * abs(p_med):
        return "worse", won
    return "unchanged", won


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        parent_runs, change_runs = load(argv[0]), load(argv[1])
        paired = {w["name"]: pair(parent_runs, change_runs, w["name"])
                  for w in spec["workloads"]}
    except PairingError as exc:
        print(exc, file=sys.stderr)
        return 2
    status = 0
    for workload, pairs_of in paired.items():
        if not pairs_of:
            continue
        if any(not r["correct"] for runs in pairs_of for r in runs):
            print(f"{workload}: some runs were incorrect")
            status = 1
        print(f"{workload} ({len(pairs_of)} pairs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in pairs_of]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            result, won = verdict(parent, change, pairs, metric["bound"],
                                  metric["better"] == "lower")
            if result == "worse":
                status = 1
            p_q1, p_q3 = quartiles(parent)
            c_q1, c_q3 = quartiles(change)
            print(f"  {name:12s} {metric['unit']:4s} parent {statistics.median(parent):.4g} "
                  f"[{p_q1:.4g}, {p_q3:.4g}]  change {statistics.median(change):.4g} "
                  f"[{c_q1:.4g}, {c_q3:.4g}]  won {won:.2f}  bound {metric['bound']:g}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
