"""HiGHS side of the benchmark; the only module that imports scipy.

Two commands, each run in its own process after the workload process ends,
so HiGHS never shares a process with a timed pass:

    python3 bench/reference.py z --workload NAME --seed N --out FILE
        Reference deviation for every checked fit: a bisection on probe LPs
        built here (not by ratmin) and solved by scipy's HiGHS. Also the
        fit's eps and its ceiling on (achieved - reference) / eps.
    python3 bench/reference.py highs --lps FILE --out FILE
        Re-solve the LPs a traced run captured; report HiGHS's time and the
        LPs whose status or optimum differs from ratmin's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from scipy.optimize import linprog

import workloads as wl

# The formulation's defaults (BisectionConfig): probe verdict tolerance and
# the denominator floor rule.
FEASIBILITY_TOL = 1e-9
STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
# HiGHS at the formulation's tolerance first; on a numerical failure, its
# defaults and then its interior-point method.
ATTEMPTS = (("highs", {"primal_feasibility_tolerance": FEASIBILITY_TOL}),
            ("highs", None), ("highs-ipm", None))


def highs(c, A, b, bounds):
    for method, options in ATTEMPTS:
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method=method, options=options)
        if res.status in STATUS:
            return res
    raise RuntimeError(f"HiGHS could not solve an LP: {res.message}")


def probe_lp(f, G, H, level, delta, sign):
    """min v s.t. |f den - num| <= level den + v, den >= delta; v >= 0.

    Variables: numerator coefficients, denominator coefficients after the
    leading one (pinned to ``sign``), and v.
    """
    k, m = G.shape[1], H.shape[1] - 1
    h0, h1 = sign * H[:, 0], H[:, 1:]
    lo = np.hstack([-G, (f - level)[:, None] * h1, -np.ones((f.size, 1))])
    hi = np.hstack([G, -(f + level)[:, None] * h1, -np.ones((f.size, 1))])
    pos = np.hstack([np.zeros((f.size, k)), -h1, np.zeros((f.size, 1))])
    A = np.vstack([lo, hi, pos])
    b = np.concatenate([-(f - level) * h0, (f + level) * h0, h0 - delta])
    c = np.zeros(k + m + 1)
    c[-1] = 1.0
    return c, A, b, [(None, None)] * (k + m) + [(0.0, None)]


def feasible_coefficients(f, G, H, level, delta, sign):
    res = highs(*probe_lp(f, G, H, level, delta, sign))
    if res.status != 0 or res.fun > FEASIBILITY_TOL:
        return None
    k = G.shape[1]
    return res.x[:k], np.concatenate([[sign], res.x[k:-1]])


def reference_z(f, G, H, eps) -> float:
    """Smallest deviation achieved by any coefficients the bisection found.

    Starts from level max|f|, which numerator 0 over denominator 1 achieves.
    """
    delta = max(1e-6 * float(np.max(np.abs(f))), 1e-12)
    high = float(np.max(np.abs(f)))
    best = high
    for sign in (1.0, -1.0):
        if feasible_coefficients(f, G, H, high, delta, sign) is not None:
            break
    else:
        return best
    low = 0.0
    while high - low > eps:
        mid = 0.5 * (low + high)
        coeffs = feasible_coefficients(f, G, H, mid, delta, sign)
        if coeffs is None:
            low = mid
            continue
        high = mid
        best = min(best, wl.deviation(f, G, H, *coeffs))
    return best


def highs_compare(lps_path) -> dict:
    data = np.load(lps_path)
    count = data["status"].size
    highs_s, ratmin_s, mismatches = 0.0, 0.0, 0
    for i in range(count):
        bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                  for lo, hi in zip(data[f"lo{i}"], data[f"hi{i}"])]
        start = time.perf_counter()
        res = highs(data[f"c{i}"], data[f"A{i}"], data[f"b{i}"], bounds)
        highs_s += time.perf_counter() - start
        ratmin_s += float(data["seconds"][i])
        status = STATUS[res.status]
        if status != data["status"][i] or (
            status == "optimal" and abs(res.fun - data["objective"][i]) > FEASIBILITY_TOL
        ):
            mismatches += 1
    return {"compared": count, "highs_s": highs_s, "ratmin_s": ratmin_s,
            "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    z = sub.add_parser("z")
    z.add_argument("--workload", required=True, choices=sorted(wl.PASSES))
    z.add_argument("--seed", type=int, required=True)
    z.add_argument("--out", required=True)
    h = sub.add_parser("highs")
    h.add_argument("--lps", required=True)
    h.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "z":
        problems = wl.reference_problems(args.workload, args.seed)
        result = {key: {"z": reference_z(*problem), "eps": problem[3],
                        "ceiling": wl.Z_EXCESS_CEILING_OF.get(key, wl.Z_EXCESS_CEILING)}
                  for key, problem in problems.items()}
    else:
        result = highs_compare(args.lps)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
