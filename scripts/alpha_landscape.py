#!/usr/bin/env python3
"""Sweep the width parameter and print the variance-sum floor landscape.

Shows how the floor rises to an interior maximum and decays on both sides,
and where the optimizer lands relative to the brute-force minimum.  Exits 1
if a swept alpha's raw floor beats the optimized one by more than 1e-12
relative, or if the optimized floor exceeds the brute-force minimum by more
than 1e-9.

    python3 scripts/alpha_landscape.py pauli3
    python3 scripts/alpha_landscape.py qutrit4 --points 25 --restarts 32
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vurkit import best_entropic_constant, bound_at_alpha, optimize_alpha  # noqa: E402
from vurkit.cli import _resolve_observables  # noqa: E402
from vurkit.config import DEFAULT_TOLERANCES  # noqa: E402
from vurkit.oracle import OracleConfig, minimize_variance_sum  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("observables", nargs="+", help="observable files or fixture names")
    parser.add_argument("--alpha-min", type=float, default=1e-2)
    parser.add_argument("--alpha-max", type=float, default=1e2)
    parser.add_argument("--points", type=int, default=17)
    parser.add_argument("--restarts", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    obs = _resolve_observables(args.observables, DEFAULT_TOLERANCES)
    constant = best_entropic_constant(obs)
    print(f"{len(obs)} observables, dimension {obs[0].dim}")
    print(f"entropy constant C = {constant.value:.9f} ({constant.source.value})")
    print()
    print(f"{'alpha':>12}  {'raw floor':>12}  {'clamped':>12}")
    swept = []
    for alpha in np.geomspace(args.alpha_min, args.alpha_max, args.points):
        report = bound_at_alpha(obs, float(alpha), constant)
        swept.append(report.raw_bound)
        print(f"{alpha:12.5f}  {report.raw_bound:12.6f}  {report.lower_bound:12.6f}")
    print()

    best = optimize_alpha(obs, constant)
    print(f"optimized: floor {best.lower_bound:.9f} at alpha {best.alpha:.6f}, "
          f"{best.refine_steps + 1} kernel calls")
    print(f"alpha bracket = {list(best.bracket) if best.bracket else 'none: floor 0 at every alpha'}")
    oracle = minimize_variance_sum(obs, OracleConfig(restarts=args.restarts, seed=args.seed))
    print(f"brute-force minimum over pure states: {oracle.minimum:.9f} "
          f"({oracle.restarts_agreeing}/{args.restarts} restarts agree)")
    gap = oracle.minimum - best.lower_bound
    print(f"optimality gap: {gap:.9f}")

    failed = False
    if max(swept) > best.raw_bound + 1e-12 * abs(best.raw_bound):
        print(f"FAIL: a swept alpha gives raw floor {max(swept)!r}, above the optimized {best.raw_bound!r}")
        failed = True
    if gap < -1e-9:
        print(f"FAIL: the floor exceeds the brute-force minimum by {-gap:.3e}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
