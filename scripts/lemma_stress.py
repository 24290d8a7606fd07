#!/usr/bin/env python3
"""Stress the single-operator entropy-variance floor on random triples.

Draws (Haar state, Gaussian-ensemble observable, log-uniform alpha) triples
and reports the worst slack seen; the floor is a theorem, so violations
beyond numerical noise indicate a bug.

    python3 scripts/lemma_stress.py --samples 100000 --dims 2 3 4 5 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vurkit import lemma_sweep  # noqa: E402
from vurkit.oracle import VIOLATION_TOL  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    report = lemma_sweep(args.samples, dims=args.dims, seed=args.seed)
    print(f"samples: {report.samples}  dims: {report.dims}  seed: {args.seed}")
    print(f"max violation (floor - variance): {report.max_violation:.6e}")
    print(f"violations beyond {VIOLATION_TOL:g}: {report.violations}")
    print(f"worst triple: dim {report.worst_observable.dim}, alpha {report.worst_alpha:.6f}")
    print(f"  eigenvalues: {report.worst_observable.eigenvalues}")
    print(f"  state amplitudes: {report.worst_state.vector}")
    return 0 if report.violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
