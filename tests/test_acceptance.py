"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
stream; without ``-s`` pytest shows them for failing criteria only.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import dense_grid_max
from sampling import lemma_sweep, sample_random_separable
from vurkit import (OracleConfig, Verdict, bound_at_alpha, continuous_pair_bound,
                    eigendecompose, inner_max, lur_test, maassen_uffink,
                    minimize_variance_sum, optimize_alpha, overlap_stats,
                    shannon_variance_bound, state_dependent_bound, wu_full_mub, wu_mub_bound)
from vurkit.fixtures import ket00, maximally_mixed, pauli3, pauli_pairs, qutrit4, singlet
from vurkit.oracle import random_hermitian, sample_random_pure

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_qubit_triple_regression():
    start = time.perf_counter()
    report = bound_at_alpha(pauli3(), 0.597, wu_full_mub(2))
    elapsed = time.perf_counter() - start
    ok = abs(report.lower_bound - 1.7243) <= 5e-4 and elapsed < 1.0
    _report(1, ok, f"bound={report.lower_bound:.6f} (target 1.7243 +- 5e-4), {elapsed:.3f}s")


def test_criterion_02_qutrit_quadruple_regression():
    start = time.perf_counter()
    report = bound_at_alpha(qutrit4(), 1.92, wu_full_mub(3))
    elapsed = time.perf_counter() - start
    ok = abs(report.lower_bound - 0.9083) <= 5e-4 and elapsed < 1.0
    _report(2, ok, f"bound={report.lower_bound:.6f} (target 0.9083 +- 5e-4), {elapsed:.3f}s")


def test_criterion_03_optimized_alpha_ordering():
    qubit = optimize_alpha(pauli3(), wu_full_mub(2)).lower_bound
    qutrit = optimize_alpha(qutrit4(), wu_full_mub(3)).lower_bound
    ok = 1.7243 <= qubit <= 2.0 and 0.9083 <= qutrit <= 1.0
    _report(3, ok, f"optimized bounds {qubit:.6f} in [1.7243, 2] and {qutrit:.6f} in [0.9083, 1]")


def test_criterion_04_oracle_targets():
    start = time.perf_counter()
    config = OracleConfig(restarts=64, seed=0)
    qubit = minimize_variance_sum(pauli3(), config)
    qutrit = minimize_variance_sum(qutrit4(), config)
    elapsed = time.perf_counter() - start
    ok = (abs(qubit.minimum - 2.0) <= 1e-3
          and qubit.restarts_agreeing >= math.ceil(0.9 * 64)
          and abs(qutrit.minimum - 1.0) <= 1e-2
          and elapsed < 30.0)
    _report(4, ok, f"minima {qubit.minimum:.6f} ({qubit.restarts_agreeing}/64 agree) "
                   f"and {qutrit.minimum:.6f}, {elapsed:.1f}s")


def test_criterion_05_continuous_checks():
    c = 1.0 + math.log(math.pi)
    _, at_one = continuous_pair_bound(c, 1.0)
    alpha_star, auto = continuous_pair_bound(c)
    half = c / 2.0
    product = shannon_variance_bound(half) * shannon_variance_bound(half)
    ok = (abs(at_one - 1.0) <= 1e-12 and abs(alpha_star - 1.0) <= 1e-12
          and abs(auto - 1.0) <= 1e-12 and abs(product - 0.25) <= 1e-12)
    _report(5, ok, f"bound(alpha=1)={at_one!r}, alpha*={alpha_star!r}, product={product!r}")


def test_criterion_06_entropic_constants():
    exact = (wu_mub_bound(3, 2).value == 2 * math.log(2)
             and wu_mub_bound(4, 3).value == 4 * math.log(2))
    worst = max(abs(wu_full_mub(n).value - wu_mub_bound(n + 1, n).value) for n in range(2, 21))
    ok = exact and worst <= 1e-12
    _report(6, ok, f"closed forms exact={exact}, max |full - general| over n=2..20 is {worst:.2e}")


def test_criterion_07_lemma_sweep():
    max_violation, violations = lemma_sweep(10_000, dims=(2, 3, 4, 5), seed=20260810)
    ok = violations == 0 and max_violation <= 1e-9
    _report(7, ok, f"10^4 triples, max violation {max_violation:.3e}, "
                   f"{violations} beyond tolerance")


def test_criterion_08_chain_monotonicity():
    rng = np.random.default_rng(20260810)
    worst = -math.inf
    strict = 0
    total = 10_000
    for i in range(total):
        dim = (2, 3, 4, 5)[i % 4]
        a = eigendecompose(random_hermitian(dim, rng))
        b = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        constant = maassen_uffink(min(overlap_stats(a, b).c, 1.0))
        dependent = state_dependent_bound([a, b], state, alpha, constant)
        raw = bound_at_alpha([a, b], alpha, constant).raw_bound
        worst = max(worst, raw - dependent)
        if dependent > raw + 1e-12:
            strict += 1
    ok = worst <= 1e-12
    _report(8, ok, f"10^4 pairs, max (raw - dependent) = {worst:.3e}, "
                   f"strict on {strict}/{total}")


def test_criterion_09_inner_max_vs_dense_grid():
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 7
        evals = np.sort(rng.uniform(-2.0, 2.0, n))
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        result = inner_max(evals, alpha)
        ref_val, _ = dense_grid_max(evals, alpha, points=1_000_001)
        worst = max(worst, abs(result.value - ref_val))
    ok = worst <= 1e-8
    _report(9, ok, f"100 sets (dims 2-8), max |inner_max - grid| = {worst:.3e}")


def test_criterion_10_lur_verdicts():
    pairs = pauli_pairs()
    u = optimize_alpha(pauli3(), wu_full_mub(2)).lower_bound
    singlet_report = lur_test(pairs, singlet(), u_a=u, u_b=u)
    product_report = lur_test(pairs, ket00(), u_a=u, u_b=u)
    mixed_report = lur_test(pairs, maximally_mixed(4), u_a=u, u_b=u)
    rng = np.random.default_rng(1010)
    false_positives = 0
    for _ in range(1000):
        rho = sample_random_separable(2, 2, rng)
        if lur_test(pairs, rho, u_a=u, u_b=u).verdict is Verdict.ENTANGLED:
            false_positives += 1
    ok = (singlet_report.verdict is Verdict.ENTANGLED
          and abs(singlet_report.margin - (-3.449)) <= 5e-3
          and product_report.verdict is Verdict.NOT_DETECTED
          and mixed_report.verdict is Verdict.NOT_DETECTED
          and false_positives == 0)
    _report(10, ok, f"singlet margin {singlet_report.margin:.6f} (target -3.449 +- 5e-3), "
                    f"|00> and mixed not detected, {false_positives}/1000 false positives")


def test_criterion_11_gradient_gate():
    from vurkit.oracle import ambient_variance_sum, ambient_variance_sum_gradient
    rng = np.random.default_rng(1111)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        dim = (2, 3, 4, 5)[trial % 4]
        obs = [eigendecompose(random_hermitian(dim, rng))
               for _ in range(int(rng.integers(1, 4)))]
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        analytic = ambient_variance_sum_gradient(obs, x)
        numeric = np.empty(2 * dim)
        for k in range(2 * dim):
            bump = np.zeros(2 * dim)
            bump[k] = h
            xp = (x.real + bump[:dim]) + 1j * (x.imag + bump[dim:])
            xm = (x.real - bump[:dim]) + 1j * (x.imag - bump[dim:])
            numeric[k] = (ambient_variance_sum(obs, xp) - ambient_variance_sum(obs, xm)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(11, ok, f"100 points, max relative gradient error {worst:.3e}")


def _run_cli(argv: list[str]) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "vurkit", *argv],
                          capture_output=True, env=env, check=True)
    return proc.stdout


def test_criterion_12_json_determinism():
    commands = [
        ["oracle", "qutrit4", "--restarts", "6", "--seed", "11", "--json"],
        ["bound", "pauli3", "--auto-C", "--optimize", "--json"],
        ["lur", "--state", "singlet", "--pairs", "pauli-pairs", "--auto-C", "--json"],
        ["demo", "--seed", "3", "--restarts", "4", "--json"],
    ]
    ok = True
    for argv in commands:
        outputs = [_run_cli(argv) for _ in range(3)]
        if not (outputs[0] == outputs[1] == outputs[2]):
            ok = False
            break
        json.loads(outputs[0])  # well-formed
    _report(12, ok, f"{len(commands)} seeded commands byte-identical across runs")
