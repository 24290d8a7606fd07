"""Fixed reference computations that gauge the host's speed during a run.

The benchmark's host is a few vCPUs of a shared machine.  How fast it runs
a job of a few hundred milliseconds drifts by up to 1.5x over minutes, as
neighbours load the shared cores and caches, and a job that long never
escapes that by running at a quiet moment.  Jobs run back to back do slow
alike.  So a timed run spreads short runs of a reference computation of
the same kind through every cycle of jobs, and each job's time counts at
``NOMINAL_S / mean reference time of its cycle``: at the speed at which the
reference takes ``NOMINAL_S``.

A reference never imports vurkit, and its inputs are fixed, so a change to
vurkit or to the seed leaves it as it is.

    engine   Gaussian-sum maxima over 30 widths, golden-section refined:
             what ``bound --optimize`` spends its time on.
    oracle   2 restarts of projected gradient descent with backtracking on
             the unit sphere, for three n = 8 observables, on a thread pool
             sized like vurkit's: what ``oracle --restarts R`` does.
    io       parse a 128 x 128 complex matrix from JSON text and take its
             spectrum: what ``lur`` jobs spend most of their time on.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from time import perf_counter

import numpy as np

# the median time of each reference on the host the benchmark was built on
NOMINAL_S = {"engine": 0.075, "oracle": 0.080, "io": 0.031}


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


# each reference's fixed inputs, made on first use so that a workload's
# process holds only its own reference's
@cache
def _spectra() -> list[np.ndarray]:
    rng = np.random.default_rng(1)
    return [np.sort(rng.uniform(-1.0, 1.0, 3)) for _ in range(3)]


@cache
def _observables() -> tuple[list[np.ndarray], list[np.ndarray]]:
    rng = np.random.default_rng(2)
    mats = [_hermitian(rng, 8) for _ in range(3)]
    return mats, [m @ m for m in mats]


@cache
def _density_text() -> str:
    rho = _hermitian(np.random.default_rng(3), 128)
    return json.dumps({"density": [[[float(z.real), float(z.imag)] for z in row] for row in rho]})


def _peak(evals: np.ndarray, a: float) -> float:
    lo, hi = float(evals[0]), float(evals[-1])
    betas = np.unique(np.concatenate([np.linspace(lo, hi, 256), evals,
                                      0.5 * (evals[1:] + evals[:-1])]))
    vals = np.exp(-a * (evals[None, :] - betas[:, None]) ** 2).sum(axis=1)
    best = float(vals.max())
    local = np.r_[True, vals[1:] >= vals[:-1]] & np.r_[vals[:-1] >= vals[1:], True]
    for i in np.flatnonzero(local):
        left, right = float(betas[max(i - 1, 0)]), float(betas[min(i + 1, betas.size - 1)])
        while right - left > 1e-10:
            m1, m2 = left + 0.382 * (right - left), left + 0.618 * (right - left)
            if np.exp(-a * (evals - m1) ** 2).sum() < np.exp(-a * (evals - m2) ** 2).sum():
                left = m1
            else:
                right = m2
        best = max(best, float(np.exp(-a * (evals - left) ** 2).sum()))
    return best


def engine() -> float:
    spectra = _spectra()
    return sum(sum(math.log(_peak(e, math.exp(t))) for e in spectra)
               for t in np.linspace(math.log(1e-3), math.log(1e3), 30))


def _value(mats, squares, x: np.ndarray) -> float:
    total = 0.0
    for m, s in zip(mats, squares):
        e = float(np.real(np.vdot(x, m @ x)))
        total += float(np.real(np.vdot(x, s @ x))) - e * e
    return total


def _descend(seed: int) -> float:
    mats, squares = _observables()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x /= np.linalg.norm(x)
    f, step = _value(mats, squares, x), 0.5
    for _ in range(250):
        g = np.zeros_like(x)
        for m, s in zip(mats, squares):
            mx = m @ x
            e = float(np.real(np.vdot(x, mx)))
            g += s @ x - float(np.real(np.vdot(x, s @ x))) * x - 2.0 * e * (mx - e * x)
        g -= x * np.real(np.vdot(x, g))
        gnorm = float(np.linalg.norm(g))
        while step >= 1e-12:
            cand = x - step * g
            cand /= np.linalg.norm(cand)
            fc = _value(mats, squares, cand)
            if fc <= f - 1e-4 * step * gnorm * gnorm:
                break
            step *= 0.5
        else:
            break
        x, f, step = cand, fc, min(2.0 * step, 1.0)
    return f


def oracle() -> float:
    raw = os.environ.get("VURKIT_THREADS", "0").strip() or "0"
    workers = int(raw) if raw.isdigit() and int(raw) > 0 else min(8, os.cpu_count() or 1)
    _observables()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return min(pool.map(_descend, range(2)))


def io() -> float:
    raw = np.asarray(json.loads(_density_text())["density"], dtype=float)
    rho = raw[..., 0] + 1j * raw[..., 1]
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[-1])


REFERENCES = {"engine": engine, "oracle": oracle, "io": io}


def timed(name: str) -> float:
    start = perf_counter()
    REFERENCES[name]()
    return perf_counter() - start


if __name__ == "__main__":
    for ref in REFERENCES:
        times = [timed(ref) for _ in range(30)]
        print(ref, "min", min(times), "median", sorted(times)[15])
