"""Brute-force ground truth: minimize variance sums over pure states, and
randomized sweeps that back the property suites.

All sampling goes through per-task seed streams derived from one root seed,
so a seed fixes every start point and every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (QuantumState, SpectralObservable, eigendecompose,
                   measurement_distribution, phase_fix_columns, shannon_entropy, variance)
from .engine import gaussian_sum
from .errors import DimensionMismatchError

# strong enough that a step oscillating across a quadratic valley is rejected
# and backtracking finds the interior step instead
_ARMIJO = 0.25
_GRAD_TOL = 1e-12
_STEP_TOL = 1e-12

# why a restart stopped, in the order of OracleResult.stops
STOP_REASONS = ("gradient", "step_underflow", "max_iters")


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 64
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")


@dataclass(frozen=True)
class OracleResult:
    minimum: float
    argmin_state: QuantumState
    restarts_agreeing: int
    stops: dict[str, int]
    iterations: int


def sample_random_pure(dim: int, rng: np.random.Generator) -> QuantumState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes,
    with the global phase fixed for canonical output."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    z = phase_fix_columns(z[:, None])[:, 0]
    return QuantumState.pure(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-ensemble random Hermitian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def _operator_matrices(observables) -> tuple[np.ndarray, np.ndarray]:
    """(k, n, n) stacks of the observables and of their squares."""
    v = np.stack([o.eigenvectors for o in observables])
    lam = np.stack([o.eigenvalues for o in observables])[:, None, :]
    vh = v.conj().transpose(0, 2, 1)
    return (v * lam) @ vh, (v * lam ** 2) @ vh


def _evaluate(mats, squares, x: np.ndarray, grad: bool = False):
    """Normalized variance sum of each row of the (R, n) block ``x`` and, with
    ``grad``, its Wirtinger derivative d/d(conj x), row by row."""
    nsq = np.einsum("ri,ri->r", x.conj(), x).real
    mx = np.einsum("kij,rj->kri", mats, x)
    sx = np.einsum("kij,rj->kri", squares, x)
    e = np.einsum("ri,kri->kr", x.conj(), mx).real / nsq
    sv = np.einsum("ri,kri->kr", x.conj(), sx).real / nsq
    value = (sv - e * e).sum(axis=0)
    if not grad:
        return value
    e, sv = e[..., None], sv[..., None]
    g = (sx - sv * x - 2.0 * e * (mx - e * x)).sum(axis=0) / nsq[:, None]
    return value, g


def variance_sum(observables, state: QuantumState) -> float:
    """Objective the oracle minimizes: sum of variances on one state."""
    return sum(variance(o, state) for o in observables)


def ambient_variance_sum(observables, x) -> float:
    """Variance sum of the normalized version of an arbitrary nonzero vector."""
    x = np.asarray(x, dtype=complex)[None, :]
    return float(_evaluate(*_operator_matrices(observables), x)[0])


def ambient_variance_sum_gradient(observables, x) -> np.ndarray:
    """Gradient of ``ambient_variance_sum`` with respect to the stacked
    (real, imaginary) coordinates of the vector."""
    x = np.asarray(x, dtype=complex)[None, :]
    g = _evaluate(*_operator_matrices(observables), x, grad=True)[1][0]
    return np.concatenate([2.0 * g.real, 2.0 * g.imag])


def _descend(mats, squares, x0: np.ndarray, max_iters: int):
    """Projected gradient descent on the unit sphere for every row of ``x0`` at
    once, each row with its own step size and Armijo backtracking; no row's
    objective increases on an accepted step.

    A row leaves the block when its projected gradient norm is at most
    ``_GRAD_TOL``, when its step falls below ``_STEP_TOL`` without an
    accepted step, or after ``max_iters`` accepted steps.  Returns the final
    values, the final unit rows, each row's index into ``STOP_REASONS`` and
    its number of accepted steps.
    """
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    f = _evaluate(mats, squares, x)
    step = np.full(len(x), 0.5)
    iters = np.zeros(len(x), dtype=int)
    stop = np.full(len(x), STOP_REASONS.index("max_iters"))
    live = np.arange(len(x))
    while live.size:
        xl = x[live]
        g = _evaluate(mats, squares, xl, grad=True)[1]
        g -= xl * np.einsum("ri,ri->r", xl.conj(), g).real[:, None]
        gnorm = np.linalg.norm(g, axis=1)
        flat = gnorm <= _GRAD_TOL
        stop[live[flat]] = STOP_REASONS.index("gradient")
        moved = np.zeros(len(x), dtype=bool)
        trial = np.flatnonzero(~flat)
        while trial.size:
            rows = live[trial]
            cand = x[rows] - step[rows, None] * g[trial]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc = _evaluate(mats, squares, cand)
            ok = fc <= f[rows] - _ARMIJO * step[rows] * gnorm[trial] * gnorm[trial]
            x[rows[ok]], f[rows[ok]] = cand[ok], fc[ok]
            moved[rows[ok]] = True
            rejected = rows[~ok]
            step[rejected] *= 0.5
            underflow = step[rejected] < _STEP_TOL
            stop[rejected[underflow]] = STOP_REASONS.index("step_underflow")
            trial = trial[~ok][~underflow]
        live = live[moved[live]]
        iters[live] += 1
        step[live] = np.minimum(2.0 * step[live], 1.0)
        live = live[iters[live] < max_iters]
    return f, x, stop, iters


def minimize_variance_sum(observables, config: OracleConfig = OracleConfig(), *,
                          agreement_tol: float = DEFAULT_TOLERANCES.oracle_agreement) -> OracleResult:
    """Minimum of the variance sum over pure states by multi-start descent.

    Every restart starts from its own derived seed stream, and all restarts
    descend together as one block; the minimum goes to the lowest restart
    index on ties, so the result is reproducible.  Restarts ending within
    ``agreement_tol`` of the minimum count as agreeing.
    """
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    for o in obs[1:]:
        if o.dim != obs[0].dim:
            raise DimensionMismatchError(f"observables have mismatched dimensions {obs[0].dim} and {o.dim}")
    dim = obs[0].dim
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.restarts)]
    x0 = np.array([rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs])
    f, x, stop, iters = _descend(*_operator_matrices(obs), x0, config.max_iters)

    best = int(np.argmin(f))
    minimum = float(f[best])
    counts = np.bincount(stop, minlength=len(STOP_REASONS))
    return OracleResult(
        minimum=minimum,
        argmin_state=QuantumState.pure(phase_fix_columns(x[best][:, None])[:, 0]),
        restarts_agreeing=int(np.count_nonzero(f <= minimum + agreement_tol)),
        stops={reason: int(c) for reason, c in zip(STOP_REASONS, counts)},
        iterations=int(iters.max()))


@dataclass(frozen=True)
class LemmaSweepReport:
    """Worst case seen while stress-testing the single-operator entropy-variance
    floor on random (state, observable, alpha) triples."""

    samples: int
    dims: tuple[int, ...]
    max_violation: float
    violations: int
    worst_alpha: float
    worst_observable: SpectralObservable
    worst_state: QuantumState


def lemma_sweep(n_samples: int, dims=(2, 3, 4, 5), seed: int = 0,
                violation_tol: float = 1e-9) -> LemmaSweepReport:
    """Evaluate V >= (H - ln gaussian_sum(eigs, alpha, mean)) / alpha on random
    triples; returns the maximum violation (positive = floor exceeded variance)
    and the worst triple for regression pinning."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_violation = -math.inf
    violations = 0
    worst = None
    for i in range(n_samples):
        n = dims[i % len(dims)]
        obs = eigendecompose(random_hermitian(n, rng))
        state = sample_random_pure(n, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        p = measurement_distribution(obs, state)
        mu = float(p @ obs.eigenvalues)
        v = float(p @ (obs.eigenvalues - mu) ** 2)
        floor = (shannon_entropy(p) - math.log(gaussian_sum(obs.eigenvalues, alpha, mu))) / alpha
        violation = floor - v
        if violation > violation_tol:
            violations += 1
        if violation > max_violation:
            max_violation = violation
            worst = (alpha, obs, state)
    worst_alpha, worst_obs, worst_state = worst
    return LemmaSweepReport(samples=n_samples, dims=dims, max_violation=max_violation,
                            violations=violations, worst_alpha=worst_alpha,
                            worst_observable=worst_obs, worst_state=worst_state)
