"""Brute-force ground truth: minimize variance sums over pure states, and
randomized sweeps that back the property suites.

All sampling goes through per-task seed streams derived from one root seed,
so a seed fixes every start point and every result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (QuantumState, SpectralObservable, check_integer, common_dim, eigendecompose,
                   measurement_distribution, phase_fix_columns, shannon_entropy)
from .engine import state_dependent_bound
from .entropic import user_supplied

_ARMIJO = 0.25  # share of the Newton decrement a step must gain; below 1/2, so full steps pass
_GRAD_TOL = 1e-12
_STEP_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

# lemma_sweep counts a floor above the variance by more than this as a violation
VIOLATION_TOL = 1e-9
STOP_REASONS = ("gradient", "step_underflow", "max_iters")  # in the order of OracleResult.stops


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 64
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if self.restarts > sys.maxsize:  # SeedSequence.spawn takes a C ssize_t
            raise ValueError(f"restarts must not exceed {sys.maxsize}, got {self.restarts}")


@dataclass(frozen=True)
class OracleResult:
    minimum: float
    restarts: int
    restarts_agreeing: int
    stops: dict[str, int]
    iterations: int
    argmin_restart: int
    gradient_norms: tuple[float, ...]
    argmin_state: QuantumState


def sample_random_pure(dim: int, rng: np.random.Generator) -> QuantumState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes,
    with the global phase fixed for canonical output."""
    check_integer("dim", dim, 1)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    z = phase_fix_columns(z[:, None])[:, 0]
    return QuantumState.pure(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-ensemble random Hermitian matrix."""
    check_integer("dim", dim, 1)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def _operator_matrices(observables) -> tuple[np.ndarray, np.ndarray]:
    """(k, 2n, 2n) real forms with x^H A x = z^T A z for z = [Re x, Im x], one
    per observable, and the (2n, 2n) form S of the sum of their squares."""
    v = np.stack([o.eigenvectors for o in observables])
    lam = np.stack([o.eigenvalues for o in observables])[:, None, :]
    vh = v.conj().transpose(0, 2, 1)
    mats = (v * lam) @ vh
    squares = ((v * lam ** 2) @ vh).sum(axis=0)
    return (np.block([[mats.real, -mats.imag], [mats.imag, mats.real]]),
            np.block([[squares.real, -squares.imag], [squares.imag, squares.real]]))


def _real(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag], axis=-1)


def _evaluate(forms, s, z: np.ndarray, order: int = 0):
    """Variance sum f(w) = sum_k |(A_k - q_k) w|^2, q_k = w^T A_k w (a sum of
    squares: no cancellation), at the unit rows w = z / |z| of the real (R, 2n)
    block ``z``; from ``order`` 1 on also the gradient of f(z / |z|) in z, at
    ``order`` 2 also the Riemannian Hessian P (grad^2 f - (w^T grad f) I) P, with
    P projecting out w and the phase direction Jw (i x), along which f is constant."""
    nz = np.linalg.norm(z, axis=1, keepdims=True)
    w = z / nz
    aw = np.einsum("kij,rj->rki", forms, w)
    q = np.einsum("ri,rki->rk", w, aw)
    spread = aw - q[:, :, None] * w[:, None, :]
    value = np.einsum("rki,rki->r", spread, spread)
    if not order:
        return value
    m = z.shape[1]
    df = 2.0 * (w @ s) - 4.0 * np.einsum("rk,rki->ri", q, aw)
    basis = np.stack([w, np.concatenate([-w[:, m // 2:], w[:, :m // 2]], axis=1)], axis=2)
    grad = (df - np.einsum("rij,rj->ri", basis, np.einsum("rij,ri->rj", basis, df))) / nz
    if order == 1:
        return value, grad
    h = 2.0 * s - 8.0 * aw.transpose(0, 2, 1) @ aw - 4.0 * np.einsum("rk,kij->rij", q, forms)
    h -= np.einsum("ri,ri->r", w, df)[:, None, None] * np.eye(m)
    # P h P = h - B C^T - C B^T with C = h B - B (B^T h B) / 2, a rank-2 update
    c = h @ basis - 0.5 * basis @ (basis.transpose(0, 2, 1) @ h @ basis)
    h -= basis @ c.transpose(0, 2, 1) + c @ basis.transpose(0, 2, 1)
    return value, grad, h


def ambient_variance_sum(observables, x) -> float:
    """Variance sum of the normalized version of an arbitrary nonzero vector."""
    return float(_evaluate(*_operator_matrices(observables), _real(np.asarray(x, dtype=complex))[None])[0])


def ambient_variance_sum_gradient(observables, x) -> np.ndarray:
    """Gradient of ``ambient_variance_sum`` with respect to the stacked
    (real, imaginary) coordinates of the vector."""
    z = _real(np.asarray(x, dtype=complex))[None, :]
    return _evaluate(*_operator_matrices(observables), z, order=1)[1][0]


def _descend(forms, s, x0: np.ndarray, max_iters: int):
    """Saddle-free Riemannian Newton descent (Dauphin et al., 2014; Absil,
    Mahony and Sepulchre, 2008) on the unit sphere for all rows of ``x0``:
    step along -U diag(1 / max(|lambda|, |g|)) U^T g, which descends at
    negative curvature, stays bounded where it vanishes and tends to Newton's
    as g -> 0, less its parts along z and Jz, where the two null eigenvalues
    would blow up g's rounding; backtrack from step 1 (Armijo, f falling) and
    normalize.  A row stops on ``gradient`` (|g| <= ``_GRAD_TOL`` or a Newton decrement
    below rounding), ``step_underflow`` or ``max_iters``.  Returns values, rows, stops, steps."""
    n = x0.shape[1]
    z = _real(x0) / np.linalg.norm(x0, axis=1, keepdims=True)
    f = _evaluate(forms, s, z)
    iters, stop = np.zeros(len(z), dtype=int), np.full(len(z), STOP_REASONS.index("max_iters"))
    live = np.arange(len(z))
    block = max(1, (1 << 18) // (2 * n) ** 2)  # rows per Hessian stack: no (rows, 2n, 2n) array over 2 MB
    while live.size:
        g, d = np.empty((live.size, 2 * n)), np.empty((live.size, 2 * n))
        for i in range(0, live.size, block):
            _, g[i:i + block], h = _evaluate(forms, s, z[live[i:i + block]], order=2)
            lam, u = np.linalg.eigh(h)
            floor = np.maximum(np.abs(lam), np.linalg.norm(g[i:i + block], axis=1)[:, None])
            d[i:i + block] = -np.einsum("rij,rj->ri", u, np.einsum("rij,ri->rj", u, g[i:i + block]) / floor)
        for v in (z[live], np.concatenate([-z[live, n:], z[live, :n]], axis=1)):
            d -= np.einsum("ri,ri->r", d, v)[:, None] * v
        decrement = -np.einsum("ri,ri->r", g, d)
        flat = decrement <= 4.0 * _EPS * np.maximum(1.0, np.abs(f[live]))
        flat |= np.linalg.norm(g, axis=1) <= _GRAD_TOL
        stop[live[flat]] = STOP_REASONS.index("gradient")
        step = np.ones(len(live))
        trial = np.flatnonzero(~flat)
        while trial.size:
            rows = live[trial]
            cand = z[rows] + step[trial, None] * d[trial]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc = _evaluate(forms, s, cand)
            ok = (fc <= f[rows] - _ARMIJO * step[trial] * decrement[trial]) & (fc < f[rows])
            z[rows[ok]], f[rows[ok]] = cand[ok], fc[ok]
            rejected = trial[~ok]
            step[rejected] *= 0.5
            underflow = step[rejected] < _STEP_TOL
            stop[live[rejected[underflow]]] = STOP_REASONS.index("step_underflow")
            trial = rejected[~underflow]
        live = live[stop[live] == STOP_REASONS.index("max_iters")]  # rows that took a step
        iters[live] += 1
        live = live[iters[live] < max_iters]
    return f, z[:, :n] + 1j * z[:, n:], stop, iters


def minimize_variance_sum(observables, config: OracleConfig = OracleConfig(), *,
                          agreement_tol: float = DEFAULT_TOLERANCES.oracle_agreement) -> OracleResult:
    """Minimum of the variance sum over pure states by multi-start Newton descent.

    Every restart starts from its own derived seed stream, and all restarts
    descend together as one block; the minimum goes to the lowest restart
    index on ties, so the result is reproducible.  Restarts ending within
    ``agreement_tol`` of the minimum count as agreeing.
    """
    obs = list(observables)
    dim = common_dim(obs)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.restarts)]
    x0 = np.array([rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs])
    forms = _operator_matrices(obs)
    f, x, stop, iters = _descend(*forms, x0, config.max_iters)

    best = int(np.argmin(f))
    minimum = float(f[best])
    return OracleResult(
        minimum=minimum,
        restarts=config.restarts,
        restarts_agreeing=int(np.count_nonzero(f <= minimum + agreement_tol)),
        stops=dict(zip(STOP_REASONS, np.bincount(stop, minlength=len(STOP_REASONS)).tolist())),
        iterations=int(iters.max()),
        argmin_restart=best,
        gradient_norms=tuple(np.linalg.norm(_evaluate(*forms, _real(x), order=1)[1], axis=1).tolist()),
        argmin_state=QuantumState.pure(phase_fix_columns(x[best][:, None])[:, 0]))


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


def lemma_sweep(n_samples: int, dims=(2, 3, 4, 5), seed: int = 0) -> LemmaSweepReport:
    """Evaluate V >= (H - ln g(mean)) / alpha, g the Gaussian sum, on random
    triples; returns the maximum violation (positive = floor exceeded variance)
    and the worst triple for regression pinning."""
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0)
    dims = tuple(check_integer("dims entry", d, 1) for d in dims)
    if not dims:
        raise ValueError("need at least one dimension in dims, got ()")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_violation, violations, worst = -math.inf, 0, None
    for i in range(n_samples):
        n = dims[i % len(dims)]
        obs = eigendecompose(random_hermitian(n, rng))
        state = sample_random_pure(n, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        p = measurement_distribution(obs, state)
        mu = float(p @ obs.eigenvalues)
        v = float(p @ (obs.eigenvalues - mu) ** 2)
        floor = state_dependent_bound([obs], state, alpha, user_supplied(shannon_entropy(p)))
        violation = floor - v
        if violation > VIOLATION_TOL:
            violations += 1
        if violation > max_violation:
            max_violation = violation
            worst = (alpha, obs, state)
    worst_alpha, worst_obs, worst_state = worst
    return LemmaSweepReport(samples=n_samples, dims=dims, max_violation=max_violation,
                            violations=violations, worst_alpha=worst_alpha,
                            worst_observable=worst_obs, worst_state=worst_state)
