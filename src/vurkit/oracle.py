"""Brute-force ground truth: minimize variance sums over pure states; and the
two random ensembles random cases are drawn from, Haar pure states and
Gaussian-ensemble Hermitian matrices.

The restarts draw their start points in turn from one seeded stream, so a seed fixes
every start point and every result, whatever the number of restarts that follow.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import QuantumState, check_integer, common_dim, phase_fix_columns

_ARMIJO = 0.25  # share of the Newton decrement a step must gain; below 1/2, so full steps pass
_GRAD_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

STOP_REASONS = ("gradient", "step_underflow", "max_iters")  # in the order of OracleResult.stops


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 64
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if self.restarts > sys.maxsize:  # one clear refusal before a start block is allocated
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
    per observable's ``matrix``, and the (2n, 2n) form S of the sum of their squares."""
    mats = np.stack([o.matrix for o in observables])
    n = mats.shape[-1]
    forms, s = np.empty((len(mats), 2 * n, 2 * n)), np.empty((2 * n, 2 * n))
    for form, a in ((forms, mats), (s, (mats @ mats).sum(axis=0))):  # [[Re, -Im], [Im, Re]]
        form[..., :n, :n] = form[..., n:, n:] = a.real
        form[..., n:, :n], form[..., :n, n:] = a.imag, -a.imag
    return forms, s


def _real(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag], axis=-1)


def _row_norms(z: np.ndarray) -> np.ndarray:
    """(R, 1) row norms by ``np.linalg.norm``'s own reduction, without its dispatch."""
    return np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))


def _evaluate(forms, s, z: np.ndarray, order: int = 0):
    """Variance sum f(w) = sum_k |(A_k - q_k) w|^2, q_k = w^T A_k w (a sum of
    squares: no cancellation), at the unit rows w = z / |z| of the real (R, 2n)
    block ``z``; at ``order`` 1 also the gradient of f(z / |z|) in z; at ``order`` 2,
    in place of f, which a descent holds, the gradient, the Riemannian Hessian
    P (grad^2 f - (w^T grad f) I) P, P projecting out w and the phase direction Jw
    (i x), along which f is constant, and the (R, 2n, 2) basis [w, Jw]."""
    nz = _row_norms(z)
    w = z / nz
    aw = (forms @ w.T).transpose(2, 0, 1)  # (R, k, 2n): A_k w
    q = (aw @ w[:, :, None])[:, :, 0]
    if order < 2:
        spread = aw - q[:, :, None] * w[:, None, :]
        value = np.add.reduce(spread * spread, axis=(1, 2))
        if not order:
            return value
    r, m = z.shape
    df = 2.0 * (w @ s) - 4.0 * (q[:, None, :] @ aw)[:, 0]
    basis = np.empty((r, m, 2))
    basis[:, :, 0], basis[:, :m // 2, 1], basis[:, m // 2:, 1] = w, -w[:, m // 2:], w[:, :m // 2]
    basis_t = basis.transpose(0, 2, 1)
    grad = (df - ((df[:, None, :] @ basis) @ basis_t)[:, 0]) / nz
    if order == 1:
        return value, grad
    h = 2.0 * s - 8.0 * aw.transpose(0, 2, 1) @ aw - 4.0 * (q @ forms.reshape(len(forms), -1)).reshape(r, m, m)
    h.reshape(r, -1)[:, ::m + 1] -= np.add.reduce(w * df, axis=1)[:, None]  # - (w^T df) I
    # P h P = h - B C^T - C B^T with C = h B - B (B^T h B) / 2, a rank-2 update
    hb = h @ basis
    c = hb - 0.5 * basis @ (basis_t @ hb)
    h -= basis @ c.transpose(0, 2, 1) + c @ basis_t
    return grad, h, basis


def ambient_variance_sum(observables, x) -> float:
    """Variance sum of the normalized version of an arbitrary nonzero vector."""
    return float(_evaluate(*_operator_matrices(observables), _real(np.asarray(x, dtype=complex))[None])[0])


def ambient_variance_sum_gradient(observables, x) -> np.ndarray:
    """Gradient of ``ambient_variance_sum`` with respect to the stacked
    (real, imaginary) coordinates of the vector."""
    z = _real(np.asarray(x, dtype=complex))[None, :]
    return _evaluate(*_operator_matrices(observables), z, order=1)[1][0]


def _newton_direction(forms, s, z: np.ndarray):
    """Gradient, saddle-free Newton direction and (R, 1) gradient norms at the unit rows ``z``."""
    g, h, basis = _evaluate(forms, s, z, order=2)
    lam, u = np.linalg.eigh(h)
    g_norm = _row_norms(g)
    floor = np.maximum(np.abs(lam), g_norm)
    floor[floor == 0.0] = 1.0  # only where g = 0 exactly: a zero step, not 0 / 0
    newton = ((g[:, None, :] @ u) / floor[:, None, :]) @ u.transpose(0, 2, 1)
    return g, ((newton @ basis) @ basis.transpose(0, 2, 1) - newton)[:, 0], g_norm


def _descend(forms, s, x0: np.ndarray, max_iters: int):
    """Saddle-free Riemannian Newton descent (Dauphin et al., 2014; Absil,
    Mahony and Sepulchre, 2008) on the unit sphere for all rows of ``x0``:
    step along -U diag(1 / max(|lambda|, |g|)) U^T g, which descends at
    negative curvature, stays bounded where it vanishes and tends to Newton's
    as g -> 0, less its parts along z and Jz, where the two null eigenvalues
    would blow up g's rounding; backtrack from step 1 (Armijo, f falling) and
    normalize.  A row stops on ``gradient`` (|g| <= ``_GRAD_TOL`` or a Newton decrement below the rounding
    of f), ``step_underflow`` (no step left would gain more) or ``max_iters``.  Returns values, rows, stops, steps."""
    n = x0.shape[1]
    z = _real(x0) / np.linalg.norm(x0, axis=1, keepdims=True)
    f = _evaluate(forms, s, z)
    iters, stop = np.zeros(len(z), dtype=int), np.full(len(z), STOP_REASONS.index("max_iters"))
    live = np.arange(len(z))
    block = max(1, (1 << 18) // (2 * n) ** 2)  # rows per Hessian stack: no (rows, 2n, 2n) array over 2 MB
    while live.size:
        parts = [_newton_direction(forms, s, z[live[i:i + block]]) for i in range(0, live.size, block)]
        g, d, g_norm = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        decrement = -np.add.reduce(g * d, axis=1)
        rounding = 4.0 * _EPS * np.maximum(1.0, np.abs(f[live]))  # no gain below it counts
        flat = decrement <= rounding
        flat |= g_norm[:, 0] <= _GRAD_TOL
        stop[live[flat]] = STOP_REASONS.index("gradient")
        # every row still backtracking has been halved as often, so one step length serves them all
        step, trial = 1.0, (~flat).nonzero()[0]
        while trial.size:
            rows = live[trial]
            cand = z[rows] + (d[trial] if step == 1.0 else step * d[trial])
            cand /= _row_norms(cand)
            fc = _evaluate(forms, s, cand)
            fr = f[rows]
            ok = (fc <= fr - _ARMIJO * step * decrement[trial]) & (fc < fr)
            rows = rows[ok]
            z[rows], f[rows] = cand[ok], fc[ok]
            trial, step = trial[~ok], 0.5 * step
            left = _ARMIJO * step * decrement[trial] > rounding[trial]  # else no step left can gain above rounding
            stop[live[trial[~left]]] = STOP_REASONS.index("step_underflow")
            trial = trial[left]
        live = live[stop[live] == STOP_REASONS.index("max_iters")]  # rows that took a step
        iters[live] += 1
        live = live[iters[live] < max_iters]
    return f, z[:, :n] + 1j * z[:, n:], stop, iters


def minimize_variance_sum(observables, config: OracleConfig = OracleConfig(), *,
                          agreement_tol: float = DEFAULT_TOLERANCES.oracle_agreement) -> OracleResult:
    """Minimum of the variance sum over pure states by multi-start Newton descent, for
    ``SpectralObservable``s and checked ``HermitianMatrix`` values alike: only each ``matrix`` is read.

    Restart i starts from row i (real, then imaginary part) of one (restarts, 2, n) standard-normal
    block from ``default_rng(seed)``, and all restarts descend together as one block; the minimum,
    the best restart's and so an upper bound on the true one, goes to the lowest restart index on
    ties, so the result is reproducible.  Restarts ending within ``agreement_tol`` of it agree.
    """
    obs = list(observables)
    dim = common_dim(obs)
    starts = np.random.default_rng(config.seed).standard_normal((config.restarts, 2, dim))
    x0 = starts[:, 0] + 1j * starts[:, 1]
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
        gradient_norms=tuple(_row_norms(_evaluate(*forms, _real(x), order=1)[1])[:, 0].tolist()),
        argmin_state=QuantumState.pure(phase_fix_columns(x[best][:, None])[:, 0]))
