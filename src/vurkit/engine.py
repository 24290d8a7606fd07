"""The variance-floor engine.

A sum of unit-height Gaussians centered at the eigenvalues,
g(beta) = sum_k exp(-alpha (a_k - beta)^2), controls how much measurement
entropy a state can pack near its mean; maximizing it over centers turns a
state-dependent floor into a state-independent one.  The floor is then
(C - sum of log-maxima) / alpha for any entropy-sum constant C and any width
parameter alpha > 0.

The maxima of g are the modes of a homoscedastic Gaussian mixture, found by
hill climbing from every eigenvalue and every midpoint of two adjacent
eigenvalues (Carreira-Perpinan, IEEE TPAMI 22(11), 2000).  ``_ascend`` climbs
from all of those starts for a whole vector of widths at once.  Each step is
a Newton step where g is concave, or its mirror image (as far ahead as the
quadratic model's minimum lies behind) where g is convex, scaled by a trust
factor that doubles when a step is taken and shrinks when one is refused; a
step is taken only if it raises g, and a mean-shift step, which never lowers
g, is taken otherwise.  ``inner_max`` runs the ascent at one width;
``optimize_alpha`` runs it over a log-spaced width grid and zooms in on every
grid-local maximum of the floor.

alpha only has meaning relative to the spread of the spectra: the floor of
s A is s^2 times the floor of A, at alpha / s^2.  So the width search range
is fixed relative to h, the largest half-spread of the observables' spectra:
alpha h^2 runs over ``ALPHA_RANGE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import QuantumState, expectation
from .entropic import EntropicConstant
from .errors import InvalidAlphaError

# alpha h^2 range searched by optimize_alpha, and the log-spaced grid on it
ALPHA_RANGE = (1e-3, 1e3)
GRID_POINTS = 200
# zoom: each round samples ZOOM points on each side of the best ln alpha so
# far, one ZOOM-th of the bracket apart, and shrinks the bracket ZOOM-fold,
# down to LOG_ALPHA_TOL
ZOOM = 8
LOG_ALPHA_TOL = 1e-8
# rows x eigenvalues per ascent block: bounds the scratch arrays' memory
BLOCK_ELEMENTS = 1 << 13
MAX_ASCENT_ITERS = 500
# an ascent stops once an iteration raises ln g by no more than this times
# max(1, ln n), ln n being the largest ln g can be; the value is the stopping
# test because it converges faster than the argmax, which moves only
# linearly where two modes merge
VALUE_TOL = 4.0 * np.finfo(float).eps


def _check_alpha(alpha) -> float:
    a = float(alpha)
    if not math.isfinite(a) or a <= 0.0:
        raise InvalidAlphaError(f"alpha must be a positive finite real, got {alpha!r}")
    return a


def _ascending_eigenvalues(eigenvalues) -> np.ndarray:
    evals = np.asarray(eigenvalues, dtype=float)
    if evals.ndim != 1 or evals.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue list")
    if np.any(np.diff(evals) < 0):
        raise ValueError("eigenvalues must be in ascending order")
    return evals


def gaussian_sum(eigenvalues, alpha: float, beta: float) -> float:
    """sum_k exp(-alpha (a_k - beta)^2); smooth in beta, valued in (0, n]."""
    a = _check_alpha(alpha)
    evals = np.asarray(eigenvalues, dtype=float)
    if evals.ndim != 1 or evals.size == 0:
        raise ValueError("expected a nonempty 1-d eigenvalue list")
    with np.errstate(over="ignore"):  # -alpha d^2 = -inf has weight exp(-inf) = 0
        return float(np.exp(-a * (evals - beta) ** 2).sum())


def _log_gaussian_sum(evals: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """ln g for each row (alpha, beta), with the offsets d = a - beta, the
    weights exp(m - alpha d^2) and their sum; m = min_k alpha d_k^2, so the
    largest weight is 1 and they cannot all underflow however large alpha is."""
    d = evals - beta[:, None]
    w = d * d
    w *= alpha[:, None]
    m = np.minimum.reduce(w, axis=1)
    np.subtract(m[:, None], w, out=w)
    np.exp(w, out=w)
    s0 = np.add.reduce(w, axis=1)
    return np.log(s0) - m, d, w, s0


def _ascend(evals: np.ndarray, alphas: np.ndarray):
    """Climb g from every eigenvalue and adjacent midpoint, for every alpha.

    Returns arrays of shape (len(alphas), starts): the final beta, ln g there,
    the iterations run, and whether the end point is a maximum (g'' <= 0)
    rather than a minimum that a symmetric start sat on.  A row whose weights
    overflow (alpha near the float limit, far from every eigenvalue) ends at
    once with ln g = -inf; the eigenvalue starts never do.
    """
    starts = np.unique(np.concatenate([evals, 0.5 * (evals[1:] + evals[:-1])]))
    shape = (alphas.size, starts.size)
    alpha_rows = np.repeat(alphas, starts.size)
    beta = np.tile(starts, alphas.size)
    log_g = np.empty(beta.size)
    concave = np.empty(beta.size, dtype=bool)
    iters = np.empty(beta.size, dtype=int)
    lo, hi = evals[0], evals[-1]
    tol = VALUE_TOL * max(1.0, math.log(evals.size))
    block = max(1, BLOCK_ELEMENTS // evals.size)
    # alpha d^2 overflows only far from every eigenvalue at alpha near the
    # float limit; such rows end as NaN at once
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, beta.size, block):
            rows = np.arange(first, min(first + block, beta.size))
            a, b = alpha_rows[rows], beta[rows]
            prev = np.full(rows.size, -np.inf)
            gain = np.ones(rows.size)
            for it in range(1, MAX_ASCENT_ITERS + 1):
                lg, d, w, s0 = _log_gaussian_sum(evals, a, b)
                # in place, so that a block holds at most two (rows, n) arrays
                w *= d
                shift = np.add.reduce(w, axis=1) / s0
                w *= d
                # g'' / (2 alpha g) = 2 alpha <d^2>_w - 1
                curv = 2.0 * (a * (np.add.reduce(w, axis=1) / s0)) - 1.0
                del d, w
                done = ~(lg - prev > tol)
                if it == MAX_ASCENT_ITERS:
                    done[:] = True
                if done.any():
                    fin = rows[done]
                    beta[fin], log_g[fin], iters[fin] = b[done], lg[done], it
                    concave[fin] = curv[done] <= 0.0
                    live = ~done
                    if not live.any():
                        break
                    rows, a, b, lg, shift, curv, gain = (x[live] for x in (rows, a, b, lg, shift, curv, gain))
                # g' / |g''| = shift / |curv|: the Newton step where g is concave
                # (never past it: the factor is at most 1 there), its mirror image
                # where convex; where |curv| > 1 the mean-shift step is longer
                factor = np.where(curv < 0.0, np.minimum(gain, 1.0), gain)
                trial = np.minimum(np.maximum(b + factor * shift / np.minimum(np.abs(curv), 1.0), lo), hi)
                rises = _log_gaussian_sum(evals, a, trial)[0] > lg
                b = np.where(rises, trial, b + shift)
                gain = np.where(rises, 2.0 * gain, 0.25 * np.minimum(gain, 1.0))
                prev = lg
    log_g = np.fmax(log_g, -np.inf)  # NaN -> -inf
    return beta.reshape(shape), log_g.reshape(shape), iters.reshape(shape), concave.reshape(shape)


@dataclass(frozen=True)
class InnerMaxResult:
    """Argmax and value of the Gaussian sum over the eigenvalue interval, with
    the ascent iterations of its slowest start and the number of distinct
    maxima (modes) the starts reached."""

    beta_star: float
    value: float
    bracket: tuple[float, float]
    iterations: int
    modes: int


def inner_max(eigenvalues, alpha: float) -> InnerMaxResult:
    """Global maximum of the Gaussian sum over centers in [a_1, a_n].

    g has at most n modes and each is reached from an eigenvalue or an
    adjacent midpoint, so the best end point of the ascent is the global
    maximum.
    """
    a = _check_alpha(alpha)
    evals = _ascending_eigenvalues(eigenvalues)
    lo, hi = float(evals[0]), float(evals[-1])
    beta, log_g, iters, concave = (x[0] for x in _ascend(evals, np.array([a])))
    best = float(beta[int(np.argmax(log_g))])
    # end points closer than a thousandth of the Gaussian width are one mode:
    # where two modes merge, starts on either side stop that far apart
    ends = np.sort(beta[concave])
    modes = 1 + int(np.count_nonzero(np.diff(ends) > 1e-3 / math.sqrt(a)))
    return InnerMaxResult(beta_star=best, value=gaussian_sum(evals, a, best), bracket=(lo, hi),
                          iterations=int(iters.max()), modes=modes)


def state_dependent_bound(observables, state: QuantumState, alpha: float,
                          constant: EntropicConstant) -> float:
    """Variance-sum floor with each Gaussian sum centered at the state's mean.

    This is the raw pre-maximization value; it may be negative and is not
    clamped.
    """
    a = _check_alpha(alpha)
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    total = 0.0
    for o in obs:
        total += math.log(gaussian_sum(o.eigenvalues, a, expectation(o, state)))
    return (constant.value - total) / a


@dataclass(frozen=True)
class BoundReport:
    """Everything a variance-floor evaluation produced at one alpha.

    ``at_range_edge`` is set by ``optimize_alpha`` when the optimum lies
    within one grid step of either end of its search range, where the true
    optimum may lie outside it.
    """

    alpha: float
    constant: EntropicConstant
    per_operator: tuple[InnerMaxResult, ...]
    raw_bound: float
    lower_bound: float
    clamped: bool
    at_range_edge: bool = False


def bound_at_alpha(observables, alpha: float, constant: EntropicConstant) -> BoundReport:
    """State-independent variance-sum floor at a fixed width parameter.

    Variances are nonnegative, so a negative raw value is clamped to zero;
    the raw value is kept for diagnostics.
    """
    a = _check_alpha(alpha)
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    inner = tuple(inner_max(o.eigenvalues, a) for o in obs)
    raw = (constant.value - sum(math.log(r.value) for r in inner)) / a
    return BoundReport(alpha=a, constant=constant, per_operator=inner,
                       raw_bound=raw, lower_bound=max(0.0, raw), clamped=raw < 0.0)


def optimize_alpha(observables, constant: EntropicConstant) -> BoundReport:
    """Best variance-sum floor over the width parameter.

    Scans alpha h^2 over ``ALPHA_RANGE`` on a log grid (h the largest
    half-spread of the spectra, 1 if all are degenerate), then zooms in on
    every grid-local maximum of the floor to ``LOG_ALPHA_TOL`` in ln alpha.
    Equal spectra are maximized once.
    """
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    spectra: list[np.ndarray] = []
    counts: list[int] = []
    for o in obs:
        evals = _ascending_eigenvalues(o.eigenvalues)
        for k, seen in enumerate(spectra):
            if np.array_equal(seen, evals):
                counts[k] += 1
                break
        else:
            spectra.append(evals)
            counts.append(1)
    h = max(0.5 * (s[-1] - s[0]) for s in spectra) or 1.0
    lo, hi = (math.log(r / (h * h)) for r in ALPHA_RANGE)

    def raw(logs: np.ndarray) -> np.ndarray:
        alphas = np.exp(logs.ravel())
        total = sum(c * _ascend(s, alphas)[1].max(axis=1) for s, c in zip(spectra, counts))
        return ((constant.value - total) / alphas).reshape(logs.shape)

    logs = np.linspace(lo, hi, GRID_POINTS)
    step = logs[1] - logs[0]
    vals = raw(logs)
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))
    centers, best = logs[peaks], vals[peaks]
    offsets = np.arange(-ZOOM, ZOOM + 1) / ZOOM
    rows = np.arange(peaks.size)
    width = step
    while width > LOG_ALPHA_TOL:
        trial = np.clip(centers[:, None] + width * offsets, lo, hi)
        trial_vals = raw(trial)
        pick = np.argmax(trial_vals, axis=1)
        centers, best = trial[rows, pick], trial_vals[rows, pick]
        width /= ZOOM
    t = float(centers[int(np.argmax(best))])
    report = bound_at_alpha(obs, math.exp(t), constant)
    return replace(report, at_range_edge=bool(t - lo <= step or hi - t <= step))


def continuous_pair_bound(entropy_constant: float, alpha: float | None = None) -> tuple[float, float]:
    """Variance-sum floor for a continuous-spectrum pair, from the entropy
    constant alone: (C + ln(alpha/pi)) / alpha.

    With alpha omitted, the stationary point alpha* = pi e^(1-C) is used,
    giving the closed-form floor e^(C-1)/pi.  Returns (alpha_used, bound).
    """
    c = float(entropy_constant)
    if not math.isfinite(c):
        raise ValueError(f"entropy constant must be finite, got {entropy_constant!r}")
    if alpha is None:
        a = math.pi * math.exp(1.0 - c)
        return a, math.exp(c - 1.0) / math.pi
    a = _check_alpha(alpha)
    return a, (c + math.log(a / math.pi)) / a


def shannon_variance_bound(entropy: float) -> float:
    """Single-operator variance floor e^(2H-1)/(2 pi) from a differential entropy."""
    h = float(entropy)
    if not math.isfinite(h):
        raise ValueError(f"entropy must be finite, got {entropy!r}")
    return math.exp(2.0 * h - 1.0) / (2.0 * math.pi)
