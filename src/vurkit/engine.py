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
g, is taken otherwise.  ``_maxima`` reduces the end points to each
spectrum's argmax, the moments there and the mode count.  A floor evaluation
is one such call over a set's distinct spectra: ``bound_at_alpha`` at one
width, ``optimize_alpha`` on a log-spaced width grid and at each Newton step
on the floor's exact derivative from every grid-local maximum.

alpha only has meaning relative to the spread of the spectra: the floor of
s A is s^2 times the floor of A, at alpha / s^2.  So the width search range
is fixed relative to h, the largest half-spread of the observables' spectra:
alpha h^2 runs over ``ALPHA_RANGE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import QuantumState, common_dim, expectation
from .entropic import EntropicConstant
from .errors import InvalidAlphaError

# alpha h^2 range searched by optimize_alpha, and the log-spaced grid on it
ALPHA_RANGE = (1e-3, 1e3)
GRID_POINTS = 200
# optimize_alpha refines each grid peak until its bracket, or a Newton step,
# is this short in ln alpha
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
    if not np.all(np.isfinite(evals)):
        raise ValueError("eigenvalues must be finite")
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


def _ascend(spectra: np.ndarray, alphas: np.ndarray):
    """Climb g from every eigenvalue and adjacent midpoint, for every row of the
    (S, n) stack of ascending spectra and every alpha.

    Returns arrays of shape (S, len(alphas), 2n - 1): the final beta, ln g
    there, the iterations run, whether the end point is a maximum (g'' <= 0)
    rather than a minimum that a symmetric start sat on, and one of shape
    (3, S, len(alphas), 2n - 1): the weighted moments mu_j = <(a - beta)^j>_w,
    j = 2, 3, 4, at the end point.  A row whose weights overflow (alpha near
    the float limit, far from every eigenvalue) ends at once with ln g = -inf;
    the eigenvalue starts never do.
    """
    starts = np.sort(np.concatenate([spectra, 0.5 * (spectra[:, 1:] + spectra[:, :-1])], axis=1), axis=1)
    shape = (spectra.shape[0], alphas.size, starts.shape[1])
    beta = np.repeat(starts[:, None, :], alphas.size, axis=1).ravel()
    log_g, moments = np.empty(beta.size), np.empty((3, beta.size))
    concave, iters = np.empty(beta.size, dtype=bool), np.empty(beta.size, dtype=int)
    tol = VALUE_TOL * max(1.0, math.log(spectra.shape[1]))
    block = max(1, BLOCK_ELEMENTS // spectra.shape[1])
    # alpha d^2 overflows only far from every eigenvalue at alpha near the
    # float limit; such rows end as NaN at once
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, beta.size, block):
            rows = np.arange(first, min(first + block, beta.size))
            # each row carries its spectrum, its alpha and its beta
            e, a, b = spectra[rows // (shape[1] * shape[2])], alphas[rows // shape[2] % shape[1]], beta[rows]
            prev = np.full(rows.size, -np.inf)
            gain = np.ones(rows.size)
            for it in range(1, MAX_ASCENT_ITERS + 1):
                lg, d, w, s0 = _log_gaussian_sum(e, a, b)
                # in place, so that a block holds at most three (rows, n) arrays
                w *= d
                shift = np.add.reduce(w, axis=1) / s0
                w *= d
                mu2 = np.add.reduce(w, axis=1) / s0
                # g'' / (2 alpha g) = 2 alpha <d^2>_w - 1
                curv = 2.0 * (a * mu2) - 1.0
                done = ~(lg - prev > tol)
                if it == MAX_ASCENT_ITERS:
                    done[:] = True
                if done.any():
                    fin = rows[done]
                    beta[fin], log_g[fin], iters[fin] = b[done], lg[done], it
                    concave[fin] = curv[done] <= 0.0
                    # two more reductions, only on the rows that finish
                    w, d, s0 = w[done] * d[done], d[done], s0[done]
                    moments[:, fin] = mu2[done], np.add.reduce(w, axis=1) / s0, np.add.reduce(w * d, axis=1) / s0
                    live = ~done
                    if not live.any():
                        break
                    rows, e, a, b, lg, shift, curv, gain = (x[live] for x in (rows, e, a, b, lg, shift, curv, gain))
                del d, w
                # g' / |g''| = shift / |curv|: the Newton step where g is concave
                # (never past it: the factor is at most 1 there), its mirror image
                # where convex; where |curv| > 1 the mean-shift step is longer
                factor = np.where(curv < 0.0, np.minimum(gain, 1.0), gain)
                trial = np.minimum(np.maximum(b + factor * shift / np.minimum(np.abs(curv), 1.0), e[:, 0]), e[:, -1])
                rises = _log_gaussian_sum(e, a, trial)[0] > lg
                b = np.where(rises, trial, b + shift)
                gain = np.where(rises, 2.0 * gain, 0.25 * np.minimum(gain, 1.0))
                prev = lg
    log_g = np.fmax(log_g, -np.inf)  # NaN -> -inf
    return (beta.reshape(shape), log_g.reshape(shape), iters.reshape(shape), concave.reshape(shape),
            moments.reshape((3, *shape)))


def _spectra(observables: list) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) stack of a set's distinct ascending spectra and each
    observable's row in it; -0.0 equals 0.0 here."""
    common_dim(observables)
    stack, rows = np.unique(np.stack([_ascending_eigenvalues(o.eigenvalues) for o in observables]), axis=0,
                            return_inverse=True)
    return stack, rows.ravel()


def _maxima(spectra: np.ndarray, alphas: np.ndarray):
    """Per spectrum and alpha, arrays of shape (S, len(alphas)): the argmax
    beta*, ln M = ln g(beta*), the ascent iterations of the slowest start and
    the number of distinct maxima (modes) the starts reached, and one of
    shape (3, S, len(alphas)): the moments mu2, mu3, mu4 at beta*.

    g has at most n modes and each is reached from an eigenvalue or an
    adjacent midpoint, so the best end point of the ascent is the global
    maximum.
    """
    beta, log_g, iters, concave, moments = _ascend(spectra, alphas)
    pick = np.argmax(log_g, axis=2)[..., None]
    # end points closer than a thousandth of the Gaussian width are one mode:
    # where two modes merge, starts on either side stop that far apart
    ends = np.sort(np.where(concave, beta, np.nan), axis=2)  # NaNs sort last and never count
    modes = 1 + np.count_nonzero(np.diff(ends, axis=2) > 1e-3 / np.sqrt(alphas)[:, None], axis=2)
    return (np.take_along_axis(beta, pick, axis=2)[..., 0], np.take_along_axis(log_g, pick, axis=2)[..., 0],
            np.take_along_axis(moments, pick[None], axis=3)[..., 0], iters.max(axis=2), modes)


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


def _inner_results(eigenvalue_lists, rows, stack: np.ndarray, a: float) -> tuple[InnerMaxResult, ...]:
    """One ``InnerMaxResult`` per eigenvalue list, the i-th from row
    ``rows[i]`` of ``stack``; all rows are maximized in one kernel call."""
    beta, _, _, iters, modes = (x[..., 0] for x in _maxima(stack, np.array([a])))
    return tuple(InnerMaxResult(beta_star=float(beta[r]), value=gaussian_sum(e, a, beta[r]),
                                bracket=(float(e[0]), float(e[-1])), iterations=int(iters[r]),
                                modes=int(modes[r]))
                 for e, r in zip(eigenvalue_lists, rows))


def inner_max(eigenvalues, alpha: float) -> InnerMaxResult:
    """Global maximum of the Gaussian sum over centers in [a_1, a_n]."""
    a = _check_alpha(alpha)
    evals = _ascending_eigenvalues(eigenvalues)
    return _inner_results([evals], [0], evals[None], a)[0]


def state_dependent_bound(observables, state: QuantumState, alpha: float,
                          constant: EntropicConstant) -> float:
    """Variance-sum floor with each Gaussian sum centered at the state's mean.

    This is the raw pre-maximization value; it may be negative and is not
    clamped.
    """
    a = _check_alpha(alpha)
    obs = list(observables)
    common_dim(obs)
    total = 0.0
    for o in obs:
        total += math.log(gaussian_sum(o.eigenvalues, a, expectation(o, state)))
    return (constant.value - total) / a


@dataclass(frozen=True)
class BoundReport:
    """Everything a variance-floor evaluation produced at one alpha.

    ``at_range_edge`` is set by ``optimize_alpha`` when the optimum lies
    within one grid step of either end of its search range, where the true
    optimum may lie outside it; ``refine_steps`` counts its kernel calls
    between the grid and the final evaluation.
    """

    alpha: float
    constant: EntropicConstant
    per_operator: tuple[InnerMaxResult, ...]
    raw_bound: float
    lower_bound: float
    clamped: bool
    at_range_edge: bool = False
    refine_steps: int = 0


def bound_at_alpha(observables, alpha: float, constant: EntropicConstant) -> BoundReport:
    """State-independent variance-sum floor at a fixed width parameter.

    Variances are nonnegative, so a negative raw value is clamped to zero;
    the raw value is kept for diagnostics.
    """
    a = _check_alpha(alpha)
    obs = list(observables)
    stack, rows = _spectra(obs)
    inner = _inner_results([o.eigenvalues for o in obs], rows, stack, a)
    raw = (constant.value - sum(math.log(r.value) for r in inner)) / a
    return BoundReport(alpha=a, constant=constant, per_operator=inner,
                       raw_bound=raw, lower_bound=max(0.0, raw), clamped=raw < 0.0)


def _floor_slopes(spectra: np.ndarray, counts: np.ndarray, c: float, logs: np.ndarray):
    """Raw floor (C - sum_k c_k ln M_k) / alpha at each t = ln alpha in ``logs``
    (spectrum k counted c_k times), its slope D = d raw / dt and D' = dD / dt,
    exact from the moments at each argmax: d ln M / d alpha = -mu2 (envelope
    theorem) and d beta* / d alpha = mu3 / (2 alpha mu2 - 1)."""
    alphas = np.exp(logs)
    _, log_m, (mu2, mu3, mu4), _, _ = _maxima(spectra, alphas)
    raw = (c - counts @ log_m) / alphas
    slope = counts @ mu2 - raw
    with np.errstate(divide="ignore", invalid="ignore"):  # 2 alpha mu2 = 1 where modes merge
        dmu2 = mu2 * mu2 - mu4 + 2.0 * alphas * mu3 * mu3 / (2.0 * alphas * mu2 - 1.0)
    return raw, slope, alphas * (counts @ dmu2) - slope


def optimize_alpha(observables, constant: EntropicConstant) -> BoundReport:
    """Best variance-sum floor over the width parameter.

    Scans alpha h^2 over ``ALPHA_RANGE`` on a log grid (h the largest
    half-spread of the spectra, 1 if all are degenerate), then refines every
    grid-local maximum of the floor to ``LOG_ALPHA_TOL`` in ln alpha by
    Newton steps on the exact slope, bisecting where a step leaves the
    bracket or the slope is not decreasing (the argmax can switch modes at
    the optimum, and there only bisection converges).  Equal spectra are
    maximized once, and all distinct spectra in one kernel call per step.
    """
    obs = list(observables)
    stack, rows = _spectra(obs)
    counts = np.bincount(rows)
    h = 0.5 * float(np.max(stack[:, -1] - stack[:, 0])) or 1.0
    lo, hi = (math.log(r / (h * h)) for r in ALPHA_RANGE)

    logs = np.linspace(lo, hi, GRID_POINTS)
    step = logs[1] - logs[0]
    vals, slope, curv = _floor_slopes(stack, counts, constant.value, logs)
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))
    t, at, slope, curv, best = logs[peaks], logs[peaks], slope[peaks], curv[peaks], vals[peaks]
    # each peak's maximum lies between it and the grid neighbour its slope points to
    left = np.where(slope > 0.0, t, np.maximum(t - step, lo))
    right = np.where(slope < 0.0, t, np.minimum(t + step, hi))
    live = (right - left > LOG_ALPHA_TOL) & (slope != 0.0)
    refine_steps = 0
    while True:
        newton = t - slope / np.where(curv < 0.0, curv, -np.inf)
        use = (curv < 0.0) & (newton > left) & (newton < right)
        # a short Newton step has converged; a bisection step never counts
        live &= ~(use & (np.abs(newton - t) <= LOG_ALPHA_TOL))
        if not live.any():
            break
        k = np.flatnonzero(live)
        t[k] = np.where(use, newton, 0.5 * (left + right))[k]
        v, slope[k], curv[k] = _floor_slopes(stack, counts, constant.value, t[k])
        refine_steps += 1
        at[k], best[k] = np.where(v > best[k], (t[k], v), (at[k], best[k]))
        left[k], right[k] = np.where(slope[k] > 0.0, (t[k], right[k]), (left[k], t[k]))
        live[k] = (right[k] - left[k] > LOG_ALPHA_TOL) & (slope[k] != 0.0)
    t_best = float(at[int(np.argmax(best))])
    report = bound_at_alpha(obs, math.exp(t_best), constant)
    return replace(report, at_range_edge=bool(t_best - lo <= step or hi - t_best <= step),
                   refine_steps=refine_steps)


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
        try:
            a, bound = math.pi * math.exp(1.0 - c), math.exp(c - 1.0) / math.pi
        except OverflowError:
            a = bound = math.inf
    else:
        a = _check_alpha(alpha)
        bound = (c + math.log(a / math.pi)) / a
    # math.exp raises on overflow, but a product or quotient turns inf silently
    if math.isinf(a) or math.isinf(bound):
        raise ValueError(f"alpha or floor overflows a float for entropy constant {c!r}")
    return a, bound


def shannon_variance_bound(entropy: float) -> float:
    """Single-operator variance floor e^(2H-1)/(2 pi) from a differential entropy."""
    h = float(entropy)
    if not math.isfinite(h):
        raise ValueError(f"entropy must be finite, got {entropy!r}")
    return math.exp(2.0 * h - 1.0) / (2.0 * math.pi)
