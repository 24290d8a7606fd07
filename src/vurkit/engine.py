"""The variance-floor engine.

Both floors read one Gaussian sum g(beta) = sum_k exp(-alpha (a_k - beta)^2)
per observable: the state-dependent floor at the state's mean,
(C - sum_k ln g_k(<A_k>)) / alpha, and the state-independent one at each
maximum over centers, (C - sum_k ln M_k) / alpha, for any entropy-sum
constant C and width parameter alpha > 0.  ``_log_gaussian_sum`` is the only
code that sums g, in the log domain so that it cannot underflow, and every
reported M and raw floor is that kernel's own value at the reported width.

The maxima of g are the modes of a homoscedastic Gaussian mixture, found by
hill climbing from every eigenvalue, the mixture's centroids, as in
Carreira-Perpinan's mode search (IEEE TPAMI 22(11), 2000); no proof that they
reach the highest mode is claimed, but a property test checks them on
adversarial spectra.  Where alpha L^2 <= 2 (L = a_n - a_1) the climb starts
at the mean alone: there (ln g)'' = 2 alpha (2 alpha Var_w - 1) <= 0, the
Gaussian-weighted variance Var_w being at most L^2 / 4 (Popoviciu), so g has
one maximum.  ``_ascend`` climbs from those starts for
a whole vector of widths at once: Newton steps where g is concave and their
mirror images where it is convex, scaled by a trust factor, or mean-shift
steps where those do not raise g.  Its blocks are eigenvalue-major, one column
per (spectrum, alpha, start).  ``_floors`` is the one reduction of its end
points: each spectrum's argmax and mode count, g summed once more there for M
and the moments of the offsets in units of the Gaussian width, and the raw
floor with its first two derivatives in ln alpha.  A floor evaluation is one ``_floors`` call over a set's distinct
spectra: ``bound_at_alpha`` makes one, ``inner_max`` one on a single spectrum,
and ``optimize_alpha`` one on a log-spaced width grid and one per refinement
step, reporting the best point evaluated.

alpha only has meaning relative to the spread of the spectra: the floor of
s A is s^2 times the floor of A, at alpha / s^2.  So the width search range
is fixed relative to h, the largest half-spread of the observables' spectra:
alpha h^2 runs over ``ALPHA_RANGE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import QuantumState, check_spectrum, common_dim, expectation
from .entropic import EntropicConstant
from .errors import InvalidAlphaError

# alpha h^2 range searched by optimize_alpha, and the log-spaced grid on it
ALPHA_RANGE = (1e-3, 1e3)
GRID_POINTS = 200
# optimize_alpha refines each grid peak until its bracket, or a Newton or
# corner step, is this short in ln alpha
LOG_ALPHA_TOL = 1e-8
# eigenvalues x columns per ascent block: bounds the scratch arrays' memory
BLOCK_ELEMENTS = 1 << 15
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


def _column_sums(w: np.ndarray) -> np.ndarray:
    # in row order whatever the width: numpy sums a lone column pairwise
    return np.add.accumulate(w, axis=0)[-1] if w.shape[1] == 1 else np.add.reduce(w, axis=0)


def _log_gaussian_sum(evals: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """ln g for each column (alpha, beta) of an (n, columns) block, with the
    offsets d = a - beta, the weights exp(m - alpha d^2), their sum s0 and m =
    min_k alpha d_k^2, so the largest weight is 1 and they cannot all underflow;
    g itself is s0 exp(-m), exact where every weight is."""
    d = evals - beta
    w = d * d
    w *= alpha
    m = np.minimum.reduce(w, axis=0)
    np.subtract(m, w, out=w)
    np.exp(w, out=w)
    s0 = _column_sums(w)
    return np.log(s0) - m, d, w, s0, m


def _ascend(spectra: np.ndarray, alphas: np.ndarray):
    """Climb g from every eigenvalue, for every row of the (S, n) stack of
    ascending spectra and every alpha, or from the row's mean alone where
    alpha L^2 <= 2 (L its spread): the other columns keep their start,
    ln g = -inf, 0 iterations and no maximum.

    Returns arrays of shape (S, len(alphas), n): the final beta, ln g there,
    the iterations run, and whether the end point is a maximum (g'' <= 0)
    rather than a minimum that a symmetric start sat on.
    """
    shape = (spectra.shape[0], alphas.size, spectra.shape[1])
    beta = np.repeat(spectra[:, None, :], alphas.size, axis=1)
    log_g = np.full(beta.size, -np.inf)
    concave, iters = np.zeros(beta.size, dtype=bool), np.zeros(beta.size, dtype=int)
    tol = VALUE_TOL * max(1.0, math.log(spectra.shape[1]))
    block = max(256, BLOCK_ELEMENTS // spectra.shape[1])
    columns = np.ascontiguousarray(spectra.T)
    # alpha d^2 overflows to a weight of 0 at alpha near the float limit, and a
    # trial point far from every eigenvalue then sums to NaN and does not rise.
    # Where g'' = 0 the model step is infinite, and the clip to the ends takes over
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # ln g is concave where alpha L^2 <= 2 (module docstring): one start, at the mean, climbs it
        one = alphas * np.square(spectra[:, -1] - spectra[:, 0])[:, None] <= 2.0
        mean = np.clip(_column_sums(columns) / spectra.shape[1], spectra[:, 0], spectra[:, -1])
        beta[..., 0] = np.where(one, mean[:, None], beta[..., 0])
        beta, climb = beta.ravel(), np.flatnonzero((np.arange(shape[2]) == 0) | ~one[..., None])
        for first in range(0, climb.size, block):
            cols = climb[first:first + block]
            # each column carries its spectrum, its alpha and its beta; take and
            # compress keep the blocks C-ordered, where a boolean index would not
            e, a, b = columns.take(cols // (shape[1] * shape[2]), axis=1), alphas[cols // shape[2] % shape[1]], beta[cols]
            prev, gain = np.full(cols.size, -np.inf), np.ones(cols.size)
            for it in range(1, MAX_ASCENT_ITERS + 1):
                lg, d, w, s0, _ = _log_gaussian_sum(e, a, b)
                # in place, so that a block holds at most three (n, columns) arrays
                w *= d
                shift = _column_sums(w) / s0
                w *= d
                # g'' / (2 alpha g) = 2 alpha <d^2>_w - 1
                curv = 2.0 * (a * (_column_sums(w) / s0)) - 1.0
                del d, w
                done = ~(lg - prev > tol) | (it == MAX_ASCENT_ITERS)
                if done.any():
                    fin = cols[done]
                    beta[fin], log_g[fin], iters[fin], concave[fin] = b[done], lg[done], it, curv[done] <= 0.0
                    live = ~done
                    if not live.any():
                        break
                    e = e.compress(live, axis=1)
                    cols, a, b, lg, shift, curv, gain = (x[live] for x in (cols, a, b, lg, shift, curv, gain))
                # g' / |g''| = shift / |curv|: the Newton step where g is concave
                # (never past it: the factor is at most 1 there), its mirror image
                # where convex; where |curv| > 1 the mean-shift step is longer
                factor = np.where(curv < 0.0, np.minimum(gain, 1.0), gain)
                trial = np.minimum(np.maximum(b + factor * shift / np.minimum(np.abs(curv), 1.0), e[0]), e[-1])
                rises = _log_gaussian_sum(e, a, trial)[0] > lg
                b = np.where(rises, trial, b + shift)
                gain = np.where(rises, 2.0 * gain, 0.25 * np.minimum(gain, 1.0))
                prev = lg
    log_g = np.fmax(log_g, -np.inf)  # NaN -> -inf
    return beta.reshape(shape), log_g.reshape(shape), iters.reshape(shape), concave.reshape(shape)


def _spectra(observables: list) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) stack of a set's distinct ascending spectra and each
    observable's row in it; -0.0 equals 0.0 here."""
    common_dim(observables)
    stack, rows = np.unique(np.stack([o.eigenvalues for o in observables]), axis=0, return_inverse=True)
    return stack, rows.ravel()


def _floors(spectra: np.ndarray, counts: np.ndarray, c: float, alphas: np.ndarray):
    """One kernel call over the (S, n) stack of distinct spectra, spectrum k
    counted c_k times.  Returns the raw floor (C - sum_k c_k ln M_k) / alpha at
    each alpha, M_k = g(beta*) at spectrum k's argmax beta*; its slope D =
    d raw / dt in t = ln alpha and D' = dD / dt; and the per-spectrum columns
    (beta*, M, the ascent iterations of the slowest start, the number of
    distinct maxima (modes) the starts reached), each of shape (S, len(alphas)).

    D and D' are exact from the moments nu_j = <u^j>_w, j = 2, 3, 4, of the
    offsets u = sqrt(alpha) (a - beta*) in units of the Gaussian width, which
    do not scale with the spectra: d ln M / dt = -nu2 (envelope theorem) and
    d nu2 / dt - nu2 = nu2^2 - nu4 + 2 nu3^2 / (2 nu2 - 1), the last term from
    beta*'s drift.

    The best end point of the climbs is taken as the global maximum (the
    module docstring says on what grounds); where alpha L^2 <= 2 it is the one.
    """
    beta, log_g, iters, concave = _ascend(spectra, alphas)
    pick = np.argmax(log_g, axis=2)[..., None]
    # end points closer than a thousandth of the Gaussian width are one mode:
    # where two modes merge, starts on either side stop that far apart
    ends = np.sort(np.where(concave, beta, np.nan), axis=2)  # NaNs sort last and never count
    modes = 1 + np.count_nonzero(np.diff(ends, axis=2) > 1e-3 / np.sqrt(alphas)[:, None], axis=2)
    beta = np.take_along_axis(beta, pick, axis=2)[..., 0]
    # the ascent's last sum once more, now with the moments; errors as in _ascend
    a = np.tile(alphas, spectra.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_m, d, w, s0, m = _log_gaussian_sum(np.repeat(spectra.T, alphas.size, axis=1), a, beta.ravel())
        u = np.sqrt(a) * d
        w = w * u * u
        nu2, nu3, nu4 = np.stack([_column_sums(x) / s0 for x in (w, w * u, w * u * u)]).reshape(
            (3, *beta.shape))
    # summed in row order, so that a width's floor does not depend on the others;
    # a floor past the float range is inf, for the caller to refuse, and so may
    # be its slopes; 2 nu2 = 1 where modes merge
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = (c - _column_sums(counts[:, None] * log_m.reshape(beta.shape))) / alphas
        slope = (counts @ nu2) / alphas - raw
        dnu2 = nu2 * nu2 - nu4 + 2.0 * nu3 * nu3 / (2.0 * nu2 - 1.0)
        curv = (counts @ dnu2) / alphas - slope
    return raw, slope, curv, (beta, (s0 * np.exp(-m)).reshape(beta.shape), iters.max(axis=2), modes)


@dataclass(frozen=True)
class InnerMaxResult:
    """Argmax and value of the Gaussian sum over the eigenvalue interval, with
    the ascent iterations of its slowest start (its only one, from the mean,
    where alpha L^2 <= 2) and the number of distinct maxima (modes) reached."""

    beta_star: float
    value: float = field(metadata={"json": "max_value"})
    iterations: int
    modes: int


def _inner_results(rows, columns, j: int) -> tuple[InnerMaxResult, ...]:
    """One ``InnerMaxResult`` per entry of ``rows`` at the j-th width, the i-th
    from row ``rows[i]`` of the per-spectrum columns of ``_floors``."""
    beta, g, iters, modes = (x[:, j] for x in columns)
    return tuple(InnerMaxResult(beta_star=float(beta[r]), value=float(g[r]),
                                iterations=int(iters[r]), modes=int(modes[r])) for r in rows)


def inner_max(eigenvalues, alpha: float) -> InnerMaxResult:
    """Global maximum of the Gaussian sum over centers in [a_1, a_n]."""
    a = _check_alpha(alpha)
    evals = check_spectrum(eigenvalues)
    return _inner_results([0], _floors(evals[None], np.ones(1), 0.0, np.array([a]))[3], 0)[0]


def state_dependent_bound(observables, state: QuantumState, alpha: float,
                          constant: EntropicConstant) -> float:
    """Variance-sum floor with each Gaussian sum centered at the state's mean.

    This is the raw pre-maximization value; it may be negative and is not
    clamped.
    """
    a = _check_alpha(alpha)
    obs = list(observables)
    common_dim(obs)
    means = np.array([expectation(o, state) for o in obs])
    log_g = _log_gaussian_sum(np.stack([o.eigenvalues for o in obs], axis=1), a, means)[0]
    return (constant.value - float(log_g.sum())) / a


@dataclass(frozen=True)
class BoundReport:
    """Everything a variance-floor evaluation produced at one alpha.

    ``at_range_edge`` is set by ``optimize_alpha`` when the optimum lies
    within one grid step of either end of its search range, where the true
    optimum may lie outside it; ``refine_steps`` counts its kernel calls
    after the grid.
    """

    alpha: float
    constant: EntropicConstant
    per_operator: tuple[InnerMaxResult, ...]
    raw_bound: float
    lower_bound: float
    clamped: bool
    at_range_edge: bool = False
    refine_steps: int = 0


def _report(rows, a: float, constant: EntropicConstant, raw, columns, j: int, **search) -> BoundReport:
    """The j-th of the floors ``raw``, at width ``a``; observable i reads row
    ``rows[i]`` of the per-spectrum columns, and ``search`` sets
    ``optimize_alpha``'s fields."""
    raw = float(raw[j])
    return BoundReport(alpha=a, constant=constant, per_operator=_inner_results(rows, columns, j),
                       raw_bound=raw, lower_bound=max(0.0, raw), clamped=raw < 0.0, **search)


def bound_at_alpha(observables, alpha: float, constant: EntropicConstant) -> BoundReport:
    """State-independent variance-sum floor at a fixed width parameter.

    Variances are nonnegative, so a negative raw value is clamped to zero;
    the raw value is kept for diagnostics.
    """
    a = _check_alpha(alpha)
    stack, rows = _spectra(list(observables))
    raw, _, _, columns = _floors(stack, np.bincount(rows), constant.value, np.array([a]))
    if not math.isfinite(raw[0]):
        raise InvalidAlphaError(f"alpha {alpha!r} is too small: the floor runs past the float range")
    return _report(rows, a, constant, raw, columns, 0)


def optimize_alpha(observables, constant: EntropicConstant) -> BoundReport:
    """Best variance-sum floor over the width parameter.

    Scans alpha h^2 over ``ALPHA_RANGE`` on a log grid (h the largest
    half-spread of the spectra, 1 if all are degenerate), then refines every
    grid-local maximum to ``LOG_ALPHA_TOL`` in ln alpha: by Newton steps on
    the exact slope, else (at a corner, where the argmax switches modes) by
    steps to where the bracket ends' quadratic models meet, else by bisection.
    All distinct spectra share one kernel call per step, and the report is
    the best point evaluated.
    """
    stack, rows = _spectra(list(observables))
    counts = np.bincount(rows)
    h = 0.5 * float(np.max(stack[:, -1] - stack[:, 0])) or 1.0
    if h * h == 0.0 or not math.isfinite(h * h) or not math.isfinite(ALPHA_RANGE[1] / (h * h)):
        raise ValueError(f"half-spread {h!r} is too {'large' if h > 1.0 else 'small'}: "
                         "the alpha range runs past the float range")
    lo, hi = (math.log(r / (h * h)) for r in ALPHA_RANGE)
    logs = np.linspace(lo, hi, GRID_POINTS)
    step = logs[1] - logs[0]
    found = []  # (logs, raw, alphas, *columns) of every evaluation

    def evaluate(logs):
        alphas = np.exp(logs)
        raw, slope, curv, columns = _floors(stack, counts, constant.value, alphas)
        found.append((logs, raw, alphas, *columns))
        return raw, slope, curv

    vals, slopes, curvs = evaluate(logs)
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    # a run of equal values is one peak, refined from its first point
    peaks = np.flatnonzero((vals > padded[:-2]) & (vals >= padded[2:]))
    t, slope, curv = logs[peaks], slopes[peaks], curvs[peaks]
    # each peak's maximum lies between it and the grid neighbour its slope
    # points to; both bracket ends keep their t, value, D and D'
    ends = np.stack([np.where(slope > 0.0, peaks, np.maximum(peaks - 1, 0)),
                     np.where(slope < 0.0, peaks, np.minimum(peaks + 1, GRID_POINTS - 1))])
    end = np.stack([logs, vals, slopes, curvs])[:, ends]
    (left, right), (vl, vr), (dl, dr), (cl, cr) = end
    live = (right - left > LOG_ALPHA_TOL) & (slope != 0.0)
    while True:
        newton = t - slope / np.where((curv < 0.0) & (curv > -np.inf), curv, np.nan)
        use = (newton > left) & (newton < right)
        # at a corner (the argmax switches modes) the ends' quadratic models meet; aim
        # past that, toward the end not evaluated last, by as far as it is uncertain
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tangent = (vr - vl + dl * left - dr * right) / (dl - dr)
            ql, qr = cl * (tangent - left) ** 2, cr * (tangent - right) ** 2
            meet = tangent + (qr - ql) / (2.0 * (dl - dr))
            aim = meet + np.where(t == left, 1.0, -1.0) * (np.abs(ql) + np.abs(qr)) / (2.0 * (dl - dr))
        cut = ~use & (np.minimum(meet, aim) > left) & (np.maximum(meet, aim) < right)
        # a short Newton step has converged; a short corner step goes to the meeting
        # point and is the peak's last; a bisection step never counts
        last = cut & (np.abs(aim - t) <= LOG_ALPHA_TOL)
        live &= ~(np.abs(newton - t) <= LOG_ALPHA_TOL)
        if not live.any():
            break
        k = np.flatnonzero(live)
        t[k] = np.where(use, newton, np.where(cut, np.where(last, meet, aim), 0.5 * (left + right)))[k]
        v, slope[k], curv[k] = evaluate(t[k])
        side = (slope[k] <= 0.0).astype(int)  # t becomes the left end where the floor still rises
        end[:, side, k] = t[k], v, slope[k], curv[k]
        live[k] = (right[k] - left[k] > LOG_ALPHA_TOL) & (slope[k] != 0.0) & ~last[k]
    t, raw, alphas, *columns = (np.concatenate(x, axis=-1) for x in zip(*found))
    best = int(np.argmax(raw))
    return _report(rows, float(alphas[best]), constant, raw, columns, best,
                   at_range_edge=bool(t[best] - lo <= step or hi - t[best] <= step), refine_steps=len(found) - 1)


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
    try:
        return math.exp(2.0 * h - 1.0) / (2.0 * math.pi)
    except OverflowError as exc:
        raise ValueError(f"floor overflows a float for entropy {h!r}") from exc
