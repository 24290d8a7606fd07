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
adversarial spectra.  ``_ascend`` climbs from those starts for every
spectrum at each of its own widths at once: Newton steps where g is concave
and their mirror images where it is convex, scaled by a trust factor, or
mean-shift steps where those do not raise ln g by more than the stop
tolerance.  Its blocks are eigenvalue-major, one column per (spectrum, width,
start).  ``_modes`` reduces its end points per spectrum and width: argmax,
mode count, and g summed once more there for M and the moments of the
offsets in units of the Gaussian width.  ``_floors`` sums those over a set at
the widths it shares into the raw floor and its first two derivatives in ln
alpha.  A floor evaluation is one ``_floors`` call over a set's distinct
spectra: one in ``bound_at_alpha``, one per step of ``optimize_alpha``'s
search, which reports the best point evaluated; ``inner_max`` makes one
``_modes`` call.  No result reports a climb stopped by ``MAX_ASCENT_ITERS``.

The floor has one peak in ln alpha: ln g is a log-sum-exp of functions affine
in alpha, so ln M, its maximum over centers, is convex in alpha, F = C -
sum_k ln M_k is concave, and F / alpha is quasi-concave (Boyd and
Vandenberghe, Convex Optimization, 2004, sections 3.1.5 and 3.2.3).  Its ends
are known: M_k <= n, so C >= sum_k ln n is false and the floor grows without
bound as alpha -> 0; M_k >= m_k e^(-alpha delta^2), m_k the most eigenvalues
within 2 delta of one another, so C <= sum_k ln m_k leaves a floor of at most
sum_k delta^2.  The floor of s A is s^2 times that of A, at alpha / s^2, so
``optimize_alpha`` searches t = ln(alpha h^2), h the largest half-spread of
the spectra, where its steps do not depend on the scale.  Its first grid is
centred near alpha h^2 = (n - 1)^2, a Gaussian as wide as the mean spacing of
n eigenvalues, and its refine loop is Newton's on D with Brent's safeguard
(Algorithms for Minimization without Derivatives, 1973): a Newton step
longer than half the step before last is replaced by a bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import QuantumState, check_spectrum, common_dim, expectation
from .entropic import EntropicConstant
from .errors import InvalidAlphaError, RegimeError

# optimize_alpha refines until a Newton step, or the bracket, is this short in ln alpha
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


def _ascend(spectra: np.ndarray, widths: np.ndarray):
    """Climb g from every eigenvalue of each row of the (S, n) stack of
    ascending spectra, at each of its own widths, the same row of the (S, W)
    ``widths``.  A trial step is taken only where it raises ln g by more than
    the stop tolerance, else the mean-shift step, so a climb ends after a
    mean-shift step, never on a point of equal value across a symmetric
    maximum that a trial step rounded onto.

    Returns arrays of shape (S, W, n): the final beta, ln g there, the
    iterations run, and whether the end point is a maximum (g'' <= 0) rather
    than a minimum that a symmetric start sat on.
    """
    shape, alphas = widths.shape + spectra.shape[1:], widths.ravel()
    beta = np.repeat(spectra[:, None, :], shape[1], axis=1).ravel()
    log_g = np.empty(beta.size)
    concave, iters = np.zeros(beta.size, dtype=bool), np.zeros(beta.size, dtype=int)
    tol = VALUE_TOL * max(1.0, math.log(spectra.shape[1]))
    block = max(256, BLOCK_ELEMENTS // spectra.shape[1])
    columns = np.ascontiguousarray(spectra.T)
    # alpha d^2 overflows to a weight of 0 at alpha near the float limit, and a
    # trial point far from every eigenvalue then sums to NaN and does not rise.
    # Where g'' = 0 the model step is infinite, and the clip to the ends takes over
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first in range(0, beta.size, block):
            cols = np.arange(first, min(first + block, beta.size))
            # each column carries its spectrum, its width and its beta; take and
            # compress keep the blocks C-ordered, where a boolean index would not
            e, a, b = columns.take(cols // (shape[1] * shape[2]), axis=1), alphas[cols // shape[2]], beta[cols]
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
                done = ~(lg - prev > tol)
                if it == MAX_ASCENT_ITERS:
                    done[:] = True
                if finished := np.count_nonzero(done):
                    fin = cols[done]
                    beta[fin], log_g[fin], iters[fin], concave[fin] = b[done], lg[done], it, curv[done] <= 0.0
                    if finished == done.size:
                        break
                    live = ~done
                    e = e.compress(live, axis=1)
                    cols, a, b, lg, shift, curv, gain = (x[live] for x in (cols, a, b, lg, shift, curv, gain))
                # g' / |g''| = shift / |curv|: the Newton step where g is concave
                # (never past it: the factor is at most 1 there), its mirror image
                # where convex; where |curv| > 1 the mean-shift step is longer
                capped = np.minimum(gain, 1.0)
                factor = np.where(curv < 0.0, capped, gain)
                trial = np.minimum(np.maximum(b + factor * shift / np.minimum(np.abs(curv), 1.0), e[0]), e[-1])
                rises = _log_gaussian_sum(e, a, trial)[0] > lg + tol
                b = np.where(rises, trial, b + shift)
                gain = np.where(rises, 2.0 * gain, 0.25 * capped)
                prev = lg
    log_g = np.fmax(log_g, -np.inf)  # NaN -> -inf
    return beta.reshape(shape), log_g.reshape(shape), iters.reshape(shape), concave.reshape(shape)


def _spectra(observables: list) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) stack of a set's distinct ascending spectra, in lexicographic
    order, and each observable's row in it; -0.0 equals 0.0 here, and a row
    is the first of its equal spectra."""
    common_dim(observables)
    keys = [tuple(o.eigenvalues.tolist()) for o in observables]
    distinct = sorted(dict.fromkeys(keys))
    row = {k: i for i, k in enumerate(distinct)}
    return np.array(distinct), np.array([row[k] for k in keys])


def _modes(spectra: np.ndarray, widths: np.ndarray):
    """The maximum M = g(beta*) of each row of the (S, n) stack of distinct
    spectra at each of its own widths, the same row of the (S, W) ``widths``:
    ln M, nu2, dnu2 = d nu2 / dt - nu2 in t = ln alpha, and the per-spectrum
    columns (beta*, M, the ascent iterations of the slowest start, the number
    of distinct maxima (modes) the starts reached), each of shape (S, W).

    nu_j = <u^j>_w, j = 2, 3, 4, are the moments of the offsets u =
    sqrt(alpha) (a - beta*) in units of the Gaussian width, which do not
    scale with the spectra: d ln M / dt = -nu2 (envelope theorem) and dnu2 =
    nu2^2 - nu4 + 2 nu3^2 / (2 nu2 - 1), the last term from beta*'s drift.
    The best end point of the climbs is taken as the global maximum (the
    module docstring says on what grounds).
    """
    beta, log_g, iters, concave = _ascend(spectra, widths)
    shape, a = widths.shape, widths.ravel()
    # end points closer than a thousandth of the Gaussian width are one mode:
    # where two modes merge, starts on either side stop that far apart
    ends = np.sort(np.where(concave, beta, np.nan), axis=2)  # NaNs sort last and never count
    modes = 1 + np.count_nonzero(ends[..., 1:] - ends[..., :-1] > 1e-3 / np.sqrt(widths)[..., None], axis=2)
    beta = beta[np.arange(shape[0])[:, None], np.arange(shape[1]), np.argmax(log_g, axis=2)]
    # the ascent's last sum once more, now with the moments; errors as in _ascend; 2 nu2 = 1 where modes merge
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_m, d, w, s0, m = _log_gaussian_sum(spectra.T.repeat(shape[1], axis=1), a, beta.ravel())
        u = np.sqrt(a) * d
        w *= u
        # nu_j from w u^j, j = 2, 3, 4: one more product in place each
        nu2, nu3, nu4 = [(_column_sums(np.multiply(w, u, out=w)) / s0).reshape(shape) for _ in range(3)]
        dnu2 = nu2 * nu2 - nu4 + 2.0 * nu3 * nu3 / (2.0 * nu2 - 1.0)
    return log_m.reshape(shape), nu2, dnu2, (beta, (s0 * np.exp(-m)).reshape(shape), iters.max(axis=2), modes)


def _floors(spectra: np.ndarray, counts: np.ndarray, c: float, alphas: np.ndarray):
    """``_modes`` of the (S, n) stack of distinct spectra at the widths
    ``alphas`` they share, spectrum k counted c_k times: the raw floor (C -
    sum_k c_k ln M_k) / alpha at each alpha, its slope D = d raw / dt in t =
    ln alpha and D' = dD / dt, and ``_modes``'s per-spectrum columns."""
    log_m, nu2, dnu2, columns = _modes(spectra, alphas[None].repeat(spectra.shape[0], axis=0))
    # a floor past the float range is inf, for the caller to refuse, and so may be its slopes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # summed in row order, so that a width's floor does not depend on the others
        raw = (c - _column_sums(counts[:, None] * log_m)) / alphas
        slope = (counts @ nu2) / alphas - raw
        curv = (counts @ dnu2) / alphas - slope
    return raw, slope, curv, columns


@dataclass(frozen=True)
class InnerMaxResult:
    """Argmax and value of the Gaussian sum over the eigenvalue interval, with the ascent iterations
    of its slowest start and the number of distinct maxima (modes) that the climbs from the eigenvalues
    reach.  A mode no climb reaches goes uncounted: a shallow one, or one between two higher ones
    (``[0, 0.1, 0.4, 0.6, 0.9, 1]`` at alpha L^2 = 17.73 reads 2 against 3); the maximum is unaffected."""

    beta_star: float
    value: float = field(metadata={"json": "max_value"})
    iterations: int
    modes: int


def _inner_results(rows, columns, j: int) -> tuple[InnerMaxResult, ...]:
    """One ``InnerMaxResult`` per entry of ``rows`` at the j-th width, the i-th
    from row ``rows[i]`` of the per-spectrum columns of ``_modes``; a climb
    stopped by ``MAX_ASCENT_ITERS`` may end below its mode, and is refused."""
    beta, g, iters, modes = (x[:, j] for x in columns)
    if iters.max() >= MAX_ASCENT_ITERS:
        raise ValueError(f"a mode search ran to its cap of {MAX_ASCENT_ITERS} iterations: M may lie below the maximum")
    return tuple(InnerMaxResult(beta_star=float(beta[r]), value=float(g[r]),
                                iterations=int(iters[r]), modes=int(modes[r])) for r in rows)


def inner_max(eigenvalues, alpha: float) -> InnerMaxResult:
    """Global maximum of the Gaussian sum over centers in [a_1, a_n]."""
    a = _check_alpha(alpha)
    evals = check_spectrum(eigenvalues)
    return _inner_results([0], _modes(evals[None], np.array([[a]]))[3], 0)[0]


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

    ``optimize_alpha`` sets ``bracket``, the final (alpha_lo, alpha_hi) on
    which the slope of the floor in ln alpha changes sign from >= 0 to < 0,
    or None where C <= sum_k ln m_k certifies a floor of 0 at every alpha; and
    ``refine_steps``, its kernel calls after the first.
    """

    alpha: float
    constant: EntropicConstant
    per_operator: tuple[InnerMaxResult, ...]
    raw_bound: float
    lower_bound: float
    clamped: bool
    bracket: tuple[float, float] | None = None
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
    """Best variance-sum floor over the width parameter (module docstring).

    C >= sum_k ln n raises ``RegimeError``.  C <= sum_k ln m_k, with delta =
    1e-8 h (h the largest half-spread, 1 if all spectra are degenerate), gets
    floor 0 from one kernel call at t = 0, and no bracket.  Otherwise 17 widths
    of the lattice t_k = ln 1e-2 + k step, step = ln(1e4) / 16, from k =
    round(2 ln(n - 1) / step) on, so centred near alpha h^2 = (n - 1)^2 (alpha
    h^2 in [1e-2, 1e2] at n = 2), and 16 more past an end while the best is
    there, find the peak's neighbours.  The first step inside them goes to
    the root of the cubic that matches the exact slope D and D' at both; then
    Newton steps inside the bracket where D changes sign, each at most half
    the step before last, else bisections, close in.  The search stops on a
    Newton step at most ``LOG_ALPHA_TOL`` long, not taken, or on a bracket
    that short; a bracket so closed, as where the argmax switches modes, gets
    one evaluation where its ends' tangent lines meet.  The report is the best
    point evaluated.
    """
    stack, rows = _spectra(list(observables))
    counts = np.bincount(rows)
    c = constant.value
    h = 0.5 * float(np.max(stack[:, -1] - stack[:, 0])) or 1.0
    found = []  # (raw, alphas, *columns) of every evaluation

    def evaluate(t):
        """The rows t, raw, D, D' and alpha at each t = ln(alpha h^2)."""
        with np.errstate(over="ignore", divide="ignore"):
            alphas = np.exp(t) / (h * h)
        if np.count_nonzero((alphas > 0.0) & (alphas < np.inf)) < alphas.size:
            raise ValueError(f"half-spread {h!r} is too {'large' if h > 1.0 else 'small'}: "
                             "the alpha search runs past the float range")
        raw, slope, curv, columns = _floors(stack, counts, c, alphas)
        found.append((raw, alphas, *columns))
        return np.stack([t, raw, slope, curv, alphas])

    def report(bracket):
        raw, alphas, *columns = (np.concatenate(x, axis=-1) for x in zip(*found))
        best = int(np.argmax(raw))
        return _report(rows, float(alphas[best]), constant, raw, columns, best,
                       bracket=bracket, refine_steps=len(found) - 1)

    # m_k: the most eigenvalues of spectrum k within 2 delta = 2e-8 h of one another
    near = [(np.searchsorted(r, r + 2e-8 * h, side="right") - np.arange(r.size)).max() for r in stack]
    if c <= counts @ np.log(near):
        evaluate(np.zeros(1))
        return report(None)
    if c >= (top := float(counts.sum() * math.log(stack.shape[1]))):
        raise RegimeError(f"entropy constant {c!r} is not below sum_k ln n = {top!r}: the floor grows without bound")
    step = math.log(1e4) / 16
    # centred on the lattice point nearest alpha h^2 = (n - 1)^2, a Gaussian as wide as the mean spacing
    first = round(2.0 * math.log(stack.shape[1] - 1) / step)
    grid = evaluate(np.linspace(math.log(1e-2), math.log(1e2), 17) + first * step)
    while (i := int(np.argmax(grid[1]))) in (0, grid.shape[1] - 1):
        more = evaluate(grid[0, i] + (step if i else -step) * np.arange(1, 17))  # the peak lies past the end
        grid = np.hstack([more[:, ::-1], grid] if i == 0 else [grid, more])
    lo, point, hi = grid[:, i - 1:i + 2].T
    before = last = math.inf  # the lengths of the step before last and of the last step
    while True:
        t, _, d, curv, _ = point
        lo, hi = (point, hi) if d >= 0.0 else (lo, point)  # a NaN slope counts as falling
        newton = t - d / curv if -np.inf < curv < 0.0 else np.nan
        # point is an end of the bracket, so a step that rounds onto it still stops here
        if lo[0] <= newton <= hi[0] and abs(newton - t) <= LOG_ALPHA_TOL:
            break
        if hi[0] - lo[0] <= LOG_ALPHA_TOL:  # as at a mode switch, where D jumps from + to -
            (tl, vl, dl), (tr, vr, dr) = lo[:3], hi[:3]
            if dl > dr and tl < (meet := (vr - vl + dl * tl - dr * tr) / (dl - dr)) < tr:
                evaluate(np.array([meet]))
            break
        if last == math.inf:  # the first step, between two grid widths
            newton = _cubic_root(lo, hi, t, newton)
        # Brent's safeguard: a Newton step longer than half the step before last is a bisection
        if not (lo[0] < newton < hi[0] and abs(newton - t) <= 0.5 * before):
            newton = 0.5 * (lo[0] + hi[0])
        before, last = last, abs(newton - t)
        point = evaluate(np.array([newton]))[:, 0]
    return report((float(lo[4]), float(hi[4])))


def _cubic_root(lo, hi, t: float, newton: float) -> float:
    """The root inside the bracket of the cubic in t that matches D and D' at
    both ends, the one nearest t where there are several, else ``newton``."""
    (tl, _, dl, cl), (tr, _, dr, cr) = lo[:4], hi[:4]
    w = tr - tl
    # in s = (t - tl) / w, from the Hermite basis polynomials
    coef = np.array([2.0 * (dl - dr) + w * (cl + cr), 3.0 * (dr - dl) - w * (2.0 * cl + cr), w * cl, dl])
    if not np.all(np.isfinite(coef)):
        return newton
    s = np.roots(coef)
    s = s.real[(s.imag == 0.0) & (s.real > 0.0) & (s.real < 1.0)]
    return float(tl + w * s[np.argmin(np.abs(tl + w * s - t))]) if s.size else newton


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
