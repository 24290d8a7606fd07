"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: dense grids instead of
the mode search, the Gaussian sum by its direct formula instead of the
log-domain kernel, raw matrix moments instead of spectral distributions.  The
Hermiticity check and the Robertson floor live here because only the tests
use them.
"""

import math
from itertools import chain

import numpy as np

from vurkit import DEFAULT_TOLERANCES, DimensionMismatchError, FileFormatError


def dense_grid_max(eigenvalues, alpha, points=1_000_001, chunk=250_000):
    """Brute-force maximum of sum_k exp(-alpha (a_k - beta)^2) over a uniform
    beta grid spanning [min eigenvalue, max eigenvalue]."""
    evals = np.asarray(eigenvalues, dtype=float)
    lo, hi = float(evals.min()), float(evals.max())
    if hi == lo:
        return float(evals.size), lo
    best_val, best_beta = -np.inf, lo
    for start in range(0, points, chunk):
        stop = min(start + chunk, points)
        betas = lo + (hi - lo) * np.arange(start, stop) / (points - 1)
        vals = np.exp(-alpha * (evals[None, :] - betas[:, None]) ** 2).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_beta = float(vals[i]), float(betas[i])
    return best_val, best_beta


def _log_gaussian_sums(evals, alpha, betas):
    """ln sum_k exp(-alpha (a_k - beta)^2) at each beta, the largest term
    factored out so that a sum of underflowing terms still has its logarithm."""
    exponents = -alpha * (evals[None, :] - np.asarray(betas, dtype=float)[:, None]) ** 2
    top = exponents.max(axis=1)
    return top + np.log(np.exp(exponents - top[:, None]).sum(axis=1))


def polished_grid_maxima(eigenvalues, alpha, points=20_001, steps=80):
    """Every local maximum of sum_k exp(-alpha (a_k - beta)^2) over beta in
    [min eigenvalue, max eigenvalue], ascending in beta: each point of a
    uniform grid that is above its left neighbour and not below its right one
    (beyond the interval counts as lower) brackets one between those
    neighbours, golden-section search on the log of the sum narrows the
    bracket to a few ulps, and the best of the 9 floats about its middle by
    ``exact_gaussian_sum`` is the maximum: at a narrow Gaussian width one ulp
    of beta already moves the sum by more than its rounding.  Returns the
    centers and their sums."""
    evals = np.sort(np.asarray(eigenvalues, dtype=float))
    if evals[0] == evals[-1]:
        return evals[:1], np.array([float(evals.size)])
    betas = np.linspace(evals[0], evals[-1], points)
    log_g = np.concatenate([[-np.inf], _log_gaussian_sums(evals, alpha, betas), [-np.inf]])
    peaks = np.flatnonzero((log_g[1:-1] > log_g[:-2]) & (log_g[1:-1] >= log_g[2:]))
    lo, hi = betas[np.maximum(peaks - 1, 0)], betas[np.minimum(peaks + 1, points - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(steps):
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        keep_left = _log_gaussian_sums(evals, alpha, left) >= _log_gaussian_sums(evals, alpha, right)
        lo, hi = np.where(keep_left, lo, left), np.where(keep_left, right, hi)
    near = np.clip(0.5 * (lo + hi)[:, None] + np.spacing(hi)[:, None] * np.arange(-4, 5), evals[0], evals[-1])
    sums = np.array([[exact_gaussian_sum(evals, alpha, float(b)) for b in row] for row in near])
    return near[np.arange(peaks.size), sums.argmax(axis=1)], sums.max(axis=1)


def gaussian_sum(eigenvalues, alpha, beta):
    """sum_k exp(-alpha (a_k - beta)^2) by the direct formula; it underflows
    to 0 once every term does."""
    evals = np.asarray(eigenvalues, dtype=float)
    return float(np.exp(-alpha * (evals - beta) ** 2).sum())


def exact_gaussian_sum(eigenvalues, alpha, beta):
    """sum_k exp(-alpha (a_k - beta)^2) with each term from ``math.exp`` and
    the terms summed exactly (``math.fsum``), so that the sum adds no rounding
    of its own."""
    return math.fsum(math.exp(-alpha * (float(a) - beta) ** 2) for a in eigenvalues)


def moment_variance(matrix, rho):
    """Tr(rho M^2) - Tr(rho M)^2 computed directly from dense matrices."""
    m = np.asarray(matrix, dtype=complex)
    r = np.asarray(rho, dtype=complex)
    first = float(np.real(np.trace(r @ m)))
    second = float(np.real(np.trace(r @ m @ m)))
    return second - first * first


def moment_expectation(matrix, rho):
    return float(np.real(np.trace(np.asarray(rho, complex) @ np.asarray(matrix, complex))))


def variance_sum(observables, state):
    """Sum of the observables' variances on one state, from dense moments."""
    rho = state.density_matrix()
    return sum(moment_variance(o.matrix, rho) for o in observables)


def hermiticity_defect(m):
    """Max entrywise deviation of a square matrix from its conjugate transpose."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {arr.shape}")
    return float(np.max(np.abs(arr - arr.conj().T)))


def validate_hermitian(m, tol=DEFAULT_TOLERANCES):
    return hermiticity_defect(m) <= tol.hermiticity


def phase_fixed_columns(vectors):
    """Every column rotated, one at a time, so that its first component of
    modulus above 1e-12 is real positive; other columns are left as they are."""
    fixed = np.array(vectors, dtype=complex)
    for j in range(fixed.shape[1]):
        idx = np.flatnonzero(np.abs(fixed[:, j]) > 1e-12)
        if idx.size:
            pivot = fixed[idx[0], j]
            fixed[:, j] *= abs(pivot) / pivot
    return fixed


def one_matrix_eigendecompose(m, tol=DEFAULT_TOLERANCES):
    """Ascending eigenvalues and phase-fixed eigenvector columns of one
    Hermitian matrix, by the library's one-matrix path written out: its own
    Hermiticity gate, one ``eigh`` on the Hermitized matrix, the column phase
    fix by one fancy index, and the reconstruction guard.
    ``core.eigendecompose`` must reproduce it bit for bit."""
    arr = np.asarray(m, dtype=complex)
    if hermiticity_defect(arr) > tol.hermiticity:
        raise ValueError("matrix is not Hermitian")
    herm = 0.5 * (arr + arr.conj().T)
    evals, evecs = np.linalg.eigh(herm)
    big = np.abs(evecs) > 1e-12
    pivot = evecs[np.argmax(big, axis=0), np.arange(evecs.shape[1])]
    pivot[~big.any(axis=0)] = 1.0
    evecs = evecs * (np.abs(pivot) / pivot)
    residual = float(np.max(np.abs((evecs * evals) @ evecs.conj().T - herm)))
    if residual > tol.reconstruction * max(1.0, float(np.max(np.abs(herm)))):
        raise ValueError(f"eigendecomposition failed to reconstruct input (residual {residual:.3e})")
    return evals, evecs


def searched_pair_variances(a_side, b_side, rho):
    """Every pair's V(A (x) I + I (x) B) from the local moments, each an
    ``einsum`` on the reshaped state whose cross term numpy's path search
    (``optimize=True``) contracts."""
    a, b = (np.stack([o.matrix for o in side]) for side in (a_side, b_side))
    n_a, n_b = a.shape[1], b.shape[1]
    r = rho.density_matrix().reshape(n_a, n_b, n_a, n_b)
    rho_a, rho_b = np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)
    a = a - np.einsum("ik,pki->p", rho_a, a).real[:, None, None] * np.eye(n_a)
    b = b - np.einsum("ik,pki->p", rho_b, b).real[:, None, None] * np.eye(n_b)
    local = np.einsum("ik,pkj,pji->p", rho_a, a, a) + np.einsum("ik,pkj,pji->p", rho_b, b, b)
    cross = np.einsum("ijkl,pki,plj->p", r, a, b, optimize=True)
    return tuple((local + 2.0 * cross).real.tolist())


def dense_covariances(a_mats, b_mats, rho):
    """(Sigma_A, Sigma_B, C) with Sigma_A[p, q] = Re tr(rho A'_p A'_q), Sigma_B
    likewise and C[p, q] = Re tr(rho A'_p B'_q), from the joint operators
    A'_p = A_p (x) I - <A_p> and B'_q = I (x) B_q - <B_q> and tr(rho X) alone."""
    rho = np.asarray(rho, dtype=complex)
    n_a, n_b = len(a_mats[0]), len(b_mats[0])

    def centered(x):
        return x - np.trace(rho @ x).real * np.eye(len(x))

    a = [centered(np.kron(m, np.eye(n_b))) for m in a_mats]
    b = [centered(np.kron(np.eye(n_a), m)) for m in b_mats]
    return tuple(np.array([[np.trace(rho @ x @ y).real for y in right] for x in left])
                 for left, right in ((a, a), (b, b), (a, b)))


def robertson_bound(a, b, state):
    """Half the modulus of the commutator expectation (the classic product-form
    floor), from dense matrices."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return 0.5 * abs(complex(np.trace(state.density_matrix() @ comm)))


def dense_forms(matrices):
    """(A, A^2) per observable: the real (2n, 2n) form of each matrix and its dense square."""
    forms = []
    for m in matrices:
        m = np.asarray(m, dtype=complex)
        a = np.block([[m.real, -m.imag], [m.imag, m.real]])
        forms.append((a, a @ a))
    return forms


def _tangent_projector(z):
    """I - z z^T - Jz (Jz)^T: removes the unit row z and the phase direction Jz."""
    n = len(z) // 2
    jz = np.concatenate([-z[n:], z[:n]])
    return np.eye(2 * n) - np.outer(z, z) - np.outer(jz, jz)


def _dense_value(forms, z):
    return sum(np.sum((a @ z - (z @ a @ z) * z) ** 2) for a, _ in forms)


def dense_evaluation(forms, z):
    """Variance sum, projected gradient and projected Hessian at one unit row
    z = [Re x, Im x], by a plain loop over the dense ``(A, A^2)`` pairs of
    ``dense_forms``, projected by ``_tangent_projector``."""
    eye = np.eye(len(z))
    grad = np.zeros(len(z))
    hess = np.zeros((len(z), len(z)))
    for a, a2 in forms:
        az = a @ z
        q = z @ az
        grad += 2.0 * a2 @ z - 4.0 * q * az
        hess += 2.0 * a2 - 8.0 * np.outer(az, az) - 4.0 * q * a
    hess -= (z @ grad) * eye
    proj = _tangent_projector(z)
    return _dense_value(forms, z), proj @ grad, proj @ hess @ proj


def scalar_descent(matrices, x0, max_iters, armijo=0.25, grad_tol=1e-12):
    """One restart of saddle-free Riemannian Newton descent on the unit sphere,
    written as a plain loop over dense matrices in the real coordinates
    z = [Re x, Im x], with each square taken as a dense product.  Backtracking
    ends once the next step's Armijo target is at most the rounding of f.  Returns the
    final variance sum."""
    forms = dense_forms(matrices)

    def gradient_and_step(z):
        _, g, hess = dense_evaluation(forms, z)
        lam, u = np.linalg.eigh(hess)
        return g, -_tangent_projector(z) @ u @ ((u.T @ g) / np.maximum(np.abs(lam), np.linalg.norm(g)))

    z = np.concatenate([np.real(x0), np.imag(x0)])
    z = z / np.linalg.norm(z)
    f = _dense_value(forms, z)
    for _ in range(max_iters):
        g, d = gradient_and_step(z)
        decrement = -(g @ d)
        rounding = 4.0 * np.finfo(float).eps * max(1.0, abs(f))
        if np.linalg.norm(g) <= grad_tol or decrement <= rounding:
            break
        step = 1.0
        while step == 1.0 or armijo * step * decrement > rounding:
            cand = z + step * d
            cand /= np.linalg.norm(cand)
            fc = _dense_value(forms, cand)
            if fc <= f - armijo * step * decrement and fc < f:
                break
            step *= 0.5
        else:
            break
        z, f = cand, fc
    return f


def _entropy_sums(outcomes, x):
    """sum_k H(p_k) at each unit row of x, p_k the distribution over observable
    k's distinct eigenvalues, and its gradient in x as a complex row (real
    part in Re x, imaginary part in Im x).  In the amplitudes c = <v|x>,
    d(-p ln p)/dx = -(ln p + 1) 2 c v tends to 0 with p, so p = 0 adds 0."""
    f, grad = np.zeros(len(x)), np.zeros_like(x)
    for vectors, member in outcomes:
        c = x @ vectors.conj()
        p = (np.abs(c) ** 2) @ member
        log_p = np.log(np.where(p > 0.0, p, 1.0))
        f -= (p * log_p).sum(axis=1)
        grad -= 2.0 * (((log_p + 1.0) @ member.T) * c) @ vectors.T
    return f, grad


def min_entropy_sum(observables, restarts, seed):
    """The lowest sum of the observables' measurement entropies (nats, each
    over its distinct eigenvalues) that Riemannian gradient descent on the
    unit sphere, with Armijo backtracking, reaches from ``restarts``
    Haar-random pure states in at most 300 steps.  A state reaches it, so it
    is at least the true minimum, and every sound entropy-sum constant lies
    at or below it."""
    outcomes = []
    for o in observables:
        # eigenvalues within 1e-9 of the spread of one another are one outcome
        e = o.eigenvalues
        label = np.concatenate([[0], np.cumsum(np.diff(e) > 1e-9 * max(1.0, e[-1] - e[0]))])
        outcomes.append((o.eigenvectors, np.eye(label[-1] + 1)[label]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((restarts, observables[0].dim, 2)) @ np.array([1.0, 1j])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    f, grad = _entropy_sums(outcomes, x)
    step = np.ones(restarts)
    for _ in range(300):
        # the gradient's part along the sphere; the phase direction has none
        r = grad - np.sum(x.conj() * grad, axis=1).real[:, None] * x
        slope = np.sum(np.abs(r) ** 2, axis=1)
        step = np.minimum(2.0 * step, 1.0)
        while True:
            trial = x - step[:, None] * r
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            f_trial, grad_trial = _entropy_sums(outcomes, trial)
            ok = f_trial <= f - 1e-4 * step * slope  # Armijo's sufficient decrease
            if np.all(ok | (step < 1e-12)):
                break
            step = np.where(ok, step, 0.5 * step)
        if not ok.any():
            break
        x, f, grad = np.where(ok[:, None], trial, x), np.where(ok, f_trial, f), np.where(ok[:, None], grad_trial, grad)
    return float(f.min())


def document_array(items, kind):
    """A document array converted one entry at a time: ``eigenvalues`` a list
    of numbers, ``pure`` a list of [re, im] pairs, any other kind a square
    list of rows of pairs.  Rows must be lists, pairs lists or tuples of two,
    numbers finite ints or floats and not bools; the first entry in row order
    that is not raises ``FileFormatError`` naming it."""

    def number(obj, label):
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise FileFormatError(f"{label} must be a number, got {obj!r}")
        try:
            value = float(obj)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise FileFormatError(f"{label} must be finite, got {obj!r}")
        return value

    def pair(obj, label):
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise FileFormatError(f"{label} must be a [re, im] pair, got {obj!r}")
        return complex(number(obj[0], label), number(obj[1], label))

    if kind == "eigenvalues":
        return np.array([number(x, f"{kind}[{i}]") for i, x in enumerate(items)], dtype=float)
    if kind == "pure":
        return np.array([pair(x, f"{kind}[{i}]") for i, x in enumerate(items)], dtype=complex)
    n = len(items)
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(items):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"{kind} must be square; row {i} has length "
                                  f"{len(row) if isinstance(row, list) else 'N/A'}, expected {n}")
        for j, x in enumerate(row):
            out[i, j] = pair(x, f"{kind}[{i}][{j}]")
    return out


def nested_document_array(items, kind):
    """A document array converted by one nested ``np.array(items, dtype=float)``
    call, then checked for shape, finiteness and, level by level, entry types;
    ``kind`` as in ``document_array``, which names the first bad entry of a
    refused array."""

    def refuse():
        document_array(items, kind)
        raise FileFormatError(f"{kind} is not an array numpy can read")

    square, pairs = kind not in ("eigenvalues", "pure"), kind != "eigenvalues"
    shape = (len(items),) * (1 + square) + (2,) * pairs
    try:
        out = np.array(items, dtype=float)
    except (TypeError, ValueError, OverflowError):
        refuse()
    if out.shape != shape or not np.isfinite(out).all():
        refuse()
    # numpy alone reads bools and numeric strings as numbers and any sequence as a row or pair
    for depth, kinds in enumerate([(list,)] * square + [(list, tuple)] * pairs + [(int, float)]):
        entries = items
        for _ in range(depth):
            entries = chain.from_iterable(entries)
        types = set(map(type, entries))
        if bool in types or not all(issubclass(t, kinds) for t in types):
            refuse()
    return out.view(complex)[..., 0] if pairs else out
