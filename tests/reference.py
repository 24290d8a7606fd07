"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: dense grids instead of
golden-section refinement, raw matrix moments instead of spectral
distributions.
"""

import numpy as np


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


def moment_variance(matrix, rho):
    """Tr(rho M^2) - Tr(rho M)^2 computed directly from dense matrices."""
    m = np.asarray(matrix, dtype=complex)
    r = np.asarray(rho, dtype=complex)
    first = float(np.real(np.trace(r @ m)))
    second = float(np.real(np.trace(r @ m @ m)))
    return second - first * first


def moment_expectation(matrix, rho):
    return float(np.real(np.trace(np.asarray(rho, complex) @ np.asarray(matrix, complex))))


def scalar_descent(matrices, x0, max_iters, armijo=0.25, grad_tol=1e-12, step_tol=1e-12):
    """One restart of projected gradient descent on the unit sphere with
    Armijo backtracking, written as a plain loop over dense matrices and their
    raw moments.  Returns the final variance sum."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]

    def moments(x):
        nsq = float(np.real(np.vdot(x, x)))
        out = []
        for m in mats:
            mx = m @ x
            mmx = m @ mx
            out.append((mx, mmx, float(np.real(np.vdot(x, mx))) / nsq,
                        float(np.real(np.vdot(x, mmx))) / nsq))
        return nsq, out

    def value(x):
        return sum(sv - e * e for _, _, e, sv in moments(x)[1])

    def grad(x):
        nsq, ms = moments(x)
        return sum((mmx - sv * x - 2.0 * e * (mx - e * x)) / nsq for mx, mmx, e, sv in ms)

    x = np.asarray(x0, dtype=complex) / np.linalg.norm(x0)
    f = value(x)
    step = 0.5
    for _ in range(max_iters):
        g = grad(x)
        g = g - x * np.real(np.vdot(x, g))
        gnorm = float(np.linalg.norm(g))
        if gnorm <= grad_tol:
            break
        while step >= step_tol:
            cand = x - step * g
            cand /= np.linalg.norm(cand)
            fc = value(cand)
            if fc <= f - armijo * step * gnorm * gnorm:
                break
            step *= 0.5
        else:
            break
        x, f = cand, fc
        step = min(2.0 * step, 1.0)
    return f
