"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: dense grids instead of
the mode search, raw matrix moments instead of spectral distributions.  The
Hermiticity check and the Robertson floor live here because only the tests
use them.
"""

import numpy as np

from vurkit import DEFAULT_TOLERANCES, DimensionMismatchError


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


def robertson_bound(a, b, state):
    """Half the modulus of the commutator expectation (the classic product-form
    floor), from dense matrices."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return 0.5 * abs(complex(np.trace(state.density_matrix() @ comm)))


def scalar_descent(matrices, x0, max_iters, armijo=0.25, grad_tol=1e-12, step_tol=1e-12):
    """One restart of saddle-free Riemannian Newton descent on the unit sphere,
    written as a plain loop over dense matrices in the real coordinates
    z = [Re x, Im x], with each square taken as a dense product.  Returns the
    final variance sum."""
    n = len(x0)
    eye = np.eye(2 * n)
    forms = []
    for m in matrices:
        m = np.asarray(m, dtype=complex)
        a = np.block([[m.real, -m.imag], [m.imag, m.real]])
        forms.append((a, a @ a))

    def value(z):
        return sum(np.sum((a @ z - (z @ a @ z) * z) ** 2) for a, _ in forms)

    def gradient_and_step(z):
        grad = np.zeros(2 * n)
        hess = np.zeros((2 * n, 2 * n))
        for a, a2 in forms:
            az = a @ z
            q = z @ az
            grad += 2.0 * a2 @ z - 4.0 * q * az
            hess += 2.0 * a2 - 8.0 * np.outer(az, az) - 4.0 * q * a
        hess -= (z @ grad) * eye
        jz = np.concatenate([-z[n:], z[:n]])
        proj = eye - np.outer(z, z) - np.outer(jz, jz)
        g = proj @ grad
        lam, u = np.linalg.eigh(proj @ hess @ proj)
        return g, -proj @ u @ ((u.T @ g) / np.maximum(np.abs(lam), np.linalg.norm(g)))

    z = np.concatenate([np.real(x0), np.imag(x0)])
    z = z / np.linalg.norm(z)
    f = value(z)
    for _ in range(max_iters):
        g, d = gradient_and_step(z)
        decrement = -(g @ d)
        if np.linalg.norm(g) <= grad_tol or decrement <= 4.0 * np.finfo(float).eps * max(1.0, abs(f)):
            break
        step = 1.0
        while step >= step_tol:
            cand = z + step * d
            cand /= np.linalg.norm(cand)
            fc = value(cand)
            if fc <= f - armijo * step * decrement and fc < f:
                break
            step *= 0.5
        else:
            break
        z, f = cand, fc
    return f
