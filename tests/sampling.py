"""Random cases for the property and acceptance tests."""

import math

import numpy as np

from vurkit import (QuantumState, eigendecompose, measurement_distribution, random_hermitian,
                    sample_random_pure, shannon_entropy, state_dependent_bound, user_supplied)
from vurkit.core import check_integer


def lemma_sweep(n_samples, dims=(2, 3, 4, 5), seed=0):
    """Evaluate the single-operator floor V >= (H - ln g(mean)) / alpha, g the
    Gaussian sum, on random (Gaussian-ensemble observable, Haar state,
    log-uniform alpha) triples, the i-th of dimension ``dims[i % len(dims)]``.
    Returns the largest floor - V (positive: the floor exceeded the variance)
    and the number of triples where it is above 1e-9."""
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0)
    dims = tuple(check_integer("dims entry", d, 1) for d in dims)
    if not dims:
        raise ValueError("need at least one dimension in dims, got ()")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_violation, violations = -math.inf, 0
    for i in range(n_samples):
        n = dims[i % len(dims)]
        obs = eigendecompose(random_hermitian(n, rng))
        state = sample_random_pure(n, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        p = measurement_distribution(obs, state)
        mu = float(p @ obs.eigenvalues)
        v = float(p @ (obs.eigenvalues - mu) ** 2)
        violation = state_dependent_bound([obs], state, alpha, user_supplied(shannon_entropy(p))) - v
        violations += violation > 1e-9
        max_violation = max(max_violation, violation)
    return max_violation, violations


def sample_random_separable(dim_a, dim_b, rng):
    """Random convex mixture of 1 to 8 Haar product states with Dirichlet
    weights; covers the interior of the separable set."""
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
    rho = np.zeros((dim_a * dim_b,) * 2, dtype=complex)
    for w in weights:
        v = np.kron(sample_random_pure(dim_a, rng).vector, sample_random_pure(dim_b, rng).vector)
        rho += w * np.outer(v, v.conj())
    return QuantumState.density(0.5 * (rho + rho.conj().T))
