import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import scalar_descent
from vurkit import (OracleConfig, QuantumState, eigendecompose, expectation,
                    gaussian_sum, lemma_sweep, measurement_distribution,
                    minimize_variance_sum, sample_random_pure, shannon_entropy,
                    variance, variance_sum)
from vurkit.fixtures import PAULI_Z, pauli3, qutrit4
from vurkit.oracle import (STOP_REASONS, ambient_variance_sum,
                           ambient_variance_sum_gradient, random_hermitian)


def test_qubit_triple_minimum_is_two():
    result = minimize_variance_sum(pauli3(), OracleConfig(restarts=16, seed=0))
    assert result.minimum == pytest.approx(2.0, abs=1e-9)
    assert result.restarts_agreeing == 16


def test_qutrit_quadruple_minimum_is_one():
    result = minimize_variance_sum(qutrit4(), OracleConfig(restarts=24, seed=0))
    assert result.minimum == pytest.approx(1.0, abs=1e-6)


def test_single_observable_minimum_is_zero_at_eigenstate():
    sz = eigendecompose(PAULI_Z)
    result = minimize_variance_sum([sz], OracleConfig(restarts=8, seed=1))
    assert result.minimum == pytest.approx(0.0, abs=1e-9)
    assert abs(abs(expectation(sz, result.argmin_state)) - 1.0) <= 1e-5


def test_argmin_state_reproduces_minimum():
    result = minimize_variance_sum(qutrit4(), OracleConfig(restarts=8, seed=3))
    assert variance_sum(qutrit4(), result.argmin_state) == pytest.approx(result.minimum, abs=1e-10)
    assert np.linalg.norm(result.argmin_state.vector) == pytest.approx(1.0, abs=1e-10)


def test_oracle_determinism_same_seed():
    cfg = OracleConfig(restarts=8, seed=42)
    a = minimize_variance_sum(qutrit4(), cfg)
    b = minimize_variance_sum(qutrit4(), cfg)
    assert a.minimum == b.minimum
    assert a.restarts_agreeing == b.restarts_agreeing
    assert np.array_equal(a.argmin_state.vector, b.argmin_state.vector)


def test_oracle_stop_counts():
    # the pauli3 variance sum is 2 on every state, so every restart starts flat
    flat = minimize_variance_sum(pauli3(), OracleConfig(restarts=16, seed=0))
    assert flat.stops == {"gradient": 16, "step_underflow": 0, "max_iters": 0}
    assert flat.iterations == 0

    result = minimize_variance_sum(qutrit4(), OracleConfig(restarts=16, seed=0))
    assert list(result.stops) == list(STOP_REASONS)
    assert sum(result.stops.values()) == 16
    assert 0 < result.iterations <= 2000

    capped = minimize_variance_sum(qutrit4(), OracleConfig(restarts=8, max_iters=5, seed=0))
    assert capped.stops == {"gradient": 0, "step_underflow": 0, "max_iters": 8}
    assert capped.iterations == 5



def test_qubit_triple_variance_sum_identity():
    # for every pure qubit state the variance sum equals 3 minus the squared
    # expectation vector, which is identically 2
    obs = pauli3()
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = sample_random_pure(2, rng)
        total = variance_sum(obs, state)
        bloch_sq = sum(expectation(o, state) ** 2 for o in obs)
        assert total == pytest.approx(3.0 - bloch_sq, abs=1e-10)
        assert total == pytest.approx(2.0, abs=1e-10)


def test_sample_random_pure_dimension_one_is_phase_fixed():
    rng = np.random.default_rng(0)
    state = sample_random_pure(1, rng)
    assert np.allclose(state.vector, [1.0])


def test_sample_random_pure_determinism():
    a = sample_random_pure(2, np.random.default_rng(1234))
    b = sample_random_pure(2, np.random.default_rng(1234))
    assert np.array_equal(a.vector, b.vector)


def test_sample_random_pure_haar_first_moment():
    rng = np.random.default_rng(5)
    total = np.zeros(3)
    n_samples = 10_000
    for _ in range(n_samples):
        total += np.abs(sample_random_pure(3, rng).vector) ** 2
    mean = total / n_samples
    assert np.max(np.abs(mean - 1.0 / 3.0)) <= 0.01


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-6
    for trial in range(100):
        dim = (2, 3, 4, 5)[trial % 4]
        obs = [eigendecompose(random_hermitian(dim, rng))
               for _ in range(int(rng.integers(1, 4)))]
        x = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        analytic = ambient_variance_sum_gradient(obs, x)
        numeric = np.empty(2 * dim)
        for k in range(2 * dim):
            bump = np.zeros(2 * dim)
            bump[k] = h
            xp = (x.real + bump[:dim]) + 1j * (x.imag + bump[dim:])
            xm = (x.real - bump[:dim]) + 1j * (x.imag - bump[dim:])
            numeric[k] = (ambient_variance_sum(obs, xp) - ambient_variance_sum(obs, xm)) / (2 * h)
        denom = max(np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_descent_never_ends_above_start():
    from vurkit.oracle import _descend, _operator_matrices
    rng = np.random.default_rng(21)
    obs = qutrit4()
    x0 = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    start = np.array([ambient_variance_sum(obs, row) for row in x0])
    final, x, stop, iters = _descend(*_operator_matrices(obs), x0, 2000)
    assert np.all(final <= start + 1e-12)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    assert stop.shape == iters.shape == (10,)
    assert np.all(iters <= 2000)


def test_batched_descent_matches_scalar_reference():
    # the reference loops over one restart at a time on dense matrices; both
    # take the same steps, so the final values agree to rounding
    from vurkit.oracle import _descend, _operator_matrices
    rng = np.random.default_rng(5)
    for n, k in ((3, 2), (4, 3), (8, 2)):
        obs = [eigendecompose(random_hermitian(n, rng)) for _ in range(k)]
        x0 = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        for max_iters in (20, 250):  # mid-descent, and past convergence
            final = _descend(*_operator_matrices(obs), x0, max_iters)[0]
            expected = [scalar_descent([o.matrix for o in obs], row, max_iters) for row in x0]
            assert final == pytest.approx(expected, rel=1e-12)


def test_lemma_sweep_no_violations():
    report = lemma_sweep(2000, dims=(2, 3, 4, 5), seed=8)
    assert report.samples == 2000
    assert report.max_violation <= 1e-9
    assert report.violations == 0
    # the recorded worst triple re-evaluates to its reported slack
    obs, state, alpha = report.worst_observable, report.worst_state, report.worst_alpha
    p = measurement_distribution(obs, state)
    mu = float(p @ obs.eigenvalues)
    v = float(p @ (obs.eigenvalues - mu) ** 2)
    floor = (shannon_entropy(p) - math.log(gaussian_sum(obs.eigenvalues, alpha, mu))) / alpha
    assert floor - v == pytest.approx(report.max_violation, abs=1e-12)


def test_lemma_tiny_alpha_is_trivially_satisfied():
    rng = np.random.default_rng(4)
    obs = eigendecompose(random_hermitian(2, rng))
    state = sample_random_pure(2, rng)
    p = measurement_distribution(obs, state)
    mu = float(p @ obs.eigenvalues)
    alpha = 1e-6
    floor = (shannon_entropy(p) - math.log(gaussian_sum(obs.eigenvalues, alpha, mu))) / alpha
    assert floor < -1e3
    assert variance(obs, state) >= floor


def test_lemma_eigenstate_gives_nonpositive_floor():
    sz = eigendecompose(PAULI_Z)
    ket0 = QuantumState.pure([1.0, 0.0])
    p = measurement_distribution(sz, ket0)
    mu = float(p @ sz.eigenvalues)
    for alpha in (0.1, 1.0, 10.0):
        floor = (shannon_entropy(p) - math.log(gaussian_sum(sz.eigenvalues, alpha, mu))) / alpha
        assert floor <= 1e-12
    assert variance(sz, ket0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_oracle_minimum_never_below_zero(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    obs = [eigendecompose(random_hermitian(dim, rng)) for _ in range(2)]
    result = minimize_variance_sum(obs, OracleConfig(restarts=4, seed=seed))
    assert result.minimum >= -1e-12
    assert 1 <= result.restarts_agreeing <= 4


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(max_iters=0)
