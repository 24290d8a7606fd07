import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import one_matrix_eigendecompose, phase_fixed_columns, robertson_bound, validate_hermitian
from vurkit import (DimensionMismatchError, InvalidStateError, NotHermitianError, QuantumState,
                    SpectralObservable, eigendecompose, expectation,
                    measurement_distribution, overlap_stats, select_constant,
                    shannon_entropy, variance)
from vurkit.config import DEFAULT_TOLERANCES, with_overrides
from vurkit.core import HermitianMatrix, hermitized, phase_fix_columns
from vurkit.fixtures import PAULI_X, PAULI_Y, PAULI_Z, pauli3, qutrit4, qutrit4_matrices
from vurkit.oracle import random_hermitian, sample_random_pure

KET0 = QuantumState.pure([1.0, 0.0])
MIXED_QUBIT = QuantumState.density(np.eye(2) / 2)


def test_validate_hermitian_examples():
    assert validate_hermitian(PAULI_Z)
    assert not validate_hermitian(np.array([[0, 1j], [1j, 0]]))
    assert validate_hermitian(qutrit4_matrices()[1])


def test_validate_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        validate_hermitian(np.zeros((2, 3)))


def test_third_pi_reading_of_first_cyclic_matrix_is_not_hermitian():
    # reading the first cyclic matrix's phases as pi/3 multiples, like those of
    # the other two, fails Hermiticity outright; the fixture uses pi multiples
    def e(k):
        return np.exp(1j * k * np.pi / 3)

    third_pi = (1j / math.sqrt(3.0)) * np.array([[0, e(5), e(4)], [1, 0, e(3)], [e(1), e(2), 0]])
    assert not validate_hermitian(third_pi)


def test_eigendecompose_diagonal():
    obs = eigendecompose(np.diag([1.0, -1.0, 0.0]))
    assert np.allclose(obs.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)


def test_eigendecompose_sigma_x():
    obs = eigendecompose(PAULI_X)
    assert np.allclose(obs.eigenvalues, [-1.0, 1.0], atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    # phase convention: first nonzero component real positive
    assert np.allclose(obs.eigenvectors[:, 0], [s, -s], atol=1e-12)
    assert np.allclose(obs.eigenvectors[:, 1], [s, s], atol=1e-12)


def test_eigendecompose_qutrit_cyclic():
    obs = eigendecompose(qutrit4_matrices()[1])
    assert np.allclose(obs.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-10)


def test_qutrit4_spectra_exact():
    for obs, literal in zip(qutrit4(), qutrit4_matrices()):
        assert np.array_equal(obs.eigenvalues, [-1.0, 0.0, 1.0])
        assert np.max(np.abs(obs.matrix - literal)) <= 1e-14


def test_eigendecompose_rejects_non_hermitian_with_diagnostic():
    with pytest.raises(NotHermitianError, match="asymmetry"):
        eigendecompose(np.array([[0, 1j], [1j, 0]]))


def test_eigendecompose_contract_on_random_matrices():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5, 8):
        for _ in range(20):
            m = random_hermitian(dim, rng)
            obs = eigendecompose(m)
            assert np.all(np.diff(obs.eigenvalues) >= 0)
            assert obs.orthonormality_defect() <= 1e-10
            assert np.max(np.abs(obs.matrix - m)) <= 1e-9
            for i in range(dim):
                residual = m @ obs.eigenvectors[:, i] - obs.eigenvalues[i] * obs.eigenvectors[:, i]
                assert np.linalg.norm(residual) <= 1e-9


def test_spectral_observable_rejects_descending_eigenvalues():
    with pytest.raises(ValueError, match="ascending"):
        SpectralObservable(np.array([1.0, -1.0]), np.eye(2, dtype=complex))


def test_spectral_observable_rejects_spread_past_the_float_range():
    with pytest.raises(ValueError, match="spread"):
        SpectralObservable(np.array([-1e308, 1e308]), np.eye(2, dtype=complex))


def test_expectation_examples():
    assert expectation(eigendecompose(PAULI_Z), KET0) == pytest.approx(1.0, abs=1e-12)
    assert expectation(eigendecompose(PAULI_X), KET0) == pytest.approx(0.0, abs=1e-12)
    assert expectation(eigendecompose(PAULI_Z), MIXED_QUBIT) == pytest.approx(0.0, abs=1e-12)


def test_variance_examples():
    assert variance(eigendecompose(PAULI_Z), KET0) == pytest.approx(0.0, abs=1e-12)
    assert variance(eigendecompose(PAULI_X), KET0) == pytest.approx(1.0, abs=1e-12)
    assert variance(eigendecompose(PAULI_Z), MIXED_QUBIT) == pytest.approx(1.0, abs=1e-12)


def test_measurement_distribution_examples():
    # probabilities come out in ascending-eigenvalue order
    assert np.allclose(measurement_distribution(eigendecompose(PAULI_Z), KET0), [0.0, 1.0])
    assert np.allclose(measurement_distribution(eigendecompose(PAULI_X), KET0), [0.5, 0.5])
    assert np.allclose(measurement_distribution(eigendecompose(PAULI_Z), MIXED_QUBIT), [0.5, 0.5])


def test_phase_fix_columns_matches_per_column_reference():
    rng = np.random.default_rng(4)
    for n, k in ((1, 1), (2, 4), (3, 5), (8, 8), (16, 9)):
        m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        if k > 1:
            m[: n - 1, 0] = 0.0            # zero leading entries
            m[: n // 2, 1] *= 1e-13        # negligible leading entries
            m[: n // 2, 2] *= 1e-9         # small leading entries, above 1e-12: still the pivot
            m[:, -1] = 0.0                 # an all-zero column
        got = phase_fix_columns(m)
        np.testing.assert_allclose(got, phase_fixed_columns(m), rtol=0.0, atol=1e-15)
        for col in got.T:
            big = np.flatnonzero(np.abs(col) > 1e-12)
            if big.size:
                assert abs(col[big[0]].imag) <= 1e-15 and col[big[0]].real > 0.0
            else:
                assert not np.any(col)


def _degenerate_hermitian(n, rng):
    """A spectrum of values from {-1, 0, 1}, most of them repeated, in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * rng.integers(-1, 2, n).astype(float)) @ q.conj().T
    return 0.5 * (m + m.conj().T)


# exactly Hermitian, as every scaled copy then is: the Hermiticity gate is absolute
_FIXTURE_MATRICES = [0.5 * (m + m.conj().T) for m in (PAULI_X, PAULI_Y, PAULI_Z, *qutrit4_matrices())]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6),
       st.booleans(), st.sampled_from(["random", "degenerate", "fixture"]),
       st.integers(min_value=-150, max_value=150))
def test_decomposition_matches_one_matrix_path_bit_for_bit(seed, dims, mixed, kind, exponent):
    # 1-6 matrices of one n or of mixed n in 1-16, with random, repeated or
    # fixture (Pauli, qutrit4) spectra, scaled by 10^(+-150) to reach both ends
    # of the reconstruction guard's scale
    rng = np.random.default_rng(seed)
    make = {"random": random_hermitian, "degenerate": _degenerate_hermitian,
            "fixture": lambda n, rng: _FIXTURE_MATRICES[int(rng.integers(len(_FIXTURE_MATRICES)))]}[kind]
    mats = [make(n, rng) * 10.0 ** exponent for n in (dims if mixed else dims[:1] * len(dims))]
    for m in mats:
        obs, (evals, evecs) = eigendecompose(m), one_matrix_eigendecompose(m)
        assert obs.eigenvalues.tobytes() == evals.tobytes()
        assert obs.eigenvectors.tobytes() == evecs.tobytes()


def test_fixtures_decompose_as_one_matrix_each():
    for obs, m in zip(pauli3(), (PAULI_X, PAULI_Y, PAULI_Z)):
        evals, evecs = one_matrix_eigendecompose(m)
        assert obs.eigenvalues.tobytes() == evals.tobytes()
        assert obs.eigenvectors.tobytes() == evecs.tobytes()
    for obs, m in zip(qutrit4(), qutrit4_matrices()):
        assert obs.eigenvectors.tobytes() == one_matrix_eigendecompose(m)[1].tobytes()
        assert obs.eigenvalues.tolist() == [-1.0, 0.0, 1.0]


def test_eigendecompose_passes_an_observable_through():
    # an observable comes back as the same object; a checked matrix decomposes as the bare one does
    sz = eigendecompose(PAULI_Z)
    assert eigendecompose(sz) is sz
    for m in (PAULI_X, qutrit4_matrices()[2]):
        obs, bare = eigendecompose(hermitized(m)), eigendecompose(m)
        assert obs.eigenvalues.tobytes() == bare.eigenvalues.tobytes()
        assert obs.eigenvectors.tobytes() == bare.eigenvectors.tobytes()


def test_eigendecompose_guards_the_reconstruction():
    # eigh reads one triangle: a matrix that skipped ``hermitized``'s checks is refused
    with pytest.raises(ValueError, match="reconstruct"):
        eigendecompose(HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)))


def test_dimension_mismatch_raises():
    qutrit_state = QuantumState.pure([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        measurement_distribution(eigendecompose(PAULI_Z), qutrit_state)
    with pytest.raises(DimensionMismatchError):
        variance(eigendecompose(PAULI_Z), qutrit_state)


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert shannon_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log(3), abs=1e-12)


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([-0.1, 1.1])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    # NaN passes both the sign and the sum test
    for p in ([math.nan], [0.5, math.nan, 0.5]):
        with pytest.raises(ValueError):
            shannon_entropy(p)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
def test_shannon_entropy_bounded_by_log_n(weights):
    total = sum(weights)
    if total <= 0:
        return
    p = np.asarray(weights) / total
    h = shannon_entropy(p)
    assert 0.0 <= h <= math.log(len(p)) + 1e-12


def test_overlap_stats_examples():
    sz = eigendecompose(PAULI_Z)
    sx = eigendecompose(PAULI_X)
    assert overlap_stats(sz, sz).c == pytest.approx(1.0, abs=1e-12)
    assert overlap_stats(sz, sx).c == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    q = qutrit4()
    assert overlap_stats(q[0], q[1]).c == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_squared_overlap_matrix_is_doubly_stochastic():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        a = eigendecompose(random_hermitian(dim, rng))
        b = eigendecompose(random_hermitian(dim, rng))
        squared = overlap_stats(a, b).overlap_matrix ** 2
        assert np.max(np.abs(squared.sum(axis=0) - 1.0)) <= 1e-9
        assert np.max(np.abs(squared.sum(axis=1) - 1.0)) <= 1e-9


def test_is_mub_examples():
    assert select_constant(pauli3()).mutually_unbiased
    sz = eigendecompose(PAULI_Z)
    assert not select_constant([sz, sz]).mutually_unbiased
    assert select_constant(qutrit4()).mutually_unbiased


def test_robertson_examples():
    sx, sy = eigendecompose(PAULI_X), eigendecompose(PAULI_Y)
    sz = eigendecompose(PAULI_Z)
    plus = QuantumState.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    assert robertson_bound(sx, sy, KET0) == pytest.approx(1.0, abs=1e-12)
    assert robertson_bound(sx, sy, plus) == pytest.approx(0.0, abs=1e-12)
    assert robertson_bound(sz, sz, plus) == pytest.approx(0.0, abs=1e-12)


def test_robertson_inequality_random_sweep():
    # product of spreads dominates half the commutator expectation
    rng = np.random.default_rng(101)
    for i in range(1000):
        dim = (2, 3, 4)[i % 3]
        a = eigendecompose(random_hermitian(dim, rng))
        b = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        spread = math.sqrt(variance(a, state)) * math.sqrt(variance(b, state))
        assert spread - robertson_bound(a, b, state) >= -1e-9


def test_variance_two_computation_paths_agree():
    rng = np.random.default_rng(23)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        obs = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        p = measurement_distribution(obs, state)
        moments = float(p @ obs.eigenvalues ** 2) - float(p @ obs.eigenvalues) ** 2
        assert variance(obs, state) == pytest.approx(moments, abs=1e-10)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=2, max_value=6))
def test_reconstruction_roundtrip_property(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_hermitian(dim, rng)
    obs = eigendecompose(m)
    assert np.max(np.abs(obs.matrix - m)) <= 1e-9
    again = eigendecompose(obs.matrix)
    assert np.allclose(again.eigenvalues, obs.eigenvalues, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e12), st.sampled_from([4, 8, 16, 32, 64]))
def test_reconstruction_guard_scales_with_the_matrix(s, dim):
    # a correct eigh leaves a residual that grows with the matrix's norm, and
    # the spectrum of s A is s times A's
    m = random_hermitian(dim, np.random.default_rng(0))
    scaled = eigendecompose(s * m)
    expected = s * eigendecompose(m).eigenvalues
    assert np.max(np.abs(scaled.eigenvalues - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_expectation_contained_in_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        obs = eigendecompose(random_hermitian(dim, rng))
        mu = expectation(obs, sample_random_pure(dim, rng))
        assert obs.eigenvalues[0] - 1e-12 <= mu <= obs.eigenvalues[-1] + 1e-12


def test_density_state_validation():
    with pytest.raises(Exception, match="trace"):
        QuantumState.density(np.eye(2))
    with pytest.raises(Exception, match="Hermitian"):
        QuantumState.density(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(Exception, match="semidefinite"):
        QuantumState.density(np.diag([1.5, -0.5]))
    with pytest.raises(Exception, match="norm"):
        QuantumState.pure([1.0, 1.0])


def test_density_refusal_names_the_smallest_eigenvalue():
    # just past the default 1e-9: the Cholesky certificate fails and eigvalsh names it
    with pytest.raises(InvalidStateError, match=re.escape(
            "density matrix must be positive semidefinite (smallest eigenvalue -2.000e-09)")):
        QuantumState.density(np.diag([1.0 + 2e-9, -2e-9, 0.0, 0.0]))
    assert QuantumState.density(np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0])).dim == 4


def test_density_certificate_skips_eigvalsh(monkeypatch):
    # a rank-one density at the default tolerance needs no eigenvalues
    psi = sample_random_pure(16, np.random.default_rng(3)).vector
    rho = np.outer(psi, psi.conj())
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert QuantumState.density(rho).dim == 16


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-300, 1e-12, 1e-9]),
       st.sampled_from([0.0, 0.1, 0.45, 0.5, 0.55, 0.9, 0.99, 1.0, 1.01, 1.5, 3.0]))
def test_density_verdict_is_the_eigvalsh_rule(size, seed, tol, depth):
    # a random rank-r density, one null direction pushed to -depth x tol
    # (1e-15 at tol 0): the certificate may only speed up eigvalsh's verdict
    n, rank = size
    rng = np.random.default_rng(seed)
    weights = np.zeros(n)
    weights[:rank] = rng.dirichlet(np.ones(rank))
    if rank < n:
        push = depth * (tol or 1e-15)
        weights[rank] -= push
        weights[0] += push
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    rho = (u * weights) @ u.conj().T
    tols = with_overrides(DEFAULT_TOLERANCES, {"density_eigenvalue": tol})
    try:
        QuantumState.density(rho, tols)
    except InvalidStateError as exc:
        assert "semidefinite" in str(exc)
        accepted = False
    else:
        accepted = True
    assert accepted == (float(np.linalg.eigvalsh(rho)[0]) >= -tol)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-6, 1e-3]),
       st.one_of(st.floats(-1e-2, 1e-2), st.sampled_from([0.0, 1e-9, -1e-9])), st.booleans())
def test_psd_certificate_is_the_shifted_cholesky_verdict(n, seed, tol, delta, blocks):
    # smallest eigenvalue -(tol/2)(1 + delta), so rho + (tol/2) I is near singular either way. Shifting
    # the diagonal of a copy factors the matrix that rho + (tol/2) I forms, up to the sign of its
    # off-diagonal zeros, which block-diagonal draws hold (-0.0 in half): the verdicts are the same.
    # Every tol here is far above the factor's rounding, so the certificate always tries the factor
    from vurkit.core import _psd_certified
    rng = np.random.default_rng(seed)
    cut = n // 2 if blocks else 0
    u = np.zeros((n, n), dtype=complex)
    for lo, hi in ((0, cut), (cut, n)):
        u[lo:hi, lo:hi] = np.linalg.qr(rng.normal(size=(hi - lo,) * 2) + 1j * rng.normal(size=(hi - lo,) * 2))[0]
    weights = rng.uniform(0.0, 1.0, n)
    weights[rng.integers(n)] = -0.5 * tol * (1.0 + delta)
    rho = (u * weights) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho.real[:n // 2][rho.real[:n // 2] == 0.0] = -0.0
    before = rho.tobytes()
    try:
        np.linalg.cholesky(rho + 0.5 * tol * np.eye(n))
    except np.linalg.LinAlgError:
        expected = False
    else:
        expected = True
    assert _psd_certified(rho, tol) == expected
    assert rho.tobytes() == before  # the shift goes to a copy
