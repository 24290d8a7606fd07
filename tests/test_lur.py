import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import moment_variance, searched_pair_variances
from sampling import sample_random_separable
from vurkit import (DimensionMismatchError, QuantumState, Verdict, eigendecompose,
                    lur_test, optimize_alpha, wu_full_mub)
from vurkit.fixtures import PAULI_Z, ket00, maximally_mixed, pauli3, pauli_pairs, singlet
from vurkit.lur import _pair_variances
from vurkit.oracle import random_hermitian, sample_random_pure


def test_pair_variances_product_state():
    # on |00> X and Y vary by 1 on each qubit, and Z (x) I + I (x) Z is sharp
    report = lur_test(pauli_pairs(), ket00(), u_a=1.0, u_b=1.0)
    assert report.pair_variances == pytest.approx((2.0, 2.0, 0.0), abs=1e-12)
    assert report.lhs == sum(report.pair_variances)


def test_lifted_x_pair_annihilates_singlet():
    # S (x) I + I (x) S annihilates the singlet for every spin axis S
    report = lur_test(pauli_pairs(), singlet(), u_a=1.0, u_b=1.0)
    assert report.pair_variances == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_pair_variances_follow_pair_order():
    pairs = pauli_pairs()
    forward = lur_test(pairs, ket00(), u_a=1.0, u_b=1.0).pair_variances
    backward = lur_test(pairs[::-1], ket00(), u_a=1.0, u_b=1.0).pair_variances
    assert backward == forward[::-1]


def test_pair_variances_ignore_local_shifts():
    # A + s and B + t shift the joint operator by s + t, which no variance sees
    rng = np.random.default_rng(8)
    a, b = random_hermitian(3, rng), random_hermitian(2, rng)
    rho = sample_random_separable(3, 2, rng)
    base = lur_test([(eigendecompose(a), eigendecompose(b))],
                    rho, u_a=0.0, u_b=0.0).pair_variances[0]
    shifted = (eigendecompose(a + 1e3 * np.eye(3)), eigendecompose(b - 1e3 * np.eye(2)))
    again = lur_test([shifted], rho, u_a=0.0, u_b=0.0).pair_variances[0]
    assert again == pytest.approx(base, rel=1e-9)


def _pauli_floor() -> float:
    """U_A = U_B for the pauli pairs: the optimized floor of the qubit spin triple."""
    return optimize_alpha(pauli3(), wu_full_mub(2)).lower_bound


def test_lur_singlet_detected():
    u = _pauli_floor()
    report = lur_test(pauli_pairs(), singlet(), u, u)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.verdict is Verdict.ENTANGLED
    assert report.margin == pytest.approx(-3.44863, abs=1e-4)
    assert report.u_a == pytest.approx(report.u_b, abs=1e-12)


def test_lur_product_state_not_detected():
    u = _pauli_floor()
    report = lur_test(pauli_pairs(), ket00(), u, u)
    assert report.lhs == pytest.approx(4.0, abs=1e-10)
    assert report.verdict is Verdict.NOT_DETECTED


def test_lur_maximally_mixed_not_detected():
    u = _pauli_floor()
    report = lur_test(pauli_pairs(), maximally_mixed(4), u, u)
    assert report.lhs == pytest.approx(6.0, abs=1e-10)
    assert report.verdict is Verdict.NOT_DETECTED


def test_lur_user_supplied_floors_are_honored():
    report = lur_test(pauli_pairs(), ket00(), u_a=1.5, u_b=1.25)
    assert report.u_a == 1.5 and report.u_b == 1.25
    assert report.margin == pytest.approx(report.lhs - 2.75, abs=1e-12)


def test_lur_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        lur_test(pauli_pairs(), QuantumState.pure([1.0, 0.0]), 1.0, 1.0)
    sz2 = eigendecompose(PAULI_Z)
    sz3 = eigendecompose(np.diag([1.0, -1.0, 0.0]))
    mixed_pairs = [(sz2, sz2), (sz3, sz2)]
    with pytest.raises(DimensionMismatchError):
        lur_test(mixed_pairs, maximally_mixed(4), u_a=1.0, u_b=1.0)


def test_lur_rejects_non_finite_floors():
    # an infinite U_A once flagged the product state |00> as entangled
    for u_a, u_b in ((math.inf, 0.0), (math.nan, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError):
            lur_test(pauli_pairs(), ket00(), u_a=u_a, u_b=u_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_lhs_spectral_path_matches_matrix_moments(n_a, n_b, count, pure, seed):
    rng = np.random.default_rng(seed)
    mats = [(random_hermitian(n_a, rng), random_hermitian(n_b, rng)) for _ in range(count)]
    pairs = [(eigendecompose(a), eigendecompose(b)) for a, b in mats]
    rho = (sample_random_pure(n_a * n_b, rng) if pure
           else sample_random_separable(n_a, n_b, rng))
    report = lur_test(pairs, rho, u_a=0.0, u_b=0.0)
    assert len(report.pair_variances) == count
    for (a, b), got in zip(mats, report.pair_variances):
        joint = np.kron(a, np.eye(n_b)) + np.kron(np.eye(n_a), b)
        want = moment_variance(joint, rho.density_matrix())
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n_a, n_b", [(2, 2), (2, 3), (3, 2), (4, 4), (16, 16)])
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("pure", [True, False])
def test_fixed_contraction_path_matches_the_searched_one_bit_for_bit(n_a, n_b, count, pure):
    rng = np.random.default_rng([n_a, n_b, count, pure])
    a_side = [eigendecompose(random_hermitian(n_a, rng)) for _ in range(count)]
    b_side = [eigendecompose(random_hermitian(n_b, rng)) for _ in range(count)]
    rho = sample_random_pure(n_a * n_b, rng) if pure else sample_random_separable(n_a, n_b, rng)
    got, want = _pair_variances(a_side, b_side, rho), searched_pair_variances(a_side, b_side, rho)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_lur_test_runs_no_contraction_path_search(monkeypatch):
    # np.einsum reaches einsum_path and its searches through its own module's
    # globals, not through the np namespace, so the guard patches the searches there
    for name in ("_greedy_path", "_optimal_path"):
        monkeypatch.setitem(np.einsum.__wrapped__.__globals__, name,
                            lambda *args: pytest.fail("contraction path searched"))
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        rng = np.random.default_rng(n_a * n_b)
        pairs = [(eigendecompose(random_hermitian(n_a, rng)), eigendecompose(random_hermitian(n_b, rng)))] * 2
        lur_test(pairs, sample_random_pure(n_a * n_b, rng), u_a=0.0, u_b=0.0)


def test_no_false_positives_on_separable_mixtures():
    # small version of the acceptance sweep; floors computed once and reused
    u = _pauli_floor()
    rng = np.random.default_rng(2024)
    pairs = pauli_pairs()
    for _ in range(100):
        rho = sample_random_separable(2, 2, rng)
        report = lur_test(pairs, rho, u_a=u, u_b=u)
        assert report.verdict is Verdict.NOT_DETECTED


def test_separable_sampler_produces_valid_states():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = sample_random_separable(2, 3, rng)
        assert rho.dim == 6
        mat = rho.density_matrix()
        assert abs(np.trace(mat) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(mat)[0] >= -1e-9
