import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dense_evaluation, dense_forms, gaussian_sum, scalar_descent, variance_sum
from sampling import lemma_sweep
from vurkit import (DEFAULT_TOLERANCES, OracleConfig, QuantumState, eigendecompose, expectation,
                    measurement_distribution, minimize_variance_sum,
                    sample_random_pure, shannon_entropy, variance)
from vurkit.core import hermitized
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
    assert a.restarts == cfg.restarts
    assert a.minimum == b.minimum
    assert a.restarts_agreeing == b.restarts_agreeing
    assert np.array_equal(a.argmin_state.vector, b.argmin_state.vector)


def test_start_rows_come_in_turn_from_one_seeded_generator(monkeypatch):
    # restart i starts at row i of one default_rng(seed) standard-normal (R, 2, n) block, real part
    # then imaginary part: the first k starts are the same bits whatever the number of restarts
    import vurkit.oracle as oracle
    descend, default_rng = oracle._descend, np.random.default_rng
    starts, generators = [], []

    def recording_descend(forms, s, x0, max_iters):
        starts.append(x0.copy())
        return descend(forms, s, x0, max_iters)

    def counting_default_rng(*args):
        generators.append(args)
        return default_rng(*args)

    monkeypatch.setattr(oracle, "_descend", recording_descend)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    for seed in (0, 7, 2**31 - 1):
        for restarts in (1, 2, 5, 16):
            generators.clear()
            minimize_variance_sum(qutrit4(), OracleConfig(restarts=restarts, max_iters=1, seed=seed))
            assert generators == [(seed,)]
        rows = default_rng(seed).standard_normal((16, 2, 3))
        assert starts[-1].tobytes() == (rows[:, 0] + 1j * rows[:, 1]).tobytes()
        for x0 in starts[-4:-1]:
            assert x0.tobytes() == starts[-1][:len(x0)].tobytes()


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


@pytest.mark.parametrize("sampler", [sample_random_pure, random_hermitian])
@pytest.mark.parametrize("dim", [0, -2, 2.5, True, "2"])
def test_samplers_refuse_bad_dimension_by_name(sampler, dim):
    with pytest.raises(ValueError, match="^dim must be an integer"):
        sampler(dim, np.random.default_rng(0))


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
    # take the same steps, so the final values agree to rounding.  At n = 64
    # the 20 restarts' Hessians do not fit one 2 MB block and are split in two
    from vurkit.oracle import _descend, _operator_matrices
    rng = np.random.default_rng(5)
    for n, k, rows in ((3, 2, 4), (4, 3, 4), (8, 2, 4), (64, 2, 20)):
        obs = [eigendecompose(random_hermitian(n, rng)) for _ in range(k)]
        x0 = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        for max_iters in (5, 100):  # mid-descent, and past convergence
            final = _descend(*_operator_matrices(obs), x0, max_iters)[0]
            expected = [scalar_descent([o.matrix for o in obs], row, max_iters) for row in x0]
            assert final == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.floats(-3.0, 3.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_evaluate_matches_dense_reference(n, k, rows, log_scale, seed):
    # the batched value, gradient and projected Hessian against a plain loop over
    # dense matrices, one row at a time; rows need not be unit, and the gradient
    # of f(z / |z|) is the unit row's divided by |z|.  The tolerance is float64
    # rounding at the scale of S (the worst seen was 1.6e-15 of it)
    from vurkit.oracle import _evaluate, _operator_matrices
    rng = np.random.default_rng(seed)
    obs = [hermitized(10.0 ** log_scale * random_hermitian(n, rng)) for _ in range(k)]
    forms, s = _operator_matrices(obs)
    z = rng.standard_normal((rows, 2 * n)) * rng.uniform(0.5, 2.0, (rows, 1))
    nz = np.linalg.norm(z, axis=1)
    tol = 1e-12 * max(1.0, np.linalg.norm(s))
    dense = dense_forms([o.matrix for o in obs])
    value = _evaluate(forms, s, z)
    value_1, grad_1 = _evaluate(forms, s, z, order=1)
    grad, hess = _evaluate(forms, s, z, order=2)[:2]
    assert np.array_equal(value_1, value) and np.array_equal(grad_1, grad)
    for r in range(rows):
        v, g, h = dense_evaluation(dense, z[r] / nz[r])
        assert abs(value[r] - v) <= tol
        assert np.abs(grad[r] * nz[r] - g).max() <= tol
        assert np.abs(hess[r] - h).max() <= tol


def test_hessian_matches_finite_differences_of_gradient():
    # on the horizontal space (orthogonal to z and to the phase direction Jz)
    # the Riemannian Hessian is the Jacobian of the ambient gradient at unit z
    from vurkit.oracle import _evaluate, _operator_matrices
    rng = np.random.default_rng(31)
    h = 1e-5
    for trial in range(40):
        dim = (2, 3, 4, 5)[trial % 4]
        obs = [eigendecompose(random_hermitian(dim, rng))
               for _ in range(int(rng.integers(1, 4)))]
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = np.concatenate([x.real, x.imag]) / np.linalg.norm(x)
        jz = np.concatenate([-z[dim:], z[:dim]])
        hess = _evaluate(*_operator_matrices(obs), z[None, :], order=2)[1][0]
        assert np.abs(hess @ np.column_stack([z, jz])).max() <= 1e-12 * max(1.0, np.abs(hess).max())

        frame = np.column_stack([z, jz, rng.standard_normal((2 * dim, 2 * dim - 2))])
        horizontal = np.linalg.qr(frame)[0][:, 2:]
        columns = []
        for u in horizontal.T:
            zp, zm = z + h * u, z - h * u
            columns.append((ambient_variance_sum_gradient(obs, zp[:dim] + 1j * zp[dim:])
                            - ambient_variance_sum_gradient(obs, zm[:dim] + 1j * zm[dim:])) / (2 * h))
        numeric = horizontal.T @ np.column_stack(columns)
        analytic = horizontal.T @ hess @ horizontal
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * max(1.0, np.linalg.norm(analytic))


def test_qutrit4_restarts_that_miss_end_at_local_minima():
    # the restarts that do not reach 1 stop at f = 1.75, where the horizontal
    # Hessian has no negative eigenvalue: weakly curved local minima, not saddles
    from vurkit.oracle import _descend, _evaluate, _operator_matrices, _real
    result = minimize_variance_sum(qutrit4(), OracleConfig(restarts=64, seed=0))
    assert result.stops["max_iters"] == 0
    assert result.iterations <= 40
    assert result.minimum == pytest.approx(1.0, abs=1e-12)

    # the oracle's start rows at seed 0: row i of one seeded (64, 2, 3) block, real then imaginary part
    starts = np.random.default_rng(0).standard_normal((64, 2, 3))
    x0 = starts[:, 0] + 1j * starts[:, 1]
    forms = _operator_matrices(qutrit4())
    final, x = _descend(*forms, x0, 2000)[:2]
    assert final.min() == result.minimum
    missed = final > result.minimum + DEFAULT_TOLERANCES.oracle_agreement
    assert 0 < np.count_nonzero(missed) == 64 - result.restarts_agreeing
    assert np.abs(final[missed] - 1.75).max() <= 1e-9
    hess = _evaluate(*forms, _real(x[missed]), order=2)[1]
    assert np.linalg.eigvalsh(hess).min() >= -1e-8


def test_row_stationary_to_rounding_stops_without_a_step():
    # 1e-9 from the qutrit4 minimum along the stiffest horizontal direction,
    # |g| is far above _GRAD_TOL but the Newton decrement (~|g|^2 / lambda) is
    # far below the rounding of f = 1: the row stops on the decrement test
    from vurkit.oracle import _descend, _evaluate, _operator_matrices, _real
    forms = _operator_matrices(qutrit4())
    z = _real(minimize_variance_sum(qutrit4(), OracleConfig(restarts=8, seed=0)).argmin_state.vector)
    lam, u = np.linalg.eigh(_evaluate(*forms, z[None, :], order=2)[1][0])
    z = z + 1e-9 * u[:, -1]
    f0, g = _evaluate(*forms, z[None, :], order=1)
    assert lam[-1] > 1.0 and np.linalg.norm(g) > 1e-10
    f, _, stop, iters = _descend(*forms, (z[:3] + 1j * z[3:])[None, :], 2000)
    assert STOP_REASONS[stop[0]] == "gradient" and iters[0] == 0
    assert f[0] == pytest.approx(f0[0], abs=1e-15)


def test_rows_at_rounding_stop_instead_of_running_to_the_cap():
    # at these starts one row of the block reaches its minimum with parts of g
    # along z and Jz at the rounding of the unprojected gradient; divided by the
    # Hessian's two null eigenvalues they gave a decrement above the stop test
    # and steps that left f as it was, so the row ran to the cap
    from vurkit.oracle import _descend, _operator_matrices
    for seed in (224, 732, 770, 1234):
        rng = np.random.default_rng(seed)
        obs = [eigendecompose(random_hermitian(4, rng)) for _ in range(3)]
        x0 = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        stop, iters = _descend(*_operator_matrices(obs), x0, 250)[2:]
        assert STOP_REASONS.index("max_iters") not in stop
        assert iters.max() <= 40


def test_one_dimensional_observables_stop_flat_without_a_division_by_zero():
    # on 1x1 observables every state has variance 0; a row whose gradient and
    # projected Hessian are both exactly 0 must stop on its gradient with no 0/0
    rng = np.random.default_rng(0)
    for _ in range(50):
        obs = [hermitized(random_hermitian(1, rng)) for _ in range(int(rng.integers(1, 4)))]
        result = minimize_variance_sum(obs, OracleConfig(restarts=4, seed=0))
        assert result.minimum == pytest.approx(0.0, abs=1e-12)
        assert result.stops == {"gradient": 4, "step_underflow": 0, "max_iters": 0}
        assert result.iterations == 0
    one = hermitized(np.array([[-1.1530993410463448]]))
    assert minimize_variance_sum([one], OracleConfig(restarts=16, seed=0)).stops["gradient"] == 16


def test_a_restart_at_its_minimum_stops_backtracking_at_the_rounding_of_f(monkeypatch):
    # at these starts one restart ends with its Newton decrement just above the rounding of f, so
    # every trial step fails.  Backtracking stops as soon as no step left has an Armijo target above
    # that rounding; halving down to a fixed 1e-12 step floor would take 61 value evaluations, not 22
    import vurkit.oracle as oracle
    evaluate, orders = oracle._evaluate, []

    def recording_evaluate(forms, s, z, order=0):
        orders.append(order)
        return evaluate(forms, s, z, order)

    monkeypatch.setattr(oracle, "_evaluate", recording_evaluate)
    rng = np.random.default_rng(11)
    obs = [hermitized(random_hermitian(4, rng)) for _ in range(3)]
    result = minimize_variance_sum(obs, OracleConfig(restarts=12, max_iters=250, seed=11))
    assert result.stops == {"gradient": 11, "step_underflow": 1, "max_iters": 0}
    assert orders.count(0) <= 22


@pytest.mark.parametrize("n, seed, minimum, agreeing, iterations",
                         [(4, 1, 1.2568782124272315, 2, 15), (8, 2, 3.9748455920424406, 10, 16)])
def test_benchmark_shaped_gue_triples_keep_their_descent(n, seed, minimum, agreeing, iterations):
    # shaped as the benchmark's random oracle jobs: a GUE triple, 12 restarts, a 250-step cap.
    # A change to the step that costs iterations or moves where restarts end fails here
    rng = np.random.default_rng(seed)
    obs = [hermitized(random_hermitian(n, rng)) for _ in range(3)]
    result = minimize_variance_sum(obs, OracleConfig(restarts=12, max_iters=250, seed=seed))
    assert result.minimum == pytest.approx(minimum, rel=1e-12)
    assert result.restarts_agreeing == agreeing
    assert result.stops == {"gradient": 12, "step_underflow": 0, "max_iters": 0}
    assert result.iterations == iterations


def test_gradient_norms_follow_restart_order():
    result = minimize_variance_sum(qutrit4(), OracleConfig(restarts=8, seed=0))
    assert len(result.gradient_norms) == 8
    assert max(result.gradient_norms) <= 1e-6
    capped = minimize_variance_sum(qutrit4(), OracleConfig(restarts=8, max_iters=2, seed=0))
    assert capped.gradient_norms[:4] == pytest.approx(minimize_variance_sum(
        qutrit4(), OracleConfig(restarts=4, max_iters=2, seed=0)).gradient_norms, rel=1e-9)
    assert min(capped.gradient_norms) > 1e-6


def test_lemma_sweep_no_violations():
    max_violation, violations = lemma_sweep(2000, dims=(2, 3, 4, 5), seed=8)
    assert max_violation <= 1e-9
    assert violations == 0
    # a one-triple sweep reports the slack of the direct formula on the triple its seed draws
    rng = np.random.default_rng(np.random.SeedSequence(8))
    obs = eigendecompose(random_hermitian(2, rng))
    state = sample_random_pure(2, rng)
    alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
    p = measurement_distribution(obs, state)
    mu = float(p @ obs.eigenvalues)
    v = float(p @ (obs.eigenvalues - mu) ** 2)
    floor = (shannon_entropy(p) - math.log(gaussian_sum(obs.eigenvalues, alpha, mu))) / alpha
    assert floor - v == pytest.approx(lemma_sweep(1, dims=(2,), seed=8)[0], abs=1e-12)


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
    # beyond sys.maxsize no start block could be indexed; refused with one message before anything is allocated
    with pytest.raises(ValueError, match="must not exceed"):
        OracleConfig(restarts=10**20)
    for n_samples, dims in ((0, (2,)), (2, ())):  # lemma_sweep's own domain
        with pytest.raises(ValueError, match="need at least"):
            lemma_sweep(n_samples, dims=dims)


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 2.5), ("seed", True), ("restarts", 2.5),
                                          ("restarts", True), ("max_iters", 2.5), ("max_iters", False)])
def test_oracle_config_refuses_bad_fields_by_name(field, value):
    # bools are ints to Python but not counts; floats would reach SeedSequence or the loop bound
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        OracleConfig(**{field: value})
    assert getattr(OracleConfig(**{field: np.int64(1)}), field) == 1


@pytest.mark.parametrize("kwargs, name", [({"dims": (0,)}, "dims"), ({"dims": (-2,)}, "dims"),
                                          ({"dims": (2.7,)}, "dims"), ({"dims": (2, True)}, "dims"),
                                          ({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"),
                                          ({"n_samples": 2.0}, "n_samples"), ({"n_samples": -3}, "n_samples")])
def test_lemma_sweep_refuses_bad_arguments_by_name(kwargs, name):
    kwargs = {"n_samples": 2, **kwargs}
    with pytest.raises(ValueError, match=f"^{name}"):
        lemma_sweep(**kwargs)


def test_lemma_sweep_accepts_dimension_one():
    # a 1x1 observable has zero variance and floor (H - ln 1) / alpha = 0
    max_violation, violations = lemma_sweep(3, dims=(1,), seed=0)
    assert violations == 0 and max_violation == pytest.approx(0.0, abs=1e-12)
