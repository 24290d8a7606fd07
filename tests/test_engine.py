import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import dense_grid_max, exact_gaussian_sum, gaussian_sum, polished_grid_maxima
from vurkit import (DimensionMismatchError, InvalidAlphaError, InvalidStateError,
                    QuantumState, RegimeError, SpectralObservable, best_entropic_constant,
                    bound_at_alpha, continuous_pair_bound, eigendecompose, expectation,
                    inner_max, lur_test, maassen_uffink, measurement_distribution,
                    optimize_alpha, overlap_stats, select_constant, shannon_entropy,
                    shannon_variance_bound, state_dependent_bound, user_supplied, variance,
                    wu_full_mub)
from vurkit import engine
from vurkit.cli import main
from vurkit.engine import VALUE_TOL, _floors
from vurkit.fixtures import PAULI_X, PAULI_Z, maximally_mixed, pauli3, qutrit4, qutrit4_matrices
from vurkit.oracle import (OracleConfig, minimize_variance_sum, random_hermitian,
                           sample_random_pure)

KET0 = QuantumState.pure([1.0, 0.0])

# frozen from direct evaluation / the dense-grid oracle in reference.py
GSUM_PAULI_AT_0 = 1.1009210862523533        # 2 e^-0.597
GSUM_QUTRIT_AT_0 = 1.2932139242607004       # 1 + 2 e^-1.92
INNER_PAULI_0597 = 1.126324340475696        # dense grid, step 2e-6
BETA_PAULI_0597 = 0.6514825
EXAMPLE1_BOUND = 1.724314500148838
EXAMPLE2_BOUND = 0.908368013453724
OPTIMIZED_PAULI = 1.7243150136795742       # optimize_alpha(pauli3, 2 ln 2)
# bound_at_alpha(C = 1) on the default_rng(1) n = 32 GUE triple at alpha h^2 = 1,
# 30 and 1e3: the raw floor and each operator's mode count, frozen from the
# kernel that also climbed from every midpoint of two adjacent eigenvalues
GUE32_PINS = [(1.0, -938.0933652821149, [1, 1, 1]), (30.0, -16.387602618785767, [2, 2, 2]),
              (1e3, -0.11068698350047328, [22, 19, 24])]


def test_gaussian_sum_examples():
    # the direct formula the tests compare against, and the kernel at the same centers
    assert gaussian_sum([0.0], 1.0, 0.0) == 1.0
    assert gaussian_sum([-1.0, 1.0], 0.597, 0.0) == pytest.approx(GSUM_PAULI_AT_0, abs=1e-15)
    assert gaussian_sum([-1.0, 1.0], 0.597, 0.0) == pytest.approx(2 * math.exp(-0.597), abs=1e-15)
    assert gaussian_sum([-1.0, 0.0, 1.0], 1.92, 0.0) == pytest.approx(GSUM_QUTRIT_AT_0, abs=1e-15)
    for evals, alpha, value in (([-1.0, 1.0], 0.597, GSUM_PAULI_AT_0), ([-1.0, 0.0, 1.0], 1.92, GSUM_QUTRIT_AT_0)):
        log_g = engine._log_gaussian_sum(np.array(evals)[:, None], alpha, np.zeros(1))[0]
        assert log_g[0] == pytest.approx(math.log(value), abs=1e-15)


def test_inner_max_rejects_bad_input():
    with pytest.raises(ValueError):
        inner_max([], 1.0)
    with pytest.raises(ValueError, match="ascending"):
        inner_max([1.0, 0.0], 1.0)
    with pytest.raises(InvalidAlphaError):
        inner_max([0.0], -1.0)
    with pytest.raises(InvalidAlphaError):
        inner_max([0.0], math.inf)


def test_gaussian_sum_rejects_non_finite_input():
    # a NaN or infinite eigenvalue, or a NaN center (a state's mean), is
    # refused before the kernel sums any Gaussian
    for evals in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError):
            inner_max(evals, 1.0)
        with pytest.raises(ValueError):
            SpectralObservable(np.array(evals), np.eye(2))
    for amplitudes in ([math.nan, 0.0], [math.inf, 0.0]):
        with pytest.raises(InvalidStateError):
            QuantumState.pure(amplitudes)


def test_inner_max_small_alpha_unimodal_at_midpoint():
    result = inner_max([-1.0, 1.0], 0.1)
    assert result.value == pytest.approx(2 * math.exp(-0.1), abs=1e-10)
    assert abs(result.beta_star) <= 1e-6
    ref_val, _ = dense_grid_max([-1.0, 1.0], 0.1, points=200_001)
    assert result.value == pytest.approx(ref_val, abs=1e-8)


def test_inner_max_bimodal_case():
    result = inner_max([-1.0, 1.0], 0.597)
    assert result.value == pytest.approx(INNER_PAULI_0597, abs=1e-9)
    assert abs(abs(result.beta_star) - BETA_PAULI_0597) <= 1e-4
    assert result.modes == 2
    assert 1 <= result.iterations < 50


def test_inner_max_counts_modes():
    # two modes merge into one as the Gaussians widen (alpha falls below 1/2
    # for eigenvalues at +-1); well separated eigenvalues each carry a mode
    assert inner_max([-1.0, 1.0], 0.1).modes == 1
    assert inner_max([-1.0, 0.0, 1.0], 50.0).modes == 3
    assert inner_max([0.7, 0.7, 0.7], 5.0).modes == 1
    assert inner_max([-1.0, 1.0], 1e308).modes == 2


def test_inner_max_rejects_non_finite_eigenvalues():
    for bad in ([0.0, math.nan], [-math.inf, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            inner_max(bad, 1.0)


def test_inner_max_single_eigenvalue():
    result = inner_max([2.5], 3.0)
    assert result.value == 1.0
    assert result.beta_star == 2.5


def test_inner_max_degenerate_spectrum():
    result = inner_max([0.7, 0.7, 0.7], 5.0)
    assert result.value == 3.0
    assert result.beta_star == 0.7


def test_inner_max_matches_dense_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        evals = np.sort(rng.uniform(-2.0, 2.0, n))
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        result = inner_max(evals, alpha)
        ref_val, _ = dense_grid_max(evals, alpha, points=200_001)
        assert result.value >= ref_val - 1e-10
        assert abs(result.value - ref_val) <= 1e-6


def test_inner_max_dominates_eigenvalue_points_and_stays_below_n():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        evals = np.sort(rng.uniform(-3.0, 3.0, n))
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        result = inner_max(evals, alpha)
        assert 1.0 - 1e-12 <= result.value <= n + 1e-12
        for a in evals:
            assert result.value >= gaussian_sum(evals, alpha, a) - 1e-12
        assert evals[0] <= result.beta_star <= evals[-1]


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8),
       st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=0.01, max_value=100.0))
def test_inner_max_shift_and_negation_invariance(eigs, shift, alpha):
    evals = np.sort(np.asarray(eigs, dtype=float))
    base = inner_max(evals, alpha)
    shifted = inner_max(evals + shift, alpha)
    negated = inner_max(np.sort(-evals), alpha)
    assert shifted.value == pytest.approx(base.value, abs=1e-9)
    assert negated.value == pytest.approx(base.value, abs=1e-9)


def test_state_dependent_single_operator_equality_case():
    # variance 1 and floor 1 coincide for the x spin observable on |0>
    sx = eigendecompose(PAULI_X)
    h = math.log(2)
    value = state_dependent_bound([sx], KET0, 1.0, user_supplied(h))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert variance(sx, KET0) == pytest.approx(value, abs=1e-12)


def test_state_dependent_pair_below_variance_sum():
    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    alpha = 0.597
    value = state_dependent_bound([sz, sx], KET0, alpha, user_supplied(math.log(2)))
    # independent hand evaluation: means are <sz> = 1 and <sx> = 0
    expected = (math.log(2)
                - math.log(math.exp(-alpha * 4.0) + 1.0)
                - math.log(2.0 * math.exp(-alpha))) / alpha
    assert value == pytest.approx(expected, abs=1e-12)
    assert value <= variance(sz, KET0) + variance(sx, KET0) + 1e-12


def test_state_dependent_zero_constant_is_nonpositive():
    rng = np.random.default_rng(9)
    obs = [eigendecompose(random_hermitian(3, rng)) for _ in range(2)]
    state = sample_random_pure(3, rng)
    assert state_dependent_bound(obs, state, 0.7, user_supplied(0.0)) <= 1e-12


def test_state_dependent_bound_far_from_every_eigenvalue():
    # <sx> = 0 on |0> lies 1 from both eigenvalues, where the direct sum
    # 2 e^-800 underflows to 0; the floor is exactly 1
    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    value = state_dependent_bound([sz, sx], KET0, 800.0, maassen_uffink(1 / math.sqrt(2)))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_bound_at_alpha_qubit_triple_regression():
    report = bound_at_alpha(pauli3(), 0.597, wu_full_mub(2))
    assert report.lower_bound == pytest.approx(EXAMPLE1_BOUND, abs=1e-9)
    assert abs(report.lower_bound - 1.7243) <= 5e-4
    assert not report.clamped
    assert len(report.per_operator) == 3
    for r in report.per_operator:
        assert r.value == pytest.approx(INNER_PAULI_0597, abs=1e-9)


def test_bound_at_alpha_qutrit_quadruple_regression():
    report = bound_at_alpha(qutrit4(), 1.92, wu_full_mub(3))
    assert report.lower_bound == pytest.approx(EXAMPLE2_BOUND, abs=1e-9)
    assert abs(report.lower_bound - 0.9083) <= 5e-4
    for r in report.per_operator:
        assert r.value == pytest.approx(GSUM_QUTRIT_AT_0, abs=1e-10)


def test_bound_at_alpha_zero_constant_clamps():
    report = bound_at_alpha(pauli3(), 0.597, user_supplied(0.0))
    assert report.lower_bound == 0.0
    assert report.clamped
    assert report.raw_bound < 0.0


def test_optimize_alpha_qubit_triple():
    constant = wu_full_mub(2)
    report = optimize_alpha(pauli3(), constant)
    fixed = bound_at_alpha(pauli3(), 0.597, constant)
    assert report.lower_bound >= fixed.lower_bound - 1e-9
    assert 1.7243 <= report.lower_bound <= 2.0
    # the reported alpha achieves the reported bound
    again = bound_at_alpha(pauli3(), report.alpha, constant)
    assert again.lower_bound == pytest.approx(report.lower_bound, abs=1e-12)


def test_optimize_alpha_qutrit_quadruple():
    constant = wu_full_mub(3)
    report = optimize_alpha(qutrit4(), constant)
    assert report.lower_bound >= EXAMPLE2_BOUND - 1e-9
    assert 0.9083 <= report.lower_bound <= 1.0


def test_optimize_alpha_single_observable_zero_constant():
    report = optimize_alpha([eigendecompose(PAULI_Z)], user_supplied(0.0))
    assert report.lower_bound == 0.0


def test_optimize_alpha_certifies_a_zero_floor(monkeypatch):
    # sigma-z's floor at C = 0 is -ln(1 + e^(-4 alpha)) / alpha < 0, rising to 0
    # as alpha -> infinity: C <= ln m = 0 certifies it after one kernel call
    widths, ascend = [], engine._ascend
    monkeypatch.setattr(engine, "_ascend", lambda s, a: widths.append(a.size) or ascend(s, a))
    report = optimize_alpha([eigendecompose(PAULI_Z)], user_supplied(0.0))
    assert widths == [1]
    assert report.alpha == 1.0 and report.lower_bound == 0.0 and report.clamped
    assert report.bracket is None and report.refine_steps == 0
    # two eigenvalues 1e-200 apart count as a double one: ln 2 > C = 0.5 leaves a
    # floor of at most 1e-16 h^2, where the peak lies past alpha ~ 1e400
    report = optimize_alpha([SpectralObservable(np.array([0.0, 1e-200, 1.0]), np.eye(3))], user_supplied(0.5))
    assert report.lower_bound == 0.0 and report.bracket is None and report.refine_steps == 0
    # 1e-7 apart is past the window 2 delta = 2e-8 h (a window of 2e-6 h would take them for a double
    # eigenvalue and certify floor 0): the search runs and brackets the peak near alpha ~ 3e14
    report = optimize_alpha([SpectralObservable(np.array([0.0, 1e-7, 1.0]), np.eye(3))], user_supplied(0.5))
    assert report.bracket is not None and 1e14 < report.bracket[0] < report.bracket[1] < 1e15
    assert 0.0 < report.lower_bound < 1e-14


def test_optimize_alpha_certifies_gell_mann_d4():
    # the 15 generalized Gell-Mann matrices of d = 4, from their formula: 14
    # spectra with a double eigenvalue, one with a triple, so sum_k ln m_k =
    # 14 ln 2 + ln 3 = 10.80 lies above any entropy constant the set gets
    d, mats = 4, []
    for j in range(d):
        for k in range(j + 1, d):
            for entry in (1.0, -1j):
                m = np.zeros((d, d), dtype=complex)
                m[j, k], m[k, j] = entry, np.conj(entry)
                mats.append(m)
    for l in range(1, d):
        mats.append(math.sqrt(2.0 / (l * (l + 1))) * np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1)))
    observables = [eigendecompose(m) for m in mats]
    # eigh's repeated eigenvalues may differ in the last bits
    multiplicities = [int(np.unique(np.round(o.eigenvalues, 9), return_counts=True)[1].max()) for o in observables]
    assert sorted(multiplicities) == [2] * 14 + [3]
    constant = best_entropic_constant(observables)
    assert constant.value == pytest.approx(4.159, abs=1e-3)
    report = optimize_alpha(observables, constant)
    assert report.lower_bound == 0.0 and report.raw_bound < 0.0
    assert report.bracket is None and report.refine_steps == 0


@pytest.mark.parametrize("observables, n", [([eigendecompose(PAULI_Z)], 2), (pauli3, 2), (qutrit4, 3)])
def test_optimize_alpha_refuses_a_false_constant(observables, n):
    # C >= sum_k ln n: no state reaches it, and the floor grows without bound as alpha -> 0
    observables = observables() if callable(observables) else observables
    top = len(observables) * math.log(n)
    for c in (top, 1.0 + top):
        with pytest.raises(RegimeError, match=f"{top!r}"):
            optimize_alpha(observables, user_supplied(c))
    assert optimize_alpha(observables, user_supplied(0.99 * top)).lower_bound > 0.0


@pytest.mark.parametrize("observables, n", [([eigendecompose(PAULI_Z)], 2), (pauli3, 2), (qutrit4, 3)])
def test_bound_at_alpha_refuses_a_false_constant(observables, n):
    # at a fixed width too: the floor there is finite, but no state's variances reach it
    observables = observables() if callable(observables) else observables
    top = len(observables) * math.log(n)
    for c in (top, 1.0 + top):
        with pytest.raises(RegimeError, match=f"{top!r}"):
            bound_at_alpha(observables, 0.3, user_supplied(c))
    assert bound_at_alpha(observables, 0.3, user_supplied(0.99 * top)).raw_bound > 0.0


def test_optimize_alpha_refines_fixtures_in_few_steps():
    assert optimize_alpha(pauli3(), wu_full_mub(2)).refine_steps == 3
    assert optimize_alpha(qutrit4(), wu_full_mub(3)).refine_steps == 2


@pytest.mark.parametrize("n, steps", [(8, 3), (32, 3), (128, 8)])
def test_optimize_alpha_refine_steps_on_gue_triples(n, steps):
    # the first grid is centred near alpha h^2 = (n - 1)^2 and the first
    # refine step is the cubic's root between two of its widths
    rng = np.random.default_rng(1)
    observables = [eigendecompose(random_hermitian(n, rng)) for _ in range(3)]
    assert optimize_alpha(observables, best_entropic_constant(observables)).refine_steps == steps


def test_optimize_alpha_stops_on_a_newton_step_that_rounds_onto_the_bracket(monkeypatch):
    # a set of the floors benchmark (n = 8) read D = 2^-60 where its search
    # converged: the Newton step from there rounds onto that end of the
    # bracket, which must stop the search rather than start bisecting
    constant = wu_full_mub(2)
    report, floors = optimize_alpha(pauli3(), constant), engine._floors

    def tiny(stack, c, alphas):
        raw, slope, curv, columns = floors(stack, c, alphas)
        return raw, np.where(alphas == report.alpha, 2.0 ** -60, slope), curv, columns

    monkeypatch.setattr(engine, "_floors", tiny)
    again = optimize_alpha(pauli3(), constant)
    assert again.alpha == report.alpha and again.refine_steps == report.refine_steps


def test_optimize_alpha_bisects_newton_steps_that_alternate(monkeypatch):
    # a slope that jumps from 0.1 to -0.1 at t*, with a D' that sends every
    # Newton step to -0.9 times its start's offset x from t*: unguarded, the
    # steps alternate sides of t* and shrink by only 0.9 each.  D' is bounded,
    # as on either side of a real kink, so within 1e-6 of t* they overshoot
    star, floors = 0.3, engine._floors

    def jump(stack, c, alphas):
        x = np.log(alphas) - star  # h = 1
        size = 0.1 + np.abs(x)
        return (1.0 - 0.1 * np.abs(x) - 0.5 * x * x, -np.sign(x) * size,
                -size / (1.9 * np.maximum(np.abs(x), 1e-6)), floors(stack, c, alphas)[3])

    monkeypatch.setattr(engine, "_floors", jump)
    report = optimize_alpha([eigendecompose(PAULI_Z)], user_supplied(0.5))
    lo, hi = np.log(report.bracket)
    assert lo <= star <= hi and hi - lo <= 1e-8
    # a bisection at least every other step, from a grid step's bracket
    assert report.refine_steps <= 2 * math.ceil(math.log2(math.log(1e4) / 16 / 1e-8)) + 2


_QUBIT, _QUTRIT = eigendecompose(PAULI_Z), qutrit4()[0]


@pytest.mark.parametrize("call", [
    pytest.param(lambda obs: bound_at_alpha(obs, 1.0, user_supplied(1.0)), id="bound_at_alpha"),
    pytest.param(lambda obs: optimize_alpha(obs, user_supplied(1.0)), id="optimize_alpha"),
    pytest.param(lambda obs: state_dependent_bound(obs, KET0, 1.0, user_supplied(1.0)),
                 id="state_dependent_bound"),
    pytest.param(minimize_variance_sum, id="minimize_variance_sum"),
    pytest.param(select_constant, id="select_constant"),
    pytest.param(lambda obs: lur_test([(_QUBIT, o) for o in obs], maximally_mixed(4),
                                      u_a=1.0, u_b=1.0), id="lur_test"),
])
def test_mixed_dimensions_raise(call):
    with pytest.raises(DimensionMismatchError):
        call([_QUBIT, _QUTRIT])
    # README: every function that takes a set refuses an empty one
    with pytest.raises(ValueError, match="need at least"):
        call([])


@pytest.mark.parametrize("observables", [
    qutrit4(),
    [SpectralObservable(np.array(e), np.eye(3)) for e in ([-1.0, 0.0, 1.0], [-1.0, 0.2, 1.0],
                                                           [-0.6, -0.5, 0.9], [-1.0, 0.2, 1.0])],
], ids=["equal_spectra", "distinct_spectra"])
def test_one_kernel_call_per_floor_evaluation(monkeypatch, observables):
    calls, ascend = [], engine._ascend
    monkeypatch.setattr(engine, "_ascend", lambda *args: calls.append(args) or ascend(*args))
    bound_at_alpha(observables, 1.92, user_supplied(1.0))
    assert len(calls) == 1
    calls.clear()
    report = optimize_alpha(observables, user_supplied(1.0))
    # the grid and each refine step; the report reuses the best evaluation
    assert len(calls) == report.refine_steps + 1
    # inner_max's one call reads the maximum alone, with no floor
    calls.clear()
    monkeypatch.setattr(engine, "_floors", lambda *args: pytest.fail("inner_max summed a floor"))
    inner_max(observables[0].eigenvalues, 1.92)
    assert len(calls) == 1


def test_a_climb_stopped_by_the_cap_is_refused(monkeypatch, capsys):
    # a climb the cap stops may end below its mode, so M is low and the floor
    # above what the lemma proves; the cap is read at call time
    monkeypatch.setattr(engine, "MAX_ASCENT_ITERS", 1)
    constant = user_supplied(1.0)
    for call in (lambda: inner_max(pauli3()[0].eigenvalues, 0.597), lambda: bound_at_alpha(pauli3(), 0.597, constant),
                 lambda: optimize_alpha(pauli3(), constant)):
        with pytest.raises(ValueError, match="cap of 1 iterations"):
            call()
    assert main(["bound", "pauli3", "--C", "1", "--alpha", "0.597"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "cap of 1 iterations" in captured.err


@pytest.mark.parametrize("spectra", [
    [[-1.0, 1.0]],
    [[-1.0, 0.2, 1.0], [-0.6, -0.5, 0.9]],
    [[-0.7, -0.3, 0.0, 0.6, 0.8], [-1.0, -1.0, 0.4, 0.5, 2.0]],
])
def test_floor_slopes_match_central_differences(spectra):
    # D = d raw / d ln alpha and D' = dD / d ln alpha at points where the
    # argmax stays on one mode
    stack = np.array(spectra)
    logs = np.log([0.3, 0.597, 1.7, 4.0, 11.0])
    raw, slope, curv, _ = _floors(stack, 1.2, np.exp(logs))

    def central(h):
        up, down = (_floors(stack, 1.2, np.exp(logs + s)) for s in (h, -h))
        return (up[0] - down[0]) / (2 * h), (up[1] - down[1]) / (2 * h)

    # Richardson-extrapolated, with steps large enough that the argmax's
    # rounding (~1e-9 in D where two modes are about to merge) stays small
    (d1, dd1), (d2, dd2) = central(2e-3), central(1e-3)
    np.testing.assert_allclose(slope, (4 * d2 - d1) / 3, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(curv, (4 * dd2 - dd1) / 3, rtol=2e-5, atol=1e-8)


def _dense_scan_gain(observables, constant, report, widths=4000):
    """How far the best raw floor on a log scan of alpha h^2 over [1e-4, 1e6]
    (h the largest half-spread of the spectra) lies above the optimized one,
    relative to the size of the floor's terms."""
    stack = np.stack([o.eigenvalues for o in observables])
    h = 0.5 * float(np.max(stack[:, -1] - stack[:, 0])) or 1.0
    best = float(np.max(_floors(stack, constant.value, np.geomspace(1e-4, 1e6, widths) / (h * h))[0]))
    terms = abs(constant.value) + sum(math.log(r.value) for r in report.per_operator)
    return (best - report.raw_bound) / (abs(report.raw_bound) + terms / report.alpha)


_eigenvalue = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
_stacks = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(st.lists(_eigenvalue, min_size=n, max_size=n), min_size=1, max_size=4))
# where C falls between sum_k ln m_k, below which the floor is 0, and sum_k ln n
_between = st.floats(min_value=0.02, max_value=0.98)


def _searched(spectra, u):
    """The observables of ``spectra`` and the constant a fraction ``u`` of the
    way from sum_k ln m_k to sum_k ln n, m_k being the most eigenvalues within
    2e-8 h of one another (h the largest half-spread), as optimize_alpha counts."""
    h = 0.5 * max(max(e) - min(e) for e in spectra)
    assume(h > 5e-4)
    obs = [SpectralObservable(np.sort(e), np.eye(len(e))) for e in spectra]
    low = sum(math.log(max(np.count_nonzero((e >= x) & (e <= x + 2e-8 * h)) for x in e))
              for e in map(np.array, spectra))
    top = len(obs) * math.log(obs[0].dim)
    assume(top - low > 1e-3)
    return obs, user_supplied(low + u * (top - low))


@settings(max_examples=25, deadline=None)
@given(_stacks, _between)
@example([[0.0, 7.170473478692481e-224, -1.0]], 0.5)
def test_optimize_alpha_beats_a_dense_scan(spectra, u):
    # one peak, bracketed by the sign of the slope D = d raw / d ln alpha
    obs, constant = _searched(spectra, u)
    report = optimize_alpha(obs, constant)
    assert _dense_scan_gain(obs, constant, report) <= 1e-12
    lo, hi = report.bracket
    assert lo <= hi and math.log(hi / lo) <= 1.2
    _, slope, _, _ = _floors(np.stack([o.eigenvalues for o in obs]), constant.value, np.array([lo, hi]))
    assert slope[0] >= 0.0 >= slope[1]


def _picked(spectra, picks):
    """An observable of the sorted ``spectra[k % len(spectra)]`` for each pick
    k, with the sign of its zeros flipped from k = 4 on."""
    picked = [(np.sort(spectra[k % len(spectra)]), k >= 4) for k in picks]
    return [SpectralObservable(np.where(e == 0.0, -e, e) if flip else e, np.eye(e.size)) for e, flip in picked]


def _with_zeros(sizes, count):
    return sizes.flatmap(lambda n: st.lists(st.lists(st.one_of(_eigenvalue, st.just(-0.0)), min_size=n, max_size=n),
                                            min_size=1, max_size=count))


@settings(max_examples=30, deadline=None)
@given(_with_zeros(st.integers(min_value=1, max_value=5), 4),
       st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
       st.floats(min_value=1e-2, max_value=1e2))
@example([[0.0, 1.0]], [0, 4], 1.0)
def test_bound_at_alpha_rows_match_inner_max(spectra, picks, alpha):
    # repeated and distinct spectra in any order, and a pick from 4 on with
    # the sign of its zeros flipped: each observable's result must come from
    # its own spectrum's row
    obs = _picked(spectra, picks)
    report = bound_at_alpha(obs, alpha, user_supplied(0.0))
    assert len(report.per_operator) == len(obs)
    for o, r in zip(obs, report.per_operator):
        assert r == inner_max(o.eigenvalues, alpha)


@settings(max_examples=50, deadline=None)
@given(_with_zeros(st.integers(min_value=2, max_value=8), 5),
       st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=5).flatmap(
           lambda picks: st.tuples(st.just(picks), st.permutations(range(len(picks))))),
       st.one_of(st.just(0.0), _between), st.floats(min_value=1e-2, max_value=1e2))
@example([[-1.0, 0.0, 1.0], [-1.0, 0.5, 1.0]], ([0, 1, 4], [2, 1, 0]), 0.5, 1.0)
def test_floors_do_not_depend_on_the_order_of_the_observables(spectra, picks_order, u, alpha):
    # repeated spectra, some with -0.0 for 0.0, and a constant at sum_k ln m_k
    # (a certified 0) or between it and sum_k ln n: any order of the set gives
    # the same bits, with per_operator in that order
    picks, order = picks_order
    obs, constant = _searched([o.eigenvalues for o in _picked(spectra, picks)], u)
    for run in (lambda s: optimize_alpha(s, constant), lambda s: bound_at_alpha(s, alpha, constant)):
        report, again = run(obs), run([obs[i] for i in order])
        assert repr(again) == repr(replace(report, per_operator=tuple(report.per_operator[i] for i in order)))


@settings(max_examples=30, deadline=None)
@given(_stacks, st.floats(min_value=1e-2, max_value=1e2), st.floats(min_value=0.0, max_value=0.99))
def test_bound_at_alpha_raw_is_the_reported_sums(spectra, alpha, u):
    # the raw floor is (C - sum_k ln M_k) / alpha of the M values it reports,
    # to within a few ulps of the size of its terms, for C a fraction u of sum_k ln n
    obs = [SpectralObservable(np.sort(e), np.eye(len(e))) for e in spectra]
    c = u * len(obs) * math.log(obs[0].dim)
    report = bound_at_alpha(obs, alpha, user_supplied(c))
    terms = [math.log(r.value) for r in report.per_operator]
    size = (c + sum(abs(t) + 1.0 for t in terms)) / alpha
    assert abs(report.raw_bound - (c - sum(terms)) / alpha) <= 4.0 * np.finfo(float).eps * size


def test_optimize_alpha_at_a_mode_switch():
    # the argmax jumps from one mode to another at the optimum, so the slope
    # jumps from + to - there and Newton steps cannot converge
    obs = [SpectralObservable(np.array([-0.7, -0.3, 0.0, 0.6, 0.8]), np.eye(5))]
    constant = user_supplied(0.85)
    report = optimize_alpha(obs, constant)
    t = math.log(report.alpha)
    _, slope, _, _ = _floors(np.array([obs[0].eigenvalues]), 0.85, np.exp([t - 1e-6, t + 1e-6]))
    assert slope[0] > 1e-3 * report.raw_bound and slope[1] < -1e-3 * report.raw_bound
    assert _dense_scan_gain(obs, constant, report) <= 1e-12
    # nothing within a few bracket widths of the optimum is higher either
    near = [bound_at_alpha(obs, report.alpha * math.exp(d), constant).raw_bound
            for d in np.linspace(-3e-7, 3e-7, 61)]
    assert max(near) <= report.raw_bound * (1 + 1e-12)
    # Newton steps leave the bracket there: about 26 halvings to 1e-8 in ln alpha,
    # and one evaluation where the ends' tangent lines meet
    assert report.refine_steps <= 30
    lo, hi = report.bracket
    assert math.log(hi / lo) <= 1e-8 and abs(math.log(report.alpha / lo)) <= 2e-8
    # that evaluation gains 8.1e-10 relative over the better end of the bracket
    ends = max(bound_at_alpha(obs, a, constant).raw_bound for a in (lo, hi))
    assert report.raw_bound >= ends * (1 + 4e-10)


@settings(max_examples=50, deadline=None)
@given(_stacks, _between)
def test_optimize_alpha_reports_its_own_evaluation(spectra, u):
    # the report comes from the kernel call at the winning width, so it is
    # what a fresh evaluation there gives, bit for bit
    obs, constant = _searched(spectra, u)
    report = optimize_alpha(obs, constant)
    again = bound_at_alpha(obs, report.alpha, constant)
    assert replace(report, bracket=None, refine_steps=0) == again


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.lists(st.lists(_eigenvalue, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_ascent_columns_do_not_depend_on_the_blocks(spectra):
    # enough widths for several blocks of the smallest size; each column's
    # climb must not see which other columns share its block, with the rows
    # at shared widths or each at its own
    stack = np.sort(np.array(spectra), axis=1)
    h = 0.5 * float(np.max(stack[:, -1] - stack[:, 0])) or 1.0
    assume(h > 1e-3)
    alphas = np.geomspace(1e-3, 1e4, -(-1000 // stack.size)) / (h * h)
    own = np.array([np.roll(alphas, k) for k in range(len(stack))])
    for widths in (alphas[None].repeat(len(stack), axis=0), own):
        runs = []
        for elements in (1, 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "BLOCK_ELEMENTS", elements)
                runs.append(engine._ascend(stack, widths))
        for small, large in zip(*runs):
            np.testing.assert_array_equal(small, large)
    # so each row's maxima are those of the row alone at its own widths
    log_m, nu2, dnu2, columns = engine._modes(stack, own)
    for k in range(len(stack)):
        alone = engine._modes(stack[k:k + 1], own[k:k + 1])
        for whole, row in zip((log_m, nu2, dnu2, *columns), (*alone[:3], *alone[3])):
            np.testing.assert_array_equal(whole[k:k + 1], row)


# spectra of n = 2-40 eigenvalues: free, with repeats, or two-valued
_single_start_spectra = st.integers(min_value=2, max_value=40).flatmap(lambda n: st.one_of(
    st.lists(_eigenvalue, min_size=n, max_size=n),
    st.tuples(_eigenvalue, _eigenvalue, st.integers(min_value=1, max_value=n - 1)).map(
        lambda t: [t[0]] * t[2] + [t[1]] * (n - t[2]))))


def _sum_rounding(n):
    """Relative rounding bound for comparing the engine's M with
    ``exact_gaussian_sum``: the two's errors against the exact sum at their own
    centers added, every exponent alpha d^2 being at most 2.  The engine, per
    term, 4 roundings in alpha d^2 (8u absolute), 1 in the shifted exponent
    (2u) and 1 ulp of exp (2u); n - 1 in the row-order sum; 2u for exp(-m) and
    u for the product: (n + 14)u.  The reference's terms 8u + 2u and fsum one
    rounding: 11u.  u = eps / 2.  A larger exponent x rounds by 4u x, but its
    term weighs e^(m - x) against the largest, and 4u x e^(m - x) <= 8u for
    x >= m where m <= 2: at an eigenvalue m = 0, and at a maximum m <= 1/2,
    since there the curvature 2 alpha <d^2>_w - 1 is not positive.  A
    midpoint with m > 2 is no maximum: it lies in the dip between two
    eigenvalues more than 2.8 Gaussian widths apart."""
    return (n + 25) * np.finfo(float).eps / 2


@settings(max_examples=60, deadline=None)
@given(_single_start_spectra, st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
# two independently rounded sums 5 eps apart: the engine 3 eps below fsum, a numpy grid sum 2 eps above
@example([0.0] * 12 + [-1.0] * 18, 1e-10)
def test_inner_max_single_start_where_ln_g_is_concave(eigs, product):
    # at alpha L^2 <= 2 ln g is concave (Popoviciu's inequality bounds the
    # Gaussian-weighted variance by L^2 / 4): every climb must find its one
    # maximum, above every eigenvalue and midpoint
    evals = np.sort(np.array(eigs))
    spread = float(evals[-1] - evals[0])
    assume(spread == 0.0 or spread > 1e-6)
    alpha = product / (spread * spread) if spread else product
    assume(alpha > 0.0 and alpha * (spread * spread) <= 2.0)
    result = inner_max(evals, alpha)
    assert result.modes == 1
    # the ascent stops once ln g rises by at most VALUE_TOL max(1, ln n), and
    # both sums round: no exact value at any center may exceed M by more
    low = math.exp(-VALUE_TOL * max(1.0, math.log(evals.size))) * (1.0 - _sum_rounding(evals.size))
    starts = np.concatenate([evals, 0.5 * (evals[1:] + evals[:-1])])
    assert all(result.value >= exact_gaussian_sum(evals, alpha, b) * low for b in starts)
    # ln g'' >= -2 alpha, so the grid's best point lies within 1.3e-9 relative
    _, beta = dense_grid_max(evals, alpha, points=20_001)
    ref = exact_gaussian_sum(evals, alpha, beta)
    assert ref * low <= result.value <= ref * (1.0 + 2e-9)


# spectra of n = 2-40 eigenvalues: free, clustered about 1-4 centers with a
# spread of 1e-6 to 1e-1, repeated, geometric, heavy-tailed (Cauchy-like), or
# mirrored about 0, so that g is symmetric
_adversarial_spectra = st.integers(min_value=2, max_value=40).flatmap(lambda n: st.one_of(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n),
    st.builds(lambda centers, spread, picks, offsets: [centers[p % len(centers)] + spread * u
                                                       for p, u in zip(picks, offsets)],
              st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4),
              st.floats(min_value=math.log(1e-6), max_value=math.log(1e-1)).map(math.exp),
              st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
              st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)),
    st.builds(lambda pool, picks: [pool[p % len(pool)] for p in picks],
              st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=3),
              st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)),
    st.builds(lambda ratio, sign: [sign * ratio ** k for k in range(n)],
              st.floats(min_value=1.05, max_value=3.0), st.sampled_from([-1.0, 1.0])),
    st.lists(st.floats(min_value=-1.55, max_value=1.55).map(math.tan), min_size=n, max_size=n),
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n // 2, max_size=n // 2).map(
        lambda x: x + [-v for v in x])))

# a shallow mode, 1e-7 above the dip beside it, that no climb from an eigenvalue
# reaches: the climbs count 5 modes of the grid's 6
_SHALLOW_MODE = [-2.855990997619432, -2.5564736487148036, -2.0609698896122968, -1.6516703513769546,
                 -1.1186339198841928, -0.953407346357428, -0.9355868868778172, -0.9338756122538019,
                 -0.5782010032726626, 0.36757388548804304, 0.712983996589112, 1.4920799583392528,
                 2.2213096360173266, 2.3792442688501456, 2.8757678917813987, 2.9155202165693517]


@settings(max_examples=60, deadline=None)
@given(_adversarial_spectra, st.floats(min_value=math.log(0.1), max_value=math.log(1e5)).map(math.exp))
@example(_SHALLOW_MODE, 207.36503296062193)
@example([0.0, 2.0, 3.0, 6.0], 108.0)  # the highest of four modes is climbed from 2.0 alone
# one maximum, at 0.55, and g equal at mirror points: a trial step from 0.1
# that lands near 1.0, or back, must not end the climb there as a second mode
@example([0.1, 0.5, 0.6, 1.0], 2.0)
@example([0.1, 0.5, 0.6, 1.0], 2.001)
@example([0.1, 0.5, 0.6, 1.0], 3.0)
def test_eigenvalue_starts_reach_the_highest_mode(eigs, product):
    # the climbs start at the eigenvalues alone; M must still be the highest
    # maximum of a polished dense grid, and above every eigenvalue and midpoint
    evals = np.sort(np.array(eigs))
    spread = float(evals[-1] - evals[0])
    # a spread of a few ulps of the eigenvalues has no grid to resolve it
    assume(spread > 1e-9 * max(1.0, float(np.max(np.abs(evals)))))
    alpha = product / (spread * spread)
    result = inner_max(evals, alpha)
    # the stop rule and both sums' rounding, as in the concave-width property
    low = math.exp(-VALUE_TOL * max(1.0, math.log(evals.size))) * (1.0 - _sum_rounding(evals.size))
    starts = np.concatenate([evals, 0.5 * (evals[1:] + evals[:-1])])
    assert all(result.value >= exact_gaussian_sum(evals, alpha, b) * low for b in starts)
    centers, values = polished_grid_maxima(evals, alpha)
    assert values.max() * low <= result.value <= values.max() * (1.0 + 2.0 * _sum_rounding(evals.size))
    # every maximum the climbs reach is one of the grid's, maxima a thousandth
    # of the Gaussian width apart counting as one; a shallow mode that no
    # eigenvalue climbs to can go uncounted
    width = 1e-3 / math.sqrt(alpha)
    beta, _, _, concave = engine._ascend(evals[None], np.array([[alpha]]))
    assert all(np.min(np.abs(centers - b)) <= width for b in beta[concave])
    assert 1 <= result.modes <= 1 + np.count_nonzero(np.diff(centers) > width)


def test_gue32_floors_and_modes_at_fixed_widths():
    rng = np.random.default_rng(1)
    observables = [eigendecompose(random_hermitian(32, rng)) for _ in range(3)]
    h = 0.5 * max(float(o.eigenvalues[-1] - o.eigenvalues[0]) for o in observables)
    for product, raw, modes in GUE32_PINS:
        report = bound_at_alpha(observables, product / (h * h), user_supplied(1.0))
        assert report.raw_bound == pytest.approx(raw, rel=1e-12)
        assert [r.modes for r in report.per_operator] == modes


def test_ascent_climbs_one_start_where_ln_g_is_concave(monkeypatch):
    # optimize_alpha's 17 starting widths on one n = 8 GUE triple: 3 x 17 x 8 =
    # 408 columns, one per eigenvalue start, and every one climbs, at the
    # widths where ln g is concave too
    rng = np.random.default_rng(1)
    observables = [eigendecompose(random_hermitian(8, rng)) for _ in range(3)]
    calls, ascend = [], engine._ascend
    monkeypatch.setattr(engine, "_ascend", lambda *args: calls.append(args) or ascend(*args))
    optimize_alpha(observables, user_supplied(1.0))
    stack, alphas = calls[0]
    assert alphas.shape == (3, 17)
    columns, kernel = [], engine._log_gaussian_sum
    monkeypatch.setattr(engine, "_log_gaussian_sum", lambda e, a, b: columns.append(b.size) or kernel(e, a, b))
    iters = ascend(stack, alphas)[2]
    assert iters.size == 408
    climbed = np.count_nonzero(iters)
    assert climbed == 408 and np.all(iters > 0)
    # a column that stops after k iterations is summed k times, and its
    # trial step k - 1 times
    assert sum(columns) == 2 * int(iters.sum()) - climbed


@pytest.mark.parametrize("seed, skip, count, floor, places", [(1, 0, 3, 0.016969066, 9), (5, 4, 4, 0.09502, 5)])
def test_gue32_floors_beyond_the_old_range(seed, skip, count, floor, places):
    # the optimum lies past alpha h^2 = 1e3, the end of the range once
    # searched, which printed 0 (raw -0.0273) for seed 1 and 0.08808 for seed 5,
    # drawn after four n = 8 matrices
    rng = np.random.default_rng(seed)
    for _ in range(skip):
        random_hermitian(8, rng)
    observables = [eigendecompose(random_hermitian(32, rng)) for _ in range(count)]
    constant = best_entropic_constant(observables)
    report = optimize_alpha(observables, constant)
    assert report.lower_bound == pytest.approx(floor, abs=0.5 * 10.0 ** -places)
    assert _dense_scan_gain(observables, constant, report, widths=1000) <= 1e-12
    # a scan 1e-5 apart in ln alpha around the optimum comes within 1e-9 of it
    stack = np.stack([o.eigenvalues for o in observables])
    near = _floors(stack, constant.value, report.alpha * np.exp(np.linspace(-1e-3, 1e-3, 200)))[0]
    assert -1e-9 <= near.max() / report.raw_bound - 1.0 <= 1e-12


@pytest.mark.parametrize("evals, alpha", [([-1.0, 1.0], 1e308), ([-1e200, 1e200], 1.0), ([3.0, 3.0], 1e308)])
def test_single_start_rule_at_overflowing_products(evals, alpha):
    # alpha L^2 overflows (or L = 0 at the largest alpha) without a warning,
    # and the climbs still count each maximum once
    result = inner_max(evals, alpha)
    assert result.value == (2.0 if evals[0] == evals[1] else 1.0)
    assert result.modes == (1 if evals[0] == evals[1] else 2)


def _scaled(observables, s, t=0.0):
    return [SpectralObservable(s * o.eigenvalues + t, o.eigenvectors) for o in observables]


@pytest.mark.parametrize("scale", [100.0, 0.01, 1e-100, 1e78, 1e100])
def test_optimize_alpha_rescaled_pauli_triple(scale):
    # a fixed alpha range gave 1386 at x100 and 0 at x0.01; slopes from moments
    # of a - beta* overflowed at x1e78 and underflowed at x1e-100, so that the
    # refinement fell back to bisection (23 kernel calls)
    report = optimize_alpha(_scaled(pauli3(), scale), wu_full_mub(2))
    assert report.lower_bound == pytest.approx(scale ** 2 * OPTIMIZED_PAULI, rel=1e-9)
    # the argmax, and so D, is resolved to about 1e-8: the last Newton step, about
    # that long, is taken at some scales and not at others
    assert abs(report.refine_steps - optimize_alpha(pauli3(), wu_full_mub(2)).refine_steps) <= 1


def test_optimize_alpha_equal_spectra_give_the_decomposed_floor():
    constant = wu_full_mub(3)
    # the solver's middle eigenvalues differ in the last bits, so three of
    # these four spectra are distinct; the fixture's one exact spectrum,
    # shared by all four, one with a -0.0 for its 0.0, gives the same floor
    observables = [eigendecompose(m) for m in qutrit4_matrices()]
    report = optimize_alpha(observables, constant)
    shared = qutrit4()
    negzero = shared[1].eigenvalues.copy()
    negzero[1] = -0.0
    shared[1] = SpectralObservable(negzero, shared[1].eigenvectors)
    exact = optimize_alpha(shared, constant)
    assert exact.lower_bound == pytest.approx(report.lower_bound, rel=1e-12)
    again = bound_at_alpha(shared, exact.alpha, constant)
    assert again.lower_bound == pytest.approx(exact.lower_bound, rel=1e-12)


def _random_set(spectra, seed):
    rng = np.random.default_rng(seed)
    out = []
    for evals in spectra:
        evals = np.sort(np.asarray(evals, dtype=float))
        basis = eigendecompose(random_hermitian(evals.size, rng)).eigenvectors
        out.append(SpectralObservable(evals, basis))
    return out


_spectra = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n),
                       min_size=2, max_size=3))


@settings(max_examples=20, deadline=None)
@given(_spectra, st.integers(0, 2**16), st.floats(min_value=1e-2, max_value=1e2))
def test_optimize_alpha_scale_covariance(spectra, seed, s):
    assume(max(max(e) - min(e) for e in spectra) > 1e-3)
    obs = _random_set(spectra, seed)
    constant = best_entropic_constant(obs)
    base = optimize_alpha(obs, constant)
    scaled = optimize_alpha(_scaled(obs, s), constant)
    assert scaled.raw_bound == pytest.approx(s * s * base.raw_bound, rel=1e-9)
    assert scaled.lower_bound == pytest.approx(s * s * base.lower_bound, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(_spectra, st.integers(0, 2**16), st.floats(min_value=-10.0, max_value=10.0))
def test_optimize_alpha_shift_invariance(spectra, seed, t):
    assume(max(max(e) - min(e) for e in spectra) > 1e-3)
    obs = _random_set(spectra, seed)
    constant = best_entropic_constant(obs)
    base = optimize_alpha(obs, constant)
    shifted = optimize_alpha(_scaled(obs, 1.0, t), constant)
    assert shifted.raw_bound == pytest.approx(base.raw_bound, rel=1e-9)
    assert shifted.lower_bound == pytest.approx(base.lower_bound, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(_spectra, st.integers(0, 2**16), st.floats(min_value=1e-2, max_value=1e3),
       st.floats(min_value=0.0, max_value=3.0))
def test_state_dependent_bound_matches_the_direct_formula(spectra, seed, alpha, c):
    obs = _random_set(spectra, seed)
    state = sample_random_pure(obs[0].dim, np.random.default_rng(seed + 1))
    sums = [gaussian_sum(o.eigenvalues, alpha, expectation(o, state)) for o in obs]
    assume(min(sums) > 1e-300)  # where the direct sum underflows, only the kernel has a value
    terms = [math.log(g) for g in sums]
    value = state_dependent_bound(obs, state, alpha, user_supplied(c))
    size = (c + sum(abs(t) + 1.0 for t in terms)) / alpha
    assert abs(value - (c - sum(terms)) / alpha) <= 1e-13 * size


def _spread_pair(s):
    return [SpectralObservable(np.array([0.0, s]), np.eye(2))] * 2


@pytest.mark.parametrize("s", [1e-160, 1e-200])
def test_optimize_alpha_rejects_spreads_below_the_float_range(s):
    # alpha h^2 = 1e-2 needs an alpha past the largest float at 1e-160, and h^2
    # underflows to 0 at 1e-200
    with pytest.raises(ValueError, match="half-spread"):
        optimize_alpha(_spread_pair(s), user_supplied(0.5))
    # 1e-150 is still in range, and its floor scales as s^2
    unit = optimize_alpha(_spread_pair(1.0), user_supplied(0.5)).lower_bound
    assert optimize_alpha(_spread_pair(1e-150), user_supplied(0.5)).lower_bound == pytest.approx(1e-300 * unit, rel=1e-9)


def test_bound_never_exceeds_oracle_minimum():
    config = OracleConfig(restarts=12, seed=2)
    rng = np.random.default_rng(12)
    cases = [pauli3(), qutrit4()]
    for _ in range(4):
        dim = int(rng.integers(2, 4))
        cases.append([eigendecompose(random_hermitian(dim, rng)) for _ in range(2)])
    for obs in cases:
        constant = best_entropic_constant(obs)
        bound = optimize_alpha(obs, constant).lower_bound
        oracle_min = minimize_variance_sum(obs, config).minimum
        assert bound <= oracle_min + 1e-6


def test_chain_monotonicity_on_random_pairs():
    rng = np.random.default_rng(55)
    strict = 0
    total = 400
    for i in range(total):
        dim = (2, 3, 4, 5)[i % 4]
        a = eigendecompose(random_hermitian(dim, rng))
        b = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        constant = maassen_uffink(min(overlap_stats(a, b).c, 1.0))
        dependent = state_dependent_bound([a, b], state, alpha, constant)
        raw = bound_at_alpha([a, b], alpha, constant).raw_bound
        assert dependent >= raw - 1e-12
        if dependent > raw + 1e-12:
            strict += 1
    assert strict > total // 2


def test_continuous_pair_bound_examples():
    c = 1.0 + math.log(math.pi)
    alpha_used, bound = continuous_pair_bound(c, 1.0)
    assert alpha_used == 1.0
    assert bound == pytest.approx(1.0, abs=1e-12)
    alpha_star, bound_auto = continuous_pair_bound(c)
    assert alpha_star == pytest.approx(1.0, abs=1e-12)
    assert bound_auto == pytest.approx(1.0, abs=1e-12)
    _, third = continuous_pair_bound(1.0)
    assert third == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_continuous_pair_bound_closed_form_is_stationary():
    # the closed-form alpha dominates nearby evaluations of the explicit form
    for c in (0.2, 1.0, 2.5):
        alpha_star, best = continuous_pair_bound(c)
        for factor in (0.9, 0.99, 1.01, 1.1):
            _, probed = continuous_pair_bound(c, alpha_star * factor)
            assert probed <= best + 1e-12


def test_continuous_pair_bound_rejects_overflow():
    # the closed-form alpha* = pi e^(1-C) or floor e^(C-1)/pi leaves float range
    for c in (-1000.0, -708.0, 800.0):
        with pytest.raises(ValueError):
            continuous_pair_bound(c)
    # (C + ln(alpha/pi)) / alpha at a subnormal alpha
    with pytest.raises(ValueError):
        continuous_pair_bound(1.0, 1e-320)


def test_continuous_pair_bound_rejects_bad_alpha():
    with pytest.raises(InvalidAlphaError):
        continuous_pair_bound(1.0, -2.0)
    with pytest.raises(InvalidAlphaError):
        continuous_pair_bound(1.0, 0.0)


def test_shannon_variance_bound_examples():
    gaussian_entropy = 0.5 * math.log(2.0 * math.pi * math.e)
    assert shannon_variance_bound(gaussian_entropy) == pytest.approx(1.0, abs=1e-12)
    assert shannon_variance_bound(gaussian_entropy + math.log(2)) == pytest.approx(4.0, rel=1e-12)
    # splitting C = 1 + ln pi across two entropies floors the variance product at 1/4
    half = (1.0 + math.log(math.pi)) / 2.0
    product = shannon_variance_bound(half) * shannon_variance_bound(half)
    assert product == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError, match="overflows"):  # as continuous_pair_bound does
        shannon_variance_bound(1000.0)


def test_lemma_inequality_random_sample():
    rng = np.random.default_rng(66)
    for i in range(500):
        dim = (2, 3, 4, 5)[i % 4]
        obs = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        p = measurement_distribution(obs, state)
        mu = float(p @ obs.eigenvalues)
        v = float(p @ (obs.eigenvalues - mu) ** 2)
        floor = (shannon_entropy(p) - math.log(gaussian_sum(obs.eigenvalues, alpha, mu))) / alpha
        assert v - floor >= -1e-9
