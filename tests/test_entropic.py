import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import min_entropy_sum
from vurkit import (ConstantSource, QuantumState, RegimeError, SpectralObservable,
                    best_entropic_constant, de_vicente_analytic, eigendecompose,
                    maassen_uffink, measurement_distribution, optimize_alpha, overlap_stats,
                    select_constant, shannon_entropy, user_supplied, wu_full_mub,
                    wu_mub_bound)
from vurkit import entropic
from vurkit.cli import main
from vurkit.fixtures import PAULI_X, PAULI_Z, pauli3, qutrit4
from vurkit.oracle import random_hermitian, sample_random_pure

# frozen from direct evaluation of the closed form
DV_AT_09 = 0.3970304866917451
DV_AT_INV_SQRT2 = 0.832991061399375


def test_maassen_uffink_examples():
    assert maassen_uffink(1.0).value == 0.0
    assert maassen_uffink(1 / math.sqrt(2)).value == pytest.approx(math.log(2), abs=1e-12)
    assert maassen_uffink(1 / math.sqrt(3)).value == pytest.approx(math.log(3), abs=1e-12)


def test_maassen_uffink_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            maassen_uffink(bad)


def test_de_vicente_examples():
    assert de_vicente_analytic(1.0).value == 0.0
    assert de_vicente_analytic(0.9).value == pytest.approx(DV_AT_09, abs=1e-12)


def test_de_vicente_regime_gate():
    with pytest.raises(RegimeError):
        de_vicente_analytic(0.75)
    with pytest.raises(RegimeError):
        de_vicente_analytic(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        de_vicente_analytic(1.2)
    with pytest.raises(ValueError):  # as maassen_uffink(nan) does
        de_vicente_analytic(math.nan)


def test_de_vicente_literal_regime_is_contradicted_by_qubit_witness():
    # |0> with the z and x spin observables: entropy sum is exactly ln 2,
    # strictly below the analytic formula's value at c = 1/sqrt(2). This is
    # why the default regime starts at 0.834.
    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    ket0 = QuantumState.pure([1.0, 0.0])
    h_sum = (shannon_entropy(measurement_distribution(sz, ket0))
             + shannon_entropy(measurement_distribution(sx, ket0)))
    assert h_sum == pytest.approx(math.log(2), abs=1e-12)
    assert h_sum < DV_AT_INV_SQRT2


def test_wu_mub_examples_exact():
    assert wu_mub_bound(3, 2).value == 2 * math.log(2)
    assert wu_mub_bound(4, 3).value == 4 * math.log(2)
    assert wu_mub_bound(2, 2).value == pytest.approx(math.log(2), abs=1e-15)


def test_wu_mub_domain():
    for m, n in ((1, 2), (2, 1), (0, 0), (3.7, 2), (True, 2), (3, "2")):
        with pytest.raises(ValueError):
            wu_mub_bound(m, n)
    for n in (1, 2.5, "3", True):  # int() would read all but 1 as a valid n
        with pytest.raises(ValueError, match="^n must be an integer"):
            wu_full_mub(n)


def test_wu_full_mub_examples():
    assert wu_full_mub(2).value == pytest.approx(2 * math.log(2), abs=1e-15)
    assert wu_full_mub(3).value == pytest.approx(4 * math.log(2), abs=1e-15)
    expected4 = 2 * math.log(2) + 3 * math.log(3)
    assert wu_full_mub(4).value == pytest.approx(expected4, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 21))
def test_wu_full_mub_matches_general_formula(n):
    assert wu_full_mub(n).value == pytest.approx(wu_mub_bound(n + 1, n).value, abs=1e-12)


@pytest.mark.parametrize("n", [1262, 5000])
def test_wu_full_mub_matches_general_formula_at_large_n(n):
    # the two formulas round differently; at these n they differ by more than 1e-12
    general = wu_mub_bound(n + 1, n).value
    assert wu_full_mub(n).value == pytest.approx(general, rel=4 * np.finfo(float).eps, abs=0)


def test_constants_never_exceed_max_entropy():
    for m, n in ((2, 2), (3, 2), (4, 3), (5, 4), (9, 8)):
        assert wu_mub_bound(m, n).value <= m * math.log(n) + 1e-12


def test_best_entropic_constant_examples():
    best = best_entropic_constant(pauli3())
    assert best.source is ConstantSource.WU_MUB
    assert best.value == pytest.approx(2 * math.log(2), abs=1e-12)

    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    pair = best_entropic_constant([sz, sx])
    assert pair.source is ConstantSource.MAASSEN_UFFINK
    assert pair.value == pytest.approx(math.log(2), abs=1e-10)

    same = best_entropic_constant([sz, sz])
    assert same.value == pytest.approx(0.0, abs=1e-10)


def test_best_entropic_constant_prefers_analytic_at_large_overlap():
    # bases tilted by a small angle: c close to 1, analytic bound beats -2 ln c
    theta = 0.25
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=complex)
    tilted = eigendecompose(rot @ PAULI_Z @ rot.conj().T)
    sz = eigendecompose(PAULI_Z)
    best = best_entropic_constant([sz, tilted])
    c = abs(math.cos(theta))
    assert best.source is ConstantSource.DE_VICENTE_ANALYTIC
    assert best.value > maassen_uffink(c).value


def test_best_entropic_constant_pairwise_matching_path():
    rng = np.random.default_rng(5)
    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    extra = eigendecompose(random_hermitian(2, rng))
    best = best_entropic_constant([sz, sx, extra])
    assert best.source is ConstantSource.PAIRWISE_MATCHING
    # with three observables exactly one pair is matched: the best-scoring one
    scores = [maassen_uffink(min(overlap_stats(a, b).c, 1.0)).value
              for a, b in ((sz, sx), (sz, extra), (sx, extra))]
    assert best.value == pytest.approx(max(scores), abs=1e-12)


def test_select_constant_in_dimension_one_matches_pairs():
    # every overlap of 1x1 observables is 1 = 1/sqrt(1), yet no unbiased-bases
    # floor exists for n = 1: the pairwise matching gives C = 0, and floor 0
    observables = [eigendecompose(np.array([[value]])) for value in (0.5, -1.0, 2.0)]
    selection = select_constant(observables)
    assert selection.mutually_unbiased is False
    assert [k.source for k in selection.candidates] == [ConstantSource.PAIRWISE_MATCHING]
    assert selection.selected.value == 0.0
    assert optimize_alpha(observables, selection.selected).lower_bound == 0.0


def _unbiased_triple(p: int):
    """Three mutually unbiased bases in prime dimension p (computational,
    Fourier, and the quadratic-phase basis w^(j^2 + j b) / sqrt p), each with
    p equally spaced eigenvalues on [-1, 1]."""
    j = np.arange(p)
    phases = [np.outer(j, j), j[:, None] ** 2 + np.outer(j, j)]
    bases = [np.eye(p)] + [np.exp(2j * np.pi * (k % p) / p) / math.sqrt(p) for k in phases]
    return [SpectralObservable(np.linspace(-1.0, 1.0, p), basis) for basis in bases]


def test_unbiased_bases_also_weigh_the_pairwise_matching():
    # Wu's bound for three unbiased bases in dimension 31 is 3.139 nats, below
    # the ln 31 that one unbiased pair already gives
    selection = select_constant(_unbiased_triple(31))
    assert selection.mutually_unbiased is True
    wu, pairing = selection.candidates
    assert (wu.source, pairing.source) == (ConstantSource.WU_MUB, ConstantSource.PAIRWISE_MATCHING)
    assert wu.value == pytest.approx(3.13888263060762, abs=1e-12)
    assert selection.selected is pairing and pairing.value == pytest.approx(math.log(31), abs=1e-12)
    floors = [optimize_alpha(_unbiased_triple(31), k).lower_bound for k in (wu, pairing)]
    assert floors[0] == pytest.approx(0.00633, abs=5e-6) and floors[1] == pytest.approx(0.00770, abs=5e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_every_candidate_is_below_the_entropy_sums_states_reach(n, m, seed):
    # a state that reaches an entropy sum bounds every sound constant from above
    rng = np.random.default_rng(seed)
    observables = [eigendecompose(random_hermitian(n, rng)) for _ in range(m)]
    reached = min_entropy_sum(observables, restarts=8, seed=seed)
    for constant in select_constant(observables).candidates:
        assert constant.value <= reached + 1e-9


@pytest.mark.parametrize("make, minimum", [(pauli3, math.log(4)), (qutrit4, 4 * math.log(2))],
                         ids=["pauli3", "qutrit4"])
def test_fixture_candidates_are_below_the_entropy_sum_minimum(make, minimum):
    # the reference reaches the known minima, which the unbiased-bases bound attains
    observables = make()
    reached = min_entropy_sum(observables, restarts=8, seed=0)
    assert reached == pytest.approx(minimum, abs=1e-6)
    for constant in select_constant(observables).candidates:
        assert constant.value <= reached + 1e-9


def _count_overlap_stats(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(entropic, "overlap_stats",
                        lambda a, b: calls.append((a, b)) or overlap_stats(a, b))
    return calls


def _random_triple():
    rng = np.random.default_rng(5)
    return [eigendecompose(random_hermitian(3, rng)) for _ in range(3)]


@pytest.mark.parametrize("make, mub", [(pauli3, True), (qutrit4, True), (_random_triple, False)],
                         ids=["pauli3", "qutrit4", "random_triple"])
def test_select_constant_forms_each_overlap_once(monkeypatch, make, mub):
    observables = make()
    calls = _count_overlap_stats(monkeypatch)
    selection = select_constant(observables)
    m = len(observables)
    assert len(calls) == m * (m - 1) // 2
    assert [(i, j) for i, j, _ in selection.overlaps] == [(i, j) for i in range(m)
                                                          for j in range(i + 1, m)]
    for i, j, c in selection.overlaps:
        assert c == overlap_stats(observables[i], observables[j]).c
    assert selection.mutually_unbiased is mub
    assert selection.selected is max(selection.candidates, key=lambda k: k.value)
    assert best_entropic_constant(observables) == selection.selected


def test_cli_entropic_forms_each_overlap_once(monkeypatch, capsys):
    calls = _count_overlap_stats(monkeypatch)
    assert main(["entropic", "pauli3"]) == 0
    assert len(calls) == 3
    assert "mutually unbiased: yes" in capsys.readouterr().out


def test_user_supplied_constant():
    c = user_supplied(0.25)
    assert c.source is ConstantSource.USER_SUPPLIED and c.value == 0.25
    with pytest.raises(ValueError):
        user_supplied(-1.0)


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
def test_maassen_uffink_monotone_decreasing(c1, c2):
    lo, hi = sorted((c1, c2))
    assert maassen_uffink(lo).value >= maassen_uffink(hi).value - 1e-12


@given(st.floats(min_value=0.834, max_value=1.0), st.floats(min_value=0.834, max_value=1.0))
def test_de_vicente_monotone_decreasing_on_regime(c1, c2):
    lo, hi = sorted((c1, c2))
    assert de_vicente_analytic(lo).value >= de_vicente_analytic(hi).value - 1e-12


def test_entropy_sum_dominates_maassen_uffink_empirically():
    rng = np.random.default_rng(77)
    for i in range(1000):
        dim = (2, 3, 4)[i % 3]
        a = eigendecompose(random_hermitian(dim, rng))
        b = eigendecompose(random_hermitian(dim, rng))
        state = sample_random_pure(dim, rng)
        h_sum = (shannon_entropy(measurement_distribution(a, state))
                 + shannon_entropy(measurement_distribution(b, state)))
        floor = maassen_uffink(min(overlap_stats(a, b).c, 1.0)).value
        assert h_sum - floor >= -1e-9


def test_qubit_unbiased_pair_entropy_sum_floor_is_tight():
    sz, sx = eigendecompose(PAULI_Z), eigendecompose(PAULI_X)
    rng = np.random.default_rng(13)
    observed = []
    for _ in range(2000):
        state = sample_random_pure(2, rng)
        h_sum = (shannon_entropy(measurement_distribution(sz, state))
                 + shannon_entropy(measurement_distribution(sx, state)))
        observed.append(h_sum)
        assert h_sum >= math.log(2) - 1e-9
    # an eigenstate of one basis attains the floor exactly
    ket0 = QuantumState.pure([1.0, 0.0])
    attained = (shannon_entropy(measurement_distribution(sz, ket0))
                + shannon_entropy(measurement_distribution(sx, ket0)))
    assert attained == pytest.approx(math.log(2), abs=1e-12)
    assert min(observed) < math.log(2) + 0.2
