"""Local-uncertainty separability test for bipartite states.

A separable state satisfies  sum_i V(A_i (x) I + I (x) B_i) >= U_A + U_B,
where U_A and U_B are state-independent floors on the local variance sums.
Violation certifies entanglement; non-violation proves nothing (the criterion
is sufficient only).  The pair sum "A_i + B_i" is read as the joint operator
A_i (x) I + I (x) B_i, the only interpretation that typechecks across
subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import QuantumState, SpectralObservable, variance
from .engine import optimize_alpha
from .entropic import EntropicConstant
from .errors import DimensionMismatchError
from .oracle import sample_random_pure

MAX_LIFTED_DIM = 4096


@dataclass(frozen=True)
class LocalObservablePair:
    """One observable per subsystem; dimensions may differ."""

    a_side: SpectralObservable
    b_side: SpectralObservable


class Verdict(str, Enum):
    ENTANGLED = "Entangled"
    NOT_DETECTED = "NotDetected"


def lift_sum(pair: LocalObservablePair) -> SpectralObservable:
    """Joint operator a (x) I + I (x) b, built directly from the local
    decompositions: eigenvalues are all pairwise sums, eigenvectors the
    corresponding Kronecker products."""
    a, b = pair.a_side, pair.b_side
    dim = a.dim * b.dim
    if dim > MAX_LIFTED_DIM:
        raise DimensionMismatchError(f"lifted dimension {dim} exceeds the {MAX_LIFTED_DIM} guard")
    evals = np.add.outer(a.eigenvalues, b.eigenvalues).reshape(-1)
    evecs = np.kron(a.eigenvectors, b.eigenvectors)
    order = np.argsort(evals, kind="stable")
    return SpectralObservable(evals[order], evecs[:, order])


@dataclass(frozen=True)
class LurReport:
    lhs: float
    u_a: float
    u_b: float
    margin: float
    verdict: Verdict


def lur_test(pairs, rho: QuantumState, c_a: EntropicConstant | None = None,
             c_b: EntropicConstant | None = None, *,
             u_a: float | None = None, u_b: float | None = None,
             margin_tol: float = DEFAULT_TOLERANCES.lur_margin) -> LurReport:
    """Evaluate the separability inequality on a bipartite state.

    U_A and U_B default to the alpha-optimized variance floors of the local
    observable sets; pass ``u_a``/``u_b`` to supply precomputed or
    hand-derived values instead (the entropy constants are then unused).
    The verdict is Entangled when the margin is below ``-margin_tol``.
    """
    pair_list = list(pairs)
    if not pair_list:
        raise ValueError("need at least one observable pair")
    n_a = pair_list[0].a_side.dim
    n_b = pair_list[0].b_side.dim
    for p in pair_list[1:]:
        if p.a_side.dim != n_a or p.b_side.dim != n_b:
            raise DimensionMismatchError("all pairs must share the same local dimensions")
    if rho.dim != n_a * n_b:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not equal the product {n_a}*{n_b}")
    if u_a is None:
        if c_a is None:
            raise ValueError("need either u_a or an entropy constant for the first side")
        u_a = optimize_alpha([p.a_side for p in pair_list], c_a).lower_bound
    if u_b is None:
        if c_b is None:
            raise ValueError("need either u_b or an entropy constant for the second side")
        u_b = optimize_alpha([p.b_side for p in pair_list], c_b).lower_bound
    lhs = sum(variance(lift_sum(p), rho) for p in pair_list)
    margin = lhs - (u_a + u_b)
    verdict = Verdict.ENTANGLED if margin < -margin_tol else Verdict.NOT_DETECTED
    return LurReport(lhs=lhs, u_a=float(u_a), u_b=float(u_b), margin=margin, verdict=verdict)


def sample_random_separable(dim_a: int, dim_b: int, rng: np.random.Generator,
                            max_terms: int = 8) -> QuantumState:
    """Random convex mixture of Haar product states with Dirichlet weights;
    covers the interior of the separable set."""
    terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(terms))
    dim = dim_a * dim_b
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = np.kron(sample_random_pure(dim_a, rng).vector, sample_random_pure(dim_b, rng).vector)
        rho += w * np.outer(v, v.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState.density(rho)
