"""Local-uncertainty separability test for bipartite states.

A separable state satisfies  sum_i V(A_i (x) I + I (x) B_i) >= U_A + U_B,
where U_A and U_B are state-independent floors on the local variance sums.
Violation certifies entanglement; non-violation proves nothing (the criterion
is sufficient only).  The pair sum "A_i + B_i" is read as the joint operator
A_i (x) I + I (x) B_i, the only interpretation that typechecks across
subsystems.  The floors are the caller's: this module computes the pair
variances and the margin from a given state, U_A and U_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import QuantumState, common_dim
from .errors import DimensionMismatchError


class Verdict(str, Enum):
    ENTANGLED = "Entangled"
    NOT_DETECTED = "NotDetected"


@dataclass(frozen=True)
class LurReport:
    lhs: float
    pair_variances: tuple[float, ...]
    u_a: float
    u_b: float
    margin: float
    verdict: Verdict


def _pair_variances(a_side, b_side, rho: QuantumState) -> tuple[float, ...]:
    """V(A (x) I + I (x) B) = <A'^2>_rhoA + <B'^2>_rhoB + 2 <A' (x) B'>_rho for every pair, with
    A' = A - <A> and B' = B - <B> (Hofmann and Takeuchi, PRA 68, 032103, 2003)."""
    a, b = (np.stack([o.matrix for o in side]) for side in (a_side, b_side))
    n_a, n_b = a.shape[1], b.shape[1]
    r = rho.density_matrix().reshape(n_a, n_b, n_a, n_b)
    rho_a, rho_b = np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)
    a = a - np.einsum("ik,pki->p", rho_a, a).real[:, None, None] * np.eye(n_a)
    b = b - np.einsum("ik,pki->p", rho_b, b).real[:, None, None] * np.eye(n_b)
    local = np.einsum("ik,pkj,pji->p", rho_a, a, a) + np.einsum("ik,pkj,pji->p", rho_b, b, b)
    # the path that optimize=True's search returns at every size tried, fixed so no call searches
    cross = np.einsum("ijkl,pki,plj->p", r, a, b, optimize=["einsum_path", (0, 1) if n_a >= n_b else (0, 2), (0, 1)])
    return tuple((local + 2.0 * cross).real.tolist())


def lur_test(pairs, rho: QuantumState, u_a: float, u_b: float, *,
             margin_tol: float = DEFAULT_TOLERANCES.lur_margin) -> LurReport:
    """Evaluate the separability inequality on a bipartite state, given the
    floors U_A and U_B of the two sides' local variance sums.  ``pairs`` holds
    ``(A, B)`` tuples, one observable per subsystem; dimensions may differ.  An
    observable is a ``SpectralObservable`` or a checked ``HermitianMatrix``:
    only its ``matrix`` and ``dim`` are read.

    The verdict is Entangled when the margin is below ``-margin_tol``.
    """
    a_side, b_side = tuple(zip(*pairs)) or ((), ())
    n_a, n_b = common_dim(a_side), common_dim(b_side)
    if rho.dim != n_a * n_b:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not equal the product {n_a}*{n_b}")
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if not math.isfinite(u):
            raise ValueError(f"{name} must be finite, got {u!r}")
    pair_variances = _pair_variances(a_side, b_side, rho)
    lhs = sum(pair_variances)
    margin = lhs - (u_a + u_b)
    verdict = Verdict.ENTANGLED if margin < -margin_tol else Verdict.NOT_DETECTED
    return LurReport(lhs=lhs, pair_variances=pair_variances, u_a=float(u_a), u_b=float(u_b),
                     margin=margin, verdict=verdict)
