"""Local-uncertainty separability test for bipartite states.

A separable state satisfies  sum_i V(A_i (x) I + I (x) B_i) >= U_A + U_B,
where U_A and U_B are state-independent floors on the local variance sums.
Violation certifies entanglement; non-violation proves nothing (the criterion
is sufficient only).  The pair sum "A_i + B_i" is read as the joint operator
A_i (x) I + I (x) B_i, the only interpretation that typechecks across
subsystems.  The floors are the caller's: from a given state this module computes
the covariance matrices, the pair variances on their diagonals, and the margin.
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


def _covariances(a_side, b_side, rho: QuantumState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sigma_A[p, q] = Re <A'_p A'_q>_rhoA, Sigma_B likewise and C[p, q] = <A'_p (x) B'_q>_rho, A' = A - <A>
    (Guhne, Hyllus, Gittsovich and Eisert, PRL 99, 130504, 2007), on rows vec(A'^T): tr(X Y) = vec(X) . vec(Y^T)."""
    n_a, n_b = a_side[0].dim, b_side[0].dim
    r = rho.density_matrix().reshape(n_a, n_b, n_a, n_b)
    rows, sigmas = [], []
    for side, reduced in ((a_side, r.trace(axis1=1, axis2=3)), (b_side, r.trace(axis1=0, axis2=2))):
        m = np.array([o.matrix for o in side])
        m = m - (m.reshape(len(side), -1) @ reduced.T.ravel()).real[:, None, None] * np.eye(len(reduced))
        rows.append(m.transpose(0, 2, 1).reshape(len(side), -1))
        sigmas.append(((reduced @ m).reshape(len(side), -1) @ rows[-1].T).real)
    return (*sigmas, (rows[0] @ r.transpose(0, 2, 1, 3).reshape(n_a * n_a, n_b * n_b) @ rows[1].T).real)


def lur_test(pairs, rho: QuantumState, u_a: float, u_b: float, *,
             margin_tol: float = DEFAULT_TOLERANCES.lur_margin) -> LurReport:
    """Evaluate the separability inequality on a bipartite state, given the
    floors U_A and U_B of the two sides' local variance sums.  ``pairs`` holds
    ``(A, B)`` tuples, one observable per subsystem; dimensions may differ.  An
    observable is a ``SpectralObservable`` or a checked ``HermitianMatrix``:
    only its ``matrix`` and ``dim`` are read.  Pair p's variance <A'_p^2> + <B'_p^2> +
    2 <A'_p (x) B'_p> sums the covariance diagonals (Hofmann and Takeuchi, PRA 68, 032103, 2003).
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
    sigma_a, sigma_b, c = _covariances(a_side, b_side, rho)
    pair_variances = tuple((sigma_a.diagonal() + sigma_b.diagonal() + 2.0 * c.diagonal()).tolist())
    lhs = sum(pair_variances)
    margin = lhs - (u_a + u_b)
    verdict = Verdict.ENTANGLED if margin < -margin_tol else Verdict.NOT_DETECTED
    return LurReport(lhs=lhs, pair_variances=pair_variances, u_a=float(u_a), u_b=float(u_b),
                     margin=margin, verdict=verdict)
