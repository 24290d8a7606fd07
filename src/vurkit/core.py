"""Dense complex Hermitian linear algebra: checked Hermitian matrices, spectral
observables, quantum states, measurement statistics, variances, Shannon
entropies, and basis overlaps.

Everything here is a pure function of immutable values; arrays are frozen after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError, InvalidStateError, NotHermitianError

_EPS = float(np.finfo(float).eps)
# how far a probability vector handed to shannon_entropy may sum away from 1
_DISTRIBUTION_SUM_TOL = 1e-8


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_integer(name: str, value, least: int) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``least`` is refused by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer (need at least {least}), got {value!r}")
    return int(value)


def common_dim(observables) -> int:
    """The dimension shared by a nonempty sequence of observables: every
    quantity defined on a set of observables acts on one Hilbert space."""
    dims = sorted({o.dim for o in observables})
    if not dims:
        raise ValueError("need at least one observable")
    if len(dims) > 1:
        raise DimensionMismatchError(f"observables have mixed dimensions {dims}")
    return dims[0]


def check_spectrum(eigenvalues) -> np.ndarray:
    """``eigenvalues`` as a float array, refused with ``ValueError`` unless it
    is a nonempty 1-d, finite, ascending list whose spread a_n - a_1 is a
    finite float."""
    evals = np.asarray(eigenvalues, dtype=float)
    if evals.ndim != 1 or evals.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d list")
    if not np.isfinite(evals).all():
        raise ValueError("eigenvalues must be finite")
    if (evals[1:] < evals[:-1]).any():  # no np.diff: a difference can overflow
        raise ValueError("eigenvalues must be in ascending order")
    if not math.isfinite(float(evals[-1]) - float(evals[0])):
        raise ValueError("eigenvalue spread a_n - a_1 must be a finite float")
    return evals


def as_square_matrix(m) -> np.ndarray:
    """Coerce input to an n-by-n complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # a complex entry is finite where both its parts are
        raise ValueError("matrix entries must be finite")
    return arr


def phase_fix_columns(vectors: np.ndarray) -> np.ndarray:
    """Rotate every column of a matrix so its first component of modulus above
    1e-12 is real positive; a column with none is left as it is."""
    fixed = np.array(vectors, dtype=complex)
    big = np.abs(fixed) > 1e-12
    pivot = fixed[np.argmax(big, axis=0, keepdims=True), np.arange(fixed.shape[1])]  # (1, k): (k,) moves 1x1 bits
    pivot[~big.any(axis=0, keepdims=True)] = 1.0
    return fixed * (np.abs(pivot) / pivot)


@dataclass(frozen=True)
class SpectralObservable:
    """A Hermitian operator stored as ascending eigenvalues plus orthonormal
    eigenvector columns (column i pairs with eigenvalue i).

    Eigenvector ordering inside a degenerate cluster is solver-dependent and
    not part of the contract; all derived quantities depend only on the stored
    decomposition, so results are reproducible given the stored value.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        evals = check_spectrum(self.eigenvalues)
        evecs = np.asarray(self.eigenvectors, dtype=complex)
        if evecs.shape != (evals.size, evals.size):
            raise DimensionMismatchError(
                f"eigenvector block shape {evecs.shape} does not match {evals.size} eigenvalues"
            )
        object.__setattr__(self, "eigenvalues", _readonly(evals))
        object.__setattr__(self, "eigenvectors", _readonly(evecs))

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def matrix(self) -> np.ndarray:
        """Reconstruct the dense operator sum_i a_i |a_i><a_i|."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def orthonormality_defect(self) -> float:
        gram = self.eigenvectors.conj().T @ self.eigenvectors
        return float(np.abs(gram - np.eye(self.dim)).max())


@dataclass(frozen=True)
class HermitianMatrix:
    """A dense observable that passed ``hermitized``'s checks, the only place one is built: its
    exactly Hermitian, read-only ``matrix`` and its ``dim``, as a ``SpectralObservable`` has them."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def hermitized(m, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """The Hermitian part (m + m^H)/2 of a nonempty finite square matrix, refused where m departs from
    it by more than ``tol.hermiticity``: decomposed in m's place, it leaks no asymmetry into the guard."""
    arr = as_square_matrix(m)
    defect = float(np.abs(arr - (adjoint := arr.conj().T)).max())
    if defect > tol.hermiticity:
        raise NotHermitianError(f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {tol.hermiticity:.1e}")
    return HermitianMatrix(_readonly(0.5 * (arr + adjoint)))


def eigendecompose(m, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralObservable:
    """An observable as it is; a ``HermitianMatrix``, or any other matrix once ``hermitized``, by its
    ascending eigenvalues and phase-fixed eigenvectors, refused where they fail to rebuild it."""
    if isinstance(m, SpectralObservable):
        return m
    herm = (m if isinstance(m, HermitianMatrix) else hermitized(m, tol)).matrix
    evals, evecs = np.linalg.eigh(herm)
    evecs = phase_fix_columns(evecs)
    # a correct eigh leaves a residual that grows with the matrix's scale
    residual = float(np.abs((evecs * evals) @ evecs.conj().T - herm).max())
    if residual > tol.reconstruction * max(1.0, float(np.abs(herm).max())):
        raise ValueError(f"eigendecomposition failed to reconstruct input (residual {residual:.3e})")
    return SpectralObservable(evals, evecs)


def _psd_certified(mat: np.ndarray, tol: float) -> bool:
    """True when a Cholesky factor of ``mat + (tol/2) I`` proves that the
    smallest eigenvalue of Hermitian ``mat`` is at least -tol.  A factor that
    completes is exact for the matrix plus some E with ||E||_2 below about
    (n+1) eps tr(mat + (tol/2) I) (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3), so it certifies only where tol/2 is at least 8 times
    that; False leaves the decision to ``eigvalsh``."""
    n = mat.shape[0]
    shift = 0.5 * tol
    rounding = (n + 1) * _EPS * float(np.abs(mat.diagonal().real).sum() + n * shift)
    if shift < 8.0 * rounding:
        return False
    shifted = mat.copy()
    shifted.reshape(-1)[::n + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix; construct via ``pure`` or ``density``."""

    vector: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.matrix is None):
            raise InvalidStateError("state must hold exactly one of vector or matrix")

    @classmethod
    def pure(cls, amplitudes, tol: Tolerances = DEFAULT_TOLERANCES) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size == 0:
            raise InvalidStateError(f"pure state must be a nonempty vector, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise InvalidStateError("amplitudes must be finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol.unit_norm:
            raise InvalidStateError(f"pure state must have unit norm, got {norm!r}")
        return cls(vector=_readonly(vec.copy()))

    @classmethod
    def density(cls, rho, tol: Tolerances = DEFAULT_TOLERANCES) -> "QuantumState":
        mat = as_square_matrix(rho)
        defect = float(np.abs(mat - mat.conj().T).max())
        if defect > tol.hermiticity:
            raise InvalidStateError(f"density matrix must be Hermitian (asymmetry {defect:.3e})")
        trace = complex(mat.trace())
        if abs(trace - 1.0) > tol.trace:
            raise InvalidStateError(f"density matrix must have unit trace, got {trace!r}")
        if not _psd_certified(mat, tol.density_eigenvalue):
            smallest = float(np.linalg.eigvalsh(mat)[0])
            if smallest < -tol.density_eigenvalue:
                raise InvalidStateError(f"density matrix must be positive semidefinite "
                                        f"(smallest eigenvalue {smallest:.3e})")
        return cls(matrix=_readonly(mat.copy()))

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        return int(self.vector.size if self.is_pure else self.matrix.shape[0])

    def density_matrix(self) -> np.ndarray:
        """Dense density matrix of either variant."""
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return np.asarray(self.matrix)


def measurement_distribution(obs: SpectralObservable, state: QuantumState) -> np.ndarray:
    """Outcome probabilities in ascending-eigenvalue order."""
    if obs.dim != state.dim:
        raise DimensionMismatchError(f"observable and state have mismatched dimensions {obs.dim} and {state.dim}")
    v = obs.eigenvectors
    if state.is_pure:
        p = np.abs(v.conj().T @ state.vector) ** 2
    else:
        p = np.real(np.einsum("ji,jk,ki->i", v.conj(), state.matrix, v))
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def expectation(obs: SpectralObservable, state: QuantumState) -> float:
    p = measurement_distribution(obs, state)
    return float(p @ obs.eigenvalues)


def variance(obs: SpectralObservable, state: QuantumState) -> float:
    p = measurement_distribution(obs, state)
    mu = float(p @ obs.eigenvalues)
    return float(p @ (obs.eigenvalues - mu) ** 2)


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in nats; 0*ln(0) counts as 0."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty probability vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    if np.any(arr < 0):
        raise ValueError(f"probabilities must be nonnegative, got min {arr.min()!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > _DISTRIBUTION_SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    positive = arr[arr > 0]
    return max(0.0, float(-(positive * np.log(positive)).sum()))


@dataclass(frozen=True)
class OverlapStats:
    """Moduli of inner products between two eigenbases and their maximum c."""

    c: float
    overlap_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "overlap_matrix", _readonly(np.asarray(self.overlap_matrix, dtype=float)))


def overlap_stats(a: SpectralObservable, b: SpectralObservable) -> OverlapStats:
    common_dim((a, b))
    overlaps = np.abs(a.eigenvectors.conj().T @ b.eigenvectors)
    return OverlapStats(c=float(overlaps.max()), overlap_matrix=overlaps)
