"""Built-in observables and states used by the demos and the regression suite."""

from __future__ import annotations

import numpy as np

from .core import QuantumState, SpectralObservable, eigendecompose

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_QUTRIT_DIAG = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)

# The first cyclic matrix has integer multiples of pi for phases, which
# collapse to exact signs: (i/sqrt 3) times an integer antisymmetric pattern.
# (Reading its phases as pi/3 multiples, like the other two, gives a matrix
# that is not Hermitian.)
_QUTRIT_CYCLIC_INT = (1j / np.sqrt(3.0)) * np.array(
    [[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=complex)


def _cyclic_phase_matrix(prefactor_angle: float, unit_angle: float) -> np.ndarray:
    """(e^{i w}/sqrt 3) * [[0, e^{5iu}, e^{4iu}], [1, 0, e^{3iu}], [e^{iu}, e^{2iu}, 0]]."""
    def e(k: int) -> complex:
        return np.exp(1j * k * unit_angle)

    mat = np.array([[0, e(5), e(4)], [1, 0, e(3)], [e(1), e(2), 0]], dtype=complex)
    return (np.exp(1j * prefactor_angle) / np.sqrt(3.0)) * mat


def qutrit4_matrices() -> list[np.ndarray]:
    """The four 3x3 matrices of the built-in qutrit set: a diagonal matrix and
    three cyclic phase matrices with mutually unbiased eigenbases."""
    pi = np.pi
    return [
        _QUTRIT_DIAG.copy(),
        _QUTRIT_CYCLIC_INT.copy(),
        _cyclic_phase_matrix(pi / 6, pi / 3),
        _cyclic_phase_matrix(-pi / 6, -pi / 3),
    ]


def qutrit4() -> list[SpectralObservable]:
    """The built-in qutrit quadruple, with its exact shared spectrum -1, 0, 1."""
    return [SpectralObservable(np.array([-1.0, 0.0, 1.0]), o.eigenvectors)
            for o in map(eigendecompose, qutrit4_matrices())]


def pauli3() -> list[SpectralObservable]:
    """The three qubit spin observables; their eigenbases are mutually unbiased."""
    return [eigendecompose(m) for m in (PAULI_X, PAULI_Y, PAULI_Z)]


def singlet() -> QuantumState:
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return QuantumState.pure(v)


def ket00() -> QuantumState:
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    return QuantumState.pure(v)


def maximally_mixed(dim: int = 4) -> QuantumState:
    return QuantumState.density(np.eye(dim, dtype=complex) / dim)


def pauli_pairs() -> list[tuple[SpectralObservable, SpectralObservable]]:
    """The same spin observable on both qubits, for each of the three axes."""
    return [(o, o) for o in pauli3()]


# Name registries for the command line.  An observable name stands for a list:
# a whole set, or one observable.
OBSERVABLES = {
    "pauli3": pauli3,
    "qutrit4": qutrit4,
    **{f"sigma-{axis}": lambda k=k: [pauli3()[k]] for k, axis in enumerate("xyz")},
    **{f"qutrit-sigma{k}": lambda k=k: [qutrit4()[k]] for k in range(4)},
}

STATES = {
    "singlet": singlet,
    "ket00": ket00,
    "mixed2": maximally_mixed,
}

PAIR_SETS = {
    "pauli-pairs": pauli_pairs,
}
