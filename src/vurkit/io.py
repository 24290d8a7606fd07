"""JSON interchange: observable and state documents, plus run reports.

A run report's payload is a result's own dataclass fields (``payload``), so
each report's schema is declared once, on its dataclass.  Complex numbers are always [re, im] pairs; no complex-literal strings.  The
canonical serialized form of an observable is its spectral representation, so
parse(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .config import DEFAULT_TOLERANCES, TOOL_VERSION, Tolerances
from .core import QuantumState, SpectralObservable, eigendecompose
from .errors import FileFormatError


def _as_number(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise FileFormatError(f"{what} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an int beyond the float range
        value = np.inf
    if not np.isfinite(value):
        raise FileFormatError(f"{what} must be finite, got {obj!r}")
    return value


def _pair_to_complex(obj, what: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise FileFormatError(f"{what} must be a [re, im] pair, got {obj!r}")
    return complex(_as_number(obj[0], what), _as_number(obj[1], what))


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pairs_to_array(items: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """Nested lists of [re, im] pairs as a complex array of ``shape`` in one
    numpy call, or None when an entry needs the per-entry checks."""
    try:
        out = np.array(items, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    numbers = chain.from_iterable(chain.from_iterable(items) if len(shape) == 2 else items)
    # numpy would silently read bools and numeric strings as numbers, and tuples as lists
    if (out.shape != (*shape, 2) or not np.isfinite(out).all()
            or not all(type(item) is list for item in items)
            or not set(map(type, numbers)) <= {int, float}):
        return None
    return out.view(complex)[..., 0]


def _parse_complex_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{what} must be a nonempty list of rows")
    n = len(rows)
    out = _pairs_to_array(rows, (n, n))
    if out is None:
        out = np.empty((n, n), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise FileFormatError(f"{what} must be square; row {i} has length "
                                      f"{len(row) if isinstance(row, list) else 'N/A'}, expected {n}")
            for j, entry in enumerate(row):
                out[i, j] = _pair_to_complex(entry, f"{what}[{i}][{j}]")
    return out


def parse_observable(doc: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralObservable:
    """Build an observable from a document holding exactly one of ``matrix``
    (dense Hermitian entries) or ``spectral`` (eigenvalues plus eigenvector
    columns)."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"observable document must be an object, got {type(doc).__name__}")
    has_matrix, has_spectral = "matrix" in doc, "spectral" in doc
    if has_matrix == has_spectral:
        raise FileFormatError("observable document must contain exactly one of 'matrix' or 'spectral'")
    if has_matrix:
        return eigendecompose(_parse_complex_matrix(doc["matrix"], "matrix"), tol)

    spectral = doc["spectral"]
    if not isinstance(spectral, dict) or set(spectral) != {"eigenvalues", "eigenvectors"}:
        raise FileFormatError("'spectral' must be an object with 'eigenvalues' and 'eigenvectors'")
    raw_evals, raw_cols = spectral["eigenvalues"], spectral["eigenvectors"]
    if not isinstance(raw_evals, list) or not raw_evals:
        raise FileFormatError("'eigenvalues' must be a nonempty list")
    n = len(raw_evals)
    evals = np.array([_as_number(v, f"eigenvalues[{i}]") for i, v in enumerate(raw_evals)])
    if np.any(evals[1:] < evals[:-1]):
        raise FileFormatError("eigenvalues must be in ascending order")
    if not isinstance(raw_cols, list) or len(raw_cols) != n:
        raise FileFormatError(f"'eigenvectors' must hold {n} columns")
    vecs = _parse_complex_matrix(raw_cols, "eigenvectors").T
    obs = SpectralObservable(evals, vecs)
    defect = obs.orthonormality_defect()
    if defect > tol.orthonormality:
        raise FileFormatError(f"eigenvector columns are not orthonormal (defect {defect:.3e})")
    return obs


def serialize_observable(obs: SpectralObservable) -> dict:
    """Canonical spectral document for an observable."""
    cols = [[_complex_to_pair(obs.eigenvectors[i, j]) for i in range(obs.dim)]
            for j in range(obs.dim)]
    return {"spectral": {"eigenvalues": [float(v) for v in obs.eigenvalues],
                         "eigenvectors": cols}}


def parse_state(doc: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumState:
    """Build a state from a document holding exactly one of ``pure``
    (amplitude pairs) or ``density`` (matrix of pairs)."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"state document must be an object, got {type(doc).__name__}")
    has_pure, has_density = "pure" in doc, "density" in doc
    if has_pure == has_density:
        raise FileFormatError("state document must contain exactly one of 'pure' or 'density'")
    if has_pure:
        amp = doc["pure"]
        if not isinstance(amp, list) or not amp:
            raise FileFormatError("'pure' must be a nonempty list of [re, im] pairs")
        vec = _pairs_to_array(amp, (len(amp),))
        if vec is None:
            vec = np.array([_pair_to_complex(a, f"pure[{i}]") for i, a in enumerate(amp)])
        return QuantumState.pure(vec, tol)
    return QuantumState.density(_parse_complex_matrix(doc["density"], "density"), tol)


def serialize_state(state: QuantumState) -> dict:
    if state.is_pure:
        return {"pure": [_complex_to_pair(z) for z in state.vector]}
    return {"density": [[_complex_to_pair(z) for z in row] for row in state.matrix]}


def _load_json(path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_observable(path, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralObservable:
    return parse_observable(_load_json(path), tol)


def load_state(path, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumState:
    return parse_state(_load_json(path), tol)


# --- run reports -----------------------------------------------------------

def run_report(command: list[str], inputs: dict, seed: int | None, payload: dict) -> str:
    """JSON echo of one CLI invocation: command, inputs, seed, tool version
    and payload.  Re-running the echoed command reproduces it byte for byte."""
    doc = {"command": list(command), "inputs": inputs, "seed": seed,
           "version": TOOL_VERSION, "payload": payload}
    return json.dumps(doc, indent=2, allow_nan=False)


def payload(value) -> Any:
    """JSON form of a result: a dataclass becomes an object of its fields in
    declaration order, each keyed by its ``metadata["json"]`` if it has one, a
    state its ``serialize_state`` document and an enum its value."""
    if isinstance(value, Enum):  # before str: ConstantSource and Verdict subclass it
        return value.value
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, QuantumState):
        return serialize_state(value)
    if dataclasses.is_dataclass(value):
        return {f.metadata.get("json", f.name): payload(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: payload(v) for k, v in value.items()}
    return [payload(v) for v in value]  # a list or tuple
