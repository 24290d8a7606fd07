"""JSON interchange: observable and state documents, plus run reports.

Complex numbers are always [re, im] pairs.  A document array converts in one
pass per nesting level, which checks that level's types and lengths, and one
``np.fromiter`` over its numbers; a walk in row order runs only to name the
first bad entry when a check refuses.  A whole file load runs with the cyclic
garbage collector paused: the parsed document is an acyclic tree, which
reference counting frees.  An observable serializes to its spectral form, so
parse(serialize(x)) reproduces x exactly.  A report's payload is a result's
own dataclass fields, its schema declared there once.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from contextlib import contextmanager
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from .config import DEFAULT_TOLERANCES, TOOL_VERSION, Tolerances
from .core import QuantumState, SpectralObservable, eigendecompose_many, hermitized
from .errors import FileFormatError


def _to_array(items: list, what: str, square: bool, pairs: bool = True) -> np.ndarray:
    """A nonempty document list as an array: numbers, [re, im] pairs (read as
    complex) or, when ``square``, n rows of n of them.  Rows are lists, pairs
    lists or tuples of two, numbers finite ints or floats (numpy floats too,
    never bools); anything else raises, naming the first bad entry."""
    n = len(items)
    entries = items
    for kinds, size in [((list,), n)] * square + [((list, tuple), 2)] * pairs:
        # one level of the tree: its types and lengths, then the level below
        types = set(map(type, entries))
        if not all(issubclass(t, kinds) for t in types) or set(map(len, entries)) != {size}:
            _refuse(items, what, square, pairs)
        entries = list(chain.from_iterable(entries))
    types = set(map(type, entries))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        _refuse(items, what, square, pairs)
    try:
        out = np.fromiter(entries, dtype=float, count=len(entries))
    except OverflowError:  # an int beyond the float range
        _refuse(items, what, square, pairs)
    if not np.isfinite(out).all():
        _refuse(items, what, square, pairs)
    out = out.reshape((n,) * (1 + square) + (2,) * pairs)
    return out.view(complex)[..., 0] if pairs else out


def _refuse(items: list, what: str, square: bool, pairs: bool) -> NoReturn:
    """Raise naming the first entry, in row order, that ``_to_array``'s rules refuse."""
    for i, row in enumerate(items):
        if square and (not isinstance(row, list) or len(row) != len(items)):
            raise FileFormatError(f"{what} must be square; row {i} has length "
                                  f"{len(row) if isinstance(row, list) else 'N/A'}, expected {len(items)}")
        for j, entry in enumerate(row if square else [row]):
            label = f"{what}[{i}][{j}]" if square else f"{what}[{i}]"
            if pairs and (not isinstance(entry, (list, tuple)) or len(entry) != 2):
                raise FileFormatError(f"{label} must be a [re, im] pair, got {entry!r}")
            for number in entry if pairs else [entry]:
                if isinstance(number, bool) or not isinstance(number, (int, float)):
                    raise FileFormatError(f"{label} must be a number, got {number!r}")
                try:
                    finite = np.isfinite(float(number))
                except OverflowError:  # an int beyond the float range
                    finite = False
                if not finite:
                    raise FileFormatError(f"{label} must be finite, got {number!r}")
    raise FileFormatError(f"{what} is not an array numpy can read")


def _matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{what} must be a nonempty list of rows")
    return _to_array(rows, what, square=True)


def parse_observable(doc: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralObservable:
    """Build an observable from a document holding exactly one of ``matrix``
    (dense Hermitian entries) or ``spectral`` (eigenvalues plus eigenvector
    columns)."""
    return eigendecompose_many([_checked_observable(doc, tol)], tol)[0]


def _checked_observable(doc: Any, tol: Tolerances) -> SpectralObservable | np.ndarray:
    """``parse_observable`` short of the decomposition: an observable or a ``hermitized`` matrix."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"observable document must be an object, got {type(doc).__name__}")
    has_matrix, has_spectral = "matrix" in doc, "spectral" in doc
    if has_matrix == has_spectral:
        raise FileFormatError("observable document must contain exactly one of 'matrix' or 'spectral'")
    if has_matrix:
        return hermitized(_matrix(doc["matrix"], "matrix"), tol)

    spectral = doc["spectral"]
    if not isinstance(spectral, dict) or set(spectral) != {"eigenvalues", "eigenvectors"}:
        raise FileFormatError("'spectral' must be an object with 'eigenvalues' and 'eigenvectors'")
    raw_evals, raw_cols = spectral["eigenvalues"], spectral["eigenvectors"]
    if not isinstance(raw_evals, list) or not raw_evals:
        raise FileFormatError("'eigenvalues' must be a nonempty list")
    evals = _to_array(raw_evals, "eigenvalues", square=False, pairs=False)
    if np.any(evals[1:] < evals[:-1]):
        raise FileFormatError("eigenvalues must be in ascending order")
    if not isinstance(raw_cols, list) or len(raw_cols) != evals.size:
        raise FileFormatError(f"'eigenvectors' must hold {evals.size} columns")
    obs = SpectralObservable(evals, _matrix(raw_cols, "eigenvectors").T)
    defect = obs.orthonormality_defect()
    if defect > tol.orthonormality:
        raise FileFormatError(f"eigenvector columns are not orthonormal (defect {defect:.3e})")
    return obs


def serialize_observable(obs: SpectralObservable) -> dict:
    """Canonical spectral document for an observable."""
    cols = obs.eigenvectors.T
    return {"spectral": {"eigenvalues": obs.eigenvalues.tolist(),
                         "eigenvectors": np.stack([cols.real, cols.imag], -1).tolist()}}


def parse_state(doc: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumState:
    """Build a state from a document holding exactly one of ``pure``
    (amplitude pairs) or ``density`` (matrix of pairs)."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"state document must be an object, got {type(doc).__name__}")
    has_pure, has_density = "pure" in doc, "density" in doc
    if has_pure == has_density:
        raise FileFormatError("state document must contain exactly one of 'pure' or 'density'")
    if has_density:
        return QuantumState.density(_matrix(doc["density"], "density"), tol)
    amp = doc["pure"]
    if not isinstance(amp, list) or not amp:
        raise FileFormatError("'pure' must be a nonempty list of [re, im] pairs")
    return QuantumState.pure(_to_array(amp, "pure", square=False), tol)


def serialize_state(state: QuantumState) -> dict:
    key, z = ("pure", state.vector) if state.is_pure else ("density", state.matrix)
    return {key: np.stack([z.real, z.imag], -1).tolist()}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one document load.  A parsed
    document is an acyclic tree of lists that reference counting frees; left
    on, the collector scans its lists every few hundred allocations, and once
    they outnumber the older objects, all of them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    return eigendecompose_many([read_observable(path, tol)], tol)[0]


def read_observable(path, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralObservable | np.ndarray:
    """``load_observable`` short of the decomposition, left to ``eigendecompose_many``."""
    with _collector_paused():
        return _checked_observable(_load_json(path), tol)


def load_state(path, tol: Tolerances = DEFAULT_TOLERANCES) -> QuantumState:
    with _collector_paused():
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
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, QuantumState):
        return serialize_state(value)
    if dataclasses.is_dataclass(value):
        return {f.metadata.get("json", f.name): payload(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: payload(v) for k, v in value.items()}
    return [payload(v) for v in value]  # a list or tuple
