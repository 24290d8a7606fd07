"""Central tolerance record."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class Tolerances:
    """Every numeric validation threshold used by the toolkit.

    Keeping them in one record makes CLI overrides (``--tol name=value``)
    and test pinning trivial.  Values must be finite and >= 0: a nan would
    switch its check off and a negative value turn it around.
    """

    hermiticity: float = 1e-10
    orthonormality: float = 1e-10
    reconstruction: float = 1e-9
    unit_norm: float = 1e-10
    trace: float = 1e-10
    density_eigenvalue: float = 1e-9
    mub: float = 1e-8
    lur_margin: float = 1e-9
    oracle_agreement: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


def with_overrides(base: Tolerances, overrides: dict[str, float]) -> Tolerances:
    """Return a copy of ``base`` with the named thresholds replaced."""
    unknown = sorted(set(overrides) - set(base.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown tolerance name(s): {', '.join(unknown)}")
    return replace(base, **{k: float(v) for k, v in overrides.items()})

