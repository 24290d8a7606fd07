"""State-independent floors on sums of measurement entropies (nats).

These constants are the C that the variance-floor engine consumes; each value
carries the identity of the bound that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import check_integer, common_dim, overlap_stats
from .errors import RegimeError

# The analytic large-overlap bound is provably wrong near c = 1/sqrt(2): the
# qubit state |0> with the z and x spin observables has entropy sum ln 2,
# below the formula's value there.  0.834 is where the formula's own stated
# improvement region ends, so that is the default gate.
DE_VICENTE_DEFAULT_MIN_C = 0.834


class ConstantSource(str, Enum):
    MAASSEN_UFFINK = "maassen_uffink"
    DE_VICENTE_ANALYTIC = "de_vicente_analytic"
    WU_MUB = "wu_mub"
    WU_FULL_MUB = "wu_full_mub"
    PAIRWISE_MATCHING = "pairwise_matching"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class EntropicConstant:
    """An entropy-sum floor plus the provenance of the bound that produced it."""

    value: float
    source: ConstantSource
    inputs_digest: str

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"entropic constant must be finite and nonnegative, got {self.value!r}")


def maassen_uffink(c: float) -> EntropicConstant:
    """-2 ln c for a basis pair with maximum overlap c."""
    c = float(c)
    if not (0.0 < c <= 1.0):
        raise ValueError(f"overlap c must lie in (0, 1], got {c!r}")
    return EntropicConstant(max(0.0, -2.0 * math.log(c)), ConstantSource.MAASSEN_UFFINK, f"m=2 c={c!r}")


def de_vicente_analytic(c: float) -> EntropicConstant:
    """Analytic large-overlap improvement on the -2 ln c bound, for
    c >= 0.834 (see the module comment for why not below)."""
    c = float(c)
    if not c <= 1.0:
        raise ValueError(f"overlap c must be a number no greater than 1, got {c!r}")
    if c < DE_VICENTE_DEFAULT_MIN_C - 1e-12:
        raise RegimeError(f"analytic bound not enabled for c={c!r} (threshold {DE_VICENTE_DEFAULT_MIN_C})")
    if c >= 1.0:
        value = 0.0
    else:
        value = -(1.0 + c) * math.log((1.0 + c) / 2.0) - (1.0 - c) * math.log((1.0 - c) / 2.0)
    return EntropicConstant(max(0.0, value), ConstantSource.DE_VICENTE_ANALYTIC, f"m=2 c={c!r}")


def wu_mub_bound(m: int, n: int) -> EntropicConstant:
    """Entropy-sum floor for m mutually unbiased bases in dimension n."""
    m, n = check_integer("m", m, 2), check_integer("n", n, 2)
    k = (m * n) // (n + m - 1)
    value = m * math.log(k) + (k + 1) * (m - k * (n + m - 1) / n) * math.log(1.0 + 1.0 / k)
    return EntropicConstant(value, ConstantSource.WU_MUB, f"m={m} n={n} mub")


def wu_full_mub(n: int) -> EntropicConstant:
    """Entropy-sum floor for a complete set of n+1 mutually unbiased bases."""
    n = check_integer("n", n, 2)
    lo, hi = (n + 1) // 2, (n + 2) // 2
    value = lo * math.log(lo) + hi * math.log(hi)
    return EntropicConstant(value, ConstantSource.WU_FULL_MUB, f"m={n + 1} n={n} mub")


def user_supplied(value: float) -> EntropicConstant:
    """Wrap an externally derived entropy-sum floor."""
    return EntropicConstant(float(value), ConstantSource.USER_SUPPLIED, f"C={float(value)!r}")


@dataclass(frozen=True)
class ConstantSelection:
    """What the selector saw, as ``(i, j, c)`` per pair i < j (0-based), and weighed."""

    overlaps: tuple[tuple[int, int, float], ...]
    mutually_unbiased: bool
    candidates: tuple[EntropicConstant, ...]

    @property
    def selected(self) -> EntropicConstant:
        """Strongest candidate, the first one on ties."""
        return max(self.candidates, key=lambda k: k.value)


def select_constant(observables,
                    mub_tol: float = DEFAULT_TOLERANCES.mub) -> ConstantSelection:
    """Every entropy-sum floor the selector weighs, from one overlap matrix per pair.

    Two observables: the overlap bound, then the analytic large-overlap bound
    when its regime allows.  More than two: the unbiased-bases floor when every
    overlap is within ``mub_tol`` of ``1/sqrt(n)``, or else a disjoint pairing
    greedily maximizing the summed -2 ln c scores (unmatched observables only
    weaken the floor).
    """
    obs = list(observables)
    if len(obs) < 2:
        raise ValueError("need at least two observables")
    m, dim = len(obs), common_dim(obs)
    stats = {(i, j): overlap_stats(obs[i], obs[j]) for i in range(m) for j in range(i + 1, m)}
    overlaps = tuple((i, j, pair.c) for (i, j), pair in stats.items())
    # in dimension 1 every overlap is 1 = 1/sqrt(1), yet one basis is no set of unbiased ones
    mub = dim >= 2 and all(np.max(np.abs(pair.overlap_matrix - 1.0 / math.sqrt(dim))) <= mub_tol
                           for pair in stats.values())
    if m == 2:
        c = min(overlaps[0][2], 1.0)
        candidates = [maassen_uffink(c)]
        if c >= DE_VICENTE_DEFAULT_MIN_C:
            candidates.append(de_vicente_analytic(c))
    elif mub:
        candidates = [wu_mub_bound(m, dim)]
    else:
        total, chosen = 0.0, []
        for neg, i, j in sorted((-maassen_uffink(min(c, 1.0)).value, i, j) for i, j, c in overlaps):
            if all(i not in pair and j not in pair for pair in chosen):
                total -= neg
                chosen.append((i, j))
        candidates = [EntropicConstant(total, ConstantSource.PAIRWISE_MATCHING,
                                       f"m={m} pairs={chosen}")]
    return ConstantSelection(overlaps, mub, tuple(candidates))


def best_entropic_constant(observables,
                           mub_tol: float = DEFAULT_TOLERANCES.mub) -> EntropicConstant:
    """The constant ``select_constant`` selects."""
    return select_constant(observables, mub_tol).selected
