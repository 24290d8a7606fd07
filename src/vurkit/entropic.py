"""State-independent floors on sums of measurement entropies (nats).

These constants are the C that the variance-floor engine consumes; each value
carries the identity of the bound that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .config import DEFAULT_TOLERANCES
from .core import SpectralObservable, common_dim, is_mub, overlap_stats
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
    if c > 1.0:
        raise ValueError(f"overlap c must not exceed 1, got {c!r}")
    if c < DE_VICENTE_DEFAULT_MIN_C - 1e-12:
        raise RegimeError(f"analytic bound not enabled for c={c!r} (threshold {DE_VICENTE_DEFAULT_MIN_C})")
    if c >= 1.0:
        value = 0.0
    else:
        value = -(1.0 + c) * math.log((1.0 + c) / 2.0) - (1.0 - c) * math.log((1.0 - c) / 2.0)
    return EntropicConstant(max(0.0, value), ConstantSource.DE_VICENTE_ANALYTIC, f"m=2 c={c!r}")


def wu_mub_bound(m: int, n: int) -> EntropicConstant:
    """Entropy-sum floor for m mutually unbiased bases in dimension n."""
    m, n = int(m), int(n)
    if m < 2 or n < 2:
        raise ValueError(f"need m >= 2 bases and dimension n >= 2, got m={m}, n={n}")
    k = (m * n) // (n + m - 1)
    value = m * math.log(k) + (k + 1) * (m - k * (n + m - 1) / n) * math.log(1.0 + 1.0 / k)
    return EntropicConstant(value, ConstantSource.WU_MUB, f"m={m} n={n} mub")


def wu_full_mub(n: int) -> EntropicConstant:
    """Entropy-sum floor for a complete set of n+1 mutually unbiased bases."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need dimension n >= 2, got {n}")
    lo, hi = (n + 1) // 2, (n + 2) // 2
    value = lo * math.log(lo) + hi * math.log(hi)
    return EntropicConstant(value, ConstantSource.WU_FULL_MUB, f"m={n + 1} n={n} mub")


def user_supplied(value: float) -> EntropicConstant:
    """Wrap an externally derived entropy-sum floor."""
    return EntropicConstant(float(value), ConstantSource.USER_SUPPLIED, f"C={float(value)!r}")


def _greedy_pair_matching(observables: list[SpectralObservable]) -> EntropicConstant:
    """Disjoint pairing of observables, greedily maximizing the summed -2 ln c scores.

    Discarding unmatched observables only weakens the floor (entropies are
    nonnegative), so the result is always a valid constant for the full set.
    """
    m = len(observables)
    scored = []
    for i in range(m):
        for j in range(i + 1, m):
            c = min(overlap_stats(observables[i], observables[j]).c, 1.0)
            scored.append((maassen_uffink(c).value, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    used: set[int] = set()
    total = 0.0
    chosen = []
    for score, i, j in scored:
        if i in used or j in used:
            continue
        used.update((i, j))
        total += score
        chosen.append((i, j))
    digest = f"m={m} pairs={chosen}"
    return EntropicConstant(total, ConstantSource.PAIRWISE_MATCHING, digest)


def entropic_candidates(observables,
                        mub_tol: float = DEFAULT_TOLERANCES.mub) -> list[EntropicConstant]:
    """Every entropy-sum floor the selector weighs for a set of observables.

    Two observables: the overlap bound, then the analytic large-overlap bound
    when its regime allows.  More than two: the unbiased-bases floor when the
    eigenbases are mutually unbiased to within ``mub_tol``, otherwise a greedy
    disjoint pairing scored by the overlap bound.
    """
    obs = list(observables)
    if len(obs) < 2:
        raise ValueError("need at least two observables")
    dim = common_dim(obs)
    if len(obs) == 2:
        c = min(overlap_stats(obs[0], obs[1]).c, 1.0)
        if c >= DE_VICENTE_DEFAULT_MIN_C:
            return [maassen_uffink(c), de_vicente_analytic(c)]
        return [maassen_uffink(c)]
    if is_mub(obs, mub_tol):
        return [wu_mub_bound(len(obs), dim)]
    return [_greedy_pair_matching(obs)]


def best_entropic_constant(observables,
                           mub_tol: float = DEFAULT_TOLERANCES.mub) -> EntropicConstant:
    """Strongest of ``entropic_candidates``, the first one on ties."""
    return max(entropic_candidates(observables, mub_tol), key=lambda k: k.value)
