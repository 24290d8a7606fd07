"""vurkit: state-independent lower bounds on sums of variances of Hermitian
observables, the entropy constants that feed them, a brute-force minimization
oracle, and a local-uncertainty separability test for bipartite states.
"""

from .config import DEFAULT_TOLERANCES, TOOL_VERSION, Tolerances
from .core import (OverlapStats, QuantumState, SpectralObservable, eigendecompose,
                   expectation, measurement_distribution, overlap_stats,
                   shannon_entropy, variance)
from .engine import (BoundReport, InnerMaxResult, bound_at_alpha, continuous_pair_bound,
                     inner_max, optimize_alpha, shannon_variance_bound, state_dependent_bound)
from .entropic import (ConstantSelection, ConstantSource, EntropicConstant,
                       best_entropic_constant, de_vicente_analytic, maassen_uffink,
                       select_constant, user_supplied, wu_full_mub, wu_mub_bound)
from .errors import (DimensionMismatchError, FileFormatError, InvalidAlphaError,
                     InvalidStateError, NotHermitianError, RegimeError, VurkitError)
from .lur import LurReport, Verdict, lur_test
from .oracle import (OracleConfig, OracleResult, minimize_variance_sum, random_hermitian,
                     sample_random_pure)

__version__ = TOOL_VERSION

__all__ = [
    "BoundReport", "ConstantSelection", "ConstantSource", "DEFAULT_TOLERANCES",
    "DimensionMismatchError", "EntropicConstant", "FileFormatError", "InnerMaxResult",
    "InvalidAlphaError", "InvalidStateError", "LurReport", "NotHermitianError",
    "OracleConfig", "OracleResult", "OverlapStats", "QuantumState", "RegimeError",
    "SpectralObservable", "Tolerances", "Verdict", "VurkitError", "best_entropic_constant",
    "bound_at_alpha", "continuous_pair_bound", "de_vicente_analytic", "eigendecompose",
    "expectation", "inner_max", "lur_test", "maassen_uffink", "measurement_distribution",
    "minimize_variance_sum", "optimize_alpha", "overlap_stats", "random_hermitian",
    "sample_random_pure", "select_constant", "shannon_entropy", "shannon_variance_bound",
    "state_dependent_bound", "user_supplied", "variance", "wu_full_mub", "wu_mub_bound",
]
