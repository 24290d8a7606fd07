"""vurkit: state-independent lower bounds on sums of variances of Hermitian
observables, the entropy constants that feed them, a brute-force minimization
oracle, and a local-uncertainty separability test for bipartite states.
"""

from .config import DEFAULT_TOLERANCES, TOOL_VERSION, Tolerances
from .core import (OverlapStats, QuantumState, SpectralObservable, eigendecompose,
                   expectation, is_mub, measurement_distribution, overlap_stats,
                   shannon_entropy, variance)
from .engine import (BoundReport, InnerMaxResult, bound_at_alpha, continuous_pair_bound,
                     inner_max, optimize_alpha, shannon_variance_bound, state_dependent_bound)
from .entropic import (ConstantSource, EntropicConstant, best_entropic_constant,
                       de_vicente_analytic, entropic_candidates, maassen_uffink,
                       user_supplied, wu_full_mub, wu_mub_bound)
from .errors import (DimensionMismatchError, FileFormatError, InvalidAlphaError,
                     InvalidStateError, NotHermitianError, RegimeError, VurkitError)
from .lur import LocalObservablePair, LurReport, Verdict, lur_test, sample_random_separable
from .oracle import (LemmaSweepReport, OracleConfig, OracleResult, lemma_sweep,
                     minimize_variance_sum, random_hermitian, sample_random_pure)

__version__ = TOOL_VERSION

__all__ = [
    "BoundReport", "ConstantSource", "DEFAULT_TOLERANCES", "DimensionMismatchError",
    "EntropicConstant", "FileFormatError", "InnerMaxResult", "InvalidAlphaError",
    "InvalidStateError", "LemmaSweepReport", "LocalObservablePair", "LurReport",
    "NotHermitianError", "OracleConfig", "OracleResult", "OverlapStats",
    "QuantumState", "RegimeError", "SpectralObservable", "Tolerances", "Verdict",
    "VurkitError", "best_entropic_constant", "bound_at_alpha", "continuous_pair_bound",
    "de_vicente_analytic", "eigendecompose", "entropic_candidates", "expectation",
    "inner_max", "is_mub", "lemma_sweep", "lur_test", "maassen_uffink",
    "measurement_distribution", "minimize_variance_sum", "optimize_alpha", "overlap_stats",
    "random_hermitian", "sample_random_pure", "sample_random_separable", "shannon_entropy",
    "shannon_variance_bound", "state_dependent_bound", "user_supplied", "variance",
    "wu_full_mub", "wu_mub_bound",
]
