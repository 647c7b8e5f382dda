"""kestenlab: feedback-driven return processes and their power-law tails.

A small numpy toolkit that simulates return processes driven by a
random feedback coefficient (inverse-multiplier, scalar and order-K
feedback recursions, GARCH(1,1)), solves the moment equations that pin
down their tail exponents, checks stationarity conditions, and reproduces
the empirical estimation pipeline (CCDF, log-log tail fits, Hill
cross-check, autocorrelations) at desk scale.
"""

__version__ = "0.5.0"

from .distributions import (
    CoefficientLaw,
    Constant,
    Exponential,
    GarchCoefficient,
    Normal,
    RngStream,
    Uniform,
    law_from_config,
)
from .estimators import (
    AcfResult,
    TailFit,
    acf,
    empirical_ccdf,
    hill_estimator,
    returns_from_prices,
    tail_exponent_ls,
)
from .processes import (
    Garch11,
    InverseMultiplier,
    KestenAR,
    KestenScalar,
    ProcessSpec,
    ReturnSeries,
    as_ar,
    garch11_paths,
    garch_to_kesten,
    read_series_csv,
    simulate,
    spec_digest,
    spec_from_config,
    write_series,
    write_series_csv,
    write_series_npy,
)
from .theory import (
    CramerSolution,
    LyapunovEstimate,
    RegimeClassification,
    StationarityCheck,
    TheoryReport,
    classify_regime,
    cramer_root,
    expected_acf,
    integer_moment_growth,
    inverse_tail_prediction,
    kesten_conditions_report,
    lyapunov_top,
    moment_lyapunov_root,
    stationarity_check,
)

__all__ = [
    "__version__",
    # distributions
    "CoefficientLaw",
    "Constant",
    "Exponential",
    "GarchCoefficient",
    "Normal",
    "RngStream",
    "Uniform",
    "law_from_config",
    # processes
    "Garch11",
    "InverseMultiplier",
    "KestenAR",
    "KestenScalar",
    "ProcessSpec",
    "ReturnSeries",
    "as_ar",
    "garch11_paths",
    "garch_to_kesten",
    "read_series_csv",
    "simulate",
    "spec_digest",
    "spec_from_config",
    "write_series",
    "write_series_csv",
    "write_series_npy",
    # estimators
    "AcfResult",
    "TailFit",
    "acf",
    "empirical_ccdf",
    "hill_estimator",
    "returns_from_prices",
    "tail_exponent_ls",
    # theory
    "CramerSolution",
    "LyapunovEstimate",
    "RegimeClassification",
    "StationarityCheck",
    "TheoryReport",
    "classify_regime",
    "cramer_root",
    "expected_acf",
    "integer_moment_growth",
    "inverse_tail_prediction",
    "kesten_conditions_report",
    "lyapunov_top",
    "moment_lyapunov_root",
    "stationarity_check",
]
