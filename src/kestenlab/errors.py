"""Exception types shared across the toolkit."""


class KestenLabError(Exception):
    """Base class for all toolkit errors."""


class LawError(KestenLabError, ValueError):
    """Invalid coefficient-law parameters or unsupported operation on a law."""


class NonnegativityRequired(LawError):
    """Fractional moment requested for a law that admits negative values."""


class PositivityRequired(LawError):
    """Log-moment requested for a law that is not strictly positive a.s."""


class NoDensity(LawError):
    """Density value requested for a law without a density (e.g. a constant)."""


class QuadratureError(LawError):
    """An expectation's quadrature did not converge: its two step sizes disagree."""


class MomentOverflow(LawError):
    """An expectation's integrand or closed form left the float range."""


class InvalidConfig(KestenLabError, ValueError):
    """Malformed config (law, process spec, experiment file), analysis parameter or input series."""


class DegenerateSpec(KestenLabError, ValueError):
    """Process spec that cannot produce a meaningful path (e.g. a == 1 surely)."""


class NumericalOverflow(KestenLabError, OverflowError):
    """A simulated path (likely non-stationary) or a series statistic left the float range."""


class ReturnOverflow(NumericalOverflow):
    """A relative price return is not finite (a price ratio overflowed, or a price is inf)."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position  # index of the price the return leads into


class ZeroWeightSum(KestenLabError, ValueError):
    """Weight normalization requested but a drawn weight vector sums to ~0."""


class NonPositivePrice(KestenLabError, ValueError):
    """Price series contains a zero or negative entry."""


class InsufficientTail(KestenLabError, ValueError):
    """Too few tail exceedances (or order statistics) for a tail estimate."""


class DegenerateTail(KestenLabError, ValueError):
    """Tail estimator hit zero log-spacings or non-positive order statistics."""


class SeriesTooShort(KestenLabError, ValueError):
    """Series too short for the requested number of lags."""


class TheoryError(KestenLabError, ValueError):
    """Base class for failures of the moment-equation machinery."""


class NoPositiveRoot(TheoryError):
    """E(a^mu) stays below 1 for all mu > 0 (thin-tail regime, P(a > 1) = 0)."""


class NonStationary(TheoryError):
    """E[log a] >= 0: no stationary solution, the moment equation has no root."""


class DegenerateLaw(TheoryError):
    """a == 1 surely: E(a^mu) == 1 for every mu, the root is not unique."""


class VarianceNotFinite(TheoryError):
    """Second moment of the stationary law diverges (E(a^2) >= 1)."""


class NoSignChange(TheoryError):
    """Moment-Lyapunov function has one sign over the whole search grid."""


class MissingArtifacts(KestenLabError, FileNotFoundError):
    """A run manifest references output files that no longer exist."""


class ParseError(KestenLabError, ValueError):
    """Unparseable row in an ingested CSV file."""
