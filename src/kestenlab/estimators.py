"""Empirical pipeline: returns from prices, tail distribution, tail-exponent
fits and autocorrelations.

The primary tail estimator is the log-log least-squares fit of the
empirical survival function above a threshold - the same procedure used
on daily index data - with the Hill estimator available as a labeled
cross-check, never silently substituted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Record
from .errors import (
    DegenerateTail,
    InsufficientTail,
    InvalidConfig,
    NonPositivePrice,
    ReturnOverflow,
    SeriesTooShort,
)
from .processes import series_values, write_csv

MIN_TAIL_POINTS = 10

# ccdf.csv keeps the survival points nearest above this many log-spaced
# abscissae: enough to draw the log-log curve, a few hundred rows at most.
CCDF_PLOT_POINTS = 512

# When the caller gives no threshold, fit above the 95th percentile of |r|;
# an absolute 2% cutoff only makes sense for series scaled to ~1% std.
DEFAULT_TAIL_QUANTILE = 0.95


def _unit_scale(v: np.ndarray) -> float:
    """The power of two s that brings max|v| into [0.5, 1).

    Scaling by it is exact barring underflow, so a statistic of v * s
    scales back exactly, and sums of squares of v * s stay finite."""
    return math.ldexp(1.0, -math.frexp(float(np.abs(v).max()))[1])


def mean_std(series) -> tuple[float, float]:
    """Sample mean and std (ddof 0).

    Where the plain computation overflows (finite values whose squares or
    sum are not), both come from the series scaled by ``_unit_scale``; the
    std of finite values is then finite."""
    v = series_values(series)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(v.mean()), float(v.std())
        if not (math.isfinite(mean) and math.isfinite(std)):
            s = _unit_scale(v)
            v = v * s
            mean, std = float(v.mean()) / s, float(v.std()) / s
    return mean, std


@dataclass(frozen=True)
class TailFit(Record):
    """Least-squares power-law fit of the tail of the survival function.

    ``exponent`` is the negated log-log slope (reported positive),
    ``intercept`` the OLS intercept in natural-log space, ``n_tail`` the
    number of sample exceedances above the threshold and ``stderr`` the
    OLS standard error of the slope.
    """

    threshold: float
    exponent: float
    intercept: float
    n_tail: int
    stderr: float

    def __post_init__(self) -> None:
        if self.n_tail < MIN_TAIL_POINTS:
            raise InsufficientTail(f"tail fit used only {self.n_tail} exceedances")
        if not self.exponent > 0:
            raise DegenerateTail(
                f"fitted exponent must be positive, got {self.exponent}; "
                "the data shows no power-law decay above this threshold"
            )


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelation at lags 0..H of a raw or absolute series."""

    lags: np.ndarray
    values: np.ndarray
    series_kind: str  # "raw" | "absolute"

    def __post_init__(self) -> None:
        lags = np.asarray(self.lags, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if lags.shape != vals.shape:
            raise InvalidConfig("lags and values must align")
        if vals[0] != 1.0:
            raise InvalidConfig("autocorrelation at lag 0 must be exactly 1")
        if not np.all(np.abs(vals) <= 1.0 + 1e-12):  # NaN fails too
            raise InvalidConfig("autocorrelation values must lie in [-1, 1]")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", vals)

    def at(self, lag: int) -> float:
        return float(self.values[lag])


def returns_from_prices(prices) -> np.ndarray:
    """Relative price changes (P_t - P_{t-1}) / P_{t-1}.

    Raises NonPositivePrice for a price <= 0 and ReturnOverflow, carrying the
    position of the later price, for a return that is not finite.
    """
    p = np.asarray(prices, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise InvalidConfig("need at least two prices")
    bad = np.where(~(p > 0))[0]
    if bad.size:
        raise NonPositivePrice(
            f"price at position {int(bad[0])} is not positive: {p[bad[0]]!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        returns = np.diff(p) / p[:-1]
    finite = np.isfinite(returns)
    if not finite.all():
        i = int(np.argmin(finite)) + 1
        raise ReturnOverflow(
            f"the return into the price at position {i} is not finite: {p[i]!r}", i
        )
    return returns


def empirical_ccdf(series, absolute: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival function evaluated just above each sample point.

    Returns (x, p) with x the sorted distinct values (ties collapsed) and
    p = P(X > x) = (n - rank)/n, so the largest observation maps to
    probability 0 and survival is strictly decreasing in x.
    """
    v = series_values(series)
    if absolute:
        v = np.abs(v)
    n = v.size
    x, counts = np.unique(v, return_counts=True)
    p = (n - np.cumsum(counts)) / n
    return x, p


def _distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of a nondecreasing array, in order: np.unique of it
    without np.unique, which loads numpy.ma on first use."""
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _plot_rows(x: np.ndarray) -> np.ndarray:
    """The indices of sorted x that ``ccdf.csv`` keeps when x holds more than
    ``CCDF_PLOT_POINTS`` distinct values: the first, the last, and the first
    at or above each of ``CCDF_PLOT_POINTS`` log-spaced points from the
    smallest positive x to the largest.  On distinct x these are exact
    (x, p) rows, at most ``CCDF_PLOT_POINTS`` of them (one more when the
    first x is 0); on a sample with ties they name the same values."""
    smallest_positive = x[np.searchsorted(x, 0.0, side="right")]
    grid = np.geomspace(smallest_positive, x[-1], CCDF_PLOT_POINTS)
    # geomspace ends exactly at x[-1], so the searched rows rise from 0 to x.size - 1
    return _distinct(np.concatenate(([0], np.searchsorted(x, grid), [x.size - 1])))


def thin_ccdf(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an absolute ``empirical_ccdf`` that ``ccdf.csv`` keeps: all
    of them when at most ``CCDF_PLOT_POINTS`` distinct x, else ``_plot_rows``."""
    if x.size <= CCDF_PLOT_POINTS:
        return x, p
    rows = _plot_rows(x)
    return x[rows], p[rows]


def tail_exponent_ls(series, threshold: float | None = None) -> TailFit:
    """OLS fit of log P(|r| > x) on log x for x above the threshold.

    The survival probabilities come from the full sample; only the points
    above the threshold enter the regression, and the largest observation
    (survival 0) is excluded to avoid log(0).
    """
    return tail_fit_with_ccdf(series, threshold)[0]


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """``np.quantile(s, q)`` of sorted ``s``, bit for bit: numpy's linear method
    reads s[floor(h)] and s[ceil(h)] at h = (n - 1) q and interpolates with
    its ``_lerp`` rule, which computes b - (b - a)(1 - t) from t = 0.5 up."""
    h = (s.size - 1) * q
    t = h - math.floor(h)
    a, b = float(s[math.floor(h)]), float(s[math.ceil(h)])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def check_threshold(threshold: float | None) -> None:
    """InvalidConfig unless the tail threshold is None or a number >= 0."""
    if threshold is not None and not threshold >= 0:  # NaN too
        raise InvalidConfig(f"tail threshold must be >= 0, got {threshold!r}")


def tail_fit_with_ccdf(
    series, threshold: float | None = None
) -> tuple[TailFit, np.ndarray, np.ndarray]:
    """``tail_exponent_ls`` and the ``ccdf.csv`` rows, ``thin_ccdf`` of the
    absolute ``empirical_ccdf``, from one in-place sort of a copy of |r|.

    Neither needs the full CCDF: the regression reads the distinct values
    above the threshold, and p = (n - rank) / n of each, rank being the
    count of values at or below it; the rows are every distinct value, or
    where more than ``CCDF_PLOT_POINTS`` are, the distinct values at
    ``_plot_rows`` of the sorted sample, and their p is read the same way
    by searchsorted."""
    check_threshold(threshold)
    s = np.abs(series_values(series))
    s.sort()
    n = s.size
    if threshold is None:
        threshold = _sorted_quantile(s, DEFAULT_TAIL_QUANTILE)
    first = int(np.searchsorted(s, threshold, side="right"))  # the first value above it
    n_tail = n - first
    if n_tail < MIN_TAIL_POINTS:
        raise InsufficientTail(
            f"only {n_tail} exceedances above threshold {threshold!r}; "
            f"need at least {MIN_TAIL_POINTS}"
        )
    x, counts = np.unique(s[first:], return_counts=True)
    p = (n - (first + np.cumsum(counts))) / n
    mask = p > 0
    if int(mask.sum()) < 3:
        raise InsufficientTail("fewer than 3 distinct tail points above threshold")
    lx = np.log(x[mask])
    lp = np.log(p[mask])
    m = lx.size
    lx_mean = lx.mean()
    sxx = float(np.sum((lx - lx_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateTail("all tail points share one abscissa")
    slope = float(np.sum((lx - lx_mean) * lp) / sxx)
    intercept = float(lp.mean() - slope * lx_mean)
    resid = lp - (slope * lx + intercept)
    stderr = float(np.sqrt(resid @ resid / max(m - 2, 1) / sxx))
    fit = TailFit(float(threshold), -slope, intercept, n_tail, stderr)
    few = np.count_nonzero(s[1:] != s[:-1]) < CCDF_PLOT_POINTS  # every distinct value is a row
    x = _distinct(s) if few else _distinct(s[_plot_rows(s)])
    return fit, x, (n - np.searchsorted(s, x, side="right")) / n


def hill_estimator(series, k: int) -> float:
    """Hill tail-index estimate from the top k absolute order statistics.

    Reciprocal of the mean log-spacing log(x_(n-i+1) / x_(n-k)), i = 1..k.
    """
    absv = np.abs(series_values(series))
    n = absv.size
    if not MIN_TAIL_POINTS <= k < n:
        raise InsufficientTail(f"need {MIN_TAIL_POINTS} <= k < n, got k={k}, n={n}")
    absv.partition(n - k - 1)  # in place: absv is this call's own copy
    x_nk = absv[n - k - 1]
    if not x_nk > 0:
        raise DegenerateTail(f"order statistic x_(n-k) = {x_nk!r} is not positive")
    spacings = np.log(absv[n - k :]) - np.log(x_nk)
    h = float(spacings.mean())
    if h <= 0:
        raise DegenerateTail("zero log-spacings in the top order statistics")
    return 1.0 / h


def check_max_lag(max_lag: int) -> None:
    """InvalidConfig unless max_lag >= 1."""
    if max_lag < 1:
        raise InvalidConfig(f"max_lag must be >= 1, got {max_lag}")


def acf(series, max_lag: int, absolute: bool = False) -> AcfResult:
    """Biased sample autocorrelation out to max_lag.

    Biased normalization (divide by n at every lag) keeps the estimate a
    valid correlation sequence bounded by 1 in absolute value.
    """
    v = series_values(series)
    check_max_lag(max_lag)
    if absolute:
        v = np.abs(v)
    n = v.size
    if n <= 10 * max_lag:
        raise SeriesTooShort(f"need n > 10 * max_lag, got n={n}, max_lag={max_lag}")
    if (v == v[0]).all():  # its computed mean need not equal its value
        raise DegenerateTail("series has zero variance")
    with np.errstate(over="ignore", invalid="ignore"):
        xo = v - v.mean()
        gamma0 = float(xo @ xo) / n
        if not 0.0 < gamma0 < math.inf:  # the ACF is scale-free; at unit scale |xo| < 2
            v = v * _unit_scale(v)
            xo = v - v.mean()
            gamma0 = float(xo @ xo) / n
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    for h in range(1, max_lag + 1):
        vals[h] = float(xo[:-h] @ xo[h:]) / n / gamma0
    return AcfResult(np.arange(max_lag + 1), vals, "absolute" if absolute else "raw")


def write_ccdf_csv(x: np.ndarray, p: np.ndarray, path) -> None:
    """Write x,p survival points with round-trip-exact floats."""
    write_csv(path, "x,p", x, p)


def write_acf_csv(result: AcfResult, path) -> None:
    """Write lag,acf pairs."""
    write_csv(path, "lag,acf", result.lags, result.values)
