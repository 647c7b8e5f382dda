"""Numerical embodiment of the stationarity and tail-exponent theory.

The tail exponent of the scalar feedback recursion is the unique positive
root of the moment equation E(a^mu) = 1; stationarity is governed by
E[log a] < 0.  For the order-K recursion written with companion matrices,
the analogues are the top Lyapunov exponent of the random matrix product,
estimated by Monte Carlo, and the positive zero of the moment growth rate
Lambda(mu) = lim (1/t) log E||A_1 ... A_t||^mu, which is exact at integer
mu: the log spectral radius of a moment matrix built from the laws'
integer moments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import CoefficientLaw, Record, RngStream
from .errors import (
    DegenerateLaw,
    InvalidConfig,
    LawError,
    MomentOverflow,
    NonnegativityRequired,
    NonStationary,
    NoPositiveRoot,
    NoSignChange,
    TheoryError,
    VarianceNotFinite,
)
from .processes import KestenAR, KestenScalar, as_ar, companion_step

RESIDUAL_TOL = 1e-6
MU_CAP = 64.0
BOUNDARY_TOL = 1e-4  # |E[log a]| band of the "boundary" stationarity verdict
MEAN_TOL = 1e-9  # |E(a) - 1| band of expectation-accuracy case A
# The matrix Monte Carlo renormalizes its product once a trial's top row leaves this band.
RENORM_LO, RENORM_HI = 1e-100, 1e100
# moment_lyapunov_root looks for Lambda >= 0 at integer orders up to this one ...
MOMENT_ORDER_CAP = 16
# ... on moment matrices of at most this many rows (8 MB of float64).
MOMENT_ROWS_CAP = 1000


@dataclass(frozen=True)
class CramerSolution(Record):
    """Root mu* > 0 of the moment equation, with solver diagnostics.

    ``residual`` is |E(a^mu*) - 1| (for the matrix case, the equivalent
    per-step quantity |exp(Lambda(mu*)) - 1|, Lambda read from the
    interpolant that found the root).  ``stencil_spread`` is only set by the
    integer-moment matrix solver: the distance from its root to the root of
    the interpolant through fewer nodes.
    """

    mu_star: float
    bracket: tuple[float, float]
    residual: float
    method: str  # the law's moment_method, or "integer-moments" for the matrix solver
    stencil_spread: float | None = None

    def __post_init__(self) -> None:
        if not self.mu_star > 0:
            raise TheoryError(f"mu_star must be positive, got {self.mu_star}")
        if not self.residual < RESIDUAL_TOL:
            raise TheoryError(
                f"{self.method} solution has residual {self.residual:g} >= {RESIDUAL_TOL:g}"
            )

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


@dataclass(frozen=True)
class StationarityCheck(Record):
    """E[log a] and the verdict it implies."""

    log_moment: float
    verdict: str  # "stationary" | "non-stationary" | "boundary"
    tolerance = BOUNDARY_TOL

    def to_dict(self) -> dict:
        return {**super().to_dict(), "tolerance": self.tolerance}


@dataclass(frozen=True)
class RegimeClassification(Record):
    """Expectation-accuracy case and the tail-exponent regime it predicts.

    Case A: E(a) = 1 (accurate on average) -> exponent 1.
    Case B: E(a) > 1 (underestimation)     -> exponent below 1.
    Case C: E(a) < 1 (overestimation)      -> exponent above 1.
    """

    case: str
    mean_a: float
    predicted: str
    consistent: bool
    solution: CramerSolution  # the moment-equation root the case is checked against


@dataclass(frozen=True)
class ConditionCheck(Record):
    """One entry of the stationarity/tail theorem checklist."""

    condition: str
    status: str  # "verified" | "assumed" | "violated" | "not-checkable"
    evidence: float | None = None
    note: str = ""


@dataclass(frozen=True)
class TheoryReport(Record):
    """Checklist of conditions (a)-(h) plus the predicted exponent regime."""

    conditions: tuple[ConditionCheck, ...]
    regime_case: str
    predicted: str
    mu_star: float | None

    def condition(self, cid: str) -> ConditionCheck:
        for c in self.conditions:
            if c.condition == cid:
                return c
        raise KeyError(cid)

    @property
    def all_verified(self) -> bool:
        return all(c.status == "verified" for c in self.conditions)


@dataclass(frozen=True)
class LyapunovEstimate(Record):
    """Monte Carlo estimate of the top Lyapunov exponent of the A-product."""

    gamma_hat: float
    t_horizon: int
    trials: int
    stderr: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma_hat):
            raise TheoryError("Lyapunov estimate must be finite")
        if self.stderr < 0:
            raise TheoryError("stderr must be nonnegative")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "norm": "inf"}  # the matrix norm of _batched_log_norms


def stationarity_check(a_law: CoefficientLaw) -> StationarityCheck:
    """Verdict on E[log a] < 0 with a boundary band of BOUNDARY_TOL around zero."""
    val = a_law.log_moment()
    if abs(val) <= BOUNDARY_TOL:
        verdict = "boundary"
    elif val < 0:
        verdict = "stationary"
    else:
        verdict = "non-stationary"
    return StationarityCheck(val, verdict)


def _increasing_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Zero of f in [lo, hi], given f_lo = f(lo) < 0 <= f_hi = f(hi).

    Illinois steps (Dowell and Jarratt 1971): regula falsi, with the value
    kept at an end halved whenever that end survives a second step in a
    row, so a convex f cannot pin one end while the other creeps up on the
    root.  A point not strictly inside (lo, hi) is replaced by the
    midpoint.  Stops at an exact zero or once hi - lo < 1e-13 max(1, hi),
    within 100 steps, and returns the midpoint of the last bracket.
    """
    kept = 0  # +1 when hi survived the last step, -1 when lo did
    for _ in range(100):
        if f_hi == 0.0:
            return hi
        if hi - lo < 1e-13 * max(1.0, hi):
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=32)
def cramer_root(a_law: CoefficientLaw) -> CramerSolution:
    """Unique positive root of E(a^mu) = 1.

    The moment function equals 1 at mu = 0, dips below (its derivative
    there is E[log a] < 0) and is convex, so it crosses 1 exactly once on
    the increasing branch, which ``_moment_root`` brackets and refines.  A
    fractional moment that the law's quadrature cannot resolve raises its
    QuadratureError.

    Laws are frozen values, so the solution is memoized on the law's
    parameters; a failed solve raises again and is not cached.
    """
    a_law = a_law.collapsed()
    a_min, a_max = a_law.support
    if a_min == a_max and abs(a_min - 1.0) < 1e-15:
        raise DegenerateLaw("a == 1 surely: E(a^mu) == 1 for every mu")
    if not a_law.nonnegative:
        raise NonnegativityRequired("the moment equation needs a nonnegative law")
    if a_max <= 1.0:
        raise NoPositiveRoot(
            "P(a > 1) = 0: E(a^mu) < 1 for all mu > 0, the tail is thin "
            "(no amplification events)"
        )
    return _moment_root(a_law.moment, a_law.log_moment(), a_law.moment_method, "a")


def _doubling_scan(phi) -> tuple[float, float]:
    """The first mu in 1, 2, 4, ..., MU_CAP with phi(mu) = E(c^mu) >= 1, and phi
    there; (MU_CAP, phi(MU_CAP)) when there is none."""
    mu, val = 1.0, phi(1.0)
    while val < 1.0 and mu < MU_CAP:
        mu *= 2.0
        val = phi(mu)
    return mu, val


def _moment_root(phi, elog: float, method: str, c: str) -> CramerSolution:
    """Positive root of phi(mu) = E(c^mu) = 1 for a nonnegative c with E[log c] = elog.

    NonStationary unless elog < 0.  The bracket is found by ``_doubling_scan``,
    then by halving mu until phi drops below 1, and refined by
    ``_increasing_root``; ``c`` names the variable in the messages.
    """
    if elog >= 0:
        raise NonStationary(
            f"E[log {c}] = {elog:+.6g} >= 0: no stationary solution, "
            "the moment equation has no positive root"
        )

    hi, val_hi = _doubling_scan(phi)
    if val_hi < 1.0:
        raise NoPositiveRoot(
            f"E({c}^mu) stays below 1 up to mu = {MU_CAP:g}; treating the regime as thin-tailed"
        )
    if val_hi == 1.0:
        # exact hit (e.g. the unit-mean exponential at mu = 1); hi is an integer,
        # and every law computes its integer moments exactly
        return CramerSolution(hi, (hi, hi), 0.0, method)
    lo = hi / 2.0
    val_lo = phi(lo)
    while val_lo >= 1.0:
        if val_lo == 1.0:
            return CramerSolution(lo, (lo, lo), 0.0, method)
        lo /= 2.0
        if lo < 1e-18:
            raise TheoryError("failed to bracket the moment-equation root")
        val_lo = phi(lo)

    bracket = (lo, hi)
    mu_star = _increasing_root(lambda mu: phi(mu) - 1.0, lo, hi, val_lo - 1.0, val_hi - 1.0)
    return CramerSolution(mu_star, bracket, abs(phi(mu_star) - 1.0), method)


def _expectation_case(a_law: CoefficientLaw) -> tuple[str, str, float]:
    """Case A/B/C, its predicted regime, and the exact E(a); case A within MEAN_TOL."""
    mean_a = a_law.mean()
    if abs(mean_a - 1.0) <= MEAN_TOL:
        return "A", "mu = 1", mean_a
    if mean_a > 1.0:
        return "B", "mu < 1", mean_a
    return "C", "mu > 1", mean_a


def classify_regime(a_law: CoefficientLaw) -> RegimeClassification:
    """Expectation-accuracy case from E(a), checked against the solved root."""
    case, predicted, mean_a = _expectation_case(a_law)
    solution = cramer_root(a_law)
    mu, slack = solution.mu_star, 1e-5
    if case == "A":
        consistent = abs(mu - 1.0) <= slack
    elif case == "B":
        consistent = mu < 1.0 + slack
    else:
        consistent = mu > 1.0 - slack
    return RegimeClassification(case, mean_a, predicted, consistent, solution)


def expected_acf(a_law: CoefficientLaw, h: int) -> float:
    """Theoretical autocorrelation [E(a)]^h of the scalar feedback process.

    Requires a finite stationary second moment, i.e. E(a^2) < 1.
    """
    if h < 0:
        raise InvalidConfig(f"lag must be nonnegative, got {h}")
    m2 = a_law.moment(2.0)
    if m2 >= 1.0:
        raise VarianceNotFinite(
            f"E(a^2) = {m2:g} >= 1: the stationary variance diverges and "
            "the autocorrelation is undefined"
        )
    return a_law.mean() ** h


@dataclass(frozen=True)
class UnitExponentPrediction(Record):
    """The unit-exponent tail 2 f_a(1) / x of an inverse-multiplier process."""

    density_at_one: float
    predicted_mu: float | None  # 1 where the density of a at 1 is positive
    tail_constant: float


def unit_exponent_prediction(a_law: CoefficientLaw) -> UnitExponentPrediction:
    """The tail P(|r| > x) ~ 2 f_a(1) / x that the density f_a of a at 1 predicts
    for r = (1 - a)^{-1} e; NoDensity for a law without one."""
    f1 = a_law.pdf(1.0)
    return UnitExponentPrediction(f1, 1.0 if f1 > 0 else None, 2.0 * f1)


# condition checklist ---------------------------------------------------------


def _check(cid: str, read) -> ConditionCheck:
    """Entry ``cid`` from read() -> (status, evidence, note); a LawError, the law's
    own refusal to answer, makes it not-checkable with the law's message."""
    try:
        return ConditionCheck(cid, *read())
    except LawError as exc:
        return ConditionCheck(cid, "not-checkable", None, str(exc))


def kesten_conditions_report(a_law: CoefficientLaw, e_law: CoefficientLaw) -> TheoryReport:
    """Checklist (a)-(h) for stationarity and power-law convergence.

    Violations are report entries, never exceptions: each condition is one
    read of the laws, and a LawError makes it `not-checkable`.  Condition (c)
    (non-lattice log a) is `verified` for laws with a density and `assumed`
    otherwise; it is not mechanically decidable from samples.  (e)-(h) read
    E(a^mu) at real mu, so a signed a leaves them not checkable.
    """
    a, e = a_law.collapsed(), e_law.collapsed()
    elog = lam1 = mu_star = None  # E[log a] of (a); the lambda1 of (f), which (g) and (h) need

    def moment(mu: float) -> float:
        if not a.nonnegative:
            raise NonnegativityRequired(
                f"E(a^mu) at real mu needs a nonnegative a; the {a.kind} law admits negative values"
            )
        return a.moment(mu)

    def root() -> float | None:  # mu*, solved wherever E[log a] < 0
        try:
            return cramer_root(a).mu_star if elog is not None and elog < 0 else None
        except TheoryError:
            return None

    def log_a():  # (a) E[log a] < 0; inside the boundary band the sign is not decided
        nonlocal elog
        stat = stationarity_check(a)
        elog = stat.log_moment
        status = {"stationary": "verified", "boundary": "not-checkable"}.get(stat.verdict, "violated")
        return status, elog, f"E[log a] {stat.verdict}"

    def log_e():  # (b) E[max(log|e|, 0)] < inf, summed over the tails e >= 1 and e <= -1
        value = e.expect(math.log, lo=1.0) + e.expect(lambda x: math.log(-x), hi=-1.0)
        return "verified", value, "finite positive-part log moment"

    def non_lattice():  # (c) log a non-lattice
        if a.has_density:
            return "verified", None, "continuous law: log a non-lattice"
        return "assumed", None, "discrete law: lattice check skipped"

    def non_degenerate():  # (d) (1-a)^{-1} e not a constant (e a point mass and a too, or e == 0)
        (a_lo, a_hi), (e_lo, e_hi) = a.support, e.support
        if e_lo == e_hi and (a_lo == a_hi or e_lo == 0.0):
            return "violated", None, "(1 - a)^{-1} e reduces to a constant"
        return "verified", None, "non-degenerate pair"

    def lambda0():  # (e) some lambda0 with E(a^lambda0) < 1
        for lam in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            if (v := moment(lam)) < 1.0:
                return "verified", v, f"E(a^{lam:g}) = {v:.6g} < 1"
        # a root below 1e-3: E(a^mu) is convex and 1 at 0 and at mu*, so below 1 between
        if (mu := root()) is not None and (v := moment(mu / 2.0)) < 1.0:
            return "verified", v, f"E(a^{mu / 2.0:g}) = 1 - {1.0 - v:.6g} < 1"
        return "violated", None, "no small moment below 1 found"

    def lambda1():  # (f) some lambda1 with E(a^lambda1) >= 1
        nonlocal lam1
        lam, v = _doubling_scan(moment)
        if v < 1.0:
            return "violated", v, (
                f"E(a^mu) < 1 up to mu = {MU_CAP:g}: no lambda1 exists (thin-tail regime)"
            )
        lam1 = lam
        return "verified", v, f"E(a^{lam:g}) = {v:.6g} >= 1"

    def tilted_log_a():  # (g) E[a^lambda1 max(log a, 0)] < inf
        if lam1 is None:
            return "not-checkable", None, "no lambda1 from (f)"
        value = a.expect(lambda x: x**lam1 * math.log(x), lo=1.0)
        return "verified", value, f"tilted log moment at {lam1:g}"

    def e_at_root():  # (h) E(|e|^mu*) < inf at the solved root
        nonlocal mu_star
        mu_star = root() if lam1 is not None else None
        if mu_star is None:
            return "not-checkable", None, "no moment-equation root"
        return "verified", e.abs_moment(mu_star), f"E|e|^mu* at mu* = {mu_star:.4g}"

    checks: dict[str, ConditionCheck] = {}
    reads = (log_a, log_e, non_lattice, non_degenerate, lambda0, lambda1, tilted_log_a, e_at_root)
    for cid, read in zip("abcdefgh", reads):
        checks[cid] = _check(cid, read)
    try:  # expectation-accuracy case from E(a) alone
        case, predicted, _ = _expectation_case(a)
    except LawError:
        case, predicted = "?", "unknown"
    return TheoryReport(tuple(checks.values()), case, predicted, mu_star)


# matrix case -----------------------------------------------------------------

def _batched_log_norms(
    spec: KestenAR,
    gen: np.random.Generator,
    horizons: tuple[int, ...],
    trials: int,
) -> dict[int, np.ndarray]:
    """log ||A_1 ... A_t|| (inf-norm) per trial at each requested horizon.

    The product is held as K rows of shape (K, trials) and advanced by
    ``companion_step``.  It is renormalized, every trial at once, only at a
    requested horizon or when some trial's new top row has its largest
    |entry| outside [RENORM_LO, RENORM_HI]: the rows below the top were
    checked as top rows, so every entry stays far inside the float range
    unless one step scales the product by more than about 1e208.  Each
    renormalization divides by the norm and adds its log, so the
    accumulated log norms are exact: ||A_t ... A_1|| = prod of the factors.
    A norm that is zero or not finite raises TheoryError naming its step.
    """
    k, steps = spec.order, max(horizons)
    rows = list(np.repeat(np.eye(k)[:, :, None], trials, axis=2))
    acc = np.zeros(trials)
    out: dict[int, np.ndarray] = {}
    with np.errstate(all="ignore"):  # an inf or NaN is caught at its step below
        for step in range(1, steps + 1):
            a, w = spec.draw_coefficients(gen, trials)
            rows = companion_step(a, w, rows)
            top = np.abs(rows[0]).max(axis=0)
            if step in horizons or not RENORM_LO <= top.min() <= top.max() <= RENORM_HI:
                norm = np.max([np.abs(row).sum(axis=0) for row in rows], axis=0)
                if not np.isfinite(norm).all():
                    raise TheoryError(f"matrix product norm is not finite at step {step}")
                if np.any(norm <= 0.0):
                    raise TheoryError(f"matrix product collapsed to zero norm at step {step}")
                acc += np.log(norm)
                for row in rows:
                    row /= norm
            if step in horizons:
                out[step] = acc.copy()
    return out


def check_lyapunov_params(t_horizon: int, trials: int) -> None:
    """InvalidConfig unless t_horizon >= 100 and trials >= 10."""
    if t_horizon < 100:
        raise InvalidConfig(f"t_horizon must be >= 100, got {t_horizon}")
    if trials < 10:
        raise InvalidConfig(f"trials must be >= 10, got {trials}")


def lyapunov_top(
    ar_spec: KestenAR | KestenScalar, t_horizon: int, trials: int, rng: RngStream
) -> LyapunovEstimate:
    """Top Lyapunov exponent of the companion-matrix product, by Monte Carlo.

    Averages (1/t) log||A_1 ... A_t|| over independent trials; negativity is
    the norm-independent stationarity criterion for the order-K recursion.
    """
    check_lyapunov_params(t_horizon, trials)
    spec = as_ar(ar_spec)
    log_norms = _batched_log_norms(spec, rng.generator(), (t_horizon,), trials)
    g = log_norms[t_horizon] / t_horizon
    stderr = float(g.std(ddof=1) / math.sqrt(trials))
    return LyapunovEstimate(float(g.mean()), int(t_horizon), int(trials), stderr)


def _monomials(k: int, p: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-p monomials in k variables."""
    return [
        tuple(c.count(j) for j in range(k))
        for c in itertools.combinations_with_replacement(range(k), p)
    ]


def _moment_matrix(spec: KestenAR, p: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The degree-p monomials R^alpha of the lag state R = (r_{t-1}, ..., r_{t-K}),
    and the matrix M_p of E[(A R)^alpha] = sum_gamma M_p[alpha, gamma] R^gamma.

    The companion step maps R to (a sum_j w_j R_j, R_1, ..., R_{K-1}), so with
    n = alpha_1 the multinomial expansion of (a sum_j w_j R_j)^n gives one
    entry per beta with |beta| = n: n! / prod_j beta_j! E(a^n) prod_j E(w_j^beta_j)
    at gamma = beta + (alpha_2, ..., alpha_K, 0).  The draws are independent,
    so the mean of the p-th power of t steps is M_p^t: the moment recursion
    of a random-coefficient autoregression (Nicholls and Quinn 1982).
    """
    k = spec.order
    monomials = _monomials(k, p)
    index = {m: i for i, m in enumerate(monomials)}
    laws = (spec.a_law, *spec.weight_laws)
    moments = [[1.0] + [law.moment(n) for n in range(1, p + 1)] for law in laws]
    fact = [math.factorial(n) for n in range(p + 1)]
    mat = np.zeros((len(monomials), len(monomials)))
    for row, alpha in enumerate(monomials):
        n, shift = alpha[0], alpha[1:] + (0,)
        for beta in _monomials(k, n):
            count = fact[n] // math.prod(fact[b] for b in beta)
            w = math.prod(moments[j + 1][b] for j, b in enumerate(beta))
            mat[row, index[tuple(map(sum, zip(beta, shift)))]] = count * moments[0][n] * w
    return monomials, mat


def integer_moment_growth(ar_spec: KestenAR | KestenScalar, p: int) -> float:
    """Lambda(p) at an integer order p: log rho(M_p), exactly.

    For iid A the p-th tensor power of A_t ... A_1 has mean (E[A^(x)p])^t
    (Kesten 1973), which ``_moment_matrix`` writes on the symmetric power.
    Every p is meaningful when all laws are nonnegative, only even p when a
    law is signed.  TheoryError when M_p would exceed MOMENT_ROWS_CAP rows,
    MomentOverflow when an entry leaves the float range.
    """
    spec = as_ar(ar_spec)
    rows = math.comb(spec.order + p - 1, p)
    if rows > MOMENT_ROWS_CAP:
        raise TheoryError(
            f"the order-{p} moment matrix of a K = {spec.order} product has {rows} rows, "
            f"more than {MOMENT_ROWS_CAP}"
        )
    mat = _moment_matrix(spec, p)[1]
    if not np.isfinite(mat).all():
        raise MomentOverflow(f"the order-{p} moment matrix has entries beyond the float range")
    rho = float(np.abs(np.linalg.eigvals(mat)).max())
    return math.log(rho) if rho > 0.0 else -math.inf


def check_moment_spec(ar_spec: KestenAR | KestenScalar) -> None:
    """InvalidConfig for normalized weights, whose mixed moments have no closed form,
    and (``as_ar``) for a kind without a companion form."""
    if as_ar(ar_spec).normalize_weights:
        raise InvalidConfig(
            "moment_lyapunov needs unnormalized weights: normalized weights "
            "have no closed-form mixed moments"
        )


def moment_lyapunov_root(ar_spec: KestenAR | KestenScalar) -> CramerSolution:
    """Positive zero mu* of the moment growth rate Lambda(mu), from exact moments.

    For K = 1 with nonnegative laws, Lambda(mu) = log E(a^mu) + log E(w^mu)
    at every real mu, and the root is solved as ``cramer_root`` solves it.
    Otherwise Lambda is exact at the integer nodes (``integer_moment_growth``):
    every integer when all laws are nonnegative, the even ones when a law is
    signed.  Lambda is convex with Lambda(0) = 0, so the top Lyapunov
    exponent is at most Lambda(p) / p, and a node with Lambda < 0 proves the
    product stationary.  The root is bracketed at the first node where
    Lambda >= 0 and found by ``_increasing_root`` on the polynomial through
    the nodes within two steps of the bracket; ``stencil_spread`` is its
    distance to the root through the nodes within one step.

    NoSignChange when Lambda >= 0 at the first node (any root lies below
    it), NoPositiveRoot when Lambda < 0 at every node up to
    MOMENT_ORDER_CAP, or when a K = 1 product is zero surely;
    ``check_moment_spec`` refuses normalized weights.
    """
    check_moment_spec(ar_spec)
    spec = as_ar(ar_spec)
    laws = tuple(law.collapsed() for law in (spec.a_law, *spec.weight_laws))
    h = 1 if all(law.nonnegative for law in laws) else 2
    if h == 1 and spec.order == 1:
        a, w = laws
        if 0.0 in (a.support[1], w.support[1]):
            raise NoPositiveRoot(
                "a w == 0 surely: the product is zero surely, so E((a w)^mu) = 0 for every mu > 0"
            )
        quad = "quadrature" in (a.moment_method, w.moment_method)
        elog = a.log_moment() + w.log_moment()
        method = "quadrature" if quad else "closed-form"
        return _moment_root(lambda mu: a.moment(mu) * w.moment(mu), elog, method, "(a w)")

    growth = functools.cache(lambda p: 0.0 if p == 0 else integer_moment_growth(spec, p))
    hi = h
    while growth(hi) < 0.0:
        if hi + h > MOMENT_ORDER_CAP:
            raise NoPositiveRoot(
                f"Lambda(p) < 0 at every node up to p = {hi}: the tail is thinner "
                "than the integer-moment search reaches"
            )
        hi += h
    if hi == h:
        raise NoSignChange(
            f"Lambda({h}) = {growth(h):+.4g} >= 0 at the first node p = {h}: "
            "any root lies below it"
        )
    lo = hi - h

    def root(reach: int):
        nodes = range(max(0, lo - reach * h), hi + reach * h + 1, h)

        def lam(x: float) -> float:  # the Lagrange polynomial through the nodes
            return sum(
                growth(p) * math.prod((x - q) / (p - q) for q in nodes if q != p) for p in nodes
            )

        return _increasing_root(lam, lo, hi, growth(lo), growth(hi)), lam

    mu_star, lam = root(2)
    spread = abs(mu_star - root(1)[0])
    return CramerSolution(
        mu_star, (float(lo), float(hi)), abs(math.expm1(lam(mu_star))), "integer-moments", spread
    )
