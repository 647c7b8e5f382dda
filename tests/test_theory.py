import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm
from scipy.special import gammaln

from conftest import FIG2_SPEC, FIG4_SPEC
from kestenlab import (
    Constant,
    Exponential,
    Garch11,
    GarchCoefficient,
    InverseMultiplier,
    KestenAR,
    KestenScalar,
    Normal,
    RngStream,
    Uniform,
    as_ar,
    classify_regime,
    cramer_root,
    expected_acf,
    integer_moment_growth,
    kesten_conditions_report,
    lyapunov_top,
    moment_lyapunov_root,
    stationarity_check,
    unit_exponent_prediction,
)
from kestenlab.distributions import _DE_T
from kestenlab.theory import _increasing_root, _moment_matrix
from kestenlab.errors import (
    DegenerateLaw,
    InvalidConfig,
    NoDensity,
    NonStationary,
    NoPositiveRoot,
    NoSignChange,
    QuadratureError,
    TheoryError,
    VarianceNotFinite,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EULER_GAMMA = 0.5772156649015329


def exponential_root_oracle(mean: float) -> float:
    """High-precision root of Gamma(mu+1) * mean^mu = 1 via brentq."""
    f = lambda mu: gammaln(mu + 1.0) + mu * math.log(mean)
    lo = 1e-9
    hi = 1e-6
    while f(hi) < 0:
        hi *= 2
    return brentq(f, lo, hi, xtol=1e-13)


def garch_root_oracle(beta: float, alpha: float, lo: float, hi: float) -> float:
    """brentq root in [lo, hi] of E[(beta + alpha z^2)^mu] = 1, each moment by quad
    of the smooth integrand 2 (beta + alpha z^2)^mu phi(z) on z >= 0."""

    def f(mu):
        val, _ = quad(
            lambda z: 2.0 * (beta + alpha * z * z) ** mu * norm.pdf(z),
            0.0, np.inf, epsabs=0.0, epsrel=1e-13,
        )
        return val - 1.0

    return brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)


def _bisection(f, lo: float, hi: float) -> float:
    """200 bisection steps on f(lo) < 0 <= f(hi): the reference root."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIncreasingRoot:
    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            # steep: plain regula falsi keeps hi = 2 and creeps up from 0
            (lambda m: math.exp(50.0 * (m - 1.9)) - 1.0, 0.0, 2.0),
            (lambda m: m * m - 2.0, 0.0, 2.0),
            (lambda m: math.exp(math.lgamma(1.0 + m) + m * math.log(0.55)) - 1.0, 2.0, 4.0),
            (lambda m: math.exp(m) - 1.0 - 2.0 * m, 0.5, 2.0),
            (lambda m: m**8 - 1e-3, 0.1, 1.0),
            (lambda m: 1e-9 * (math.exp(m) - 40.0), 1.0, 64.0),
        ],
        ids=["steep", "square", "exponential-moment", "exp-minus-line", "flat-then-steep", "tiny-scale"],
    )
    def test_matches_bisection_within_the_cap(self, f, lo, hi):
        calls = []

        def counted(m):
            calls.append(m)
            return f(m)

        root = _increasing_root(counted, lo, hi, f(lo), f(hi))
        assert root == pytest.approx(_bisection(f, lo, hi), rel=1e-12)
        assert len(calls) < 100

    def test_stops_on_an_exact_zero(self):
        calls = []

        def f(m):
            calls.append(m)
            return m - 1.5

        assert _increasing_root(f, 1.0, 2.0, -0.5, 0.5) == 1.5
        assert calls == [1.5]
        assert _increasing_root(f, 1.0, 2.0, -0.5, 0.0) == 2.0
        assert calls == [1.5]


class TestCramerRoot:
    @settings(max_examples=60, deadline=None)
    @given(
        law=st.one_of(
            st.floats(0.2, 1.75).map(Exponential),
            st.tuples(st.floats(0.0, 0.95), st.floats(1.01, 3.0)).map(lambda b: Uniform(*b)),
        )
    )
    def test_matches_brentq(self, law):
        try:
            sol = cramer_root(law)
        except (NonStationary, NoPositiveRoot):
            assume(False)
        lo, hi = sol.bracket
        if lo == hi:
            assert law.moment(lo) == 1.0
            return
        ref = brentq(lambda mu: law.moment(mu) - 1.0, lo, hi, xtol=1e-14)
        # relative above 1, absolute below, as the solver's own stopping rule
        assert abs(sol.mu_star - ref) <= 1e-10 * max(1.0, ref)

    def test_garch_solve_makes_few_moment_passes(self, monkeypatch):
        cramer_root.cache_clear()
        fractional = []
        original = GarchCoefficient.moment

        def counting(self, mu):
            if not float(mu).is_integer():
                fractional.append(mu)
            return original(self, mu)

        monkeypatch.setattr(GarchCoefficient, "moment", counting)
        cramer_root(GarchCoefficient(0.9, 0.09))
        assert 0 < len(fractional) <= 12

    def test_fig3_coefficient_law(self):
        sol = cramer_root(Exponential(0.55))
        oracle = exponential_root_oracle(0.55)
        assert sol.mu_star == pytest.approx(oracle, abs=1e-6)
        assert 2.99 <= sol.mu_star <= 3.01
        assert sol.residual < 1e-6
        assert sol.method == "closed-form"
        assert sol.bracket[0] <= sol.mu_star <= sol.bracket[1]

    def test_unit_mean_exponential_root_is_exactly_one(self):
        sol = cramer_root(Exponential(1.0))
        assert sol.mu_star == 1.0
        assert sol.residual == 0.0
        assert sol.stencil_spread is None

    def test_case_b_exponential(self):
        # E(a) = 1.2 > 1 pushes the root below 1
        sol = cramer_root(Exponential(1.2))
        oracle = exponential_root_oracle(1.2)
        assert sol.mu_star == pytest.approx(oracle, abs=1e-6)
        assert sol.mu_star == pytest.approx(0.610228, abs=1e-4)

    def test_thin_tail_has_no_root(self):
        with pytest.raises(NoPositiveRoot):
            cramer_root(Uniform(0.0, 0.5))
        with pytest.raises(NoPositiveRoot):
            cramer_root(Constant(0.5))

    def test_non_stationary_law(self):
        with pytest.raises(NonStationary):
            cramer_root(Exponential(2.0))

    def test_degenerate_unit_constant(self):
        with pytest.raises(DegenerateLaw):
            cramer_root(Constant(1.0))
        with pytest.raises(DegenerateLaw):
            cramer_root(GarchCoefficient(1.0, 0.0))

    def test_garch_coefficient_monte_carlo(self):
        sol = cramer_root(GarchCoefficient(0.9, 0.09))
        assert (sol.method, sol.stencil_spread) == ("quadrature", None)
        assert sol.residual < 1e-12
        oracle = garch_root_oracle(0.9, 0.09, 1.0, 8.0)
        assert sol.mu_star == pytest.approx(oracle, rel=1e-10)

    def test_garch_coefficient_without_beta_is_exact(self):
        # E[(alpha z^2)^mu] = (2 alpha)^mu Gamma(mu + 1/2) / sqrt(pi)
        exact = brentq(
            lambda mu: mu * math.log(0.18) + gammaln(mu + 0.5) - 0.5 * math.log(math.pi),
            8.0, 16.0, xtol=1e-14, rtol=1e-15,
        )
        assert exact == pytest.approx(14.753779679762356, rel=1e-14)
        assert cramer_root(GarchCoefficient(0.0, 0.09)).mu_star == pytest.approx(exact, rel=1e-10)

    def test_garch_coefficient_root_far_out(self):
        # mu* near 40, in the upper half of the bracket [32, 64]: not the cap
        sol = cramer_root(GarchCoefficient(0.3, 0.03))
        oracle = garch_root_oracle(0.3, 0.03, 32.0, 42.0)
        assert oracle == pytest.approx(39.50175469, rel=1e-9)
        assert sol.mu_star == pytest.approx(oracle, rel=1e-10)

    def test_garch_root_beyond_the_quadrature_raises(self):
        # the root 44.9577 of alpha = 0.03 needs moments that the rule cannot resolve
        with pytest.raises(QuadratureError, match="quadrature of E"):
            cramer_root(GarchCoefficient(0.0, 0.03))
        # the checklist reports it, and claims no root
        rep = kesten_conditions_report(GarchCoefficient(0.0, 0.03), Constant(0.01))
        h = rep.condition("h")
        assert (h.status, h.evidence, rep.mu_star) == ("not-checkable", None, None)
        assert h.note.startswith("quadrature of E[fn(X)] under the garch_coeff law")

    def test_fitted_index_coefficient_root_is_one(self):
        # beta + alpha = 1 exactly, so mu = 1 solves the moment equation
        sol = cramer_root(GarchCoefficient(0.9, 0.1))
        assert sol.mu_star == 1.0
        # an integer moment is exact, with no spread for any law
        assert (sol.method, sol.stencil_spread) == ("quadrature", None)


class TestGarchTheoryDrawsNothing:
    def test_theory_functions_never_sample_the_law(self, monkeypatch):
        # every GARCH coefficient moment is an integral; nothing is drawn
        cramer_root.cache_clear()

        def no_sample(self, gen, n):
            raise AssertionError("the law was sampled")

        monkeypatch.setattr(GarchCoefficient, "sample", no_sample)
        law = GarchCoefficient(0.88, 0.1)  # a law no other test solves
        assert stationarity_check(law).verdict == "stationary"
        sol = cramer_root(law)
        assert classify_regime(law).solution == sol
        rep = kesten_conditions_report(law, Constant(0.01))
        assert rep.all_verified
        assert rep.mu_star == sol.mu_star

    def test_root_and_log_moment_build_one_node_table_per_range(self, monkeypatch):
        # the density is read once per node of a range, however many moments use it
        calls = []
        density = GarchCoefficient.standard_pdf
        monkeypatch.setattr(
            GarchCoefficient, "standard_pdf", lambda self, z: calls.append(z) or density(self, z)
        )
        law = GarchCoefficient(0.9, 0.09)
        per_range = 2 * len(_DE_T)  # two pieces, [0.9, 1.62] and [1.62, inf)
        cramer_root.__wrapped__(law)  # the solve, not its memo
        law.log_moment()
        assert len(calls) == per_range
        assert kesten_conditions_report(law, Constant(0.01)).all_verified
        assert len(calls) == 2 * per_range  # condition (g) adds the range [1, inf)

    def test_log_moment_is_the_rule_with_no_sample_size(self):
        # E[log a] is one integral, the same for every call and every equal law
        law, twin = GarchCoefficient(0.9, 0.09), GarchCoefficient(0.9, 0.09)
        assert law.log_moment() == twin.log_moment() == law.expect(math.log)
        with pytest.raises(TypeError):
            law.log_moment(n=1000)


class TestClassifyRegime:
    def test_case_a(self):
        reg = classify_regime(Exponential(1.0))
        assert reg.case == "A"
        assert reg.predicted == "mu = 1"
        assert reg.solution.mu_star == 1.0
        assert reg.consistent

    def test_case_c(self):
        reg = classify_regime(Exponential(0.55))
        assert reg.case == "C"
        assert reg.solution.mu_star == pytest.approx(3.0027, abs=0.001)
        assert reg.consistent

    def test_case_b(self):
        reg = classify_regime(Exponential(1.2))
        assert reg.case == "B"
        assert reg.solution.mu_star < 1
        assert reg.consistent

    def test_errors_propagate(self):
        with pytest.raises(NoPositiveRoot):
            classify_regime(Uniform(0.0, 0.5))

    @pytest.mark.parametrize("excess, case", [(1e-10, "A"), (1e-8, "B"), (-1e-8, "C")])
    def test_case_a_band_is_mean_tol(self, excess, case):
        assert classify_regime(Exponential(1.0 + excess)).case == case

    @pytest.mark.parametrize("mean", [0.4, 0.55, 0.7, 1.0, 1.2, 1.5])
    def test_regime_sweep_sign_relation(self, mean):
        sol = cramer_root(Exponential(mean))
        if mean == 1.0:
            assert abs(sol.mu_star - 1.0) <= 1e-6
        else:
            assert np.sign(sol.mu_star - 1.0) == np.sign(1.0 - mean)


class TestStationarityCheck:
    def test_fig3_coefficient(self):
        res = stationarity_check(Exponential(0.55))
        assert res.verdict == "stationary"
        assert res.log_moment == pytest.approx(math.log(0.55) - EULER_GAMMA, abs=1e-12)
        assert res.log_moment == pytest.approx(-1.1751, abs=1e-4)

    def test_boundary(self):
        res = stationarity_check(Constant(1.0))
        assert res.log_moment == 0.0
        assert res.verdict == "boundary"

    def test_non_stationary(self):
        res = stationarity_check(Exponential(2.0))
        assert res.verdict == "non-stationary"
        assert res.log_moment == pytest.approx(0.1159, abs=1e-4)

    def test_garch_without_alpha(self):
        # alpha == 0: the point mass at beta, with no density for the quadrature
        res = stationarity_check(GarchCoefficient(0.5, 0.0))
        assert (res.log_moment, res.verdict) == (math.log(0.5), "stationary")

    def test_garch_law_is_checked_by_quadrature(self):
        # the GARCH verdict rests on the quadrature E[log a], with no stderr
        law = GarchCoefficient(0.9, 0.1)
        res = stationarity_check(law)
        assert res.log_moment == law.log_moment()
        assert res.verdict == "stationary"
        for checked in (res, stationarity_check(Exponential(0.55))):
            assert sorted(checked.to_dict()) == ["log_moment", "tolerance", "verdict"]

    def test_positivity_required(self):
        from kestenlab.errors import PositivityRequired

        with pytest.raises(PositivityRequired):
            stationarity_check(Normal(0.0, 1.0))


# kesten_conditions_report(a, e).to_dict(), recorded before the law facts
# moved onto the law classes: (a, e) -> (conditions, regime case, predicted, mu*)
# (e)-(h) read E(a^mu) at real mu, which a signed a does not have
SIGNED_A = "E(a^mu) at real mu needs a nonnegative a; the uniform law admits negative values"

CONDITION_PINS = [
    (
        Uniform(0.0, 1.6),
        Uniform(-3.0, 2.0),
        [
            ("a", "verified", -0.5299963707542643, "E[log a] stationary"),
            ("b", "verified", 0.336426245424844, "finite positive-part log moment"),
            ("c", "verified", None, "continuous law: log a non-lattice"),
            ("d", "verified", None, "non-degenerate pair"),
            ("e", "verified", 0.999470643454803, "E(a^0.001) = 0.999471 < 1"),
            ("f", "verified", 1.3107200000000003, "E(a^4) = 1.31072 >= 1"),
            ("g", "verified", 0.3788991569249707, "tilted log moment at 4"),
            ("h", "verified", 4.454298535987781, "E|e|^mu* at mu* = 2.89"),
        ],
        ("C", "mu > 1", 2.8904633450493975),
    ),
    (
        Exponential(0.55),
        Normal(0.3, 2.0),
        [
            ("a", "verified", -1.1750526656571534, "E[log a] stationary"),
            ("b", "verified", 0.45841277025479865, "finite positive-part log moment"),
            ("c", "verified", None, "continuous law: log a non-lattice"),
            ("d", "verified", None, "non-degenerate pair"),
            ("e", "verified", 0.9988264585399486, "E(a^0.001) = 0.998826 < 1"),
            ("f", "verified", 2.1961500000000007, "E(a^4) = 2.19615 >= 1"),
            ("g", "verified", 2.0163203029113697, "tilted log moment at 4"),
            ("h", "verified", 13.242193980609192, "E|e|^mu* at mu* = 3.003"),
        ],
        ("C", "mu > 1", 3.002659245267864),
    ),
    (
        GarchCoefficient(0.5, 0.0),
        Constant(3.0),
        [
            ("a", "verified", -0.6931471805599453, "E[log a] stationary"),
            ("b", "verified", 1.0986122886681098, "finite positive-part log moment"),
            ("c", "assumed", None, "discrete law: lattice check skipped"),
            ("d", "violated", None, "(1 - a)^{-1} e reduces to a constant"),
            ("e", "verified", 0.9993070929904525, "E(a^0.001) = 0.999307 < 1"),
            (
                "f",
                "violated",
                5.421010862427522e-20,
                "E(a^mu) < 1 up to mu = 64: no lambda1 exists (thin-tail regime)",
            ),
            ("g", "not-checkable", None, "no lambda1 from (f)"),
            ("h", "not-checkable", None, "no moment-equation root"),
        ],
        ("C", "mu > 1", None),
    ),
    (
        Constant(2.5),
        Constant(-2.0),
        [
            ("a", "violated", 0.9162907318741551, "E[log a] non-stationary"),
            ("b", "verified", 0.6931471805599453, "finite positive-part log moment"),
            ("c", "assumed", None, "discrete law: lattice check skipped"),
            ("d", "violated", None, "(1 - a)^{-1} e reduces to a constant"),
            ("e", "violated", None, "no small moment below 1 found"),
            ("f", "verified", 2.5, "E(a^1) = 2.5 >= 1"),
            ("g", "verified", 2.2907268296853878, "tilted log moment at 1"),
            ("h", "not-checkable", None, "no moment-equation root"),
        ],
        ("B", "mu < 1", None),
    ),
    (
        Uniform(-0.5, 1.2),
        Normal(0.0, 1.0),
        [
            ("a", "not-checkable", None, "E[log X] requires P(X > 0) = 1; uniform law violates it"),
            ("b", "verified", 0.12205043635709781, "finite positive-part log moment"),
            ("c", "verified", None, "continuous law: log a non-lattice"),
            ("d", "verified", None, "non-degenerate pair"),
            ("e", "not-checkable", None, SIGNED_A),
            ("f", "not-checkable", None, SIGNED_A),
            ("g", "not-checkable", None, "no lambda1 from (f)"),
            ("h", "not-checkable", None, "no moment-equation root"),
        ],
        ("C", "mu > 1", None),
    ),
]


def _approx(value):
    return None if value is None else pytest.approx(value, rel=1e-12)


class TestConditionsReport:
    @pytest.mark.parametrize(
        "a_law, e_law, conditions, regime",
        CONDITION_PINS,
        ids=["two-sided-b", "quadrature-h", "garch-point-mass", "constant-pair", "signed-a"],
    )
    def test_pinned_reports(self, a_law, e_law, conditions, regime):
        # branches no bundled config reaches: the two-sided (b) quadrature,
        # the (h) quadrature for a nonzero-mean normal, and point masses
        rep = kesten_conditions_report(a_law, e_law).to_dict()
        got = [(c["condition"], c["status"], c["evidence"], c["note"]) for c in rep["conditions"]]
        assert got == [(cid, st, _approx(ev), note) for cid, st, ev, note in conditions]
        case, predicted, mu_star = regime
        assert (rep["regime_case"], rep["predicted"]) == (case, predicted)
        assert rep["mu_star"] == _approx(mu_star)

    def test_stationary_law_in_the_boundary_band(self):
        # E[log a] = -5e-5 lies inside BOUNDARY_TOL, yet the moment equation solves:
        # (a) cannot decide the sign, (e) reads half the root, which lies below
        # every fixed candidate, and (h) reads the root itself
        a_law = Exponential(math.exp(np.euler_gamma - 5e-5))
        rep = kesten_conditions_report(a_law, Normal(0.0, 1.0))
        mu = cramer_root(a_law).mu_star
        assert mu == pytest.approx(6.08e-5, rel=1e-3)
        a, e, h = (rep.condition(cid) for cid in "aeh")
        assert (a.status, a.note) == ("not-checkable", "E[log a] boundary")
        assert a.evidence == pytest.approx(-5e-5, rel=1e-9)
        assert (e.status, e.evidence) == ("verified", a_law.moment(mu / 2.0))
        assert e.evidence < 1.0 and e.note.startswith(f"E(a^{mu / 2.0:g}) = 1 - ")
        assert (h.status, h.evidence) == ("verified", Normal(0.0, 1.0).abs_moment(mu))
        assert rep.mu_star == mu

    def test_nonstationary_law_in_the_boundary_band(self):
        # E[log a] = +5e-5: no lambda0 and no root, and (a) still does not decide
        rep = kesten_conditions_report(Exponential(math.exp(np.euler_gamma + 5e-5)), Normal(0.0, 1.0))
        got = [(c.condition, c.status, c.note) for c in rep.conditions if c.condition in "aeh"]
        assert got == [
            ("a", "not-checkable", "E[log a] boundary"),
            ("e", "violated", "no small moment below 1 found"),
            ("h", "not-checkable", "no moment-equation root"),
        ]
        assert rep.mu_star is None

    def test_narrow_noise_law_away_from_zero(self):
        # E|e|^mu for e ~ N(m, s^2) with s << m: m^mu (1 + mu (mu - 1) s^2 / (2 m^2))
        rep = kesten_conditions_report(Exponential(0.55), Normal(5.0, 0.01))
        mu = rep.mu_star
        h = rep.condition("h")
        assert h.status == "verified"
        assert h.evidence == pytest.approx(
            5.0**mu * (1.0 + mu * (mu - 1.0) / 2.0 * (0.01 / 5.0) ** 2), rel=1e-9
        )

    def test_noise_law_far_from_zero(self):
        # E|e|^mu ~ m^mu for e ~ N(1e6, 1); the quadrature could not resolve it
        # before expect cut the support either side of the location
        rep = kesten_conditions_report(Exponential(0.55), Normal(1e6, 1.0))
        h = rep.condition("h")
        assert h.status == "verified"
        assert h.evidence == pytest.approx((1e6) ** rep.mu_star, rel=1e-9)
        assert h.evidence == pytest.approx(1.0374e18, rel=1e-4)

    def test_unconverged_quadrature_is_not_checkable(self, monkeypatch):
        # densities that oscillate faster than the rule resolves, under (b), (g) and (h)
        for cls in (Exponential, Normal):
            density = cls.standard_pdf
            monkeypatch.setattr(
                cls, "standard_pdf",
                lambda self, z, density=density: density(self, z) * (1.0 + math.cos(1e4 * z)),
            )
        rep = kesten_conditions_report(Exponential(0.55), Normal(0.3, 2.0))
        for cid in "bgh":
            c = rep.condition(cid)
            assert (c.status, c.evidence) == ("not-checkable", None)
            assert "did not converge: steps h and h/2 differ by" in c.note
        assert [c.status for c in rep.conditions if c.condition not in "bgh"] == ["verified"] * 5

    def test_noise_moment_beyond_the_float_range_is_not_checkable(self):
        # E|e|^mu* = (1e150)^3.0027 times O(1): the closed form leaves the float range
        rep = kesten_conditions_report(Exponential(0.55), Normal(0.0, 1e150))
        h = rep.condition("h")
        assert (h.status, h.evidence) == ("not-checkable", None)
        assert h.note == (
            f"E|X|^{rep.mu_star:g} of the normal law with sd 1e+150 exceeds the float range"
        )
        assert [c.status for c in rep.conditions if c.condition != "h"] == ["verified"] * 7

    def test_noise_integrand_beyond_the_float_range_is_not_checkable(self):
        # a nonzero mean takes E|e|^mu* to the quadrature, whose integrand overflows
        h = kesten_conditions_report(Exponential(0.55), Normal(1.0, 1e150)).condition("h")
        assert (h.status, h.evidence) == ("not-checkable", None)
        assert h.note.startswith("E[fn(X)] under the normal law: fn overflows at x = ")

    def test_law_beyond_the_quadrature_range_is_a_report(self):
        # the half-line weights of a scale of 1e300 overflow: (a), (e) and (g) cannot
        # be read, and violations stay report entries, never exceptions
        rep = kesten_conditions_report(GarchCoefficient(0.5, 1e300), Constant(1.0))
        overflow = "the quadrature weights of a half-line overflow at scale 1e+300"
        got = {c.condition: (c.status, c.note) for c in rep.conditions}
        assert got["a"] == got["e"] == got["g"] == ("not-checkable", overflow)
        assert got["h"] == ("not-checkable", "no moment-equation root")
        assert rep.mu_star is None

    def test_fig3_pair_all_verified(self):
        rep = kesten_conditions_report(Exponential(0.55), Normal(0.0, 0.0065))
        assert rep.all_verified
        assert rep.regime_case == "C"
        assert rep.mu_star == pytest.approx(3.0027, abs=0.001)
        assert {c.condition for c in rep.conditions} == set("abcdefgh")

    def test_constant_pair_violates_nondegeneracy(self):
        rep = kesten_conditions_report(Constant(0.5), Constant(0.0))
        assert rep.condition("d").status == "violated"
        # e == 0 surely makes (1 - a)^{-1} e == 0 whatever the law of a
        rep = kesten_conditions_report(Exponential(0.55), GarchCoefficient(0.0, 0.0))
        assert rep.condition("d").status == "violated"

    def test_thin_tail_violates_lambda1(self):
        rep = kesten_conditions_report(Uniform(0.0, 0.5), Normal(0.0, 1.0))
        assert rep.condition("f").status == "violated"
        assert rep.condition("g").status == "not-checkable"
        assert rep.condition("h").status == "not-checkable"

    def test_constant_law_lattice_assumed(self):
        rep = kesten_conditions_report(Constant(0.5), Normal(0.0, 1.0))
        assert rep.condition("c").status == "assumed"

    @pytest.mark.parametrize("method", ["log_moment", "mean"])
    def test_law_bug_propagates(self, method):
        # a LawError (the law cannot answer) is a report entry; any other
        # exception from the law is a bug and must not become one
        def bug(self):
            raise RuntimeError(f"bug in {method}")

        law = type("BuggyExponential", (Exponential,), {method: bug})(0.55)
        with pytest.raises(RuntimeError, match=method):
            kesten_conditions_report(law, Normal(0.0, 0.0065))


class TestExpectedAcf:
    def test_lag_zero(self):
        assert expected_acf(Exponential(0.55), 0) == 1.0

    def test_power_of_mean(self):
        assert expected_acf(Exponential(0.55), 2) == pytest.approx(0.3025, abs=1e-12)

    def test_variance_not_finite(self):
        # E(a^2) = 2 * 0.8^2 = 1.28 >= 1
        with pytest.raises(VarianceNotFinite):
            expected_acf(Exponential(0.8), 1)


class TestUnitExponentPrediction:
    def test_standard_uniform(self):
        prediction = unit_exponent_prediction(Uniform(0.0, 1.0))
        assert prediction.predicted_mu == 1.0
        assert prediction.tail_constant / 100.0 == pytest.approx(0.02)

    def test_unit_exponential(self):
        assert unit_exponent_prediction(Exponential(1.0)).tail_constant / 100.0 == pytest.approx(
            2 * math.exp(-1) / 100, rel=1e-12
        )

    def test_density_vanishes_at_one(self):
        # the unit-exponent tail does not apply: no exponent is predicted
        prediction = unit_exponent_prediction(Uniform(2.0, 3.0))
        assert (prediction.predicted_mu, prediction.tail_constant) == (None, 0.0)

    def test_no_density(self):
        with pytest.raises(NoDensity):
            unit_exponent_prediction(Constant(0.5))
        with pytest.raises(NoDensity, match="^garch_coeff law has no density$"):
            unit_exponent_prediction(GarchCoefficient(0.5, 0.0))

    def test_support_boundary_uses_left_limit(self):
        # Uniform.pdf is left-continuous: 1/(hi - lo) on (lo, hi]
        assert Uniform(0.0, 1.0).pdf(1.0) == 1.0
        assert Uniform(1.0, 2.0).pdf(1.0) == 0.0
        assert Uniform(0.0, 1.0).pdf(0.0) == 0.0

    def test_two_sided_multiplier_matches_prediction(self):
        # with a ~ U(0, 2) the multiplier 1/(1-a) blows up from both sides
        # and P(|1/(1-a)| > x) = 2 f_a(1) / x exactly
        from kestenlab import InverseMultiplier, simulate

        spec = InverseMultiplier(Uniform(0.0, 2.0), Constant(1.0))
        s = simulate(spec, RngStream(19), 10**6, 0)
        absr = np.abs(s.values)
        for x in (50.0, 100.0, 200.0):
            predicted = unit_exponent_prediction(spec.a_law).tail_constant / x
            empirical = (absr > x).mean()
            assert predicted / 1.5 <= empirical <= predicted * 1.5

    def test_fig2_constant_matches_simulation(self, fig2_series):
        # a ~ U(0, 1) keeps 1 - a one-sided, which halves the two-sided
        # constant 2 f_a(1); the multiplicative noise scales it by E|e|.
        # x * P(|r| > x) must sit within a factor 1.5 of f_a(1) * E|e|.
        e_abs_mean = math.sqrt(2.0 / math.pi)
        constant = FIG2_SPEC.a_law.pdf(1.0) * e_abs_mean
        absr = np.abs(fig2_series.values)
        for x in (50.0, 100.0, 200.0):
            empirical = x * (absr > x).mean()
            assert constant / 1.5 <= empirical <= constant * 1.5


class TestLyapunovTop:
    def test_constant_scalar_product(self):
        spec = as_ar(KestenScalar(Constant(0.5), Constant(0.0)))
        est = lyapunov_top(spec, 1000, 10, RngStream(0))
        assert est.gamma_hat == pytest.approx(math.log(0.5), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case_equals_log_moment(self):
        spec = as_ar(KestenScalar(Exponential(0.55), Normal(0.0, 1.0)))
        est = lyapunov_top(spec, 1000, 100, RngStream(3))
        assert abs(est.gamma_hat - (math.log(0.55) - EULER_GAMMA)) < 0.02
        assert est.stderr > 0

    def test_fig4_is_stationary(self):
        est = lyapunov_top(FIG4_SPEC, 500, 64, RngStream(9))
        assert est.gamma_hat < 0
        assert est.gamma_hat + 3 * est.stderr < 0

    @pytest.mark.parametrize(
        "a_law, message",
        [
            # draws of size 1e308 overflow the first product
            (Normal(0.0, 1e308), "norm is not finite at step 1"),
            # a zero top row each step: the K = 3 rows are all zero after three
            (Constant(0.0), "collapsed to zero norm at step 3"),
        ],
        ids=["overflow", "zero"],
    )
    def test_degenerate_norm_names_its_step(self, a_law, message):
        spec = KestenAR(a_law, Constant(0.0), FIG4_SPEC.weight_laws)
        with pytest.raises(TheoryError, match=f"{message}$"):
            lyapunov_top(spec, 500, 64, RngStream(0))

    def test_preconditions(self):
        spec = as_ar(KestenScalar(Constant(0.5), Constant(0.0)))
        with pytest.raises(ValueError):
            lyapunov_top(spec, 50, 10, RngStream(0))
        with pytest.raises(ValueError):
            lyapunov_top(spec, 100, 5, RngStream(0))


@pytest.mark.parametrize(
    "spec",
    [Garch11(0.01, 0.09, 0.9), InverseMultiplier(Uniform(0.0, 1.0), Normal(0.0, 1.0))],
    ids=["garch11", "inverse_multiplier"],
)
@pytest.mark.parametrize(
    "call",
    [
        as_ar,
        lambda spec: lyapunov_top(spec, 100, 10, RngStream(0)),
        lambda spec: integer_moment_growth(spec, 2),
        moment_lyapunov_root,
    ],
    ids=["as_ar", "lyapunov_top", "integer_moment_growth", "moment_lyapunov_root"],
)
def test_a_spec_without_a_companion_form_is_refused_by_kind(spec, call):
    message = f"a companion form needs a kesten_scalar or kesten_ar process, got {spec.kind}$"
    with pytest.raises(InvalidConfig, match=message):
        call(spec)


# a signed order-2 spec: only even integer moments of its product are meaningful
SIGNED_SPEC = KestenAR(
    Exponential(0.6), Normal(0.0, 1.0), (Normal(0.5, 0.3), Uniform(-0.3, 0.5))
)


def _exact_finite_t(spec, p: int, t: int) -> float:
    """(1/t) log E[(1' Pi_t 1)^p] from M_p^t: (sum_i R_i)^p = sum_alpha C(p; alpha) R^alpha."""
    monomials, mat = _moment_matrix(spec, p)
    coeff = [math.factorial(p) / math.prod(map(math.factorial, m)) for m in monomials]
    return math.log(coeff @ np.linalg.matrix_power(mat, t) @ np.ones(len(monomials))) / t


def _brute_force_finite_t(spec, p: int, t: int, trials: int, seed: int):
    """The same by plain Monte Carlo of the product from R = 1, and its stderr."""
    gen = RngStream(seed).generator()
    rows = [np.ones(trials) for _ in range(spec.order)]
    for _ in range(t):
        a, w = spec.draw_coefficients(gen, trials)
        rows = [a * sum(wj * row for wj, row in zip(w, rows)), *rows[:-1]]
    y = sum(rows) ** p
    mean, se = y.mean(), y.std(ddof=1) / math.sqrt(trials)
    return math.log(mean) / t, se / mean / t


class TestIntegerMomentGrowth:
    @pytest.mark.parametrize("p", [1, 3])
    def test_fig4_finite_t_moments_match_a_brute_force_product(self, p):
        exact = _exact_finite_t(FIG4_SPEC, p, 6)
        mc, se = _brute_force_finite_t(FIG4_SPEC, p, 6, 400_000, 11)
        assert exact == pytest.approx({1: -0.12926, 3: 0.45157}[p], abs=1e-5)
        assert abs(mc - exact) <= 4 * se

    def test_signed_finite_t_moments_match_a_brute_force_product(self):
        exact = _exact_finite_t(SIGNED_SPEC, 2, 5)
        mc, se = _brute_force_finite_t(SIGNED_SPEC, 2, 5, 400_000, 12)
        assert abs(mc - exact) <= 4 * se

    @pytest.mark.parametrize("p", range(1, 7))
    def test_scalar_case_is_the_log_moment(self, p):
        spec = as_ar(KestenScalar(Exponential(0.55), Normal(0.0, 1.0)))
        assert integer_moment_growth(spec, p) == pytest.approx(
            math.log(Exponential(0.55).moment(p)), abs=1e-12
        )

    def test_fig4_values(self):
        got = [integer_moment_growth(FIG4_SPEC, p) for p in range(1, 7)]
        want = [-0.3557, -0.3614, -0.0546, 0.5232, 1.3259, 2.3153]
        assert got == pytest.approx(want, abs=1e-4)

    def test_first_moment_matrix_is_the_mean_companion_matrix(self):
        monomials, mat = _moment_matrix(FIG4_SPEC, 1)
        assert monomials == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        means = [0.6 * w.mean() for w in FIG4_SPEC.weight_laws]
        assert np.allclose(mat, [means, [1, 0, 0], [0, 1, 0]], rtol=1e-15)

    def test_oversized_matrix_is_refused(self):
        spec = KestenAR(Exponential(0.6), Constant(0.0), (Uniform(0.0, 0.2),) * 12)
        with pytest.raises(TheoryError, match="moment matrix of a K = 12 product has 1365 rows"):
            integer_moment_growth(spec, 4)


class TestMomentLyapunovRoot:
    def test_scalar_reduction_matches_moment_equation(self):
        spec = as_ar(KestenScalar(Exponential(0.55), Normal(0.0, 1.0)))
        assert moment_lyapunov_root(spec) == cramer_root(Exponential(0.55))

    def test_unit_mean_scalar_case(self):
        spec = as_ar(KestenScalar(Exponential(1.0), Normal(0.0, 1.0)))
        assert moment_lyapunov_root(spec).mu_star == 1.0

    def test_order_one_root_below_the_first_node(self):
        # an integer-node interpolant reads 0.561 here; the real-mu solve does not
        spec = KestenAR(Exponential(1.2), Normal(0.0, 1.0), (Constant(1.0),))
        sol = moment_lyapunov_root(spec)
        assert sol.mu_star == pytest.approx(exponential_root_oracle(1.2), abs=1e-9)

    def test_order_one_weight_enters_the_moment_equation(self):
        # E[(a w)^mu] = E(a^mu) E(w^mu) = Gamma(mu + 1) (0.55 * 0.5)^mu for w == 0.5
        spec = KestenAR(Exponential(0.55), Normal(0.0, 1.0), (Constant(0.5),))
        sol = moment_lyapunov_root(spec)
        assert sol.mu_star == pytest.approx(exponential_root_oracle(0.275), abs=1e-9)

    def test_fig4_band(self):
        sol = moment_lyapunov_root(FIG4_SPEC)
        assert 2.0 <= sol.mu_star <= 4.0

    def test_fig4_root_lies_in_the_exact_bracket(self):
        sol = moment_lyapunov_root(FIG4_SPEC)
        assert 3.0 < sol.mu_star < 4.0
        assert sol.mu_star == pytest.approx(3.1172, abs=1e-3)
        assert (sol.bracket, sol.method) == ((3.0, 4.0), "integer-moments")
        assert sol.stencil_spread < 1e-3
        assert sol.residual < 1e-12
        assert set(sol.to_dict()) == {"mu_star", "bracket", "residual", "method", "stencil_spread"}

    def test_signed_spec_brackets_on_even_nodes(self):
        sol = moment_lyapunov_root(SIGNED_SPEC)
        lo, hi = sol.bracket
        assert (lo % 2, hi - lo) == (0.0, 2.0)
        assert integer_moment_growth(SIGNED_SPEC, int(lo)) < 0.0 <= integer_moment_growth(SIGNED_SPEC, int(hi))
        assert lo < sol.mu_star < hi
        assert sol.stencil_spread < 0.05

    def test_draws_nothing_and_stays_small(self, monkeypatch):
        # no stream, no trials: the solve is a function of the spec alone
        def no_draws(*args):
            raise AssertionError("a law was sampled")

        for law in {type(law) for law in (FIG4_SPEC.a_law, *FIG4_SPEC.weight_laws)}:
            monkeypatch.setattr(law, "sample", no_draws)
        tracemalloc.start()
        try:
            first = moment_lyapunov_root(FIG4_SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == moment_lyapunov_root(FIG4_SPEC)
        assert peak < 1_000_000

    def test_no_sign_change_names_the_first_node(self):
        # E(a) = 1 and weights summing to about 1.05: Lambda(1) >= 0
        spec = KestenAR(Exponential(1.0), Normal(0.0, 1.0), (Uniform(0.3, 0.4),) * 3)
        assert integer_moment_growth(spec, 1) >= 0.0
        with pytest.raises(NoSignChange, match=r"^Lambda\(1\) = \+[0-9.]+ >= 0 at the first node p = 1"):
            moment_lyapunov_root(spec)

    def test_no_positive_root_up_to_the_cap(self):
        # a <= 1 and weights summing to at most 0.9: the product contracts surely
        spec = KestenAR(Uniform(0.0, 1.0), Normal(0.0, 1.0), (Uniform(0.4, 0.5), Uniform(0.3, 0.4)))
        with pytest.raises(NoPositiveRoot, match="up to p = 16"):
            moment_lyapunov_root(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            KestenAR(Exponential(0.6), Normal(0.0, 1.0), (Constant(0.0),)),
            KestenScalar(Constant(0.0), Normal(0.0, 1.0)),
        ],
        ids=["zero-weight", "zero-coefficient"],
    )
    def test_order_one_product_zero_surely_has_no_positive_root(self, spec):
        # E[log 0] is undefined, but E((a w)^mu) = 0 < 1 at every mu says why there is no root
        with pytest.raises(NoPositiveRoot, match="the product is zero surely"):
            moment_lyapunov_root(spec)

    def test_non_stationary_rejected(self):
        spec = as_ar(KestenScalar(Exponential(2.0), Normal(0.0, 1.0)))
        with pytest.raises(NonStationary):
            moment_lyapunov_root(spec)

    def test_normalized_weights_rejected(self):
        spec = KestenAR(
            Exponential(0.6), Normal(0.0, 1.0), FIG4_SPEC.weight_laws, normalize_weights=True
        )
        with pytest.raises(InvalidConfig, match="normalized weights"):
            moment_lyapunov_root(spec)
