import inspect
import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from kestenlab import (
    CoefficientLaw,
    Constant,
    Exponential,
    GarchCoefficient,
    Normal,
    RngStream,
    Uniform,
    law_from_config,
)
from kestenlab.distributions import QUAD_CUT, QUAD_EPSABS, QUAD_EPSREL, _de_nodes
from kestenlab.errors import (
    InvalidConfig,
    KestenLabError,
    LawError,
    MomentOverflow,
    NonnegativityRequired,
    PositivityRequired,
    QuadratureError,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EULER_GAMMA = 0.5772156649015329


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(LawError):
            Exponential(0.0)
        with pytest.raises(LawError):
            Exponential(-1.0)
        with pytest.raises(LawError):
            Uniform(1.0, 1.0)
        with pytest.raises(LawError):
            Uniform(2.0, 1.0)
        with pytest.raises(LawError):
            Normal(0.0, 0.0)
        with pytest.raises(LawError):
            GarchCoefficient(-0.1, 0.1)
        with pytest.raises(LawError):
            GarchCoefficient(0.9, -0.1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Exponential(math.inf),
            lambda: Uniform(0.0, math.inf),
            lambda: Uniform(-math.inf, 1.0),
            lambda: Normal(math.nan, 1.0),
            lambda: Normal(0.0, math.inf),
            lambda: Constant(math.nan),
            lambda: GarchCoefficient(0.9, math.nan),
            lambda: GarchCoefficient(math.inf, 0.09),
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(LawError, match="finite"):
            build()

    def test_nonnegativity_flags(self):
        assert Exponential(0.55).nonnegative
        assert GarchCoefficient(0.9, 0.09).nonnegative
        assert Uniform(0.0, 1.0).nonnegative
        assert Constant(0.5).nonnegative
        assert not Uniform(-1.0, 1.0).nonnegative
        assert not Normal(0.0, 1.0).nonnegative
        assert not Constant(-2.0).nonnegative


class TestSample:
    def test_constant_law_is_degenerate(self):
        out = Constant(0.55).sample(RngStream(0).generator(), 3)
        assert out.tolist() == [0.55, 0.55, 0.55]

    def test_deterministic_for_equal_streams(self):
        law = Exponential(0.55)
        a = law.sample(RngStream(7, 3).generator(), 1000)
        b = law.sample(RngStream(7, 3).generator(), 1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        law = Exponential(0.55)
        a = law.sample(RngStream(7, 0).generator(), 1000)
        b = law.sample(RngStream(7, 1).generator(), 1000)
        assert not np.array_equal(a, b)

    def test_exponential_mean(self):
        # spec band 0.55 +- 0.002 is ~3.6 sigma at n = 1e6
        x = Exponential(0.55).sample(RngStream(11).generator(), 10**6)
        assert abs(x.mean() - 0.55) < 0.002

    def test_uniform_mean(self):
        x = Uniform(0.0, 1.0).sample(RngStream(12).generator(), 10**6)
        assert abs(x.mean() - 0.5) < 0.001


class TestMoment:
    def test_exponential_closed_form(self):
        # Gamma(4) * 0.55^3
        assert Exponential(0.55).moment(3.0) == pytest.approx(0.99825, abs=1e-12)

    def test_exponential_vs_quadrature(self):
        m = 0.55
        oracle, _ = quad(
            lambda x: x**3 * math.exp(-x / m) / m, 0, np.inf, epsabs=1e-12
        )
        assert Exponential(m).moment(3.0) == pytest.approx(oracle, abs=1e-9)

    def test_constant_power(self):
        assert Constant(1.0).moment(7.0) == 1.0
        assert Constant(0.5).moment(2.0) == 0.25

    def test_uniform_closed_form(self):
        assert Uniform(0.0, 1.0).moment(1.0) == pytest.approx(0.5, abs=1e-15)
        oracle, _ = quad(lambda x: x**2.5 / 0.6, 0.7, 1.3, epsabs=1e-12)
        assert Uniform(0.7, 1.3).moment(2.5) == pytest.approx(oracle, abs=1e-9)

    def test_garch_integer_moments_closed_form(self):
        law = GarchCoefficient(0.9, 0.09)
        assert law.moment(1.0) == 0.9 + 0.09
        # E(a^2) = b^2 + 2ab + 3a^2 with Ez^2. Ez^4 = 1, 3
        expected = 0.9**2 + 2 * 0.9 * 0.09 + 3 * 0.09**2
        assert law.moment(2.0) == pytest.approx(expected, rel=1e-15)

    def test_garch_fractional_moment_vs_quadrature(self):
        # E(a^mu) = 2 int_0^inf (beta + alpha z^2)^mu phi(z) dz, a smooth integrand
        oracle, _ = quad(
            lambda z: 2.0 * (0.9 + 0.09 * z * z) ** 1.7 * stats.norm.pdf(z),
            0, np.inf, epsabs=0.0, epsrel=1e-13,
        )
        assert GarchCoefficient(0.9, 0.09).moment(1.7) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.09, 0.5, 2.0])
    @pytest.mark.parametrize("mu", [0.3, 1.7, 7.5, 31.5])
    def test_garch_fractional_moment_without_beta_is_exact(self, alpha, mu):
        # E[(alpha z^2)^mu] = (2 alpha)^mu Gamma(mu + 1/2) / sqrt(pi)
        exact = math.exp(mu * math.log(2.0 * alpha) + gammaln(mu + 0.5) - 0.5 * math.log(math.pi))
        assert GarchCoefficient(0.0, alpha).moment(mu) == pytest.approx(exact, rel=1e-10)

    def test_garch_without_alpha_is_its_constant(self):
        # alpha == 0 leaves no density to integrate: the point mass at beta answers
        law = GarchCoefficient(0.5, 0.0)
        assert law.moment(1.5) == 0.5**1.5
        assert law.log_moment() == math.log(0.5)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.2, 1.3), Constant(0.7)],
        ids=["exponential", "uniform", "constant"],
    )
    def test_monte_carlo_agrees_with_closed_form(self, law, mu):
        x = law.sample(RngStream(123).generator(), 10**6)
        y = x**mu
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - law.moment(mu)) <= 4 * se + 1e-12

    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.0, 1.0), Constant(0.7), GarchCoefficient(0.9, 0.09)],
        ids=["exponential", "uniform", "constant", "garch"],
    )
    def test_zeroth_moment_limit(self, law):
        assert 0.999 <= law.moment(1e-6) <= 1.001

    def test_normal_even_moments(self):
        assert Normal(0.0, 2.0).moment(2.0) == pytest.approx(4.0, rel=1e-15)
        assert Normal(0.0, 1.0).moment(4.0) == pytest.approx(3.0, rel=1e-15)

    def test_fractional_moment_of_signed_law_rejected(self):
        with pytest.raises(NonnegativityRequired):
            Normal(0.0, 1.0).moment(1.5)
        with pytest.raises(NonnegativityRequired):
            Uniform(-1.0, 2.0).moment(0.5)
        with pytest.raises(NonnegativityRequired):
            Constant(-2.0).moment(0.5)
        # an integer order needs no symmetry about zero
        assert Normal(1.0, 1.0).moment(2.0) == 2.0

    def test_integer_moments_of_signed_laws(self):
        # E(1 + 2z)^3 = 1 + 3 * 4 = 13; E[X^3] on [-1, 2] = (16 - 1) / (4 * 3)
        assert Normal(1.0, 2.0).moment(3) == 13.0
        assert Uniform(-1.0, 2.0).moment(3) == 1.25
        assert Constant(-2.0).moment(3) == -8.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "law",
        [Normal(0.7, 1.3), Normal(-0.4, 0.5), Uniform(-1.5, 0.5)],
        ids=["normal", "normal-negative-mean", "uniform"],
    )
    def test_signed_integer_moments_agree_with_sampling(self, law, n):
        y = law.sample(RngStream(321).generator(), 10**6) ** n
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - law.moment(n)) <= 4 * se

    @pytest.mark.parametrize(
        "law, n",
        [
            (Normal(0.0, 1e200), 2),
            (Uniform(0.0, 1e200), 2),
            (Exponential(1e200), 2),
            (GarchCoefficient(0.9, 1e200), 3),
            (Constant(1e200), 2),
        ],
        ids=["normal", "uniform", "exponential", "garch", "constant"],
    )
    def test_moment_beyond_the_float_range_is_typed(self, law, n):
        with pytest.raises(MomentOverflow, match=f"^E\\(X\\^{n}\\) of the {law.kind} law exceeds the float range$"):
            law.moment(n)


class TestLogMoment:
    def test_constant_one(self):
        assert Constant(1.0).log_moment() == 0.0

    def test_unit_exponential_is_minus_euler_gamma(self):
        oracle, _ = quad(lambda x: math.log(x) * math.exp(-x), 1e-300, np.inf)
        val = Exponential(1.0).log_moment()
        assert val == pytest.approx(oracle, abs=1e-7)
        assert val == pytest.approx(-EULER_GAMMA, abs=1e-4)

    def test_exponential_shift(self):
        assert Exponential(0.55).log_moment() == pytest.approx(
            math.log(0.55) - EULER_GAMMA, abs=1e-12
        )

    def test_uniform_closed_form_vs_quadrature(self):
        oracle, _ = quad(lambda x: math.log(x) / 0.8, 0.4, 1.2, epsabs=1e-12)
        assert Uniform(0.4, 1.2).log_moment() == pytest.approx(oracle, abs=1e-9)

    def test_garch_monte_carlo_vs_quadrature(self):
        val = GarchCoefficient(0.9, 0.1).log_moment()
        # log a changes sign at z = 1; each side is integrated on its own
        oracle = sum(
            quad(
                lambda z: 2.0 * math.log(0.9 + 0.1 * z * z) * stats.norm.pdf(z),
                lo, hi, epsabs=0.0, epsrel=1e-13,
            )[0]
            for lo, hi in ((0.0, 1.0), (1.0, np.inf))
        )
        assert val == pytest.approx(oracle, rel=1e-10)
        # headline value for the fitted index process
        assert -0.010 < val < -0.006

    def test_positivity_required(self):
        for law in [Normal(0.0, 1.0), Uniform(-1.0, 1.0), Constant(0.0), Constant(-1.0)]:
            with pytest.raises(PositivityRequired):
                law.log_moment()

    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.5, 1.5), GarchCoefficient(0.9, 0.09)],
        ids=["exponential", "uniform", "garch"],
    )
    def test_jensen_strict_for_non_constant(self, law):
        assert law.log_moment() < math.log(law.moment(1.0))

    def test_jensen_equality_for_constant(self):
        assert Constant(0.7).log_moment() == pytest.approx(
            math.log(Constant(0.7).moment(1.0)), abs=1e-15
        )


# Examples of every law; a law class missing here fails TestLawFacts loudly.
LAW_EXAMPLES = {
    Exponential: [Exponential(0.55)],
    Uniform: [Uniform(0.0, 1.6), Uniform(-3.0, 2.0)],
    Normal: [Normal(0.0, 1.0), Normal(0.3, 2.0)],
    Constant: [Constant(2.5), Constant(-2.0)],
    GarchCoefficient: [GarchCoefficient(0.9, 0.09), GarchCoefficient(0.5, 0.0)],
}


class TestLawFacts:
    @pytest.mark.parametrize(
        "cls", CoefficientLaw.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_each_law_has_its_facts(self, cls):
        for law in LAW_EXAMPLES[cls]:
            lo, hi = law.support
            x = law.sample(RngStream(5).generator(), 10**4)
            assert np.all((lo <= x) & (x <= hi)), law
            if law.has_density:
                assert law.expect(lambda v: 1.0) == pytest.approx(1.0, rel=1e-7), law
                if law.nonnegative:
                    assert law.expect(lambda v: v) == pytest.approx(law.mean(), rel=1e-7)
            if isinstance(law, GarchCoefficient) and law.alpha == 0:
                assert law.collapsed() == Constant(law.beta)
            else:
                assert law.collapsed() is law
            assert law.moment_method in ("closed-form", "quadrature")

    @pytest.mark.parametrize(
        "cls", CoefficientLaw.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_only_the_monte_carlo_law_reports_a_stderr(self, cls):
        # no law computes a moment by Monte Carlo, so none reports a stderr
        assert cls.moment_method != "monte-carlo"
        stderr_methods = ("moment_with_stderr", "log_moment_with_stderr")
        assert not any(hasattr(cls, name) for name in stderr_methods)
        assert list(inspect.signature(cls.log_moment).parameters) == ["self"]

    @pytest.mark.parametrize("mu", [1.7, 2.0])
    def test_garch_moment_is_closed_form_only_at_integers(self, mu, monkeypatch):
        law = GarchCoefficient(0.9, 0.09)
        by_rule = law.expect(lambda x: x**mu)
        if mu == 2.0:
            # E(a^2) = beta^2 + 2 beta alpha + 3 alpha^2, with no integral taken
            def no_rule(self, fn, lo=None, hi=None):
                raise AssertionError("the rule was run")

            monkeypatch.setattr(GarchCoefficient, "expect", no_rule)
            closed = 0.9**2 + 2 * 0.9 * 0.09 + 3 * 0.09**2
            assert law.moment(mu) == pytest.approx(closed, rel=1e-15)
            assert by_rule == pytest.approx(closed, rel=1e-10)
        else:
            assert law.moment(mu) == by_rule

    @pytest.mark.parametrize(
        "cls, facts",
        [
            (Exponential, {"nonnegative": True, "strictly_positive": True, "has_density": True}),
            (Normal, {"nonnegative": False, "strictly_positive": False, "has_density": True}),
            (Uniform, {"has_density": True}),
            (GarchCoefficient, {"nonnegative": True}),
        ],
        ids=["exponential", "normal", "uniform", "garch"],
    )
    def test_parameter_free_facts_are_class_attributes(self, cls, facts):
        assert {name: vars(cls)[name] for name in facts} == facts

    def test_constant_expect_inside_and_outside(self):
        law = Constant(2.5)
        assert law.expect(lambda v: v * v) == 6.25
        assert law.expect(lambda v: v * v, lo=2.5, hi=2.5) == 6.25
        assert law.expect(lambda v: v * v, lo=1.0) == 6.25
        assert law.expect(lambda v: v * v, hi=2.0) == 0.0
        assert law.expect(lambda v: v * v, lo=3.0) == 0.0

    def test_expect_is_truncated_to_the_interval(self):
        law = Uniform(-3.0, 2.0)
        assert law.expect(lambda v: 1.0, lo=1.0) == pytest.approx(0.2, rel=1e-12)
        assert law.expect(lambda v: 1.0, hi=-1.0) == pytest.approx(0.4, rel=1e-12)
        assert law.expect(lambda v: 1.0, lo=2.0) == 0.0
        assert law.expect(lambda v: 1.0, lo=5.0, hi=6.0) == 0.0

    def test_abs_moment(self):
        # zero-mean normal closed form: E|X| = sd sqrt(2/pi), E X^2 = sd^2
        assert Normal(0.0, 2.0).abs_moment(1.0) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-12
        )
        assert Normal(0.0, 2.0).abs_moment(2.0) == pytest.approx(4.0, rel=1e-12)
        # by quadrature: E X^2 = mean^2 + sd^2, and (hi^3 - lo^3) / (3 (hi - lo))
        assert Normal(0.3, 2.0).abs_moment(2.0) == pytest.approx(4.09, rel=1e-8)
        assert Uniform(-3.0, 2.0).abs_moment(2.0) == pytest.approx(35.0 / 15.0, rel=1e-8)
        assert Constant(-2.0).abs_moment(1.5) == 2.0**1.5
        assert Exponential(0.55).abs_moment(3.0) == Exponential(0.55).moment(3.0)


# scipy's own frozen law of each kind with a density: the independent reference
SCIPY_LAWS = {
    "exponential": lambda law: stats.expon(scale=law.mean_value),
    "uniform": lambda law: stats.uniform(law.lo, law.hi - law.lo),
    "normal": lambda law: stats.norm(law.mean_value, law.sd),
    "garch_coeff": lambda law: stats.chi2(1, loc=law.beta, scale=law.alpha),
}


class TestScipyReference:
    """The closed forms and the quadrature rule that replace scipy, against scipy."""

    def test_chi2_density_and_survival(self):
        law = GarchCoefficient(0.0, 0.5)
        for y in np.geomspace(1e-12, 700.0, 400).tolist():
            assert law.pdf(0.5 * y) == pytest.approx(stats.chi2.pdf(y, 1) / 0.5, rel=1e-13)
            assert law.survival(0.5 * y) == pytest.approx(stats.chi2.sf(y, 1), rel=1e-13)

    def test_lgamma_moments(self):
        for mu in np.linspace(0.01, 70.0, 400).tolist():
            assert math.lgamma(mu) == pytest.approx(gammaln(mu), abs=1e-12)
            exp_moment = math.exp(gammaln(mu + 1.0) + mu * math.log(0.55))
            assert Exponential(0.55).moment(mu) == pytest.approx(exp_moment, rel=1e-12)
            # E|X|^mu = sd^mu 2^(mu/2) Gamma((mu+1)/2) / sqrt(pi)
            abs_moment = 2.0**mu * 2.0 ** (mu / 2) * math.exp(gammaln((mu + 1.0) / 2.0))
            abs_moment /= math.sqrt(math.pi)
            assert Normal(0.0, 2.0).abs_moment(mu) == pytest.approx(abs_moment, rel=1e-12)

    @pytest.mark.parametrize(
        "law",
        [law for laws in LAW_EXAMPLES.values() for law in laws if law.has_density],
        ids=str,
    )
    @pytest.mark.parametrize(
        "fn, lo",
        [(lambda v: 1.0, -math.inf), (lambda v: abs(v) ** 1.5, -math.inf), (math.log, 1.0)],
        ids=["mass", "abs-moment-1.5", "log-above-1"],
    )
    def test_expect_matches_quad(self, law, fn, lo):
        reference = SCIPY_LAWS[law.kind](law)
        a, b = max(lo, law.support[0]), law.support[1]
        cuts = sorted({a, b, *(c for c in (0.0, law.location) if a < c < b)})
        oracle = sum(
            quad(lambda x: fn(x) * reference.pdf(x), left, right, limit=200)[0]
            for left, right in zip(cuts, cuts[1:])
        )
        assert law.expect(fn, lo=lo) == pytest.approx(oracle, rel=1e-10)


class TestExpect:
    @pytest.mark.parametrize(
        "law",
        [Normal(1e3, 1.0), Exponential(1e-4), GarchCoefficient(0.01, 1e-5)],
        ids=["normal-far-from-0", "narrow-exponential", "narrow-garch"],
    )
    def test_mass(self, law):
        assert law.expect(lambda v: 1.0) == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("mean", [1e4, 3e4, 1e6, 1e8, 1e10, 1e12, -3e4, -1e8])
    def test_bulk_far_from_zero(self, mean):
        # the cuts QUAD_CUT scales either side of the location hold the bulk;
        # without them Normal(3e4, 1) raised QuadratureError
        law = Normal(mean, 1.0)
        assert abs(law.expect(lambda v: 1.0) - 1.0) <= 2.3e-16  # one ulp above 1
        assert law.expect(lambda v: v) == pytest.approx(mean, rel=1e-15)

    def test_narrow_law_away_from_zero(self):
        # E|X|^3 = m^3 + 3 m s^2 for a normal law that puts no mass below 0
        assert Normal(5.0, 0.01).abs_moment(3.0) == pytest.approx(
            5.0**3 + 3 * 5.0 * 0.01**2, rel=1e-9
        )

    @pytest.mark.parametrize(
        "fn", [lambda v: math.cos(1e4 * v), lambda v: math.nan], ids=["oscillating", "nan"]
    )
    def test_unresolved_integrand_raises(self, fn):
        with pytest.raises(QuadratureError, match=r"steps h and h/2 differ by"):
            Uniform(0.0, 1.0).expect(fn)

    @pytest.mark.parametrize(
        "law", [Exponential(1e260), Normal(0.0, 1e300), GarchCoefficient(0.5, 1e300)],
        ids=["exponential", "normal", "garch"],
    )
    def test_half_line_weights_beyond_the_float_range_raise(self, law):
        # scale * the largest exp-sinh weight (7.6e50) overflows above about 2.4e257;
        # it used to give inf * 0 = NaN with a numpy overflow warning
        with pytest.raises(QuadratureError, match=re.escape(f"overflow at scale {law.scale:g}")):
            law.expect(lambda v: 1.0)

    def test_half_line_weights_just_inside_the_float_range(self):
        assert Exponential(1e257).expect(lambda v: 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_integrand_raises(self):
        # |x|^3 leaves the float range in the bulk of N(1, 1e300)
        with pytest.raises(MomentOverflow, match=r"under the normal law: fn overflows at x = "):
            Normal(1.0, 1e150).abs_moment(3.0)

    def test_zero_mean_closed_form_overflow_raises(self):
        with pytest.raises(
            MomentOverflow, match=r"^E\|X\|\^3 of the normal law with sd 1e\+150 exceeds the float range$"
        ):
            Normal(0.0, 1e150).abs_moment(3.0)


def uncached_expect(law, fn, lo=-math.inf, hi=math.inf) -> float:
    """``CoefficientLaw.expect`` as one loop that reads the density at every
    node on every call: the rule without its node tables."""
    s_lo, s_hi = law.support
    a, b = max(s_lo, lo), min(s_hi, hi)
    if not a < b:
        return 0.0
    loc, scale = law.location, law.scale
    near = (0.0, loc, loc - QUAD_CUT * scale, loc + QUAD_CUT * scale)
    cuts = sorted({a, b, *(c for c in near if a < c < b)})
    fine = coarse = 0.0
    for left, right in zip(cuts, cuts[1:]):
        ends, offsets, weights = _de_nodes(left, right, scale)
        values = np.zeros(len(ends))
        for i, (end, d) in enumerate(zip(ends, offsets)):
            density = law.standard_pdf((end - loc) / scale + d / scale)
            if density:
                try:
                    values[i] = density * fn(end + d)
                except OverflowError:
                    raise MomentOverflow(
                        f"E[fn(X)] under the {law.kind} law: fn overflows at x = {end + d:.3g}"
                    ) from None
        values *= weights / scale
        fine += float(values.sum())
        coarse += 2.0 * float(values[::2].sum())
    gap = abs(fine - coarse)
    tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(fine))
    if not gap <= tol:
        raise QuadratureError(
            f"quadrature of E[fn(X)] under the {law.kind} law did not converge: "
            f"steps h and h/2 differ by {gap:.3g} > {tol:.3g}"
        )
    return fine


def _outcome(call):
    """The bits of a float result, or the type and message of the error."""
    try:
        return call().hex()
    except KestenLabError as exc:
        return type(exc), str(exc)


DENSITY_LAWS = [
    law for laws in LAW_EXAMPLES.values() for law in laws if law.has_density
] + [Normal(1e6, 1.0), Normal(1.0, 1e150), GarchCoefficient(0.0, 1.0)]


class TestNodeTables:
    @pytest.mark.parametrize("law", DENSITY_LAWS, ids=str)
    @pytest.mark.parametrize(
        "fn",
        [
            lambda v: 1.0,
            lambda v: v,
            lambda v: abs(v) ** 1.5,
            lambda v: abs(v) ** 3,
            lambda v: math.log(abs(v)),
            lambda v: math.cos(1e4 * v),
        ],
        ids=["mass", "mean", "abs-moment-1.5", "abs-moment-3", "log-abs", "oscillating"],
    )
    @pytest.mark.parametrize(
        "bounds", [{}, {"lo": 1.0}, {"hi": -1.0}], ids=["full", "above-1", "below-minus-1"]
    )
    def test_expect_equals_the_uncached_rule_bitwise(self, law, fn, bounds):
        # the same sums, errors and overflow node, from a fresh table and a cached one
        want = _outcome(lambda: uncached_expect(law, fn, **bounds))
        assert _outcome(lambda: law.expect(fn, **bounds)) == want
        assert _outcome(lambda: law.expect(fn, **bounds)) == want

    def test_overflow_names_the_first_node(self):
        # the rule's first node is the finite end of its lowest piece, QUAD_CUT sd below
        # the mean, and |x|^3 overflows there already
        law = Normal(1.0, 1e150)

        def fn(v):
            return abs(v) ** 3

        message = "E[fn(X)] under the normal law: fn overflows at x = -8e+150"
        assert _outcome(lambda: uncached_expect(law, fn)) == (MomentOverflow, message)
        with pytest.raises(MomentOverflow) as exc:
            law.expect(fn)
        assert str(exc.value) == message

    def test_a_replaced_density_builds_its_own_table(self, monkeypatch):
        law = Exponential(0.55)
        before = law.expect(lambda v: 1.0)
        monkeypatch.setattr(Exponential, "standard_pdf", lambda self, z: 2.0 * math.exp(-z))
        assert law.expect(lambda v: 1.0) == pytest.approx(2.0 * before, rel=1e-15)
        monkeypatch.undo()
        assert law.expect(lambda v: 1.0) == before

ROUND_TRIP_LAWS = {
    "exponential": Exponential(0.55),
    "uniform": Uniform(0.7, 0.8),
    "normal": Normal(0.0, 0.0065),
    "constant": Constant(1.0),
    "garch": GarchCoefficient(0.9, 0.09),
}


class TestSerialization:
    @pytest.mark.parametrize("law", ROUND_TRIP_LAWS.values(), ids=list(ROUND_TRIP_LAWS))
    def test_round_trip(self, law):
        assert law_from_config(law.to_config()) == law

    def test_every_kind_has_a_round_trip_case(self):
        # a law class left out of the reader's kind table fails its round trip
        laws = set(CoefficientLaw.__subclasses__())
        assert {type(law) for law in ROUND_TRIP_LAWS.values()} == laws

    def test_config_examples(self):
        assert law_from_config({"kind": "exponential", "mean": 0.55}) == Exponential(0.55)
        assert law_from_config({"kind": "uniform", "lo": 0.7, "hi": 0.8}) == Uniform(0.7, 0.8)
        assert law_from_config({"kind": "garch_coeff", "beta": 0.9, "alpha": 0.09}) == GarchCoefficient(0.9, 0.09)

    def test_bad_configs(self):
        with pytest.raises(InvalidConfig):
            law_from_config({"kind": "cauchy", "scale": 1.0})
        with pytest.raises(InvalidConfig):
            law_from_config({"kind": "exponential"})
        with pytest.raises(InvalidConfig):
            law_from_config({"kind": "exponential", "mean": -1.0})
        with pytest.raises(InvalidConfig):
            law_from_config({"kind": "uniform", "lo": 1.0, "hi": "x"})
        with pytest.raises(InvalidConfig):
            law_from_config("exponential")


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_generator_restarts(self):
        rng = RngStream(99, 4)
        a = rng.generator().random(10)
        b = rng.generator().random(10)
        assert np.array_equal(a, b)

    def test_stream_ids_independent(self):
        s1, s2 = RngStream(99, 1), RngStream(99, 2)
        assert not np.array_equal(s1.generator().random(10), s2.generator().random(10))
