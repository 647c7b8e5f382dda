import math

import numpy as np
import pytest
from scipy.integrate import quad

from kestenlab import (
    Constant,
    Exponential,
    GarchCoefficient,
    Normal,
    RngStream,
    Uniform,
    law_from_config,
    law_to_config,
    log_moment,
    moment,
    sample,
)
from kestenlab.errors import (
    InvalidConfig,
    LawError,
    NonnegativityRequired,
    PositivityRequired,
)

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
        out = sample(Constant(0.55), RngStream(0), 3)
        assert out.tolist() == [0.55, 0.55, 0.55]

    def test_deterministic_for_equal_streams(self):
        law = Exponential(0.55)
        a = sample(law, RngStream(7, 3), 1000)
        b = sample(law, RngStream(7, 3), 1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        law = Exponential(0.55)
        a = sample(law, RngStream(7, 0), 1000)
        b = sample(law, RngStream(7, 1), 1000)
        assert not np.array_equal(a, b)

    def test_exponential_mean(self):
        # spec band 0.55 +- 0.002 is ~3.6 sigma at n = 1e6
        x = sample(Exponential(0.55), RngStream(11), 10**6)
        assert abs(x.mean() - 0.55) < 0.002

    def test_uniform_mean(self):
        x = sample(Uniform(0.0, 1.0), RngStream(12), 10**6)
        assert abs(x.mean() - 0.5) < 0.001

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            sample(Constant(1.0), RngStream(0), 0)


class TestMoment:
    def test_exponential_closed_form(self):
        # Gamma(4) * 0.55^3
        assert moment(Exponential(0.55), 3.0) == pytest.approx(0.99825, abs=1e-12)

    def test_exponential_vs_quadrature(self):
        m = 0.55
        oracle, _ = quad(
            lambda x: x**3 * math.exp(-x / m) / m, 0, np.inf, epsabs=1e-12
        )
        assert moment(Exponential(m), 3.0) == pytest.approx(oracle, abs=1e-9)

    def test_constant_power(self):
        assert moment(Constant(1.0), 7.0) == 1.0
        assert moment(Constant(0.5), 2.0) == 0.25

    def test_uniform_closed_form(self):
        assert moment(Uniform(0.0, 1.0), 1.0) == pytest.approx(0.5, abs=1e-15)
        oracle, _ = quad(lambda x: x**2.5 / 0.6, 0.7, 1.3, epsabs=1e-12)
        assert moment(Uniform(0.7, 1.3), 2.5) == pytest.approx(oracle, abs=1e-9)

    def test_garch_integer_moments_closed_form(self):
        law = GarchCoefficient(0.9, 0.09)
        assert moment(law, 1.0) == 0.9 + 0.09
        # E(a^2) = b^2 + 2ab + 3a^2 with Ez^2. Ez^4 = 1, 3
        expected = 0.9**2 + 2 * 0.9 * 0.09 + 3 * 0.09**2
        assert moment(law, 2.0) == pytest.approx(expected, rel=1e-15)

    def test_garch_fractional_moment_vs_quadrature(self):
        from scipy.stats import chi2

        law = GarchCoefficient(0.9, 0.09)
        val, se = law.moment_with_stderr(1.7)
        oracle, _ = quad(
            lambda w: (0.9 + 0.09 * w) ** 1.7 * chi2.pdf(w, 1), 0, np.inf
        )
        assert se > 0
        assert abs(val - oracle) < 4 * se

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.2, 1.3), Constant(0.7)],
        ids=["exponential", "uniform", "constant"],
    )
    def test_monte_carlo_agrees_with_closed_form(self, law, mu):
        x = sample(law, RngStream(123), 10**6)
        y = x**mu
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - moment(law, mu)) <= 4 * se + 1e-12

    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.0, 1.0), Constant(0.7), GarchCoefficient(0.9, 0.09)],
        ids=["exponential", "uniform", "constant", "garch"],
    )
    def test_zeroth_moment_limit(self, law):
        assert 0.999 <= moment(law, 1e-6) <= 1.001

    def test_normal_even_moments(self):
        assert moment(Normal(0.0, 2.0), 2.0) == pytest.approx(4.0, rel=1e-15)
        assert moment(Normal(0.0, 1.0), 4.0) == pytest.approx(3.0, rel=1e-15)

    def test_fractional_moment_of_signed_law_rejected(self):
        with pytest.raises(NonnegativityRequired):
            moment(Normal(0.0, 1.0), 1.5)
        with pytest.raises(NonnegativityRequired):
            moment(Uniform(-1.0, 2.0), 0.5)
        # even integer needs symmetry about zero
        with pytest.raises(NonnegativityRequired):
            moment(Normal(1.0, 1.0), 2.0)


class TestLogMoment:
    def test_constant_one(self):
        assert log_moment(Constant(1.0)) == 0.0

    def test_unit_exponential_is_minus_euler_gamma(self):
        oracle, _ = quad(lambda x: math.log(x) * math.exp(-x), 1e-300, np.inf)
        val = log_moment(Exponential(1.0))
        assert val == pytest.approx(oracle, abs=1e-7)
        assert val == pytest.approx(-EULER_GAMMA, abs=1e-4)

    def test_exponential_shift(self):
        assert log_moment(Exponential(0.55)) == pytest.approx(
            math.log(0.55) - EULER_GAMMA, abs=1e-12
        )

    def test_uniform_closed_form_vs_quadrature(self):
        oracle, _ = quad(lambda x: math.log(x) / 0.8, 0.4, 1.2, epsabs=1e-12)
        assert log_moment(Uniform(0.4, 1.2)) == pytest.approx(oracle, abs=1e-9)

    def test_garch_monte_carlo_vs_quadrature(self):
        from scipy.stats import chi2

        law = GarchCoefficient(0.9, 0.1)
        val, se = law.log_moment_with_stderr()
        oracle, _ = quad(lambda w: math.log(0.9 + 0.1 * w) * chi2.pdf(w, 1), 0, np.inf)
        assert se > 0
        assert abs(val - oracle) < 4 * se
        # headline value for the fitted index process
        assert -0.010 < val < -0.006

    def test_positivity_required(self):
        for law in [Normal(0.0, 1.0), Uniform(-1.0, 1.0), Constant(0.0), Constant(-1.0)]:
            with pytest.raises(PositivityRequired):
                log_moment(law)

    @pytest.mark.parametrize(
        "law",
        [Exponential(0.55), Uniform(0.5, 1.5), GarchCoefficient(0.9, 0.09)],
        ids=["exponential", "uniform", "garch"],
    )
    def test_jensen_strict_for_non_constant(self, law):
        assert log_moment(law) < math.log(moment(law, 1.0))

    def test_jensen_equality_for_constant(self):
        assert log_moment(Constant(0.7)) == pytest.approx(
            math.log(moment(Constant(0.7), 1.0)), abs=1e-15
        )


class TestSerialization:
    @pytest.mark.parametrize(
        "law",
        [
            Exponential(0.55),
            Uniform(0.7, 0.8),
            Normal(0.0, 0.0065),
            Constant(1.0),
            GarchCoefficient(0.9, 0.09),
        ],
        ids=["exponential", "uniform", "normal", "constant", "garch"],
    )
    def test_round_trip(self, law):
        assert law_from_config(law_to_config(law)) == law

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

    def test_substreams_independent(self):
        rng = RngStream(99)
        s1, s2 = rng.substream(1), rng.substream(2)
        assert s1 != s2
        assert not np.array_equal(s1.generator().random(10), s2.generator().random(10))
