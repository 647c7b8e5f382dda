import math
import warnings

import numpy as np
import pytest

from conftest import FIG3_SPEC, exact_pareto
from kestenlab import (
    Constant,
    KestenScalar,
    Normal,
    RngStream,
    acf,
    empirical_ccdf,
    hill_estimator,
    returns_from_prices,
    simulate,
    tail_exponent_ls,
)
from kestenlab import estimators
from kestenlab.estimators import CCDF_PLOT_POINTS, mean_std, tail_fit_with_ccdf, thin_ccdf
from kestenlab.cli import config_from_dict, run
from kestenlab.errors import (
    DegenerateTail,
    InsufficientTail,
    InvalidConfig,
    NonPositivePrice,
    ReturnOverflow,
    SeriesTooShort,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestReturnsFromPrices:
    def test_basic(self):
        assert returns_from_prices([100.0, 101.0]) == pytest.approx([0.01])
        assert returns_from_prices([100.0, 100.0, 100.0]).tolist() == [0.0, 0.0]
        assert returns_from_prices([100.0, 99.0]) == pytest.approx([-0.01])

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            returns_from_prices([100.0, 0.0, 101.0])
        with pytest.raises(NonPositivePrice):
            returns_from_prices([100.0, -5.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            returns_from_prices([100.0])

    @pytest.mark.parametrize(
        "prices, position",
        [([1.0, 1e-300, 1e300], 2), ([1.0, math.inf, 2.0], 1)],
    )
    def test_non_finite_return_names_position(self, prices, position):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ReturnOverflow, match=f"position {position} ") as info:
                returns_from_prices(prices)
        assert info.value.position == position


class TestEmpiricalCcdf:
    def test_counting(self):
        x, p = empirical_ccdf(np.array([1.0, 2.0, 3.0]))
        assert x.tolist() == [1.0, 2.0, 3.0]
        assert p == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_ties_collapse(self):
        x, p = empirical_ccdf(np.array([-1.0, 1.0]), absolute=True)
        assert x.tolist() == [1.0]
        assert p.tolist() == [0.0]

    def test_strictly_decreasing(self, fig3_series):
        _x, p = empirical_ccdf(fig3_series)
        assert np.all(np.diff(p) < 0)

    def test_pareto_survival_level(self):
        # P(X > 10) = 0.01 for the mu = 2 oracle; 3-sigma binomial band
        x = exact_pareto(2.0, 10**6, seed=1001)
        xs, ps = empirical_ccdf(x, absolute=False)
        idx = np.searchsorted(xs, 10.0)
        assert abs(ps[idx] - 0.01) < 0.0005


class TestThinCcdf:
    def test_bundle_rows_are_exact_survival_points(self, tmp_path):
        config = config_from_dict(
            {
                "process": FIG3_SPEC.to_config(),
                "n_samples": 10**5,
                "seed": 5,
                "burn_in": 10**4,
                "analyses": {"tail_fit": {"threshold": None}},
            }
        )
        run(config, output_dir=tmp_path)
        x, p = empirical_ccdf(np.load(tmp_path / "series.npy", allow_pickle=False))
        exact = dict(zip(x.tolist(), p.tolist()))
        lines = (tmp_path / "ccdf.csv").read_text().splitlines()
        assert lines[0] == "x,p"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) <= CCDF_PLOT_POINTS
        assert rows[0] == (x[0], p[0]) and rows[-1] == (x[-1], p[-1])
        for xi, pi in rows:
            assert exact[xi] == pi  # bit for bit: == on floats parsed from repr
        xs, ps = np.array(rows).T
        assert np.all(np.diff(xs) > 0) and np.all(np.diff(ps) < 0)

    @pytest.mark.parametrize("distinct", [3, CCDF_PLOT_POINTS])
    def test_few_distinct_values_keep_every_row(self, distinct):
        values = RngStream(8).generator().choice(np.arange(1.0, distinct + 1), 10**4)
        values[:distinct] = np.arange(1.0, distinct + 1)  # every value occurs
        x, p = empirical_ccdf(values)
        assert x.size == distinct
        kept_x, kept_p = thin_ccdf(x, p)
        assert kept_x.tobytes() == x.tobytes() and kept_p.tobytes() == p.tobytes()

    def test_zero_is_kept_as_the_first_row(self):
        values = np.concatenate([[0.0], exact_pareto(3.0, 10**4, seed=9)])
        kept_x, kept_p = thin_ccdf(*empirical_ccdf(values))
        assert kept_x[0] == 0.0 and kept_p[0] == 1.0 - 1.0 / values.size
        assert kept_x.size <= CCDF_PLOT_POINTS + 1


class TestTailExponentLs:
    def test_recovers_pareto_exponent(self):
        x = exact_pareto(2.5, 10**6, seed=11)
        fit = tail_exponent_ls(x, float(np.quantile(x, 0.95)))
        assert abs(fit.exponent - 2.5) < 0.1
        assert fit.stderr > 0
        assert fit.n_tail == pytest.approx(50_000, abs=500)

    def test_default_threshold_is_95th_percentile(self):
        x = exact_pareto(3.0, 10**5, seed=12)
        fit = tail_exponent_ls(x)
        assert fit.threshold == pytest.approx(float(np.quantile(np.abs(x), 0.95)))

    def test_insufficient_tail(self):
        x = exact_pareto(2.0, 1000, seed=13)
        with pytest.raises(InsufficientTail):
            tail_exponent_ls(x, float(x.max()))

    def test_result_fields(self):
        x = exact_pareto(2.0, 10**5, seed=14)
        fit = tail_exponent_ls(x)
        d = fit.to_dict()
        assert set(d) == {"threshold", "exponent", "intercept", "n_tail", "stderr"}

    def test_fit_and_ccdf_from_one_sort(self):
        x = exact_pareto(3.0, 10**5, seed=15) * np.where(np.arange(10**5) % 3, 1.0, -1.0)
        fit, cx, cp = tail_fit_with_ccdf(x)
        assert fit == tail_exponent_ls(x)
        ex, ep = empirical_ccdf(x, absolute=True)
        assert np.array_equal(cx, ex) and np.array_equal(cp, ep)

    def test_tail_fit_analysis_sorts_once(self, tmp_path, monkeypatch):
        calls = []
        original = estimators.empirical_ccdf

        def counting(series, absolute=True):
            calls.append(absolute)
            return original(series, absolute)

        monkeypatch.setattr(estimators, "empirical_ccdf", counting)
        config = config_from_dict(
            {
                "process": FIG3_SPEC.to_config(),
                "n_samples": 10**4,
                "seed": 5,
                "burn_in": 10**3,
                "analyses": {"tail_fit": {"threshold": None}},
            }
        )
        run(config, output_dir=tmp_path)
        assert len(calls) == 1


class TestHillEstimator:
    @pytest.mark.parametrize("mu,band", [(3.0, 0.1), (1.0, 0.05)])
    def test_recovers_pareto_exponent(self, mu, band):
        x = exact_pareto(mu, 10**6, seed=int(20 + mu))
        assert abs(hill_estimator(x, 10**4) - mu) < band

    def test_degenerate_constant_series(self):
        with pytest.raises(DegenerateTail):
            hill_estimator(np.full(1000, 2.0), 100)

    def test_zero_threshold_order_statistic(self):
        x = np.concatenate([np.zeros(100), np.ones(10)])
        with pytest.raises(DegenerateTail):
            hill_estimator(x, 50)

    def test_k_bounds(self):
        x = exact_pareto(2.0, 1000, seed=22)
        with pytest.raises(InsufficientTail):
            hill_estimator(x, 5)
        with pytest.raises(InsufficientTail):
            hill_estimator(x, 1000)

    def test_agrees_with_ls_fit(self):
        # same sample, two routes; Hill se = mu/sqrt(k) dominates the bound
        x = exact_pareto(2.5, 10**6, seed=11)
        fit = tail_exponent_ls(x, float(np.quantile(x, 0.95)))
        k = 10**4
        hill = hill_estimator(x, k)
        combined = np.hypot(fit.stderr, hill / np.sqrt(k))
        assert abs(fit.exponent - hill) < 2 * combined


class TestAcf:
    def test_white_noise_stays_in_band(self):
        x = RngStream(5).generator().normal(0.0, 1.0, 10**6)
        res = acf(x, 20)
        assert np.all(np.abs(res.values[1:]) < 3 / np.sqrt(10**6))

    def test_ar1_with_constant_coefficient(self):
        spec = KestenScalar(Constant(0.5), Normal(0.0, 1.0))
        s = simulate(spec, RngStream(6), 10**6, 1000)
        res = acf(s, 5)
        for h in range(1, 6):
            assert abs(res.at(h) - 0.5**h) < 0.01

    def test_feedback_process_matches_mean_power_law(self, fig3_series):
        # stationary autocorrelation decays like [E(a)]^h when E(a^2) < 1
        res = acf(fig3_series, 5)
        for h in range(1, 6):
            assert abs(res.at(h) - 0.55**h) < 0.02

    def test_absolute_acf_mixes_geometrically(self, fig3_series):
        res = acf(fig3_series, 50, absolute=True)
        assert abs(res.at(50)) < 0.02

    def test_lag_zero_is_exactly_one(self, fig3_series):
        assert acf(fig3_series, 3).at(0) == 1.0

    def test_values_bounded(self, fig3_series):
        res = acf(fig3_series, 50)
        assert np.all(np.abs(res.values) <= 1.0)

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            acf(np.arange(100.0), 10)

    def test_series_kind_label(self, fig3_series):
        assert acf(fig3_series, 2).series_kind == "raw"
        assert acf(fig3_series, 2, absolute=True).series_kind == "absolute"

    def test_values_whose_squares_overflow_are_scaled_exactly(self):
        # alternating +-1e308: the sum of the squares, and the mean's partial sums,
        # leave the float range; times s = 2^-1024 they are exact and stay inside it
        x = np.array([(-1.0) ** t * 1e308 for t in range(40)])
        s = 2.0**-1024
        assert acf(x, 2).values.tobytes() == acf(x * s, 2).values.tobytes()
        assert mean_std(x) == (float((x * s).mean()) / s, float((x * s).std()) / s)
        assert math.isfinite(mean_std(x)[1])


@pytest.mark.parametrize(
    "estimator",
    [lambda x: acf(x, 2), lambda x: hill_estimator(x, 50), tail_exponent_ls, empirical_ccdf],
    ids=["acf", "hill", "tail_ls", "ccdf"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "series contains NaN or inf"),
        (np.inf, "series contains NaN or inf"),
        (-np.inf, "series contains NaN or inf"),
        (None, "expected a nonempty 1-d series"),
    ],
    ids=["nan", "inf", "-inf", "empty"],
)
def test_estimators_reject_non_finite_or_empty_input(estimator, bad, message):
    x = np.array([]) if bad is None else np.append(exact_pareto(3.0, 1000, seed=3), bad)
    with pytest.raises(InvalidConfig, match=message):  # a KestenLabError and a ValueError
        estimator(x)
