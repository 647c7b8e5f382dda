import io
import json
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG3_SPEC, FIG4_SPEC, fuzzed
from kestenlab import (
    AcfResult,
    CoefficientLaw,
    Constant,
    CramerSolution,
    Exponential,
    Garch11,
    GarchCoefficient,
    InverseMultiplier,
    KestenAR,
    KestenScalar,
    LyapunovEstimate,
    Normal,
    ProcessSpec,
    ReturnSeries,
    RngStream,
    TailFit,
    Uniform,
    as_ar,
    expected_acf,
    garch11_paths,
    garch_to_kesten,
    inverse_tail_prediction,
    law_from_config,
    lyapunov_top,
    read_series_csv,
    returns_from_prices,
    simulate,
    spec_digest,
    spec_from_config,
    tail_exponent_ls,
    write_series_csv,
    write_series_npy,
)
from kestenlab import processes
from kestenlab.distributions import KindTagged
from kestenlab.errors import (
    DegenerateSpec,
    InvalidConfig,
    KestenLabError,
    NumericalOverflow,
    TheoryError,
    ZeroWeightSum,
)
from kestenlab.theory import RENORM_HI, RENORM_LO, _batched_log_norms

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestInverseMultiplier:
    def test_constant_laws(self):
        spec = InverseMultiplier(Constant(0.0), Constant(1.0))
        s = simulate(spec, RngStream(0), 3)
        assert s.values.tolist() == [1.0, 1.0, 1.0]

    def test_exact_unit_tail(self):
        # P(1/(1-U) > 10) = P(U > 0.9) = 0.1; 3-sigma binomial band ~0.0009
        spec = InverseMultiplier(Uniform(0.0, 1.0), Constant(1.0))
        s = simulate(spec, RngStream(5), 10**6)
        assert abs((s.values > 10).mean() - 0.1) < 0.003

    def test_degenerate_unit_coefficient(self):
        # refused up front, also when the law only collapses to a == 1
        for a_law in (Constant(1.0), GarchCoefficient(1.0, 0.0)):
            with pytest.raises(DegenerateSpec, match="a == 1 surely"):
                simulate(
                    InverseMultiplier(a_law, Normal(0.0, 1.0)), RngStream(0), 10
                )

    def test_near_one_draws_are_resampled(self):
        # half of this sliver sits within 1e-12 of 1 and must be redrawn
        spec = InverseMultiplier(Uniform(1 - 2e-12, 1 + 2e-12), Constant(1.0))
        s = simulate(spec, RngStream(3), 1000)
        assert s.resamples > 0
        assert np.isfinite(s.values).all()

    def test_concentrated_at_one_fails(self):
        spec = InverseMultiplier(Uniform(1 - 4e-13, 1 + 4e-13), Constant(1.0))
        with pytest.raises(DegenerateSpec):
            simulate(spec, RngStream(3), 100)

    def test_fig2_tail_exponent_near_one(self, fig2_series):
        fit = tail_exponent_ls(fig2_series)
        assert abs(fit.exponent - 1.0) < 0.15


class TestKestenScalar:
    def test_no_feedback_reduces_to_noise(self):
        spec = KestenScalar(Constant(0.0), Normal(0.0, 1.0))
        rng = RngStream(17)
        s = simulate(spec, rng, 10**4, 0)
        # constants consume no randomness, so the path is the raw noise block
        expected = Normal(0.0, 1.0).sample(rng.generator(), 10**4)
        assert np.array_equal(s.values, expected)

    def test_contraction_fixed_point(self):
        spec = KestenScalar(Constant(0.5), Constant(1.0), r0=0.0)
        s = simulate(spec, RngStream(0), 50, 0)
        assert abs(s.values[-1] - 2.0) < 1e-10

    def test_overflow_names_stationarity(self):
        spec = KestenScalar(Constant(2.0), Constant(1.0), r0=1.0)
        with pytest.raises(NumericalOverflow, match="stationar"):
            simulate(spec, RngStream(0), 5000, 0)

    def test_seed_determinism(self):
        a = simulate(FIG3_SPEC, RngStream(8), 5000, 100)
        b = simulate(FIG3_SPEC, RngStream(8), 5000, 100)
        c = simulate(FIG3_SPEC, RngStream(8, 1), 5000, 100)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_fig3_headline_stats(self, fig3_series):
        v = fig3_series.values
        assert 0.008 < v.std() < 0.012
        fit = tail_exponent_ls(fig3_series, 0.02)
        assert abs(fit.exponent - 3.0) < 0.3


class TestKestenAR:
    def test_order_one_reduces_to_scalar_bitwise(self):
        scalar = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065))
        ar = as_ar(scalar)
        a = simulate(scalar, RngStream(21), 5000, 200)
        b = simulate(ar, RngStream(21), 5000, 200)
        assert np.array_equal(a.values, b.values)

    def test_contraction_fixed_point(self):
        spec = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(0.5), Constant(0.5)),
            r_init=(0.0, 0.0),
        )
        s = simulate(spec, RngStream(0), 200, 0)
        assert abs(s.values[-1] - 2.0) < 1e-10

    def test_normalization_rescales_to_unit_sum(self):
        # constant weights (2, 2) normalized behave exactly like (0.5, 0.5)
        base = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(0.5), Constant(0.5))
        )
        scaled = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(2.0), Constant(2.0)),
            normalize_weights=True,
        )
        a = simulate(base, RngStream(4), 500, 0)
        b = simulate(scaled, RngStream(4), 500, 0)
        assert np.array_equal(a.values, b.values)
        # the matrix Monte Carlo draws its weights through the same rule
        assert lyapunov_top(base, 100, 10) == lyapunov_top(scaled, 100, 10)

    def test_zero_weight_sum(self):
        spec = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(1.0), Constant(-1.0)),
            normalize_weights=True,
        )
        with pytest.raises(ZeroWeightSum):
            simulate(spec, RngStream(0), 10, 0)
        with pytest.raises(ZeroWeightSum):
            lyapunov_top(spec, 100, 10)

    def test_r_init_length_mismatch(self):
        with pytest.raises(InvalidConfig):
            KestenAR(Constant(0.5), Constant(1.0), (Constant(1.0),), r_init=(0.0, 0.0))

    def test_weights_are_one_array_of_the_laws_draws(self):
        size = 1000
        a, w = FIG4_SPEC.draw_coefficients(RngStream(2).generator(), size)
        gen = RngStream(2).generator()
        assert np.array_equal(a, FIG4_SPEC.a_law.sample(gen, size))
        want = [law.sample(gen, size) for law in FIG4_SPEC.weight_laws]
        assert w.shape == (FIG4_SPEC.order, size) and w.dtype == np.float64
        assert w.flags.c_contiguous
        assert np.array_equal(w, want)

    def test_weight_draws_hold_one_law_at_a_time(self):
        # a, the (K, size) weights and one law's draws: K + 2 vectors, not the
        # K draws kept until they are copied into the weights (2K + 1)
        size, k = 10**6, FIG4_SPEC.order
        gen = RngStream(0).generator()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            FIG4_SPEC.draw_coefficients(gen, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= (k + 2) * size * 8 + 4096  # and the array objects

    def test_normalized_weights_are_divided_by_their_sums_bitwise(self):
        laws = (Uniform(-0.5, 1.0), Normal(0.3, 0.2), Exponential(0.4))
        spec = KestenAR(Exponential(0.6), Normal(0.0, 1.0), laws, normalize_weights=True)
        raw = KestenAR(Exponential(0.6), Normal(0.0, 1.0), laws)
        a, w = spec.draw_coefficients(RngStream(6).generator(), 5000)
        a_raw, w_raw = raw.draw_coefficients(RngStream(6).generator(), 5000)
        assert np.array_equal(a, a_raw)
        assert np.array_equal(w, w_raw / w_raw.sum(axis=0))
        zero = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(0.25), Constant(0.25), Constant(-0.5)),
            normalize_weights=True,
        )
        with pytest.raises(ZeroWeightSum, match="vector 0 sums to ~0"):
            zero.draw_coefficients(RngStream(0).generator(), 1000)

    def test_fig4_tail_exponent_band(self, fig4_series):
        fit = tail_exponent_ls(fig4_series, 0.02)
        assert 2.0 <= fit.exponent <= 4.0


class TestGarch11:
    def test_constant_volatility_case(self):
        spec = Garch11(omega=0.04, alpha=0.0, beta=0.0, sigma0=0.2)
        s = simulate(spec, RngStream(31), 10**6, 100)
        # variance of the sample variance ~ 2 omega^2 / n
        band = 3 * 0.04 * np.sqrt(2 / 10**6)
        assert abs(s.values.var() - 0.04) < band

    def test_volatility_satisfies_feedback_recursion(self):
        # same stream gives the mapped coefficient law the same normals
        spec = Garch11(0.01, 0.09, 0.9, sigma0=0.1)
        rng = RngStream(77)
        n = 10**5
        _returns, sigma2, _z = garch11_paths(spec, rng, n)
        a_law, e_law = garch_to_kesten(spec.omega, spec.alpha, spec.beta)
        a = a_law.sample(rng.generator(), n)
        x = np.empty(n)
        x[0] = spec.sigma0**2
        for t in range(1, n):
            x[t] = a[t - 1] * x[t - 1] + e_law.value
        assert np.max(np.abs(x - sigma2) / sigma2) < 1e-12

    def test_volatility_is_the_kesten_path_bitwise(self):
        # sigma2 runs on the scalar recursion of the mapped coefficient law
        spec = Garch11(0.01, 0.09, 0.9, sigma0=0.1)
        n = 10**4
        _returns, sigma2, _z = garch11_paths(spec, RngStream(77), n)
        kesten = KestenScalar(
            GarchCoefficient(spec.beta, spec.alpha), Constant(spec.omega), r0=spec.sigma0**2
        )
        s = simulate(kesten, RngStream(77), n - 1, 0)
        assert sigma2[0] == spec.sigma0**2
        assert np.array_equal(sigma2[1:], s.values)

    def test_returns_serially_uncorrelated(self):
        from kestenlab import acf

        spec = Garch11(0.01, 0.09, 0.9, sigma0=0.1)
        s = simulate(spec, RngStream(13), 10**6, 1000)
        assert abs(acf(s, 1).at(1)) < 0.01

    def test_overflow_for_explosive_parameters(self):
        spec = Garch11(0.01, 2.5, 1.5, sigma0=1.0)
        with pytest.raises(NumericalOverflow):
            simulate(spec, RngStream(0), 10**5, 0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidConfig):
            Garch11(0.0, 0.1, 0.8)
        with pytest.raises(InvalidConfig):
            Garch11(0.01, -0.1, 0.8)


class TestGarchToKesten:
    def test_fitted_index_mapping(self):
        a_law, e_law = garch_to_kesten(0.01, 0.09, 0.9)
        assert a_law == GarchCoefficient(0.9, 0.09)
        assert e_law == Constant(0.01)
        assert abs(a_law.mean() - 0.99) < 1e-15

    def test_no_feedback_collapses_to_constants(self):
        a_law, e_law = garch_to_kesten(1.0, 0.0, 0.0)
        assert a_law == Constant(0.0)
        assert e_law == Constant(1.0)

    def test_log_moment_near_zero(self):
        a_law, _ = garch_to_kesten(0.01, 0.1, 0.9)
        assert -0.010 < a_law.log_moment() < -0.006


class TestReturnSeries:
    def test_rejects_non_finite(self):
        from kestenlab import ReturnSeries

        with pytest.raises(ValueError, match="stationary"):
            ReturnSeries(np.array([1.0, np.nan]), "x")
        with pytest.raises(ValueError, match="stationary"):
            ReturnSeries(np.array([1.0, np.inf]), "x")

    def test_csv_round_trip_exact(self, tmp_path):
        s = simulate(FIG3_SPEC, RngStream(3), 1000, 10)
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert np.array_equal(back, s.values)
        assert path.read_text().startswith("t,r\n")
        assert "\r" not in path.read_text()

    def test_npy_round_trip_exact(self, tmp_path):
        s = simulate(FIG3_SPEC, RngStream(3), 1000, 10)
        path = tmp_path / "series.npy"
        write_series_npy(s, path)
        assert not (tmp_path / "series.npy.npy").exists()
        back = read_series_csv(path)
        assert back.dtype == np.float64 and back.tobytes() == s.values.tobytes()
        assert np.load(path, allow_pickle=False).tobytes() == s.values.tobytes()


def joined_rows_csv(header: str, *columns) -> str:
    """``processes.write_csv``'s text written as one ",".join per row."""
    out = [header + "\n"]
    for start in range(0, len(columns[0]), processes.CSV_BLOCK_ROWS):
        cells = []
        for column in columns:
            part = column[start : start + processes.CSV_BLOCK_ROWS]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            cells.append(map(repr, part))
        out.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(out)


EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.5, 0.1, 1e-7])


class TestWriteCsv:
    @pytest.mark.parametrize(
        "header, columns",
        [
            ("t,r", (range(EDGE_FLOATS.size), EDGE_FLOATS)),
            ("lag,acf", (np.arange(EDGE_FLOATS.size), EDGE_FLOATS[::-1].copy())),
            ("x,p", (EDGE_FLOATS, -EDGE_FLOATS)),
            ("t,r", (range(0), np.array([]))),
        ],
        ids=["range-and-floats", "acf-lags", "two-float-columns", "no-rows"],
    )
    @pytest.mark.parametrize("block", [3, 16_384], ids=["short-last-block", "one-block"])
    def test_bytes_equal_the_joined_rows(self, monkeypatch, tmp_path, header, columns, block):
        monkeypatch.setattr(processes, "CSV_BLOCK_ROWS", block)
        want = joined_rows_csv(header, *columns)
        text = io.StringIO()
        processes.write_csv(text, header, *columns)
        assert text.getvalue() == want
        processes.write_csv(tmp_path / "out.csv", header, *columns)
        assert (tmp_path / "out.csv").read_bytes() == want.encode()

    def test_many_blocks_of_a_path(self):
        s = simulate(FIG3_SPEC, RngStream(3), 40_000, 10)  # two full blocks and a short one
        text = io.StringIO()
        processes.write_csv(text, "t,r", range(len(s)), s.values)
        assert text.getvalue() == joined_rows_csv("t,r", range(len(s)), s.values)


ROUND_TRIP_SPECS = {
    "inverse": InverseMultiplier(Uniform(0.0, 1.0), Normal(0.0, 1.0)),
    "scalar": KestenScalar(Exponential(0.55), Normal(0.0, 0.0065), r0=0.1),
    "ar": KestenAR(
        Exponential(0.6),
        Normal(0.0, 0.007),
        (Uniform(0.7, 0.8), Uniform(0.1, 0.2), Uniform(0.0, 0.2)),
        normalize_weights=True,
        r_init=(0.0, 0.1, 0.2),
    ),
    "garch": Garch11(0.01, 0.09, 0.9, sigma0=0.1),
}


class TestSpecConfig:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS.values(), ids=list(ROUND_TRIP_SPECS))
    def test_round_trip(self, spec):
        assert spec_from_config(spec.to_config()) == spec

    def test_every_kind_has_a_round_trip_case(self):
        # a spec class left out of the reader's kind table fails its round trip
        specs = set(KindTagged.__subclasses__()) - {CoefficientLaw}
        assert {type(spec) for spec in ROUND_TRIP_SPECS.values()} == specs
        assert specs == set(typing.get_args(ProcessSpec))

    # every law kind, each with every field set, and every spec kind
    FUZZ_SEEDS = [
        Constant(1.0).to_config(),
        GarchCoefficient(0.9, 0.09).to_config(),
        *(spec.to_config() for spec in ROUND_TRIP_SPECS.values()),
    ]

    @settings(max_examples=300, deadline=None)
    @given(config=st.sampled_from(FUZZ_SEEDS).flatmap(fuzzed))
    def test_fuzzed_config_reads_back_or_is_invalid(self, config):
        for read in (law_from_config, spec_from_config):
            try:
                obj = read(config)
            except InvalidConfig:
                continue
            json.dumps(obj.to_config(), allow_nan=False)  # every value finite
            assert read(obj.to_config()) == obj

    def test_digest_stable_and_distinct(self):
        a = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065))
        b = KestenScalar(Exponential(0.56), Normal(0.0, 0.0065))
        assert spec_digest(a) == spec_digest(a)
        assert spec_digest(a) != spec_digest(b)

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            spec_from_config({"kind": "ornstein"})


class TestBurnInInsensitivity:
    def test_disjoint_windows_agree(self, fig3_series):
        # Exponent sampling error for a rank-based log-log fit is ~mu*sqrt(2/n_tail);
        # the OLS slope stderr understates it badly (CCDF points are dependent).
        half = len(fig3_series) // 2
        f1 = tail_exponent_ls(fig3_series.values[:half], 0.02)
        f2 = tail_exponent_ls(fig3_series.values[half:], 0.02)
        se1 = f1.exponent * np.sqrt(2.0 / f1.n_tail)
        se2 = f2.exponent * np.sqrt(2.0 / f2.n_tail)
        assert abs(f1.exponent - f2.exponent) < 2 * np.hypot(se1, se2)


def _loop_path(a: list, w: list, e: list, r_init: tuple) -> np.ndarray:
    """r_t = a_t * sum_k w_kt r_{t-k} + e_t, one step at a time in Python floats."""
    state, out = list(r_init), []
    for t in range(len(a)):
        r = a[t] * sum(w[j][t] * state[j] for j in range(len(state))) + e[t]
        out.append(r)
        state = [r] + state[:-1]
    return np.array(out)


def _path_and_loop(spec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """simulate's n-step path of spec, and the plain loop's over the same draws."""
    ar = as_ar(spec)
    gen = RngStream(5).generator()
    a, w = ar.draw_coefficients(gen, n)
    e = ar.e_law.sample(gen, n)
    ref = _loop_path(a.tolist(), w.tolist(), e.tolist(), ar.r_init)
    return simulate(spec, RngStream(5), n, 0).values, ref


def _dense_log_norms(ar: KestenAR, gen, horizons: tuple, trials: int) -> dict:
    """log ||A_t ... A_1|| (inf-norm) per trial at each horizon, from dense
    (trials, K, K) matrices multiplied and renormalized every step."""
    k = ar.order
    P = np.broadcast_to(np.eye(k), (trials, k, k)).copy()
    A = np.zeros((trials, k, k))
    A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    log_norm, out = np.zeros(trials), {}
    for step in range(1, max(horizons) + 1):
        a, w = ar.draw_coefficients(gen, trials)
        A[:, 0, :] = (a * w).T
        P = A @ P
        norm = np.abs(P).sum(axis=2).max(axis=1)
        log_norm += np.log(norm)
        P /= norm[:, None, None]
        if step in horizons:
            out[step] = log_norm.copy()
    return out


@pytest.fixture
def small_chunks(monkeypatch):
    # chunks of 3 steps: a chunk straddles the end of a block of 4 or of 1024 steps
    monkeypatch.setattr(processes, "PATH_CHUNK", 3)


class TestCompanionKernel:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, small_chunks):
        # blocks of 4 steps: hundreds of blocks per path, and K = 6 longer than a block
        monkeypatch.setattr(processes, "PATH_BLOCK", 4)

    @pytest.mark.parametrize(
        "spec",
        [
            FIG3_SPEC,
            KestenScalar(Uniform(0.0, 1.9), Normal(0.0, 1.0), r0=5.0),
            FIG4_SPEC,
            KestenAR(
                Exponential(0.9), Normal(0.3, 1.0), (Uniform(0.0, 0.3),) * 6,
                r_init=(1.0, -2.0, 3.0, 0.5, 0.0, 4.0),
            ),
        ],
        ids=["scalar-fig3", "scalar-slow-mixing", "order-3-fig4", "order-6"],
    )
    def test_path_matches_plain_loop(self, spec):
        path, ref = _path_and_loop(spec, 3001)
        assert np.max(np.abs(path - ref)) <= 1e-12 * ref.std()

    @pytest.mark.parametrize("n", [1, 3, 4, 5])
    @pytest.mark.parametrize("spec", [FIG3_SPEC, FIG4_SPEC], ids=["scalar", "order-3"])
    def test_short_path_matches_plain_loop(self, spec, n):
        # one step, part of a chunk, one block, and a block and a step
        path, ref = _path_and_loop(spec, n)
        assert np.max(np.abs(path - ref)) <= 1e-12 * np.abs(ref).max()

    def test_garch_volatility_matches_plain_loop(self):
        spec = Garch11(0.01, 0.09, 0.9, sigma0=0.1)
        n = 3001
        _returns, sigma2, z = garch11_paths(spec, RngStream(5), n)
        ref = [spec.sigma0**2]
        for zt in z[:-1].tolist():
            ref.append((spec.beta + spec.alpha * zt * zt) * ref[-1] + spec.omega)
        ref = np.array(ref)
        assert np.max(np.abs(sigma2 - ref)) <= 1e-12 * ref.std()

    @pytest.mark.parametrize("spec", [FIG3_SPEC, FIG4_SPEC], ids=["scalar", "order-3"])
    def test_lyapunov_matches_dense_product(self, spec):
        t, trials = 200, 16
        est = lyapunov_top(spec, t, trials, RngStream(3))
        g = _dense_log_norms(as_ar(spec), RngStream(3).generator(), (t,), trials)[t] / t
        assert est.gamma_hat == pytest.approx(g.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(g.std(ddof=1) / np.sqrt(trials), rel=1e-10)

    @pytest.mark.parametrize("trials", [10, 5000])
    @pytest.mark.parametrize(
        "spec",
        [
            KestenAR(Constant(1e200), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Constant(1e308), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Uniform(0.0, 1e-60), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Exponential(0.6), Constant(0.0), (Normal(0.0, 1.0),) * 3),
        ],
        ids=["constant-1e200", "constant-1e308", "uniform-1e-60", "signed-weights"],
    )
    def test_guarded_product_matches_dense_product(self, spec, trials):
        # renormalized every step or only when the guard fires, the log norms agree
        horizons = (100, 200)
        got = _batched_log_norms(spec, RngStream(3).generator(), horizons, trials)
        ref = _dense_log_norms(spec, RngStream(3).generator(), horizons, trials)
        for t in horizons:
            assert np.all(np.abs(got[t] - ref[t]) <= 1e-12 * np.maximum(1.0, np.abs(ref[t])))


def _unchunked_log_norms(ar: KestenAR, gen, horizons: tuple, trials: int) -> dict:
    """The matrix Monte Carlo as it was before the ring of row buffers and the
    column chunks: one new (K, trials) top row per step, every trial at once,
    under the same renormalization guard."""
    steps = max(horizons)
    rows = list(np.repeat(np.eye(ar.order)[:, :, None], trials, axis=2))
    acc = np.zeros(trials)
    out = {}
    with np.errstate(all="ignore"):
        for step in range(1, steps + 1):
            a, w = ar.draw_coefficients(gen, trials)
            top_row = w[0] * rows[0]
            for wj, row in zip(w[1:], rows[1:]):
                top_row += wj * row
            rows = [a * top_row, *rows[:-1]]
            top = np.abs(rows[0]).max(axis=0)
            if step in horizons or not RENORM_LO <= top.min() <= top.max() <= RENORM_HI:
                s = np.max([np.abs(row).sum(axis=0) for row in rows], axis=0)
                if not np.isfinite(s).all():
                    raise TheoryError(f"matrix product norm is not finite at step {step}")
                if np.any(s <= 0.0):
                    raise TheoryError(f"matrix product collapsed to zero norm at step {step}")
                acc += np.log(s)
                for row in rows:
                    row /= s
            if step in horizons:
                out[step] = acc.copy()
    return out


def _outcome(log_norms, spec, horizons, trials):
    try:
        return log_norms(spec, RngStream(8).generator(), horizons, trials)
    except TheoryError as err:
        return str(err)


class TestChunkedProduct:
    # _batched_log_norms once ran each step over 8192-trial column chunks of a
    # ring of row buffers; the trial counts straddle that chunk, and the
    # product must match the reference bit for bit at each of them
    @pytest.mark.parametrize(
        "trials",
        [10, 8191, 8193, 16387],
        ids=["one-short-chunk", "chunk-1", "chunk+1", "2chunk+3"],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            FIG4_SPEC,
            as_ar(FIG3_SPEC),
            KestenAR(Constant(1e200), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Uniform(0.0, 1e-60), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Exponential(1e20), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Constant(1e200), Constant(0.0), (Constant(1.0),)),
            KestenAR(
                Exponential(0.6), Constant(0.0), (Uniform(-0.5, 1.0), Normal(0.3, 0.2)),
                normalize_weights=True,
            ),
            KestenAR(Constant(0.0), Constant(0.0), FIG4_SPEC.weight_laws),
            KestenAR(Constant(1e308), Constant(0.0), (Constant(2.0),)),
        ],
        ids=[
            "order-3-fig4", "order-1-fig3", "constant-1e200", "uniform-1e-60",
            "exponential-1e20", "order-1-constant-1e200", "normalized-weights", "zero-norm", "inf-norm",
        ],
    )
    def test_log_norms_match_the_unchunked_product_bitwise(self, spec, trials):
        horizons = (7, 40)
        got = _outcome(_batched_log_norms, spec, horizons, trials)
        want = _outcome(_unchunked_log_norms, spec, horizons, trials)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.keys() == want.keys()
            for t in horizons:
                assert np.array_equal(got[t], want[t])

    def test_zero_and_inf_norm_cases_raise_in_the_reference(self):
        # the last two cases above compare messages, not log norms
        assert _outcome(_unchunked_log_norms, KestenAR(
            Constant(0.0), Constant(0.0), FIG4_SPEC.weight_laws
        ), (7, 40), 10) == "matrix product collapsed to zero norm at step 3"
        assert _outcome(_unchunked_log_norms, KestenAR(
            Constant(1e308), Constant(0.0), (Constant(2.0),)
        ), (7, 40), 10) == "matrix product norm is not finite at step 1"


class TestKernelAtItsOwnGeometry:
    # PATH_BLOCK and PATH_CHUNK as shipped: TestCompanionKernel patches in small ones
    BLOCK, CHUNK = 1024, 64
    N = 3 * BLOCK + 37  # three full blocks and a short one that ends inside the first chunk

    def test_constants_are_the_shipped_ones(self):
        assert (processes.PATH_BLOCK, processes.PATH_CHUNK) == (self.BLOCK, self.CHUNK)

    @pytest.mark.parametrize("spec", [FIG3_SPEC, FIG4_SPEC], ids=["scalar", "order-3"])
    def test_path_matches_plain_loop(self, spec):
        path, ref = _path_and_loop(spec, self.N)
        assert np.max(np.abs(path - ref)) <= 1e-12 * ref.std()

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one-row", "K=3"])
    @pytest.mark.parametrize(
        "start, m", [(0, 64), (0, 40), (64, 17), (960, 64)],
        ids=["first-chunk", "across-the-short-block", "short-chunk", "last-chunk"],
    )
    def test_gather_reads_each_blocks_step(self, lead, start, m):
        # buf[..., i, b] = x[..., start + i + BLOCK * b]; past the short block's
        # end buf keeps what it held, and the tile is reused for each lead row
        x = np.random.default_rng(0).standard_normal((*lead, self.N))
        blocks = -(-self.N // self.BLOCK)
        buf = np.full((*lead, self.CHUNK, blocks), np.nan)
        tile = np.empty((self.N // self.BLOCK, self.CHUNK))
        processes._gather(x, self.BLOCK, start, buf[..., :m, :], tile)
        i, b = np.meshgrid(np.arange(m), np.arange(blocks), indexing="ij")
        t = start + i + self.BLOCK * b
        want = np.where(t < self.N, x[..., np.minimum(t, self.N - 1)], np.nan)
        np.testing.assert_array_equal(buf[..., :m, :], want)
        assert np.isnan(buf[..., m:, :]).all()


class TestScalarKernelHasNoWeightRow:
    # a scalar spec and GARCH's sigma2 run the kernel with no weight row; their
    # order-1 embeddings multiply every step by a weight of exactly 1.0
    @staticmethod
    def embedding(spec: KestenScalar) -> KestenAR:
        return KestenAR(spec.a_law, spec.e_law, (Constant(1.0),), r_init=(spec.r0,))

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 3 * 1024 + 37])
    def test_scalar_path_is_the_unit_weight_path_bitwise(self, n):
        spec = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065), r0=0.3)
        path = simulate(spec, RngStream(9), n, 0).values
        assert path.tobytes() == simulate(self.embedding(spec), RngStream(9), n, 0).values.tobytes()

    def test_rerun_block_is_the_unit_weight_path_bitwise(self, monkeypatch):
        # block 0's unit response underflows, and a start of 1e299 shows past what
        # it keeps, so block 0 is rerun from that start: one call more than two passes
        calls = []
        run_blocks = processes._run_blocks
        monkeypatch.setattr(
            processes, "_run_blocks", lambda *args, **kw: calls.append(1) or run_blocks(*args, **kw)
        )
        spec = KestenScalar(Uniform(0.0, 0.01), Normal(0.0, 1.0), r0=1e299)
        n = 3 * 1024 + 37
        path = simulate(spec, RngStream(3), n, 0).values
        assert len(calls) == 3
        assert path.tobytes() == simulate(self.embedding(spec), RngStream(3), n, 0).values.tobytes()
        assert len(calls) == 6

    def test_garch_volatility_is_the_unit_weight_path_bitwise(self):
        spec = Garch11(0.01, 0.09, 0.9, sigma0=0.1)
        n = 3 * 1024 + 37
        _returns, sigma2, z = garch11_paths(spec, RngStream(77), n)
        zp, ones = z[:-1], np.ones((1, n - 1))
        a = spec.beta + spec.alpha * zp * zp
        weighted = processes._companion_path(a, ones, spec.omega * ones[0], (spec.sigma0**2,))
        assert sigma2[1:].tobytes() == weighted.tobytes()


@pytest.mark.parametrize(
    "spec, n, step",
    [
        (KestenScalar(Constant(2.0), Constant(1.0), r0=1.0), 5000, 995),
        (Garch11(0.01, 2.5, 1.5, sigma0=1.0), 10**5, 626),
        (
            KestenAR(
                Constant(1.5), Constant(1.0), (Constant(0.9), Constant(0.9)),
                r_init=(1.0, 1.0),
            ),
            5000,
            982,
        ),
    ],
    ids=["scalar", "garch", "order-2"],
)
@pytest.mark.usefixtures("small_chunks")
def test_overflow_names_its_step(spec, n, step):
    # the first step out of range, and no numpy warning from the inf and NaN past it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match=f" at step {step};"):
            simulate(spec, RngStream(0), n, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
def test_a_step_not_inside_the_limit_is_named(bad):
    # NaN compares False both ways, so it is outside like inf and the limit itself
    path = np.linspace(-1e299, 1e299, 40)
    path[[0, -1]] = np.nextafter(1e300, 0.0), -np.nextafter(1e300, 0.0)
    assert processes._checked(path) is path
    path[17] = bad
    path[23] = np.nan  # only the first step out is named
    with pytest.raises(NumericalOverflow) as exc:
        processes._checked(path)
    assert str(exc.value).startswith(
        "the recursion exceeded 1e+300 in absolute value at step 17; "
    )


@pytest.mark.parametrize("n", [1500, 3000])
@pytest.mark.usefixtures("small_chunks")
def test_tiny_start_under_an_explosive_coefficient_matches_plain_loop(n):
    # 2^1024 overflows, so the first block's response to a unit start is inf,
    # yet 1e-300 * 2^1024 is about 1.8e8: the path leaves 1e300 only at step 1993
    ref = _loop_path([2.0] * n, [[1.0] * n], [0.0] * n, (1e-300,))
    spec = KestenScalar(Constant(2.0), Constant(0.0), r0=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n < 1993:
            assert np.array_equal(simulate(spec, RngStream(0), n, 0).values, ref)
        else:
            assert int(np.argmax(np.abs(ref) >= 1e300)) == 1993
            with pytest.raises(NumericalOverflow, match=" at step 1993;"):
                simulate(spec, RngStream(0), n, 0)


@pytest.mark.parametrize("a", [0.49, 0.4])
@pytest.mark.usefixtures("small_chunks")
def test_huge_start_decaying_without_noise_matches_plain_loop(a):
    # the first block's response to a unit start, a^1024, underflows (0.49^1024
    # is subnormal, 0.4^1024 is 0), yet 1e300 times it still shows in the path:
    # composed from the block ends, the path read 0 from step 1024 at a = 0.4
    n = 3000
    ref = _loop_path([a] * n, [[1.0] * n], [0.0] * n, (1e300,))
    s = simulate(KestenScalar(Constant(a), Constant(0.0), r0=1e300), RngStream(0), n, 0)
    assert ref[1024] > 0.0
    assert np.array_equal(s.values, ref)


def test_zero_path_under_an_explosive_coefficient_stays_zero():
    # a zero state adds nothing to the next block's start, though the block's
    # response to a unit start overflows
    s = simulate(KestenScalar(Constant(2.0), Constant(0.0)), RngStream(0), 5000, 0)
    assert not s.values.any()


SCALAR = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ReturnSeries(np.array([1.0, np.nan]), "digest"),
        lambda: simulate(SCALAR, RngStream(0), 0),
        lambda: simulate(object(), RngStream(0), 10),
        lambda: garch11_paths(SCALAR, RngStream(0), 10),
        lambda: TailFit(0.02, 3.0, 0.0, 5, 0.1),
        lambda: AcfResult(np.arange(2), np.array([1.0, np.nan]), "raw"),
        lambda: CramerSolution(0.0, (1.0, 1.0), 0.0, "closed-form"),
        lambda: LyapunovEstimate(np.inf, 100, 10, 0.0),
        lambda: RngStream(-1),
        lambda: returns_from_prices([1.0]),
        lambda: expected_acf(Exponential(0.55), -1),
        lambda: inverse_tail_prediction(Uniform(0.5, 1.5), 0.0),
    ],
    ids=[
        "series", "simulator-n", "unknown-spec", "garch-paths-spec", "tail-fit", "acf-nan", "cramer", "lyapunov",
        "seed", "one-price", "negative-lag", "tail-at-zero",
    ],
)
def test_invariant_errors_are_toolkit_value_errors(build):
    with pytest.raises(KestenLabError) as info:
        build()
    assert isinstance(info.value, ValueError)
