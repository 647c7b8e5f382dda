import hashlib
import inspect
import io
import json
import math
import os
import sys
import threading
import tracemalloc
import typing
import warnings
from pathlib import Path

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
import kestenlab
from kestenlab import processes
from kestenlab.distributions import KindTagged
from kestenlab.errors import (
    DegenerateSpec,
    InvalidConfig,
    KestenLabError,
    NumericalOverflow,
    ParseError,
    TheoryError,
    ZeroWeightSum,
)
from kestenlab.theory import RENORM_HI, RENORM_LO, _batched_log_norms

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestInverseMultiplier:
    def test_constant_laws(self):
        spec = InverseMultiplier(Constant(0.0), Constant(1.0))
        s = simulate(spec, RngStream(0), 3, 0)
        assert s.values.tolist() == [1.0, 1.0, 1.0]

    def test_exact_unit_tail(self):
        # P(1/(1-U) > 10) = P(U > 0.9) = 0.1; 3-sigma binomial band ~0.0009
        spec = InverseMultiplier(Uniform(0.0, 1.0), Constant(1.0))
        s = simulate(spec, RngStream(5), 10**6, 0)
        assert abs((s.values > 10).mean() - 0.1) < 0.003

    def test_degenerate_unit_coefficient(self):
        # refused up front, also when the law only collapses to a == 1
        for a_law in (Constant(1.0), GarchCoefficient(1.0, 0.0)):
            with pytest.raises(DegenerateSpec, match="a == 1 surely"):
                simulate(
                    InverseMultiplier(a_law, Normal(0.0, 1.0)), RngStream(0), 10, 0
                )

    def test_near_one_draws_are_resampled(self):
        # half of this sliver sits within 1e-12 of 1 and must be redrawn
        spec = InverseMultiplier(Uniform(1 - 2e-12, 1 + 2e-12), Constant(1.0))
        s = simulate(spec, RngStream(3), 1000, 0)
        assert s.resamples > 0
        assert np.isfinite(s.values).all()

    def test_concentrated_at_one_fails(self):
        spec = InverseMultiplier(Uniform(1 - 4e-13, 1 + 4e-13), Constant(1.0))
        with pytest.raises(DegenerateSpec):
            simulate(spec, RngStream(3), 100, 0)

    def test_fig2_tail_exponent_near_one(self, fig2_series):
        fit = tail_exponent_ls(fig2_series)
        assert abs(fit.exponent - 1.0) < 0.15

    @pytest.mark.parametrize("sd", [1e300, 1e306], ids=["past-the-limit", "past-float64"])
    def test_overflow_names_its_step_and_not_stationarity(self, sd):
        # the path takes the overflow rule every path takes, past 1e300 and past the
        # float range alike, with no numpy warning; the message names the step and
        # not stationarity, which an iid process does not have
        spec = InverseMultiplier(Uniform(0.0, 2.0), Normal(0.0, sd))
        gen = RngStream(0).generator()
        a, e = spec.a_law.sample(gen, 10**5), spec.e_law.sample(gen, 10**5)
        with np.errstate(over="ignore"):
            step = int(np.argmax(np.abs(e / (1.0 - a)) >= 1e300))
        with pytest.raises(NumericalOverflow) as exc:
            simulate(spec, RngStream(0), 10**5, 0)
        assert str(exc.value) == (
            f"the path e / (1 - a) exceeded 1e+300 in absolute value at step {step}; "
            "rescale the e law"
        )


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
        assert lyapunov_top(base, 100, 10, RngStream(0)) == lyapunov_top(
            scaled, 100, 10, RngStream(0)
        )

    def test_zero_weight_sum(self):
        spec = KestenAR(
            Constant(0.5), Constant(1.0), (Constant(1.0), Constant(-1.0)),
            normalize_weights=True,
        )
        with pytest.raises(ZeroWeightSum):
            simulate(spec, RngStream(0), 10, 0)
        with pytest.raises(ZeroWeightSum):
            lyapunov_top(spec, 100, 10, RngStream(0))

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
        _returns, sigma2, _z = garch11_paths(spec, rng, n, 0)
        a_law, e_law = spec.feedback
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
        _returns, sigma2, _z = garch11_paths(spec, RngStream(77), n, 0)
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
        for params in ((0.0, 0.1, 0.8), (0.01, -0.1, 0.8), (math.inf, 0.1, 0.8), (0.01, math.nan, 0.8)):
            with pytest.raises(InvalidConfig):
                Garch11(*params)


@pytest.mark.parametrize("seed", [5, 131])
@pytest.mark.parametrize("burn_in", [0, 10_000])
def test_simulate_draws_the_garch_returns_as_garch11_paths_does(seed, burn_in):
    spec = Garch11(0.01, 0.09, 0.9)
    returns = garch11_paths(spec, RngStream(seed), 5000, burn_in)[0]
    assert simulate(spec, RngStream(seed), 5000, burn_in).values.tobytes() == returns.tobytes()


def test_burn_in_horizon_trials_and_stream_come_from_the_caller():
    # the config states burn_in's default and the lyapunov analysis its horizon
    # and trials; a stream default would be one seed shared by every call
    for function, names in (
        (simulate, ["burn_in"]),
        (garch11_paths, ["burn_in"]),
        (lyapunov_top, ["t_horizon", "trials", "rng"]),
    ):
        params = inspect.signature(function).parameters
        assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []


class TestGarchFeedback:
    def test_fitted_index_mapping(self):
        a_law, e_law = Garch11(0.01, 0.09, 0.9).feedback
        assert a_law == GarchCoefficient(0.9, 0.09)
        assert e_law == Constant(0.01)
        assert abs(a_law.mean() - 0.99) < 1e-15

    def test_no_feedback_collapses_to_constants(self):
        a_law, e_law = Garch11(1.0, 0.0, 0.0).feedback
        assert a_law == Constant(0.0)
        assert e_law == Constant(1.0)

    def test_log_moment_near_zero(self):
        a_law, _ = Garch11(0.01, 0.1, 0.9).feedback
        assert -0.010 < a_law.log_moment() < -0.006


class TestReturnSeries:
    def test_rejects_non_finite(self):
        from kestenlab import ReturnSeries

        with pytest.raises(ValueError, match="^return series contains NaN or inf$"):
            ReturnSeries(np.array([1.0, np.nan]), "x")
        with pytest.raises(ValueError, match="^return series contains NaN or inf$"):
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


class TestSeriesCache:
    """The series cache: write_series_csv stores the values it writes under the
    size and sha256 of its text, and read_series_csv returns them for a file of
    exactly those bytes instead of parsing it.  The reader never stores."""

    @pytest.fixture(autouse=True)
    def entries(self, tmp_path, monkeypatch) -> Path:
        """This test's own, empty cache root; returns its entry directory."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return tmp_path / "cache" / "kestenlab" / kestenlab.__version__

    @pytest.fixture
    def parses(self, monkeypatch) -> list:
        """The path of each file read_series_csv parses."""
        calls, real = [], processes.read_csv_column
        monkeypatch.setattr(
            processes, "read_csv_column", lambda path, *a: calls.append(path) or real(path, *a)
        )
        return calls

    @staticmethod
    def _names(entries: Path) -> list[str]:
        return sorted(os.listdir(entries)) if entries.exists() else []

    @staticmethod
    def _key(path: Path) -> str:
        raw = path.read_bytes()
        return f"{len(raw)}-{hashlib.sha256(raw).hexdigest()}.npy"

    def test_a_hit_equals_a_cold_parse_bit_for_bit(self, tmp_path, monkeypatch, entries, parses):
        path = tmp_path / "r.csv"
        write_series_csv(ReturnSeries(EDGE_FLOATS, "x"), path)
        assert self._names(entries) == [self._key(path)]
        hit = read_series_csv(path)
        assert parses == []
        monkeypatch.setenv("XDG_CACHE_HOME", str(path))  # a file: no cache
        cold = read_series_csv(path)
        assert parses == [path]
        assert hit.tobytes() == cold.tobytes() == EDGE_FLOATS.tobytes()

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda entry: entry.write_bytes(entry.read_bytes()[:-8]),
            lambda entry: np.save(entry, EDGE_FLOATS[:-1]),
            lambda entry: np.save(entry, np.zeros(EDGE_FLOATS.size, np.float32)),
            lambda entry: np.save(entry, EDGE_FLOATS.astype(object), allow_pickle=True),
            lambda entry: entry.write_bytes(b"\x93NUMPY garbage"),
        ],
        ids=["truncated", "one-value-short", "float32", "pickled", "garbage"],
    )
    def test_a_bad_entry_falls_back_to_the_parse(self, tmp_path, entries, parses, spoil):
        path = tmp_path / "r.csv"
        write_series_csv(ReturnSeries(EDGE_FLOATS, "x"), path)
        (entry,) = entries.iterdir()
        spoil(entry)
        spoiled = entry.read_bytes()
        for _ in range(2):
            assert read_series_csv(path).tobytes() == EDGE_FLOATS.tobytes()
        assert parses == [path, path]
        assert entry.read_bytes() == spoiled  # the reader never stores

    def test_a_file_with_one_byte_edited_misses(self, tmp_path, entries, parses):
        path = tmp_path / "r.csv"
        write_series_csv(ReturnSeries(EDGE_FLOATS, "x"), path)
        stored = self._names(entries)
        path.write_bytes(path.read_bytes().replace(b"1e-05", b"2e-05"))  # the same size
        assert read_series_csv(path).tolist() == [2e-05 if v == 1e-05 else v for v in EDGE_FLOATS]
        assert parses == [path]
        assert self._names(entries) == stored

    def test_the_reader_never_stores(self, tmp_path, entries, parses):
        # the bytes write_series_csv would write, but written by hand: no entry
        path = tmp_path / "r.csv"
        path.write_text("t,r\n0,0.01\n1,-0.02\n")
        for _ in range(2):
            assert read_series_csv(path).tolist() == [0.01, -0.02]
        assert parses == [path, path]
        assert self._names(entries) == []

    def test_a_file_of_no_stored_size_is_not_hashed(self, tmp_path, monkeypatch, entries):
        write_series_csv(ReturnSeries(EDGE_FLOATS, "x"), tmp_path / "r.csv")
        hashed, real = [], processes.hashlib.sha256
        monkeypatch.setattr(processes.hashlib, "sha256", lambda *a: hashed.append(a) or real(*a))
        path = tmp_path / "other.csv"
        path.write_text("t,r\n0,0.01\n")
        assert read_series_csv(path).tolist() == [0.01]
        assert hashed == []
        assert read_series_csv(tmp_path / "r.csv").tobytes() == EDGE_FLOATS.tobytes()
        assert len(hashed) == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ("t,x\n0,1.5\n", InvalidConfig),
            ("t,r\n0,1.5\n1,nan\n", ParseError),
            ("t,r\n", ParseError),
            ("t,r\n0,1.5\n1,\xff\n", ParseError),
        ],
        ids=["header", "nan", "no-rows", "not-utf8"],
    )
    def test_a_file_that_fails_a_check_is_never_stored(self, tmp_path, entries, text, error):
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("latin-1"))
        for _ in range(2):
            with pytest.raises(error) as exc:
                read_series_csv(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert self._names(entries) == []

    def test_pruning_keeps_the_most_recently_used_entries(self, tmp_path, entries):
        keys = []
        for i in range(processes.CACHE_ENTRIES + 4):
            path = tmp_path / f"r{i}.csv"
            write_series_csv(ReturnSeries(np.array([float(i)]), "x"), path)
            keys.append(self._key(path))
            os.utime(entries / keys[-1], ns=(i + 1, i + 1))  # distinct times, oldest first
        assert self._names(entries) == sorted(keys[4:])
        assert read_series_csv(tmp_path / "r4.csv").tolist() == [4.0]  # a hit is a use
        write_series_csv(ReturnSeries(np.array([-1.0]), "x"), tmp_path / "new.csv")
        kept = self._names(entries)
        assert len(kept) == processes.CACHE_ENTRIES
        assert keys[4] in kept and keys[5] not in kept

    def test_pruning_skips_a_file_it_cannot_remove(self, tmp_path, monkeypatch, entries):
        for i in range(processes.CACHE_ENTRIES):
            write_series_csv(ReturnSeries(np.array([float(i)]), "x"), tmp_path / f"r{i}.csv")
            os.utime(entries / self._key(tmp_path / f"r{i}.csv"), ns=(i + 3, i + 3))
        for i, name in enumerate(["old0.npy", "old1.npy"]):
            np.save(entries / name, np.zeros(1))
            os.utime(entries / name, ns=(i + 1, i + 1))
        os.symlink(tmp_path / "gone", entries / "gone.npy")  # listed, but its stat fails
        # the next put prunes r0, then old1, then old0; r0 will not go
        stuck = entries / self._key(tmp_path / "r0.csv")
        real = os.unlink

        def unlink(path, *a, **k):
            if Path(path) == stuck:
                raise FileNotFoundError(path)  # as if another process removed it
            return real(path, *a, **k)

        monkeypatch.setattr(processes.os, "unlink", unlink)
        write_series_csv(ReturnSeries(np.array([-1.0]), "x"), tmp_path / "new.csv")
        kept = self._names(entries)
        assert len(kept) == processes.CACHE_ENTRIES + 2
        assert {stuck.name, "gone.npy", self._key(tmp_path / "new.csv")} <= set(kept)
        assert "old0.npy" not in kept and "old1.npy" not in kept

    def test_concurrent_writers_and_readers_read_their_own_values(self, tmp_path, entries):
        # more threads than cores, more series than entries: puts, prunes and
        # hits interleave, every read still returns what its file holds, and
        # the last prune leaves the bound
        def work(worker: int) -> None:
            for i in range(12):
                values = np.array([float(worker), float(i), 0.5])
                path = tmp_path / f"w{worker}-{i}.csv"
                write_series_csv(ReturnSeries(values, "x"), path)
                for _ in range(2):
                    if read_series_csv(path).tobytes() != values.tobytes():
                        wrong.append(path)

        wrong: list = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(os.listdir(entries)) == processes.CACHE_ENTRIES

    def test_an_unusable_cache_changes_nothing(self, tmp_path, monkeypatch, parses):
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        path = tmp_path / "r.csv"
        for setup in (
            lambda: monkeypatch.setenv("XDG_CACHE_HOME", str(path)),  # a file
            lambda: (monkeypatch.delenv("XDG_CACHE_HOME"), monkeypatch.setattr(Path, "home", no_home)),
        ):
            setup()
            write_series_csv(ReturnSeries(EDGE_FLOATS, "x"), path)
            assert read_series_csv(path).tobytes() == EDGE_FLOATS.tobytes()
        assert parses == [path, path]
        assert os.listdir(tmp_path) == ["r.csv"]


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


def test_each_kind_states_its_feedback_laws_and_companion_form():
    # (feedback, companion) per spec: the scalar recursion's (a_law, e_law), and the
    # order-K form, None on a kind without one
    a, e = Exponential(0.55), Normal(0.0, 1.0)
    ar = KestenAR(a, e, (Uniform(0.7, 0.8), Uniform(0.1, 0.2)))
    facts = [
        (InverseMultiplier(Uniform(0.0, 1.0), e), (None, None)),
        (KestenScalar(a, e, 0.25), ((a, e), KestenAR(a, e, (Constant(1.0),), False, (0.25,)))),
        (ar, (None, ar)),
        (Garch11(0.01, 0.09, 0.9), ((GarchCoefficient(0.9, 0.09), Constant(0.01)), None)),
        (Garch11(0.01, 0.0, 0.9), ((Constant(0.9), Constant(0.01)), None)),
    ]
    for spec, fact in facts:
        assert (spec.feedback, spec.companion) == fact
    assert ar.companion is ar
    assert {type(spec) for spec, _ in facts} == set(typing.get_args(ProcessSpec))


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
        acc = w[0][t] * state[0]  # summed left to right, as companion_step sums
        for j in range(1, len(state)):
            acc += w[j][t] * state[j]
        r = a[t] * acc + e[t]
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


def _dense_log_norms(
    ar: KestenAR, gen, horizons: tuple, trials: int, absolute: bool = False
) -> dict:
    """log ||A_t ... A_1|| (inf-norm) per trial at each horizon, from dense
    (trials, K, K) matrices multiplied and renormalized every step; with
    ``absolute``, of the product of the entrywise |A_t| on the same draws."""
    k = ar.order
    P = np.broadcast_to(np.eye(k), (trials, k, k)).copy()
    A = np.zeros((trials, k, k))
    A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    log_norm, out = np.zeros(trials), {}
    for step in range(1, max(horizons) + 1):
        a, w = ar.draw_coefficients(gen, trials)
        A[:, 0, :] = np.abs(a * w).T if absolute else (a * w).T
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
        _returns, sigma2, z = garch11_paths(spec, RngStream(5), n, 0)
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
        "spec, seed",
        [
            (KestenAR(Constant(1e200), Constant(0.0), FIG4_SPEC.weight_laws), 3),
            (KestenAR(Constant(1e308), Constant(0.0), FIG4_SPEC.weight_laws), 3),
            (KestenAR(Uniform(0.0, 1e-60), Constant(0.0), FIG4_SPEC.weight_laws), 3),
            *[(KestenAR(Exponential(0.6), Constant(0.0), (Normal(0.0, 1.0),) * 3), seed)
              for seed in range(12)],
        ],
        ids=["constant-1e200", "constant-1e308", "uniform-1e-60",
             *[f"signed-weights-seed{seed}" for seed in range(12)]],
    )
    def test_guarded_product_matches_dense_product(self, spec, seed, trials):
        # renormalized every step or only when the guard fires, the log norms agree.
        # Two exact summation orders round apart by the terms that cancel, so the
        # bound scales with the conditioning: log ||prod |A_t||| - log ||prod A_t||,
        # at least 1 and exactly 0 before that floor for nonnegative laws
        horizons = (100, 200)
        got = _batched_log_norms(spec, RngStream(seed).generator(), horizons, trials)
        ref = _dense_log_norms(spec, RngStream(seed).generator(), horizons, trials)
        ref_abs = _dense_log_norms(spec, RngStream(seed).generator(), horizons, trials, True)
        for t in horizons:
            conditioning = np.maximum(1.0, ref_abs[t] - ref[t])
            bound = 1e-12 * np.maximum(1.0, np.abs(ref[t])) * conditioning
            assert np.all(np.abs(got[t] - ref[t]) <= bound)


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


# E[log a] = -0.03: over a block of 1024 steps the start's share falls below an
# ulp in some blocks and not in others
PARTLY_REJOINING = KestenScalar(Exponential(math.exp(np.euler_gamma - 0.03)), Normal(0.0, 1.0), r0=1.0)
# order PATH_CHUNK + 6, whose lags past the first weigh little: every block
# rejoins within a few chunks, so the K steps that agree span chunks
LONG_ORDER = KestenAR(
    Exponential(0.6), Normal(0.0, 1.0), (Uniform(0.6, 0.8),) + (Uniform(0.0, 1e-6),) * 69,
    r_init=(1.0,) * 70,
)


class TestKernelAtItsOwnGeometry:
    # PATH_BLOCK and PATH_CHUNK as shipped: TestCompanionKernel patches in small ones
    BLOCK, CHUNK = 1024, 64
    N = 3 * BLOCK + 37  # three full blocks and a short one that ends inside the first chunk

    def test_constants_are_the_shipped_ones(self):
        assert (processes.PATH_BLOCK, processes.PATH_CHUNK) == (self.BLOCK, self.CHUNK)

    @pytest.mark.parametrize("spec", [FIG3_SPEC, FIG4_SPEC], ids=["scalar", "order-3"])
    def test_path_matches_plain_loop(self, spec):
        # bit for bit: every block rejoins its zero-start run long before its end,
        # so the composed starts' rounding never reaches the path
        path, ref = _path_and_loop(spec, self.N)
        assert path.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "spec, chunks, arrays",
        [(FIG3_SPEC, 1, "aeo"), (Garch11(0.01, 0.09, 0.9), 16, "aeo"), (LONG_ORDER, 5, "aweo")],
        ids=["fig3-stops", "garch-runs-through", "order-70-stops-across-chunks"],
    )
    def test_second_pass_stops_where_the_blocks_rejoin(self, monkeypatch, spec, chunks, arrays):
        # the chunk starts each _run_blocks call gathers at; the second pass is the
        # last call and gathers the draws and the first pass's path once per chunk
        calls, gather, run_blocks = [], processes._gather, processes._run_blocks

        def gathering(x, block, start, buf, tile):
            calls[-1].append(start)
            gather(x, block, start, buf, tile)

        monkeypatch.setattr(processes, "_gather", gathering)
        monkeypatch.setattr(
            processes, "_run_blocks", lambda *args, **kw: calls.append([]) or run_blocks(*args, **kw)
        )
        simulate(spec, RngStream(5), self.N, 0)
        assert calls[-1] == [start for start in range(0, chunks * self.CHUNK, self.CHUNK) for _ in arrays]

    @pytest.mark.parametrize("spec", [FIG3_SPEC, FIG4_SPEC], ids=["scalar", "order-3"])
    def test_one_block_runs_once_from_its_start(self, spec):
        # a path that fits in one block takes the two-pass route too: its one
        # block starts at r_init, and the second pass reruns it from there
        path, ref = _path_and_loop(spec, self.BLOCK)
        assert path.tobytes() == ref.tobytes()

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


def _full_second_pass(a: np.ndarray, w, e: np.ndarray, r_init: tuple) -> np.ndarray:
    """The path kernel as it was before its second pass stopped where the blocks
    rejoin: block starts composed with numpy's dot, then every step of every
    block rerun from its start."""
    k, total, block = len(r_init), a.size, max(processes.PATH_BLOCK, len(r_init))

    def draws(span: slice) -> tuple:
        return a[span], None if w is None else w[:, span], e[span]

    blocks = max(-(-total // block), 1)
    cut = (blocks - 1) * block
    with np.errstate(all="ignore"):
        unit = np.broadcast_to(np.eye(k, k + 1, 1)[:, :, None], (k, k + 1, blocks - 1))
        ends = processes._run_blocks(*draws(slice(cut)), list(unit), block)
        size = np.abs(np.array(ends))
        fp = np.finfo(np.float64)
        small = (size[:, 1:] < fp.tiny).any(axis=0)
        lost = np.where(small, fp.eps / fp.tiny * size[:, 0].min(axis=0), np.inf)
        lost[~np.isfinite(size[:, 1:]).all(axis=0)] = 0.0
        starts = np.full((blocks, k), r_init, dtype=np.float64)
        for b in range(blocks - 1):
            if np.isfinite(starts[b]).all() and (np.abs(starts[b]) > lost[:, b]).any():
                span = slice(b * block, (b + 1) * block)
                rows = processes._run_blocks(*draws(span), list(starts[b][:, None, None]), block)
                starts[b + 1] = [row[0, 0] for row in rows]
            else:
                live = starts[b] != 0.0
                starts[b + 1] = [end[0, b] + end[1:, b][live] @ starts[b][live] for end in ends]
        out = np.empty(total)
        processes._run_blocks(a, w, e, list(starts.T[:, None, :]), block, out)
    return out


def _draws(spec, n: int, seed: int) -> tuple:
    """The (a, w, e) draws simulate runs spec's path on; w None for a scalar spec."""
    gen = RngStream(seed).generator()
    if isinstance(spec, KestenScalar):
        return spec.a_law.sample(gen, n), None, spec.e_law.sample(gen, n)
    a, w = spec.draw_coefficients(gen, n)
    return a, w, spec.e_law.sample(gen, n)


@pytest.mark.parametrize("geometry", [(1024, 64), (4, 3)], ids=["shipped", "block-4-chunk-3"])
@pytest.mark.parametrize(
    "spec, n",
    [
        (PARTLY_REJOINING, 16 * 1024),
        (LONG_ORDER, 4 * 1024 + 37),
        (KestenScalar(Uniform(0.0, 1.9), Normal(0.0, 1.0), r0=5.0), 3 * 1024 + 37),
        (KestenScalar(Uniform(-0.9, 1.2), Normal(0.0, 1.0), r0=-0.0), 3 * 1024 + 37),
        (FIG4_SPEC, 3 * 1024 + 37),
        (FIG4_SPEC, 1000),
        # lag terms that reach the block starts' last bits, summed by np.dot
        (KestenAR(Uniform(0.9, 1.09), Normal(0.0, 1.0), (Uniform(0.3, 0.36),) * 3,
                  r_init=(1.0, 2.0, -3.0)), 3 * 1024 + 37),
    ],
    ids=[
        "partly-rejoining", "order-70", "slow-mixing", "signed", "order-3-fig4", "order-3-short",
        "order-3-slow",
    ],
)
def test_path_is_the_full_second_pass_bitwise(monkeypatch, geometry, spec, n):
    monkeypatch.setattr(processes, "PATH_BLOCK", geometry[0])
    monkeypatch.setattr(processes, "PATH_CHUNK", geometry[1])
    a, w, e = _draws(spec, n, 5)
    r_init = (spec.r0,) if isinstance(spec, KestenScalar) else spec.r_init
    path = processes._companion_path(a, w, e, r_init)
    assert path.tobytes() == _full_second_pass(a, w, e, r_init).tobytes()


def test_some_blocks_rejoin_and_some_do_not():
    # the premise of the partly-rejoining case: compare each block's last step
    # with the same block run from a zero start
    n, block = 16 * 1024, processes.PATH_BLOCK
    a, _, e = _draws(PARTLY_REJOINING, n, 5)
    zero = np.empty(n)
    processes._run_blocks(a, None, e, [np.zeros((1, n // block))], block, zero)
    path = simulate(PARTLY_REJOINING, RngStream(5), n, 0).values
    last = np.arange(block - 1, n, block)
    rejoined = path[last].view(np.int64) == zero[last].view(np.int64)
    assert 0 < rejoined.sum() < rejoined.size


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
        _returns, sigma2, z = garch11_paths(spec, RngStream(77), n, 0)
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
        lambda: simulate(SCALAR, RngStream(0), 0, 10_000),
        lambda: simulate(object(), RngStream(0), 10, 10_000),
        lambda: garch11_paths(SCALAR, RngStream(0), 10, 0),
        lambda: TailFit(0.02, 3.0, 0.0, 5, 0.1),
        lambda: AcfResult(np.arange(2), np.array([1.0, np.nan]), "raw"),
        lambda: CramerSolution(0.0, (1.0, 1.0), 0.0, "closed-form"),
        lambda: LyapunovEstimate(np.inf, 100, 10, 0.0),
        lambda: RngStream(-1),
        lambda: returns_from_prices([1.0]),
        lambda: expected_acf(Exponential(0.55), -1),
    ],
    ids=[
        "series", "simulator-n", "unknown-spec", "garch-paths-spec", "tail-fit", "acf-nan", "cramer", "lyapunov",
        "seed", "one-price", "negative-lag",
    ],
)
def test_invariant_errors_are_toolkit_value_errors(build):
    with pytest.raises(KestenLabError) as info:
        build()
    assert isinstance(info.value, ValueError)
