import contextlib
import gzip
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG3_SPEC, FIG4_SPEC, fuzzed
from kestenlab import (
    Constant,
    Exponential,
    GarchCoefficient,
    KestenScalar,
    Normal,
    RngStream,
    TheoryReport,
    Uniform,
    acf,
    classify_regime,
    cramer_root,
    kesten_conditions_report,
    lyapunov_top,
    moment_lyapunov_root,
    read_series_csv,
    simulate,
    spec_from_config,
    stationarity_check,
    tail_exponent_ls,
    write_series_csv,
    write_series_npy,
)
from kestenlab.cli import (
    ExperimentConfig,
    RunManifest,
    RunSummary,
    _canonical_json,
    config_from_dict,
    config_from_json,
    config_to_json,
    ingest_prices,
    load_config,
    main,
    manifest_from_dict,
    report,
    run,
)
from kestenlab.distributions import read_record
from kestenlab.estimators import write_acf_csv
from kestenlab.errors import (
    InvalidConfig,
    MissingArtifacts,
    NonPositivePrice,
    ParseError,
)
from kestenlab.processes import write_csv

SMALL_CONFIG = {
    "process": {
        "kind": "kesten_scalar",
        "a_law": {"kind": "exponential", "mean": 0.55},
        "e_law": {"kind": "normal", "mean": 0.0, "sd": 0.0065},
        "r0": 0.0,
    },
    "n_samples": 20000,
    "seed": 7,
    "burn_in": 500,
    "analyses": {
        "tail_fit": {"threshold": None},
        "acf": {"max_lag": 10, "kinds": ["raw", "absolute"]},
        "cramer": {},
    },
    "output_dir": None,
}

MANIFEST = {
    "config_digest": "0" * 64,
    "toolkit_version": "0",
    "seed": 1,
    "started_at": "",
    "finished_at": "",
    "output_dir": "out",
    "outputs": {"summary": ["summary.json"]},
    "counters": {"resamples": 0},
}

# a summary.json that report renders, with a conditions entry that reads conditions.json
SUMMARY = {
    "process": SMALL_CONFIG["process"],
    "n_samples": 20000,
    "burn_in": 500,
    "seed": 1,
    "sample_mean": 0.0,
    "sample_std": 0.01,
    "conditions": {"all_verified": True},
}

AR_PROCESS = {
    "kind": "kesten_ar",
    "a_law": {"kind": "exponential", "mean": 0.6},
    "e_law": {"kind": "normal", "mean": 0.0, "sd": 0.007},
    "weight_laws": [{"kind": "constant", "value": 0.5}] * 2,
}


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "kestenlab", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestConfig:
    def test_round_trip_is_byte_identical(self):
        cfg = config_from_dict(SMALL_CONFIG)
        text = config_to_json(cfg)
        assert config_to_json(config_from_json(text)) == text
        assert config_from_json(text) == cfg

    def test_requires_analyses(self):
        bad = {**SMALL_CONFIG, "analyses": {}}
        with pytest.raises(InvalidConfig):
            config_from_dict(bad)

    def test_unknown_analysis(self):
        # an unknown name, and a known one that asks for an acf kind twice
        for analyses in ({"spectral": {}}, {"acf": {"kinds": ["raw", "raw"]}}):
            with pytest.raises(InvalidConfig):
                config_from_dict({**SMALL_CONFIG, "analyses": analyses})

    def test_cramer_needs_scalar_feedback(self):
        bad = {
            **SMALL_CONFIG,
            "process": {
                "kind": "inverse_multiplier",
                "a_law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                "e_law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
            },
        }
        with pytest.raises(InvalidConfig):
            config_from_dict(bad)

    def test_bundled_configs_load(self):
        for name in ("fig2.cfg", "fig3.cfg", "fig4.cfg"):
            cfg = load_config(name)
            assert isinstance(cfg, ExperimentConfig)
            assert cfg.n_samples == 10**6

    def test_missing_file(self):
        with pytest.raises(InvalidConfig):
            load_config("no-such-config.cfg")

    def test_integral_floats_are_integers(self):
        cfg = config_from_dict(
            {**SMALL_CONFIG, "n_samples": 1e6, "seed": 7.0, "analyses": {"hill": {"k": 1e3}}}
        )
        got = (cfg.n_samples, cfg.seed, cfg.analyses["hill"]["k"])
        assert got == (10**6, 7, 1000)
        assert all(type(v) is int for v in got)

    def test_numeric_strings_are_numbers_at_every_level(self):
        cfg = config_from_dict(
            {
                **SMALL_CONFIG,
                "seed": "7",
                "process": {**SMALL_CONFIG["process"], "r0": "0.5"},
                "analyses": {
                    "hill": {"k": "1e3"},
                    "tail_fit": {"threshold": "0.05"},
                    "lyapunov": {"trials": "64.0"},
                },
            }
        )
        params = cfg.analyses
        got = (cfg.seed, cfg.process.r0, params["hill"]["k"], params["tail_fit"]["threshold"])
        assert got == (7, 0.5, 1000, 0.05)
        assert params["lyapunov"]["trials"] == 64
        assert type(cfg.seed) is type(params["hill"]["k"]) is type(params["lyapunov"]["trials"]) is int

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"n_sample": 1000}, "n_sample"),
            ({"process": {**SMALL_CONFIG["process"], "r_0": 1.0}}, "r_0"),
            (
                {
                    "process": {
                        "kind": "inverse_multiplier",
                        "a_law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                        "e_law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
                        "r0": 0.0,
                    }
                },
                "r0",
            ),
            (
                {
                    "process": {
                        **SMALL_CONFIG["process"],
                        "a_law": {"kind": "exponential", "mean": 0.55, "sd": 1.0},
                    }
                },
                "sd",
            ),
            ({"analyses": {"hill": {"K": 500}}}, "K"),
            ({"analyses": {"tail_fit": {"treshold": 0.05}}}, "treshold"),
            ({"analyses": {"cramer": {"mu": 3.0}}}, "mu"),
        ],
        ids=[
            "experiment",
            "process",
            "process-field-of-another-kind",
            "law",
            "analysis-hill",
            "analysis-tail_fit",
            "analysis-without-parameters",
        ],
    )
    def test_unknown_key_is_rejected(self, change, key):
        with pytest.raises(InvalidConfig, match=f"unknown key {key!r}"):
            config_from_dict({**SMALL_CONFIG, **change})

    def test_manifest_keys_are_its_fields(self):
        assert manifest_from_dict(MANIFEST).to_dict() == MANIFEST
        for bad in ({**MANIFEST, "seeds": 1}, {k: v for k, v in MANIFEST.items() if k != "seed"}):
            with pytest.raises(InvalidConfig):
                manifest_from_dict(bad)


class TestRecords:
    def test_numpy_inputs_serialize(self):
        # every record's to_dict() holds plain JSON values, whatever numpy
        # scalars the caller passed in
        spec = KestenScalar(
            Exponential(np.float64(0.55)), Normal(np.float64(0.0), np.float64(0.0065))
        )
        series = simulate(spec, RngStream(5), 20000, 500)
        records = [
            tail_exponent_ls(series, np.float64(0.01)),
            stationarity_check(spec.a_law),
            classify_regime(spec.a_law),
            cramer_root(spec.a_law),
            kesten_conditions_report(spec.a_law, spec.e_law),
            lyapunov_top(spec, np.int64(100), np.int64(10), RngStream(3)),
            moment_lyapunov_root(spec),
            config_from_dict(
                {**SMALL_CONFIG, "n_samples": np.int64(20000), "seed": np.uint64(7)}
            ),
        ]
        for record in records:
            text = _canonical_json(record.to_dict())
            assert _canonical_json(json.loads(text)) == text, type(record).__name__


class TestRun:
    def test_bundle_contents(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        manifest = run(cfg, output_dir=tmp_path / "out")
        out = tmp_path / "out"
        for fname in (
            "series.npy",
            "series_meta.json",
            "ccdf.csv",
            "tail_fit.json",
            "acf_raw.csv",
            "acf_absolute.csv",
            "cramer.json",
            "summary.json",
            "manifest.json",
        ):
            assert (out / fname).exists(), fname
        assert not list(out.glob("*.tmp"))
        assert manifest.seed == 7
        listed = {f for files in manifest.outputs.values() for f in files}
        assert "series.npy" in listed and "summary.json" in listed

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        run(cfg, output_dir=tmp_path / "a")
        run(cfg, output_dir=tmp_path / "b")
        for fname in ("series.npy", "ccdf.csv", "tail_fit.json", "summary.json", "acf_raw.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes(), fname

    def test_seed_override_changes_payload(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        run(cfg, output_dir=tmp_path / "a")
        m = run(cfg, output_dir=tmp_path / "b", seed=8)
        assert m.seed == 8
        assert (tmp_path / "a" / "series.npy").read_bytes() != (
            tmp_path / "b" / "series.npy"
        ).read_bytes()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KESTENLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = config_from_dict({**SMALL_CONFIG, "output_dir": "nested/run"})
        run(cfg)
        assert (tmp_path / "nested" / "run" / "manifest.json").exists()

    def test_report_text(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        manifest = run(cfg, output_dir=tmp_path / "out")
        text = report(manifest)
        assert "regime: C (E(a) = 0.55 < 1)" in text
        assert "predicted mu = 3.0027" in text
        assert "fitted mu" in text

    def test_every_analysis_in_one_run(self, tmp_path, capsys):
        analyses = {
            "tail_fit": {"threshold": None},
            "hill": {"k": 500},
            "acf": {"max_lag": 10, "kinds": ["raw", "absolute"]},
            "cramer": {},
            "conditions": {},
            "lyapunov": {"t_horizon": 200, "trials": 16},
            "moment_lyapunov": {},
        }
        cfg = config_from_dict({**SMALL_CONFIG, "analyses": analyses})
        manifest = run(cfg, output_dir=tmp_path / "out")
        listed = [f for files in manifest.outputs.values() for f in files]
        assert len(listed) == len(set(listed))
        for fname in listed:
            assert (tmp_path / "out" / fname).exists(), fname
        text = report(manifest)
        assert f"({len(listed)} files)" in text
        # one report line per analysis, in the report's fixed order
        heads = [
            "regime: C",
            "predicted mu = ",
            "fitted mu = ",
            "hill cross-check (k=500): ",
            "acf: absolute: lag 1 = ",
            "Kesten-theorem conditions (a)-(h): ",
            "top Lyapunov exponent: ",
            "moment-Lyapunov root: mu = ",
        ]
        starts = [text.index("\n" + head) for head in heads]
        assert starts == sorted(starts)

        # the lyapunov subcommand falls back to the analysis defaults
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(SMALL_CONFIG)))
        assert main(["lyapunov", "--config", str(cfg_path)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert (est["t_horizon"], est["trials"]) == (1000, 100)

    def test_json_files_are_canonical(self, tmp_path):
        analyses = {
            "tail_fit": {"threshold": None},
            "hill": {"k": 500},
            "cramer": {},
            "conditions": {},
            "lyapunov": {"t_horizon": 100, "trials": 10},
            "moment_lyapunov": {},
        }
        run(config_from_dict({**SMALL_CONFIG, "analyses": analyses}), output_dir=tmp_path / "out")
        paths = sorted((tmp_path / "out").glob("*.json"))
        assert len(paths) == 9  # the six analyses, series_meta, summary, manifest
        for path in paths:
            text = path.read_text()
            assert text == _canonical_json(json.loads(text)), path.name

    def test_inverse_multiplier_drops_its_burn_in(self, tmp_path):
        cfg = config_from_dict(
            {
                **SMALL_CONFIG,
                "process": {
                    "kind": "inverse_multiplier",
                    "a_law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                    "e_law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
                },
                "analyses": {"tail_fit": {"threshold": None}},
            }
        )
        run(cfg, output_dir=tmp_path / "out")
        meta = json.loads((tmp_path / "out" / "series_meta.json").read_text())
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert meta["burn_in_dropped"] == summary["burn_in"] == 500
        assert meta["n"] == summary["n_samples"] == 20000

    def test_report_refuses_a_monte_carlo_moment_lyapunov_entry(self, tmp_path, capsys):
        # a 0.3.0 fig4 bundle holds the Monte Carlo root's stderr and finite-t drift
        cfg = {**SMALL_CONFIG, "process": FIG4_SPEC.to_config(), "analyses": {"moment_lyapunov": {}}}
        run(config_from_dict(cfg), output_dir=tmp_path / "out")
        path = tmp_path / "out" / "summary.json"
        summary = json.loads(path.read_text())
        del summary["moment_lyapunov"]["stencil_spread"]
        summary["moment_lyapunov"].update(method="monte-carlo", stderr=0.0379, finite_t_bias=-0.462)
        path.write_text(_canonical_json(summary))
        assert main(["report", str(tmp_path / "out" / "manifest.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {path}: unknown key 'finite_t_bias' in summary.moment_lyapunov"
        )

    def test_report_missing_artifacts(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        manifest = run(cfg, output_dir=tmp_path / "out")
        (tmp_path / "out" / "tail_fit.json").unlink()
        with pytest.raises(MissingArtifacts):
            report(manifest)

    def test_failed_run_leaves_no_manifest(self, tmp_path):
        # hill needs k < n, so this run dies mid-analysis; whatever was
        # already renamed into place is complete, and no manifest appears
        bad = {
            **SMALL_CONFIG,
            "n_samples": 2000,
            "burn_in": 0,
            "analyses": {"tail_fit": {"threshold": None}, "hill": {"k": 10000}},
        }
        from kestenlab.errors import InsufficientTail

        with pytest.raises(InsufficientTail):
            run(config_from_dict(bad), output_dir=tmp_path / "out")
        out = tmp_path / "out"
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("*.tmp"))
        assert (out / "series.npy").exists()  # completed payloads stay valid


# small bundles of each process kind, each with every analysis the kind accepts
BUNDLE_CONFIGS = {
    "fig2-type": (
        {
            "kind": "inverse_multiplier",
            "a_law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "e_law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
        },
        {"tail_fit": {}, "hill": {"k": 100}, "acf": {"max_lag": 10}},
    ),
    "fig3-type": (
        SMALL_CONFIG["process"],
        {
            "cramer": {},
            "tail_fit": {"threshold": 0.01},
            "hill": {"k": 100},
            "acf": {"max_lag": 10, "kinds": ["raw", "absolute"]},
            "conditions": {},
            "lyapunov": {"t_horizon": 100, "trials": 10},
            "moment_lyapunov": {},
        },
    ),
    "fig4-type": (
        {
            "kind": "kesten_ar",
            "a_law": {"kind": "exponential", "mean": 0.6},
            "e_law": {"kind": "normal", "mean": 0.0, "sd": 0.007},
            "weight_laws": [
                {"kind": "uniform", "lo": 0.7, "hi": 0.8},
                {"kind": "uniform", "lo": 0.1, "hi": 0.2},
                {"kind": "uniform", "lo": 0.0, "hi": 0.2},
            ],
        },
        {
            "tail_fit": {},
            "acf": {"max_lag": 10},
            "lyapunov": {"t_horizon": 100, "trials": 10},
            "moment_lyapunov": {},
        },
    ),
    "garch-type": (
        {"kind": "garch11", "omega": 0.01, "alpha": 0.09, "beta": 0.9},
        {"cramer": {}, "tail_fit": {}, "conditions": {}},
    ),
}

# the bundle files that report decodes, with their record types
BUNDLE_RECORDS = {
    "manifest.json": RunManifest,
    "summary.json": RunSummary,
    "conditions.json": TheoryReport,
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """name -> (bundle directory, {file name: text}) for each decoded file it holds."""
    root = tmp_path_factory.mktemp("bundles")
    out = {}
    for name, (process, analyses) in BUNDLE_CONFIGS.items():
        cfg = {**SMALL_CONFIG, "process": process, "n_samples": 5000, "analyses": analyses}
        run(config_from_dict(cfg), output_dir=root / name)
        texts = {
            fname: (root / name / fname).read_text()
            for fname in BUNDLE_RECORDS
            if (root / name / fname).exists()
        }
        out[name] = (root / name, texts)
    return out


class TestBundleFiles:
    @pytest.mark.parametrize("name", ["fig3-type", "fig4-type", "garch-type"])
    def test_files_read_back_to_their_bytes(self, bundles, name):
        _, texts = bundles[name]
        no_conditions = {"conditions.json"} if name == "fig4-type" else set()
        assert set(texts) == set(BUNDLE_RECORDS) - no_conditions
        for fname, text in texts.items():
            record = read_record([BUNDLE_RECORDS[fname]], json.loads(text), fname)
            assert _canonical_json(record) == text, fname

    def test_garch_report_gives_the_returns_exponent(self, bundles):
        # the moment-equation root is sigma^2's; r = sigma z has twice its exponent
        out_dir, texts = bundles["garch-type"]
        sol = json.loads(texts["summary.json"])["cramer"]["solution"]
        text = report(out_dir / "manifest.json")
        assert "stderr" not in sol
        predicted = f"predicted mu = {sol['mu_star']:.4f} (method quadrature, "
        returns = f"returns: predicted mu = 2 x sigma^2's mu above = {2 * sol['mu_star']:.4f}\n"
        assert text.index(predicted) < text.index(returns) < text.index("fitted mu = ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_file_reports_or_exits_2(self, bundles, data):
        out_dir, texts = bundles[data.draw(st.sampled_from(sorted(bundles)))]
        fname = data.draw(st.sampled_from(sorted(texts)))
        changed = data.draw(fuzzed(json.loads(texts[fname])))
        for f, text in texts.items():
            (out_dir / f).write_text(json.dumps(changed) if f == fname else text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", str(out_dir / "manifest.json")])
        if code == 0:
            assert out.getvalue().startswith("kestenlab ") and err.getvalue() == ""
            return
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        if code == 2:
            assert err.getvalue().startswith(f"error: {out_dir / fname}: ")
        else:
            # a manifest that names a bundle file or directory that is not there
            assert (code, fname) == (4, "manifest.json")


class TestIngest:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,close\n2020-01-01,100\n2020-01-02,101\n")
        series = ingest_prices(p)
        assert series.values == pytest.approx([0.01])
        assert series.seed is None

    def test_zero_price_reports_line(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,close\n2020-01-01,100\n2020-01-02,0\n2020-01-03,101\n")
        with pytest.raises(NonPositivePrice, match="line 3"):
            ingest_prices(p)

    def test_unparseable_row_reports_line(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,close\n2020-01-01,100\n2020-01-02,n/a\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_prices(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,price\n2020-01-01,100\n")
        with pytest.raises(ParseError, match="close"):
            ingest_prices(p)

    def test_column_by_index(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,px\n2020-01-01,100\n2020-01-02,110\n")
        series = ingest_prices(p, 1)
        assert series.values == pytest.approx([0.1])

    def test_round_trip_through_compounded_prices(self, tmp_path):
        # compounding oracle: P_t = P_{t-1} (1 + r_t) must invert to r
        gen = RngStream(55).generator()
        r = gen.normal(0.0, 0.01, 500)
        prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + r]))
        p = tmp_path / "prices.csv"
        lines = ["date,close"] + [f"d{i},{repr(float(v))}" for i, v in enumerate(prices)]
        p.write_text("\n".join(lines) + "\n")
        series = ingest_prices(p)
        # 1e-12 relative, with an absolute floor for returns near zero where
        # the float-epsilon rounding of the compounding dominates
        assert np.all(np.abs(series.values - r) <= 1e-12 * np.maximum(1.0, np.abs(r)))


class TestCommandLine:
    def test_run_and_report(self, tmp_path):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(SMALL_CONFIG)))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert "regime: C" in res.stdout
        res2 = _cli("report", str(tmp_path / "out" / "manifest.json"))
        assert res2.returncode == 0
        assert "fitted mu" in res2.stdout

    def test_non_finite_lyapunov_product_exits_3_without_warnings(self, tmp_path):
        # draws of size 1e308 overflow the first companion product
        process = {**AR_PROCESS, "a_law": {"kind": "normal", "mean": 0.0, "sd": 1e308}}
        cfg = {**SMALL_CONFIG, "process": process, "analyses": {"lyapunov": {}}}
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(cfg)))
        res = _cli("lyapunov", "--config", str(cfg_path))
        assert res.returncode == 3
        assert res.stderr == "error: matrix product norm is not finite at step 1\n"

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("{not json")
        res = _cli("run", str(cfg_path))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_non_stationary_exit_code(self, tmp_path):
        bad = {
            **SMALL_CONFIG,
            "process": {
                "kind": "kesten_scalar",
                "a_law": {"kind": "exponential", "mean": 2.0},
                "e_law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
                "r0": 0.0,
            },
        }
        cfg_path = tmp_path / "expl.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(bad)))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 3
        assert "+0.1159" in res.stderr

    RUN = ["run", "{cfg}", "--output-dir", "{out}"]

    @pytest.mark.parametrize(
        "argv, analyses",
        [
            (RUN, {"acf": {"max_lag": 0}}),
            (RUN, {"lyapunov": {"t_horizon": 50}}),
            (RUN, {"lyapunov": {"trials": 5}}),
            (["lyapunov", "--config", "{cfg}"], {"lyapunov": {"t_horizon": 50}}),
            (["acf", "{series}", "--max-lag", "0"], {"acf": {}}),
        ],
        ids=[
            "run-acf-max_lag",
            "run-lyapunov-t_horizon",
            "run-lyapunov-trials",
            "lyapunov-t_horizon",
            "acf-max_lag",
        ],
    )
    def test_bad_analysis_parameter_exit_code(self, tmp_path, argv, analyses):
        # each value passes the config's type checks and fails the analysis bounds
        cfg_path = tmp_path / "bad.cfg"
        cfg = config_from_dict({**SMALL_CONFIG, "analyses": analyses})
        cfg_path.write_text(config_to_json(cfg))
        series = tmp_path / "series.csv"
        series.write_text("t,r\n" + "".join(f"{t},{0.01 * (-1) ** t}\n" for t in range(200)))
        paths = {"cfg": cfg_path, "series": series, "out": tmp_path / "out"}
        res = _cli(*(arg.format(**paths) for arg in argv))
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "key, value", [("grid", [1.0, 6.0]), ("t_horizon", 6), ("trials", 200000)],
        ids=["grid", "t_horizon", "trials"],
    )
    def test_removed_moment_lyapunov_key_exits_2(self, tmp_path, key, value):
        # the exact solve has no grid, horizon or trial count: a 0.3 config names the key
        cfg_path = tmp_path / "old.cfg"
        data = {**SMALL_CONFIG, "analyses": {"moment_lyapunov": {key: value}}}
        cfg_path.write_text(json.dumps(data))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr == (
            f"error: unknown key {key!r} in config.analyses.moment_lyapunov (known: none)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_normalized_weights_exit_2_before_the_simulation(self, tmp_path):
        cfg_path = tmp_path / "normalized.cfg"
        process = {**AR_PROCESS, "normalize_weights": True}
        data = {**SMALL_CONFIG, "process": process, "analyses": {"moment_lyapunov": {}}}
        cfg_path.write_text(json.dumps(data))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "normalized weights" in res.stderr
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_weight_moment_overflow_exits_3(self, tmp_path):
        # a * w ~ 0.1 N(0, 1) simulates fine, but E(w^4) = 3e600 leaves the float range
        cfg_path = tmp_path / "wide.cfg"
        process = {
            **AR_PROCESS,
            "a_law": {"kind": "constant", "value": 1e-151},
            "weight_laws": [{"kind": "normal", "mean": 0.0, "sd": 1e150}],
        }
        data = {**SMALL_CONFIG, "process": process, "analyses": {"moment_lyapunov": {}}}
        cfg_path.write_text(json.dumps(data))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 3
        assert res.stderr == "error: E(X^4) of the normal law exceeds the float range\n"
        assert (tmp_path / "out" / "series.npy").exists()

    def test_order_one_zero_weight_exits_3(self, tmp_path):
        # r_t = e_t simulates fine; its moment equation has no positive root
        cfg_path = tmp_path / "zero.cfg"
        process = {**AR_PROCESS, "weight_laws": [{"kind": "constant", "value": 0.0}]}
        data = {**SMALL_CONFIG, "process": process, "analyses": {"moment_lyapunov": {}}}
        cfg_path.write_text(json.dumps(data))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 3
        assert res.stderr == (
            "error: a w == 0 surely: the product is zero surely, "
            "so E((a w)^mu) = 0 for every mu > 0\n"
        )

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(SMALL_CONFIG)))
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        res = _cli("run", str(cfg_path), "--output-dir", str(target))
        assert res.returncode == 4

    def test_ingest_fit_tail_acf(self, tmp_path):
        prices = tmp_path / "prices.csv"
        gen = RngStream(3).generator()
        r = gen.normal(0.0, 0.01, 3000)
        p = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + r]))
        prices.write_text(
            "\n".join(["date,close"] + [f"d{i},{repr(float(v))}" for i, v in enumerate(p)])
            + "\n"
        )
        out = tmp_path / "returns.csv"
        res = _cli("ingest", str(prices), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["n"] == 3000

        res = _cli("fit-tail", str(out))
        assert res.returncode == 0, res.stderr
        fit = json.loads(res.stdout)
        assert fit["n_tail"] >= 10 and fit["exponent"] > 0

        res = _cli("acf", str(out), "--max-lag", "5", "--absolute")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "lag,acf"
        assert len(lines) == 7

    @pytest.mark.parametrize("absolute", [False, True], ids=["raw", "absolute"])
    def test_acf_prints_the_acf_csv(self, tmp_path, absolute):
        # the command's stdout is the file write_acf_csv writes, byte for byte
        series = simulate(FIG3_SPEC, RngStream(9), 2000, 0)
        write_series_csv(series, tmp_path / "r.csv")
        flag = ["--absolute"] if absolute else []
        res = subprocess.run(
            [sys.executable, "-m", "kestenlab", "acf", str(tmp_path / "r.csv"), "--max-lag", "7"]
            + flag,
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr
        write_acf_csv(acf(series, 7, absolute=absolute), tmp_path / "acf.csv")
        assert res.stdout == (tmp_path / "acf.csv").read_bytes()
        assert res.stdout.startswith(b"lag,acf\n0,1.0\n1,")

    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("fit-tail", "t,r\n0,0.01\n1,abc\n", 3),
            ("acf", "t,r\n0,0.01\n1,abc\n", 3),
            ("fit-tail", "t,r\n0,0.01\n\n1\n", 4),
            ("acf", "t,r\n0,0.01\n1\n", 3),
            ("fit-tail", "t,r\n0,0.01\n100,inf\n", 3),
            ("acf", "t,r\n0,0.01\n100,nan\n", 3),
            ("ingest", "date,close\nd0,100\n\nd1,101\nd2,inf\n", 5),
            ("ingest", "date,close\nd0,100\nd1,inf\n\nd2,inf\n", 3),
            # a quoted cell that spans two lines: the next row starts on line 4
            ("ingest", 'date,close\n"a\nb",100\nd1,abc\n', 4),
            ("ingest", 'date,close\n"a\nb",100\nd1,-5\n', 4),
            ("fit-tail", 't,r\n"0\n1",0.01\n2,abc\n', 4),
            ("ingest", "date,close\nd0,1\nd1," + "1" * 200_000 + "\n", 3),
        ],
        ids=[
            "fit-tail-text",
            "acf-text",
            "fit-tail-one-column",
            "acf-one-column",
            "fit-tail-inf",
            "acf-nan",
            "ingest-inf-price",
            "ingest-first-of-two-inf-prices",
            "ingest-text-after-multi-line-cell",
            "ingest-negative-after-multi-line-cell",
            "fit-tail-text-after-multi-line-cell",
            "ingest-cell-over-csv-field-limit",
        ],
    )
    def test_bad_row_exit_code(self, tmp_path, capsys, command, text, line):
        path = tmp_path / "input.csv"
        path.write_text(text)
        argv = [command, str(path)] + (["--max-lag", "1"] if command == "acf" else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: line {line}: ")

    @pytest.mark.parametrize("source", ["simulate", "ingest"])
    def test_npy_series_prints_as_its_csv(self, tmp_path, capsys, source):
        series = simulate(FIG3_SPEC, RngStream(4), 5000)
        if source == "simulate":
            write_series_csv(series, tmp_path / "series.csv")
            write_series_npy(series, tmp_path / "series.npy")
        else:  # ingest picks the format by the --out suffix
            prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + series.values / 100]))
            write_csv(tmp_path / "prices.csv", "date,close", range(prices.size), prices)
            for name in ("series.csv", "series.npy"):
                argv = ["ingest", str(tmp_path / "prices.csv"), "--out", str(tmp_path / name)]
                assert main(argv) == 0
                assert json.loads(capsys.readouterr().out)["out"] == str(tmp_path / name)
            assert np.load(tmp_path / "series.npy").tobytes() == (
                read_series_csv(tmp_path / "series.csv").tobytes()
            )
        for argv in (["fit-tail"], ["acf", "--max-lag", "10", "--absolute"]):
            printed = []
            for name in ("series.csv", "series.npy"):
                assert main([argv[0], str(tmp_path / name), *argv[1:]]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1] != ""

    @staticmethod
    def _npy_bytes(array, allow_pickle=False) -> bytes:
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=allow_pickle)
        return buf.getvalue()

    NPY_GOOD = np.linspace(-0.05, 0.05, 200)

    @pytest.mark.parametrize("command", ["fit-tail", "acf"])
    @pytest.mark.parametrize(
        "data",
        [
            _npy_bytes(NPY_GOOD)[:-12],
            _npy_bytes(NPY_GOOD)[:40],
            b"t,r\n0,0.01\n",
            _npy_bytes(np.array([0.01, "x"], dtype=object), allow_pickle=True),
            _npy_bytes(NPY_GOOD.reshape(100, 2)),
            _npy_bytes(np.arange(200)),
            _npy_bytes(NPY_GOOD.astype(np.float32)),
            _npy_bytes(np.array([], dtype=np.float64)),
            _npy_bytes(np.concatenate([NPY_GOOD, [np.nan]])),
            _npy_bytes(np.concatenate([NPY_GOOD, [-np.inf]])),
        ],
        ids=["truncated-data", "truncated-header", "not-npy", "pickled-objects", "2-d",
             "int", "float32", "empty", "nan", "inf"],
    )
    def test_bad_npy_exit_code(self, tmp_path, capsys, command, data):
        path = tmp_path / "series.npy"
        path.write_bytes(data)
        argv = [command, str(path)] + (["--max-lag", "1"] if command == "acf" else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit-tail", "acf"])
    @pytest.mark.parametrize("text", ["t,r\n", "t,r\n\n \n"], ids=["header-only", "blank-rows"])
    def test_no_data_rows_exit_code(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.csv"
        path.write_text(text)
        argv = [command, str(path)] + (["--max-lag", "1"] if command == "acf" else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: no data rows\n"

    @pytest.mark.parametrize(
        "argv, name, data, line",
        [
            (["ingest"], "input.csv", b"date,close\nd0,1e-300\nd1,1e300\n", 3),
            (["fit-tail"], "input.csv", b"t,r\n0,0.01\n1,0.\xe92\n", 3),
            (["ingest"], "input.csv", b"date,close\nd0,100\n\nd1,1\xe901\n", 4),
            # read as the bytes they are, never decompressed by the name
            (["fit-tail"], "input.csv.gz", gzip.compress(b"t,r\n0,0.01\n1,0.02\n"), 1),
            (["ingest"], "input.csv.gz", gzip.compress(b"date,close\nd0,100\nd1,101\n"), 1),
        ],
        ids=["ingest-return-overflow", "series-not-utf8", "prices-not-utf8", "series-gzip",
             "prices-gzip"],
    )
    def test_bad_input_ends_in_one_error_line(self, tmp_path, argv, name, data, line):
        path = tmp_path / name
        path.write_bytes(data)
        res = _cli(argv[0], str(path), *argv[1:])
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {path}: line {line}: ")
        assert res.stderr.count("\n") == 1  # no traceback and no numpy warning
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "process",
        [
            {**SMALL_CONFIG["process"], "r0": "nan"},
            {**SMALL_CONFIG["process"], "r0": "inf"},
            {
                **SMALL_CONFIG["process"],
                "kind": "kesten_ar",
                "weight_laws": [{"kind": "constant", "value": 1.0}],
                "r_init": ["nan"],
            },
            {"kind": "garch11", "omega": 0.01, "alpha": "nan", "beta": 0.9},
            {"kind": "garch11", "omega": 0.01, "alpha": 0.09, "beta": "nan"},
            {"kind": "garch11", "omega": "inf", "alpha": 0.09, "beta": 0.9},
        ],
        ids=["scalar-r0-nan", "scalar-r0-inf", "ar-r_init-nan", "garch-alpha-nan",
             "garch-beta-nan", "garch-omega-inf"],
    )
    def test_non_finite_process_parameter_exit_code(self, tmp_path, process):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(json.dumps({**SMALL_CONFIG, "process": process}))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ")
        assert "finite" in res.stderr
        assert res.stderr.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "via, config, field",
        [
            ("run", {**AR_PROCESS, "normalize_weights": "false"}, "normalize_weights"),
            ("run", {**AR_PROCESS, "r_init": "12"}, "r_init"),
            ("run", {**AR_PROCESS, "r_init": 5}, "r_init"),
            (
                "run",
                {"kind": "garch11", "omega": 0.01, "alpha": 0.09, "beta": 0.9, "sigma0": None},
                "sigma0",
            ),
            ("spec_from_config", {**SMALL_CONFIG["process"], "r0": "abc"}, "r0"),
            ("cramer", {"kind": []}, "kind"),
            ("cramer", {"kind": "exponential", "mean": True}, "mean"),
            # experiment and analysis levels: ``config`` is merged into the whole config
            ("config", {"seed": True}, "config.seed"),
            ("config", {"output_dir": 5}, "config.output_dir"),
            ("config", {"analyses": {"lyapunov": {"trials": "16x"}}},
             "analyses.lyapunov.trials"),
            ("config", {"analyses": {"tail_fit": {"threshold": True}}},
             "analyses.tail_fit.threshold"),
            ("config", {"analyses": {"acf": {"kinds": "raw"}}}, "analyses.acf.kinds"),
            ("config", {"analyses": {"hill": [1]}}, "analyses.hill"),
        ],
        ids=["normalize_weights-string", "r_init-string", "r_init-number", "sigma0-null",
             "r0-text", "law-kind-array", "law-mean-boolean", "seed-boolean",
             "output_dir-number", "lyapunov-trials-string",
             "tail_fit-threshold-boolean", "acf-kinds-string", "hill-parameters-list"],
    )
    def test_mistyped_config_value_is_named(self, tmp_path, capsys, via, config, field):
        if via == "spec_from_config":
            with pytest.raises(InvalidConfig, match=field):
                spec_from_config(config)
            return
        if via in ("run", "config"):
            data = {**SMALL_CONFIG, **(config if via == "config" else {"process": config})}
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(json.dumps(data))
            argv = ["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]
        else:
            argv = ["cramer", "--law", json.dumps(config)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"n_samples": math.inf},
            {"n_samples": 2000.7},
            {"seed": math.nan},
            {"burn_in": 0.5},
            {"analyses": {"hill": {"k": math.inf}}},
            {"analyses": {"hill": {"k": 100.9}}},
            {"analyses": {"acf": {"max_lag": 10.5}}},
            {"analyses": {"lyapunov": {"t_horizon": 200.5}}},
        ],
        ids=["n_samples-inf", "n_samples-fraction", "seed-nan", "burn_in-fraction",
             "hill-k-inf", "hill-k-fraction", "acf-max_lag-fraction",
             "lyapunov-t_horizon-fraction"],
    )
    def test_non_integral_config_value_exit_code(self, tmp_path, change):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(json.dumps({**SMALL_CONFIG, **change}))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ")
        assert "must be an integer" in res.stderr
        assert res.stderr.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "out").exists()

    def test_cramer_subcommand(self):
        res = _cli("cramer", "--law", '{"kind": "exponential", "mean": 0.55}')
        assert res.returncode == 0, res.stderr
        sol = json.loads(res.stdout)
        assert 2.99 <= sol["mu_star"] <= 3.01

    @pytest.mark.parametrize(
        "law",
        [
            '{"kind": "garch_coeff", "beta": 0.9, "alpha": "nan"}',
            '{"kind": "uniform", "lo": 0, "hi": "inf"}',
            '{"kind": "exponential", "mean": NaN}',
        ],
        ids=["garch-nan", "uniform-inf", "exponential-nan"],
    )
    def test_cramer_non_finite_law_exit_code(self, law):
        res = _cli("cramer", "--law", law)
        assert res.returncode == 2, res.stdout
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr

    # every law kind; a garch_coeff fractional moment is one quadrature (about 2 ms)
    CRAMER_FUZZ_SEEDS = [
        law.to_config()
        for law in (Exponential(0.55), Uniform(0.7, 1.2), Normal(0.0, 1.0), Constant(0.5),
                    GarchCoefficient(0.9, 0.09))
    ]

    @settings(max_examples=15, deadline=None)
    @given(law=st.sampled_from(CRAMER_FUZZ_SEEDS).flatmap(fuzzed))
    def test_fuzzed_cramer_law_exits_cleanly(self, law):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cramer", "--law", json.dumps(law)])
        assert code in (0, 2, 3, 4)
        assert "nan" not in out.getvalue().lower()
        if code:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    def test_cramer_thin_tail_exit_code(self):
        res = _cli("cramer", "--law", '{"kind": "uniform", "lo": 0.0, "hi": 0.5}')
        assert res.returncode == 3

    def test_cramer_garch_root_far_out(self):
        res = _cli("cramer", "--law", '{"kind": "garch_coeff", "beta": 0.3, "alpha": 0.03}')
        assert res.returncode == 0, res.stderr
        sol = json.loads(res.stdout)
        assert (sol["method"], "stderr" in sol) == ("quadrature", False)
        # scipy brentq on quad moments of (0.3 + 0.03 z^2)
        assert sol["mu_star"] == pytest.approx(39.50175469477282, rel=1e-10)

    GARCH_BEYOND_QUADRATURE = {"kind": "garch11", "omega": 0.01, "alpha": 0.03, "beta": 0.0}

    @pytest.mark.parametrize("command", ["cramer", "run"])
    def test_root_beyond_the_quadrature_exits_3(self, tmp_path, command):
        # the exact root 44.9577 of beta 0, alpha 0.03 needs moments the rule cannot resolve
        if command == "cramer":
            res = _cli("cramer", "--law", '{"kind": "garch_coeff", "beta": 0.0, "alpha": 0.03}')
        else:
            cfg = {**SMALL_CONFIG, "process": self.GARCH_BEYOND_QUADRATURE,
                   "analyses": {"cramer": {}}}
            cfg_path = tmp_path / "garch.cfg"
            cfg_path.write_text(config_to_json(config_from_dict(cfg)))
            res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.startswith("error: quadrature of E[fn(X)] under the garch_coeff law ")
        assert res.stderr.count("\n") == 1  # one line, no traceback

    def test_noise_moment_beyond_the_float_range_is_not_checkable(self, tmp_path):
        # E|e|^mu* of N(0, 1e150^2) at mu* = 3.0027 is about 1e451: (h) names the
        # overflow, and the run ends in its report, not in a traceback
        process = {**SMALL_CONFIG["process"], "e_law": {"kind": "normal", "mean": 0.0, "sd": 1e150}}
        cfg = {**SMALL_CONFIG, "process": process, "n_samples": 2000,
               "analyses": {"conditions": {}}}
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(cfg)))
        res = _cli("run", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert (res.returncode, res.stderr) == (0, "")
        conditions = json.loads((tmp_path / "out" / "conditions.json").read_text())
        h = conditions["conditions"][-1]
        assert (h["condition"], h["status"], h["evidence"]) == ("h", "not-checkable", None)
        assert h["note"] == "E|X|^3.00266 of the normal law with sd 1e+150 exceeds the float range"
        assert "(h) not-checkable" in res.stdout

    @pytest.mark.parametrize("value", [1e105, -1e105], ids=["positive", "negative"])
    def test_constant_noise_moment_beyond_the_float_range_is_not_checkable(
        self, tmp_path, capsys, value
    ):
        # |e|^mu* at mu* = 3.0027 overflows for |e| = 1e105, either sign, while
        # the series (about 1e105 in size) keeps a finite mean and std
        process = {**SMALL_CONFIG["process"], "e_law": {"kind": "constant", "value": value}}
        cfg = {**SMALL_CONFIG, "process": process, "burn_in": 100,
               "analyses": {"conditions": {}}}
        cfg_path = tmp_path / "constant.cfg"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (0, "")
        conditions = json.loads((tmp_path / "out" / "conditions.json").read_text())
        h = conditions["conditions"][-1]
        assert (h["condition"], h["status"], h["evidence"]) == ("h", "not-checkable", None)

    @pytest.mark.parametrize(
        "process",
        [
            {"kind": "inverse_multiplier", "a_law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
             "e_law": {"kind": "constant", "value": 1e300}},
            {**SMALL_CONFIG["process"], "e_law": {"kind": "constant", "value": -1e200}},
        ],
        ids=["inverse-multiplier", "kesten-scalar"],
    )
    def test_sample_std_of_values_whose_squares_overflow(self, tmp_path, capsys, process):
        # every value is finite but their squares are not, while the std (about 1e302
        # and 1e200) is representable: the std and the ACF come from the series scaled
        # by the power of two s that brings max |r| into [0.5, 1), which is exact
        cfg = {**SMALL_CONFIG, "process": process, "seed": 1, "burn_in": 100,
               "analyses": {"hill": {"k": 100},
                            "acf": {"max_lag": 10, "kinds": ["raw", "absolute"]}}}
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg_path), "--output-dir", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        values = np.load(out / "series.npy")
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(values.std()))
        s = 2.0 ** -math.frexp(float(np.abs(values).max()))[1]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_std"] == float((values * s).std()) / s > 1e199
        for absolute, kind in ((False, "raw"), (True, "absolute")):
            write_acf_csv(acf(values * s, 10, absolute=absolute), tmp_path / "acf.csv")
            assert (out / f"acf_{kind}.csv").read_bytes() == (tmp_path / "acf.csv").read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            json.dumps({**MANIFEST, "outputs": []}),
            json.dumps({**MANIFEST, "output_dir": 5}),
            json.dumps(MANIFEST),
        ],
        ids=["not-json", "outputs-not-a-mapping", "output_dir-not-a-string", "summary-not-json"],
    )
    def test_bad_manifest_exit_code(self, tmp_path, capsys, monkeypatch, text):
        # the bundle the manifest names holds a summary.json that is not JSON
        monkeypatch.chdir(tmp_path)
        (tmp_path / MANIFEST["output_dir"]).mkdir()
        (tmp_path / MANIFEST["output_dir"] / "summary.json").write_text("not json")
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "fname, data",
        [
            ("summary.json", {}),
            ("summary.json", [1, 2]),
            ("summary.json", {**SUMMARY, "process": {"kind": "garch11", "alpha": 0.09, "beta": 0.9}}),
            ("conditions.json", {"conditions": 5}),
            # well typed, but TailFit itself refuses a fit to 3 exceedances
            (
                "summary.json",
                {**SUMMARY, "tail_fit": {"threshold": 0.02, "exponent": 3.0,
                                         "intercept": -10.0, "n_tail": 3, "stderr": 0.1}},
            ),
        ],
        ids=["summary-empty", "summary-a-list", "garch-without-omega", "conditions-not-a-list",
             "tail_fit-refuses-its-values"],
    )
    def test_wrong_shaped_bundle_exit_code(self, tmp_path, capsys, monkeypatch, fname, data):
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / MANIFEST["output_dir"]
        out_dir.mkdir()
        (out_dir / "summary.json").write_text(json.dumps(SUMMARY))
        (out_dir / fname).write_text(json.dumps(data))
        (tmp_path / "manifest.json").write_text(json.dumps(MANIFEST))
        assert main(["report", "manifest.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {MANIFEST['output_dir']}/{fname}: ")
        assert err.count("\n") == 1

    def test_summary_of_0_1_0_exits_2(self, tmp_path, capsys, monkeypatch):
        # kestenlab 0.1.0 wrote the regime next to the root in the cramer entry and
        # the case into the conditions entry; such a bundle is re-run, not read
        monkeypatch.chdir(tmp_path)
        solution = {"bracket": [2.0, 4.0], "method": "closed-form", "mu_star": 3.0, "residual": 0.0}
        regime = {"case": "C", "consistent": True, "mean_a": 0.55, "mu_star": 3.0,
                  "predicted": "mu > 1"}
        old = {
            **SUMMARY,
            "cramer": {"regime": regime, "solution": solution},
            "conditions": {"all_verified": True, "regime_case": "C", "mu_star": 3.0},
        }
        (tmp_path / MANIFEST["output_dir"]).mkdir()
        (tmp_path / MANIFEST["output_dir"] / "summary.json").write_text(json.dumps(old))
        (tmp_path / "manifest.json").write_text(json.dumps(MANIFEST))
        assert main(["report", "manifest.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {MANIFEST['output_dir']}/summary.json: summary.cramer")
        assert err.count("\n") == 1

    def test_summary_of_0_2_0_exits_2(self, tmp_path, capsys, monkeypatch):
        # kestenlab 0.2.0 wrote a stationarity entry with a stderr, 0 for every
        # law but the GARCH coefficient's Monte Carlo; such a bundle is re-run
        monkeypatch.chdir(tmp_path)
        stationarity = {"log_moment": -1.175, "stderr": 0.0, "tolerance": 0.0001,
                        "verdict": "stationary"}
        (tmp_path / MANIFEST["output_dir"]).mkdir()
        (tmp_path / MANIFEST["output_dir"] / "summary.json").write_text(
            json.dumps({**SUMMARY, "stationarity": stationarity})
        )
        (tmp_path / "manifest.json").write_text(json.dumps(MANIFEST))
        assert main(["report", "manifest.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {MANIFEST['output_dir']}/summary.json: ")
        assert "summary.stationarity" in err
        assert err.count("\n") == 1

    # 10^5 nested lists: deeper than the interpreter's recursion limit
    DEEP_JSON = b"[" * 10**5 + b"]" * 10**5

    @pytest.mark.parametrize(
        "where, data",
        [
            ("config", DEEP_JSON),
            ("law", DEEP_JSON),
            ("manifest.json", DEEP_JSON),
            ("summary.json", DEEP_JSON),
            ("conditions.json", DEEP_JSON),
            ("config", b'{"seed": "\xe9"}'),
        ],
        ids=["config-too-deep", "law-too-deep", "manifest-too-deep", "summary-too-deep",
             "conditions-too-deep", "config-not-utf8"],
    )
    def test_undecodable_json_exit_code(self, tmp_path, capsys, monkeypatch, where, data):
        # in process: a --law argument this long exceeds the OS limit on one argument
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / MANIFEST["output_dir"]
        out_dir.mkdir()
        (out_dir / "summary.json").write_text(json.dumps(SUMMARY))
        (tmp_path / "manifest.json").write_text(json.dumps(MANIFEST))
        prefix = "error: "
        if where == "config":
            (tmp_path / "bad.cfg").write_bytes(data)
            argv = ["run", "bad.cfg", "--output-dir", "run-out"]
        elif where == "law":
            argv = ["cramer", "--law", data.decode()]
        else:
            path = tmp_path / where if where == "manifest.json" else out_dir / where
            path.write_bytes(data)
            argv = ["report", "manifest.json"]
            prefix = f"error: {path.relative_to(tmp_path)}: "
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix)
        assert "not valid JSON" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run-out").exists()

    def test_lyapunov_subcommand(self, tmp_path):
        cfg = {
            **SMALL_CONFIG,
            "analyses": {"lyapunov": {"t_horizon": 200, "trials": 16}},
        }
        cfg_path = tmp_path / "ly.cfg"
        cfg_path.write_text(config_to_json(config_from_dict(cfg)))
        res = _cli("lyapunov", "--config", str(cfg_path))
        assert res.returncode == 0, res.stderr
        est = json.loads(res.stdout)
        assert est["gamma_hat"] < 0
