"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they pass.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import exact_pareto
from kestenlab import (
    Exponential,
    GarchCoefficient,
    KestenScalar,
    Normal,
    RngStream,
    as_ar,
    cramer_root,
    garch11_paths,
    hill_estimator,
    lyapunov_top,
    moment_lyapunov_root,
    tail_exponent_ls,
)
from kestenlab.cli import load_config, run

EULER_GAMMA = 0.5772156649015329


def _passline(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def _run_golden(name: str, out_dir, seed=None):
    config = load_config(name)
    t0 = time.perf_counter()
    manifest = run(config, output_dir=out_dir, seed=seed)
    elapsed = time.perf_counter() - t0
    summary = json.loads((out_dir / "summary.json").read_text())
    return manifest, summary, elapsed


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def fig3_run(outroot):
    return _run_golden("fig3.cfg", outroot / "fig3")


@pytest.fixture(scope="module")
def fig3_repeat(outroot):
    return _run_golden("fig3.cfg", outroot / "fig3-repeat")


@pytest.fixture(scope="module")
def fig3_altseed(outroot):
    return _run_golden("fig3.cfg", outroot / "fig3-altseed", seed=43)


@pytest.fixture(scope="module")
def fig2_run(outroot):
    return _run_golden("fig2.cfg", outroot / "fig2")


@pytest.fixture(scope="module")
def fig2_repeat(outroot):
    return _run_golden("fig2.cfg", outroot / "fig2-repeat")


@pytest.fixture(scope="module")
def fig2_altseed(outroot):
    return _run_golden("fig2.cfg", outroot / "fig2-altseed", seed=2)


@pytest.fixture(scope="module")
def fig4_run(outroot):
    return _run_golden("fig4.cfg", outroot / "fig4")


@pytest.fixture(scope="module")
def fig4_repeat(outroot):
    return _run_golden("fig4.cfg", outroot / "fig4-repeat")


def test_criterion_1_fig3_reproduction(fig3_run):
    _manifest, summary, elapsed = fig3_run
    exponent = summary["tail_fit"]["exponent"]
    std = summary["sample_std"]
    acf1 = summary["acf"]["raw"]["lag_1"]
    abs50 = summary["acf"]["absolute"]["lag_50"]
    assert summary["tail_fit"]["threshold"] == 0.02
    assert 2.7 <= exponent <= 3.3
    assert 0.008 <= std <= 0.012
    assert 0.53 <= acf1 <= 0.57
    assert abs50 < 0.02
    assert elapsed < 60.0
    _passline(
        1,
        f"fig3 exponent={exponent:.3f} std={std:.5f} acf1={acf1:.4f} "
        f"abs_acf50={abs50:.5f} runtime={elapsed:.1f}s",
    )


def test_criterion_2_fig2_reproduction(fig2_run):
    _manifest, summary, _elapsed = fig2_run
    exponent = summary["tail_fit"]["exponent"]
    assert 0.85 <= exponent <= 1.15
    _passline(2, f"fig2 exponent={exponent:.4f} above the 95th-pct threshold")


def test_criterion_3_cramer_solver():
    sol = cramer_root(Exponential(0.55))
    assert 2.99 <= sol.mu_star <= 3.01
    assert sol.residual < 1e-6
    sol1 = cramer_root(Exponential(1.0))
    assert 1.0 - 1e-6 <= sol1.mu_star <= 1.0 + 1e-6
    _passline(
        3,
        f"mu*(exp 0.55) = {sol.mu_star:.6f} (residual {sol.residual:.2g}), "
        f"mu*(exp 1.0) = {sol1.mu_star}",
    )


def test_criterion_4_regime_sweep():
    roots = {}
    for mean in (0.4, 0.55, 0.7, 1.0, 1.2, 1.5):
        mu = cramer_root(Exponential(mean)).mu_star
        roots[mean] = mu
        if mean == 1.0:
            assert abs(mu - 1.0) <= 1e-6
        else:
            assert np.sign(mu - 1.0) == np.sign(1.0 - mean)
    _passline(
        4,
        "sign(mu* - 1) = sign(1 - E(a)) across "
        + ", ".join(f"{m}: {mu:.3f}" for m, mu in roots.items()),
    )


def test_criterion_5_garch_mapping():
    from kestenlab import Garch11

    omega, alpha, beta = 0.01, 0.09, 0.9
    spec = Garch11(omega, alpha, beta, sigma0=0.1)
    rng = RngStream(314)
    n = 10**5
    _r, sigma2, _z = garch11_paths(spec, rng, n, 0)
    a_law, e_law = spec.feedback
    a = a_law.sample(rng.generator(), n)
    x = np.empty(n)
    x[0] = spec.sigma0**2
    for t in range(1, n):
        x[t] = a[t - 1] * x[t - 1] + e_law.value
    rel = float(np.max(np.abs(x - sigma2) / sigma2))
    assert rel < 1e-12

    mean_a = a_law.mean()
    assert abs(mean_a - 0.99) < 1e-15

    fitted = GarchCoefficient(0.9, 0.1)
    log_a = fitted.log_moment()
    assert -0.010 <= log_a <= -0.006
    _passline(
        5,
        f"pathwise sigma^2 identity rel err {rel:.2g}, E(a) = {mean_a!r}, "
        f"E[log(0.9 + 0.1 z^2)] = {log_a:.5f} by quadrature",
    )


def test_criterion_6_scalar_matrix_consistency():
    embed = as_ar(KestenScalar(Exponential(0.55), Normal(0.0, 1.0)))
    target = cramer_root(Exponential(0.55)).mu_star
    sol = moment_lyapunov_root(embed)
    assert abs(sol.mu_star - target) < 0.1

    est = lyapunov_top(embed, 1000, 100, RngStream(3))
    expected = math.log(0.55) - EULER_GAMMA
    assert abs(est.gamma_hat - expected) < 0.02
    _passline(
        6,
        f"moment-Lyapunov root {sol.mu_star:.4f} vs mu* {target:.4f}; "
        f"gamma_hat {est.gamma_hat:.4f} vs E[log a] {expected:.4f}",
    )


def test_criterion_7_fig4_properties(fig4_run):
    _manifest, summary, _elapsed = fig4_run
    gamma = summary["lyapunov"]["gamma_hat"]
    exponent = summary["tail_fit"]["exponent"]
    acf1 = summary["acf"]["raw"]["lag_1"]
    abs50 = summary["acf"]["absolute"]["lag_50"]
    assert gamma < 0
    assert 2.0 <= exponent <= 4.0
    assert 0.0 < acf1 < 0.7
    assert abs50 < 0.02
    mu_ml = summary["moment_lyapunov"]["mu_star"]
    _passline(
        7,
        f"fig4 gamma={gamma:.4f} exponent={exponent:.3f} acf1={acf1:.4f} "
        f"abs_acf50={abs50:.5f} moment-Lyapunov mu={mu_ml:.3f}",
    )


def test_criterion_8_estimator_calibration():
    details = []
    for i, mu in enumerate((1.0, 2.5, 3.0)):
        x = exact_pareto(mu, 10**6, seed=900 + i)
        fit = tail_exponent_ls(x, float(np.quantile(x, 0.95)))
        k = 10_000
        hill = hill_estimator(x, k)
        assert abs(fit.exponent - mu) <= 0.15
        assert abs(hill - mu) <= 0.15
        combined = math.hypot(fit.stderr, hill / math.sqrt(k))
        assert abs(fit.exponent - hill) <= 2 * combined
        details.append(f"mu={mu}: ls={fit.exponent:.3f} hill={hill:.3f}")
    _passline(8, "; ".join(details))


def _payload_files(out_dir):
    """All CSV/JSON/NPY payloads of a run; the manifest holds the timestamps."""
    return sorted(
        p.name
        for p in out_dir.iterdir()
        if p.suffix in (".csv", ".json", ".npy") and p.name != "manifest.json"
    )


def test_criterion_9_determinism(
    fig3_run, fig3_repeat, fig3_altseed, fig2_run, fig2_repeat, fig2_altseed,
    fig4_run, fig4_repeat, outroot,
):
    pairs = [("fig3", "fig3-repeat"), ("fig2", "fig2-repeat"), ("fig4", "fig4-repeat")]
    for a, b in pairs:
        names_a = _payload_files(outroot / a)
        assert names_a == _payload_files(outroot / b)
        for name in names_a:
            assert (outroot / a / name).read_bytes() == (
                outroot / b / name
            ).read_bytes(), f"{a}/{name} differs between identical runs"

    # a different seed must change the numbers but keep criteria 1-2 green
    assert (outroot / "fig3" / "series.npy").read_bytes() != (
        outroot / "fig3-altseed" / "series.npy"
    ).read_bytes()
    assert (outroot / "fig2" / "series.npy").read_bytes() != (
        outroot / "fig2-altseed" / "series.npy"
    ).read_bytes()

    alt3 = fig3_altseed[1]
    assert 2.7 <= alt3["tail_fit"]["exponent"] <= 3.3
    assert 0.008 <= alt3["sample_std"] <= 0.012
    assert 0.53 <= alt3["acf"]["raw"]["lag_1"] <= 0.57
    assert alt3["acf"]["absolute"]["lag_50"] < 0.02
    alt2 = fig2_altseed[1]
    assert 0.85 <= alt2["tail_fit"]["exponent"] <= 1.15
    _passline(
        9,
        "byte-identical reruns for fig2/fig3/fig4; alternate seeds still satisfy "
        f"criteria 1-2 (fig3 exp {alt3['tail_fit']['exponent']:.3f}, "
        f"fig2 exp {alt2['tail_fit']['exponent']:.3f})",
    )
