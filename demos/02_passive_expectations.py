"""Trend extrapolation turns returns into a feedback recursion with a cubic tail.

When traders anchor on the previous return, r_t = a_t r_{t-1} + e_t.  The
stationary law of this recursion has a power-law tail whose exponent solves
E(a^mu) = 1, so the empirically ubiquitous exponent 3 pins down E(a): for an
exponential coefficient law, E(a^3) = 1 exactly when the mean is near 0.55.
"""

from kestenlab import (
    Exponential,
    KestenScalar,
    Normal,
    RngStream,
    acf,
    classify_regime,
    cramer_root,
    expected_acf,
    kesten_conditions_report,
    simulate,
    stationarity_check,
    tail_exponent_ls,
)

a_law = Exponential(0.55)
e_law = Normal(0.0, 0.0065)  # noise scaled so the return std lands near 1%

# --- theory first -----------------------------------------------------------
stat = stationarity_check(a_law)
print(f"E[log a] = {stat.log_moment:.4f} -> {stat.verdict}")

regime = classify_regime(a_law)
print(f"regime {regime.case}: E(a) = {regime.mean_a:.2f}, predicted {regime.predicted}")

solution = cramer_root(a_law)
print(f"moment equation E(a^mu) = 1 solved at mu* = {solution.mu_star:.4f} "
      f"(residual {solution.residual:.1e})")

report = kesten_conditions_report(a_law, e_law)
print(f"Kesten-theorem checklist: {'all conditions verified' if report.all_verified else 'see report'}")

# --- then the simulation ----------------------------------------------------
spec = KestenScalar(a_law, e_law)
series = simulate(spec, RngStream(seed=42), n=500_000, burn_in=10_000)
print(f"\nsimulated {len(series)} returns, sample std {series.values.std():.4f}")

fit = tail_exponent_ls(series, threshold=0.02)
print(f"tail fit above 2%: exponent {fit.exponent:.3f} +- {fit.stderr:.3f} "
      f"on {fit.n_tail} exceedances  (prediction {solution.mu_star:.3f})")

raw = acf(series, max_lag=5)
print("\nautocorrelation of returns vs the theory value E(a)^h:")
for h in range(1, 6):
    print(f"  lag {h}: sample {raw.at(h):+.4f}   theory {expected_acf(a_law, h):+.4f}")

absolute = acf(series, max_lag=50, absolute=True)
print(f"\nabsolute-return ACF at lag 50: {absolute.at(50):+.4f}")
print("the fast decay is the model's known blind spot: it mixes geometrically,")
print("so it cannot produce the long memory of real volatility.")
