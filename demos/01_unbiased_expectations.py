"""When traders' forecasts are unbiased, returns inherit a unit-exponent tail.

The return is r = e / (1 - a): the aggregate forecast feeds back into the
price, and whenever the feedback coefficient a lands near 1 the multiplier
1/(1 - a) explodes.  Division by near-zeros is one of the simplest power-law
generators, and the exponent it produces is exactly 1.
"""

import numpy as np

from kestenlab import (
    InverseMultiplier,
    Normal,
    RngStream,
    Uniform,
    empirical_ccdf,
    simulate,
    tail_exponent_ls,
    unit_exponent_prediction,
)

spec = InverseMultiplier(a_law=Uniform(0.0, 1.0), e_law=Normal(0.0, 1.0))
series = simulate(spec, RngStream(seed=1), n=200_000, burn_in=0)

print("r = e / (1 - a) with a ~ U(0,1), e ~ N(0,1)")
print(f"simulated {len(series)} draws; resampled {series.resamples} near-singular ones")
print(f"sample quantiles of |r|: 50% {np.quantile(np.abs(series.values), 0.5):.3f}, "
      f"99% {np.quantile(np.abs(series.values), 0.99):.1f}, "
      f"max {np.abs(series.values).max():.0f}")

fit = tail_exponent_ls(series)  # threshold defaults to the 95th percentile
print(f"\nlog-log LS tail fit above {fit.threshold:.2f}: "
      f"exponent {fit.exponent:.3f} +- {fit.stderr:.3f}  (theory: 1)")

# the tail constant is set by the density of a at the singular point a = 1
f1 = spec.a_law.pdf(1.0)
print(f"density of a at 1: {f1:.1f}; "
      f"predicted two-sided multiplier tail at x=100: "
      f"{unit_exponent_prediction(spec.a_law).tail_constant / 100.0:.4f}")

# survival points for external plotting (log-log axes show a straight line)
x, p = empirical_ccdf(series)
keep = (x > fit.threshold) & (p > 0)
print(f"\nCCDF has {keep.sum()} tail points; first few (x, P(|r|>x)):")
for xi, pi in list(zip(x[keep], p[keep]))[:3]:
    print(f"  ({xi:.3f}, {pi:.5f})")
print("\nan exponent this heavy means E|r| diverges; real indexes are tamer,")
print("so unbiased expectations alone cannot be the whole story.")
