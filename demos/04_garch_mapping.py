"""GARCH(1,1) is a feedback recursion in disguise - on the squared volatility.

sigma2_t = omega + alpha r_{t-1}^2 + beta sigma2_{t-1} rewrites exactly as
sigma2_t = (beta + alpha z^2) sigma2_{t-1} + omega: the same recursion the
toolkit studies, with coefficient law beta + alpha*z^2.  Parameters fitted
to daily index data sit right at the edge of stationarity, which is why
fitted GARCH implies much fatter tails than the data shows.
"""

import numpy as np

from kestenlab import (
    Garch11,
    RngStream,
    acf,
    cramer_root,
    garch11_paths,
    simulate,
    stationarity_check,
)

omega, alpha, beta = 0.01, 0.09, 0.9
spec = Garch11(omega, alpha, beta, sigma0=0.1)
a_law, e_law = spec.feedback
print(f"sigma^2 recursion coefficient: a = {beta} + {alpha} z^2, noise e = {omega}")
print(f"E(a) = {a_law.moment(1.0)!r}  (a hair below 1)")
print(f"E[log a] = {a_law.log_moment():.4f} -> {stationarity_check(a_law).verdict}, "
      "but only just: fitted GARCH hugs the non-stationary boundary")

solution = cramer_root(a_law)
print(f"tail exponent of sigma^2: mu = {solution.mu_star:.3f} ({solution.method})")
print(f"=> |r| has exponent ~{2 * solution.mu_star:.1f}; "
      "at E(a) = 1 this degrades to 2, i.e. infinite-variance returns")

# the rewrite is exact pathwise, not just in distribution
rng = RngStream(314)
n = 50_000
_returns, sigma2, _z = garch11_paths(spec, rng, n, burn_in=0)
a = a_law.sample(rng.generator(), n)  # same stream -> the same normals
x = np.empty(n)
x[0] = spec.sigma0 ** 2
for t in range(1, n):
    x[t] = a[t - 1] * x[t - 1] + omega
print(f"\nmax relative gap between the GARCH sigma^2 path and the rewritten "
      f"recursion over {n} steps: {np.max(np.abs(x - sigma2) / sigma2):.2e}")

series = simulate(spec, RngStream(13), n=200_000, burn_in=2_000)
print(f"\nsimulated returns: std {series.values.std():.3f}, "
      f"ACF lag 1 = {acf(series, 1).at(1):+.4f} (uncorrelated, as it should be)")
