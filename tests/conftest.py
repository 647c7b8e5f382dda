import numpy as np
import pytest

from kestenlab import (
    Exponential,
    InverseMultiplier,
    KestenAR,
    KestenScalar,
    Normal,
    RngStream,
    Uniform,
    simulate,
)

# canonical process specs reused across tests (the three bundled figures)
FIG2_SPEC = InverseMultiplier(Uniform(0.0, 1.0), Normal(0.0, 1.0))
FIG3_SPEC = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065))
FIG4_SPEC = KestenAR(
    Exponential(0.6),
    Normal(0.0, 0.007),
    (Uniform(0.7, 0.8), Uniform(0.1, 0.2), Uniform(0.0, 0.2)),
)


def exact_pareto(mu: float, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler for P(X > x) = x^{-mu}, x >= 1 (test oracle)."""
    u = RngStream(seed).generator().random(n)
    return u ** (-1.0 / mu)


@pytest.fixture(scope="session")
def fig2_series():
    return simulate(FIG2_SPEC, RngStream(1), 10**6)


@pytest.fixture(scope="session")
def fig3_series():
    return simulate(FIG3_SPEC, RngStream(42), 10**6, 10**4)


@pytest.fixture(scope="session")
def fig4_series():
    return simulate(FIG4_SPEC, RngStream(101), 10**6, 10**4)
