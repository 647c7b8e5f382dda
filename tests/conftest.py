import numpy as np
import pytest
from hypothesis import strategies as st

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


# arbitrary JSON values, with the strings float() reads among them
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["", "1", "12", "nan", "-inf", "false", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "mean", "lo", "x"]), inner, max_size=3),
    max_leaves=6,
)


_DROP = object()


def _paths(value, path=()):
    """The path of each value inside ``value``, and of a new key in each dict."""
    if isinstance(value, dict):
        yield path + ("extra",)
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield path + (key,)
        yield from _paths(v, path + (key,))


def _replaced(value, path, new):
    """A copy of ``value`` with the value at ``path`` replaced by ``new``, or removed."""
    out = value.copy()
    key, rest = path[0], path[1:]
    if rest:
        out[key] = _replaced(value[key], rest, new)
    elif new is not _DROP:
        out[key] = new
    elif isinstance(out, list) or key in out:
        del out[key]
    return out


def fuzzed(config):
    """Strategy: ``config`` as is, or with one value at any depth replaced by
    arbitrary JSON or removed, or with an unknown key added."""
    new = JSON_VALUES | st.floats(0.0, 1.0) | st.just(_DROP)
    change = st.tuples(st.sampled_from(list(_paths(config))), new)
    return st.just(config) | change.map(lambda c: _replaced(config, *c))


def exact_pareto(mu: float, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampler for P(X > x) = x^{-mu}, x >= 1 (test oracle)."""
    u = RngStream(seed).generator().random(n)
    return u ** (-1.0 / mu)


@pytest.fixture(scope="session", autouse=True)
def series_cache_home(tmp_path_factory):
    """Point the series cache at a directory of this session: in-process calls
    and the CLI subprocesses, which inherit the environment, never write to
    the real home."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def fig2_series():
    return simulate(FIG2_SPEC, RngStream(1), 10**6, 0)


@pytest.fixture(scope="session")
def fig3_series():
    return simulate(FIG3_SPEC, RngStream(42), 10**6, 10**4)


@pytest.fixture(scope="session")
def fig4_series():
    return simulate(FIG4_SPEC, RngStream(101), 10**6, 10**4)
