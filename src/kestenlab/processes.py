"""Return-path generators.

Three generative models for returns driven by a feedback coefficient:
the one-shot inverse-multiplier process r = (1 - a)^{-1} e, the scalar
feedback recursion r_t = a_t r_{t-1} + e_t, and its order-K version
r_t = a_t * sum_k w_kt r_{t-k} + e_t, plus GARCH(1,1) and its exact
rewrite as a feedback recursion on the squared volatility.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import (
    CoefficientLaw,
    Constant,
    GarchCoefficient,
    RngStream,
    law_from_config,
)
from .errors import (
    DegenerateSpec,
    InvalidConfig,
    NumericalOverflow,
    ParseError,
    ZeroWeightSum,
)

# Raise before IEEE infinities can propagate through a diverging path.
OVERFLOW_LIMIT = 1e300

# Warm-up dropped by default before any statistic is computed; far beyond
# the mixing time of every stationary configuration used here.
DEFAULT_BURN_IN = 10_000

# Draws with |1 - a| below this are resampled in the inverse-multiplier
# process instead of emitting +-inf.
NEAR_ONE_TOL = 1e-12


@dataclass(frozen=True)
class InverseMultiplier:
    """Spec for the iid process r = (1 - a)^{-1} e."""

    a_law: CoefficientLaw
    e_law: CoefficientLaw
    kind = "inverse_multiplier"

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "a_law": self.a_law.to_config(),
            "e_law": self.e_law.to_config(),
        }


@dataclass(frozen=True)
class KestenScalar:
    """Spec for the scalar feedback recursion r_t = a_t r_{t-1} + e_t."""

    a_law: CoefficientLaw
    e_law: CoefficientLaw
    r0: float = 0.0
    kind = "kesten_scalar"

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "a_law": self.a_law.to_config(),
            "e_law": self.e_law.to_config(),
            "r0": self.r0,
        }


@dataclass(frozen=True)
class KestenAR:
    """Spec for the order-K recursion r_t = a_t * sum_k w_kt r_{t-k} + e_t.

    One weight law per lag; each step draws a fresh weight vector.  With
    ``normalize_weights`` the drawn vector is rescaled to sum exactly to 1.
    """

    a_law: CoefficientLaw
    e_law: CoefficientLaw
    weight_laws: tuple[CoefficientLaw, ...]
    normalize_weights: bool = False
    r_init: tuple[float, ...] = ()

    kind = "kesten_ar"

    def __post_init__(self) -> None:
        if len(self.weight_laws) < 1:
            raise InvalidConfig("kesten_ar needs at least one weight law")
        object.__setattr__(self, "weight_laws", tuple(self.weight_laws))
        r_init = tuple(self.r_init) if self.r_init else (0.0,) * len(self.weight_laws)
        if len(r_init) != len(self.weight_laws):
            raise InvalidConfig(
                f"r_init has length {len(r_init)}, expected K={len(self.weight_laws)}"
            )
        object.__setattr__(self, "r_init", r_init)

    @property
    def order(self) -> int:
        return len(self.weight_laws)

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "a_law": self.a_law.to_config(),
            "e_law": self.e_law.to_config(),
            "weight_laws": [w.to_config() for w in self.weight_laws],
            "normalize_weights": self.normalize_weights,
            "r_init": list(self.r_init),
        }


@dataclass(frozen=True)
class Garch11:
    """GARCH(1,1): r_t = sigma_t z_t, sigma2_t = omega + alpha r_{t-1}^2 + beta sigma2_{t-1}."""

    omega: float
    alpha: float
    beta: float
    sigma0: float = 0.1
    kind = "garch11"

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise InvalidConfig(f"garch11 omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidConfig("garch11 alpha and beta must be nonnegative")
        if not self.sigma0 > 0:
            raise InvalidConfig(f"garch11 sigma0 must be positive, got {self.sigma0}")

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "omega": self.omega,
            "alpha": self.alpha,
            "beta": self.beta,
            "sigma0": self.sigma0,
        }


ProcessSpec = InverseMultiplier | KestenScalar | KestenAR | Garch11


def spec_from_config(config: dict) -> ProcessSpec:
    """Inverse of ``spec.to_config()``."""
    if not isinstance(config, dict) or "kind" not in config:
        raise InvalidConfig(f"process config must be a dict with a 'kind': {config!r}")
    kind = config["kind"]
    try:
        if kind == "inverse_multiplier":
            return InverseMultiplier(
                law_from_config(config["a_law"]), law_from_config(config["e_law"])
            )
        if kind == "kesten_scalar":
            return KestenScalar(
                law_from_config(config["a_law"]),
                law_from_config(config["e_law"]),
                float(config.get("r0", 0.0)),
            )
        if kind == "kesten_ar":
            return KestenAR(
                law_from_config(config["a_law"]),
                law_from_config(config["e_law"]),
                tuple(law_from_config(w) for w in config["weight_laws"]),
                bool(config.get("normalize_weights", False)),
                tuple(float(x) for x in config.get("r_init", ())),
            )
        if kind == "garch11":
            return Garch11(
                float(config["omega"]),
                float(config["alpha"]),
                float(config["beta"]),
                float(config.get("sigma0", 0.1)),
            )
    except KeyError as exc:
        raise InvalidConfig(f"process config missing field {exc}") from None
    raise InvalidConfig(f"unknown process kind {kind!r}")


def spec_digest(spec: ProcessSpec) -> str:
    """Stable content hash of a process spec."""
    payload = json.dumps(spec.to_config(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """A simulated or ingested sequence of returns with its provenance.

    Construction rejects non-finite values: a NaN or infinity in a path
    signals a parameter regime outside stationarity, never valid data.
    """

    values: np.ndarray
    spec_digest: str
    seed: RngStream | None = None
    burn_in_dropped: int = 0
    resamples: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidConfig("return series must be a nonempty 1-d array")
        if not np.isfinite(arr).all():
            raise InvalidConfig(
                "return series contains NaN/inf; the generating parameters "
                "are likely outside the stationary regime"
            )
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def metadata(self) -> dict:
        meta = {
            "spec_digest": self.spec_digest,
            "n": int(self.values.size),
            "burn_in_dropped": int(self.burn_in_dropped),
            "resamples": int(self.resamples),
        }
        if self.seed is not None:
            meta["seed"] = int(self.seed.seed)
            meta["stream_id"] = int(self.seed.stream_id)
        return meta


def _raise_overflow(step: int) -> None:
    raise NumericalOverflow(
        f"|r| exceeded {OVERFLOW_LIMIT:g} at step {step}; the coefficient "
        "law is likely outside the stationary regime "
        "(see theory.stationarity_check / theory.lyapunov_top)"
    )


def simulate_inverse_multiplier(
    spec: InverseMultiplier, rng: RngStream, n: int
) -> ReturnSeries:
    """n iid draws of (1 - a)^{-1} e.

    Draws with |1 - a| < 1e-12 are resampled (and counted) rather than
    emitted as huge finite spikes; the asymptotics of interest concern
    large-but-finite values.
    """
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    a_lo, a_hi = spec.a_law.collapsed().support
    if a_lo == a_hi and abs(1.0 - a_lo) < NEAR_ONE_TOL:
        raise DegenerateSpec("a == 1 surely: the multiplier (1 - a)^{-1} is undefined")
    gen = rng.generator()
    a = spec.a_law.sample(gen, n)
    e = spec.e_law.sample(gen, n)
    resamples = 0
    for _ in range(128):
        mask = np.abs(1.0 - a) < NEAR_ONE_TOL
        bad = int(mask.sum())
        if bad == 0:
            break
        resamples += bad
        a[mask] = spec.a_law.sample(gen, bad)
    else:
        raise DegenerateSpec("a concentrates at 1: resampling did not terminate")
    values = e / (1.0 - a)
    return ReturnSeries(values, spec_digest(spec), rng, 0, resamples)


def simulate_kesten_scalar(
    spec: KestenScalar, rng: RngStream, n: int, burn_in: int = DEFAULT_BURN_IN
) -> ReturnSeries:
    """Iterate r_t = a_t r_{t-1} + e_t from r0, drop burn_in, return n values."""
    if n < 1 or burn_in < 0:
        raise InvalidConfig(f"need n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    gen = rng.generator()
    total = burn_in + n
    a = spec.a_law.sample(gen, total)
    e = spec.e_law.sample(gen, total)
    out = np.empty(total)
    r = spec.r0
    lim = OVERFLOW_LIMIT
    i = 0
    for ai, ei in zip(a.tolist(), e.tolist()):
        r = ai * r + ei
        if not -lim < r < lim:
            _raise_overflow(i)
        out[i] = r
        i += 1
    return ReturnSeries(out[burn_in:], spec_digest(spec), rng, burn_in)


def simulate_kesten_ar(
    spec: KestenAR, rng: RngStream, n: int, burn_in: int = DEFAULT_BURN_IN
) -> ReturnSeries:
    """Iterate the order-K recursion with fresh (a_t, w_t, e_t) each step.

    Draw order is a, then the K weight columns, then e, so the K = 1 case
    with a constant unit weight consumes the stream exactly like
    simulate_kesten_scalar and reproduces it bitwise.
    """
    if n < 1 or burn_in < 0:
        raise InvalidConfig(f"need n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    gen = rng.generator()
    total = burn_in + n
    k = spec.order
    a = spec.a_law.sample(gen, total)
    cols = [w.sample(gen, total) for w in spec.weight_laws]
    e = spec.e_law.sample(gen, total)
    if spec.normalize_weights:
        sums = np.sum(cols, axis=0)
        if np.any(np.abs(sums) < 1e-12):
            step = int(np.argmax(np.abs(sums) < 1e-12))
            raise ZeroWeightSum(
                f"drawn weight vector sums to ~0 at step {step}; "
                "cannot normalize to unit sum"
            )
        cols = [c / sums for c in cols]
    col_lists = [c.tolist() for c in cols]
    a_list, e_list = a.tolist(), e.tolist()
    state = list(spec.r_init)  # state[j] = r_{t-1-j}
    out = np.empty(total)
    lim = OVERFLOW_LIMIT
    for t in range(total):
        acc = 0.0
        for j in range(k):
            acc += col_lists[j][t] * state[j]
        r = a_list[t] * acc + e_list[t]
        if not -lim < r < lim:
            _raise_overflow(t)
        out[t] = r
        state.pop()
        state.insert(0, r)
    return ReturnSeries(out[burn_in:], spec_digest(spec), rng, burn_in)


def simulate_garch11(
    spec: Garch11, rng: RngStream, n: int, burn_in: int = DEFAULT_BURN_IN
) -> ReturnSeries:
    """r_t = sigma_t z_t with the GARCH(1,1) variance recursion."""
    returns, _sigma2, _z = garch11_paths(spec, rng, n, burn_in)
    return ReturnSeries(returns, spec_digest(spec), rng, burn_in)


def garch11_paths(
    spec: Garch11, rng: RngStream, n: int, burn_in: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(returns, sigma2, z) paths after burn-in; diagnostic surface.

    The z draws are a single up-front block, so a GarchCoefficient law
    sampled from the same stream sees the identical normals: the squared
    volatility then satisfies sigma2_t = a_{t-1} sigma2_{t-1} + omega
    pathwise with a = beta + alpha z^2.
    """
    if n < 1 or burn_in < 0:
        raise InvalidConfig(f"need n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    gen = rng.generator()
    total = burn_in + n
    z = gen.standard_normal(total)
    returns = np.empty(total)
    sigma2 = np.empty(total)
    omega, alpha, beta = spec.omega, spec.alpha, spec.beta
    s2 = spec.sigma0 * spec.sigma0
    r = 0.0
    lim = OVERFLOW_LIMIT
    for t, zt in enumerate(z.tolist()):
        if t > 0:
            s2 = omega + alpha * r * r + beta * s2
        if not s2 < lim:
            raise NumericalOverflow(
                f"sigma^2 exceeded {OVERFLOW_LIMIT:g} at step {t}; "
                "the GARCH parameters are outside the stationary regime"
            )
        sigma2[t] = s2
        r = math.sqrt(s2) * zt
        returns[t] = r
    return returns[burn_in:], sigma2[burn_in:], z[burn_in:]


def garch_to_kesten(
    omega: float, alpha: float, beta: float
) -> tuple[CoefficientLaw, CoefficientLaw]:
    """Coefficient pair of the feedback recursion satisfied by sigma^2.

    sigma2_t = (beta + alpha z^2) sigma2_{t-1} + omega, so the feedback
    law is GarchCoefficient(beta, alpha) - collapsed to a constant when
    alpha == 0 - and the noise law is Constant(omega).
    """
    if not omega > 0:
        raise InvalidConfig(f"omega must be positive, got {omega}")
    if alpha < 0 or beta < 0:
        raise InvalidConfig("alpha and beta must be nonnegative")
    return GarchCoefficient(beta, alpha).collapsed(), Constant(omega)


def as_ar(spec: KestenScalar | KestenAR) -> KestenAR:
    """Order-1 embedding of a scalar spec (identity on KestenAR)."""
    if isinstance(spec, KestenAR):
        return spec
    return KestenAR(
        spec.a_law, spec.e_law, (Constant(1.0),), False, (spec.r0,)
    )


def simulate(spec: ProcessSpec, rng: RngStream, n: int, burn_in: int | None = None) -> ReturnSeries:
    """Dispatch to the simulator for the spec's kind."""
    if isinstance(spec, InverseMultiplier):
        return simulate_inverse_multiplier(spec, rng, n)
    burn = DEFAULT_BURN_IN if burn_in is None else burn_in
    if isinstance(spec, KestenScalar):
        return simulate_kesten_scalar(spec, rng, n, burn)
    if isinstance(spec, KestenAR):
        return simulate_kesten_ar(spec, rng, n, burn)
    if isinstance(spec, Garch11):
        return simulate_garch11(spec, rng, n, burn)
    raise InvalidConfig(f"unknown process spec {type(spec).__name__}")


# CSV round trip -------------------------------------------------------------

# Rows formatted and written per block, so memory does not grow with the file.
CSV_BLOCK_ROWS = 16_384


def write_csv(path: str | Path, header: str, *columns) -> None:
    """Write a header and one row per index of the equal-length columns.

    Each column is a numpy array or a range.  Cells are written with repr,
    so floats round-trip exactly and integers stay integers; lines end in LF.
    """
    n = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            cells = []
            for column in columns:
                part = column[start : start + CSV_BLOCK_ROWS]
                if isinstance(part, np.ndarray):
                    part = part.tolist()
                cells.append(map(repr, part))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_series_csv(series: ReturnSeries, path: str | Path) -> None:
    """Write header t,r with round-trip-exact decimal floats and LF endings."""
    write_csv(path, "t,r", range(len(series.values)), series.values)


# numpy's float parser strips these around a field and float() does not,
# so a file holding one of them is parsed by the row scan.
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


def _parse_rest(fh, raw: bytes, **kwargs) -> np.ndarray | None:
    """The rest of the open CSV ``fh`` parsed by numpy's C reader.

    ``raw`` is the file's bytes.  None when a row does not parse or the
    file holds one of ``_NUMPY_ONLY_SPACE``: the caller then scans the rows
    with float(), which names the bad line.
    """
    if any(c in raw for c in _NUMPY_ONLY_SPACE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
            return np.loadtxt(fh, delimiter=",", comments=None, **kwargs)
    except ValueError:
        return None


def _not_utf8(path: Path, raw: bytes) -> ParseError:
    """ParseError naming the first line of the file bytes ``raw`` that is not UTF-8."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}: line {line}: byte {raw[exc.start]:#04x} is not valid UTF-8")
    return ParseError(f"{path}: not valid UTF-8")


def read_series_csv(path: str | Path) -> np.ndarray:
    """Read a t,r series file back into a value array of finite returns."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "t,r":
                raise InvalidConfig(f"{path}: expected header 't,r', got {header!r}")
            table = _parse_rest(fh, raw, ndmin=2)
            if table is not None and table.shape[0] >= 1 and table.shape[1] >= 2:
                values = np.ascontiguousarray(table[:, -1])
                if np.isfinite(values).all():
                    return values
            fh.seek(0)
            values = []
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1 or not line.strip():
                    continue
                try:
                    value = float(line.rsplit(",", 1)[1])
                except (IndexError, ValueError):
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(f"{path}: line {lineno}: no finite return in {line.rstrip()!r}")
                values.append(value)
    except UnicodeDecodeError:
        raise _not_utf8(path, raw) from None
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(values, dtype=np.float64)
