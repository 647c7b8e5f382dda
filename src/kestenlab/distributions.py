"""One-dimensional coefficient laws and reproducible random streams.

The feedback coefficient ``a`` and the noise ``e`` of every return process
are described by a small family of laws.  Each law knows how to draw
samples, and how to evaluate the power moments ``E(X^mu)`` and the
log-moment ``E[log X]`` that the tail-exponent machinery is built on:
closed forms where they exist, the quadrature rule ``expect`` otherwise;
and the facts the condition checklist needs: support, density, point-mass
collapse and truncated expectations ``expect``.

``expect`` is one fixed double-exponential quadrature rule (Takahasi and
Mori 1974): tanh-sinh on finite pieces, exp-sinh on half-lines.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import numpy.random  # numpy loads it on first use; load it with the package instead

from .errors import (
    InvalidConfig,
    KestenLabError,
    LawError,
    MomentOverflow,
    NoDensity,
    NonnegativityRequired,
    PositivityRequired,
    QuadratureError,
)

EULER_GAMMA = float(np.euler_gamma)

# CoefficientLaw.expect: absolute and relative tolerance of its error estimate
QUAD_EPSABS = 1e-8
QUAD_EPSREL = 1.49e-8
# ... and where it cuts either side of a law's location, in scales, to hold a far bulk
QUAD_CUT = 8.0

# The double-exponential rule: trapezoid sums in t at step h/2 = 1/64 over
# |t| <= 5, after a map that makes the integrand decay double-exponentially.
# Every other node gives the step-h sum that checks the result.
_DE_T = np.arange(-320, 321) / 64.0
_DE_U = 0.5 * np.pi * np.sinh(_DE_T)
# tanh-sinh on [l, r]: the node at (r - l) * frac from the nearer end
_TANH_SINH_FRAC = 1.0 / (np.exp(2.0 * np.abs(_DE_U)) + 1.0)
_TANH_SINH_WEIGHT = 0.25 * np.pi * np.cosh(_DE_T) / np.cosh(_DE_U) ** 2 / 64.0
# exp-sinh on a half-line: the node at scale * offset from its finite end
_EXP_SINH_OFFSET = np.exp(_DE_U)
_EXP_SINH_WEIGHT = 0.5 * np.pi * np.cosh(_DE_T) * _EXP_SINH_OFFSET / 64.0
_EXP_SINH_WEIGHT_MAX = float(_EXP_SINH_WEIGHT.max())  # the largest weight and offset


def _de_nodes(left: float, right: float, scale: float) -> tuple[list, list, np.ndarray]:
    """End, offset from that end and weight of each node on [left, right], in t order.

    One of the two ends is finite; a half-line's offsets are stretched by
    ``scale``, and QuadratureError names a scale that stretches them past
    the float range.
    """
    if (math.isinf(left) or math.isinf(right)) and math.isinf(scale * _EXP_SINH_WEIGHT_MAX):
        raise QuadratureError(f"the quadrature weights of a half-line overflow at scale {scale:g}")
    if math.isinf(right):
        ends, offsets, weights = left, scale * _EXP_SINH_OFFSET, scale * _EXP_SINH_WEIGHT
    elif math.isinf(left):
        ends, offsets, weights = right, -scale * _EXP_SINH_OFFSET, scale * _EXP_SINH_WEIGHT
    else:
        width, left_half = right - left, _DE_T <= 0
        ends = np.where(left_half, left, right)
        offsets = np.where(left_half, width, -width) * _TANH_SINH_FRAC
        weights = width * _TANH_SINH_WEIGHT
    ends = np.broadcast_to(ends, _DE_T.shape)
    return ends.tolist(), offsets.tolist(), weights


@functools.lru_cache(maxsize=32)
def _node_table(law, standard_pdf, a: float, b: float) -> tuple:
    """``expect``'s rule for ``law`` on [a, b]: per piece, the node count, the
    indices of the nodes where the density is nonzero, (x, density) at each of
    those nodes, and the weights divided by the law's scale.

    The support is cut at 0, at the law's location and QUAD_CUT scales either
    side of it.  Each node's density is read from its offset to its piece's
    end, so the mass at a singular end (chi2 at ``beta``) is not lost to
    rounding in x - end.  The table is keyed on the density function as well
    as the law, so a replaced ``standard_pdf`` builds a table of its own.
    """
    loc, scale = law.location, law.scale
    near = (0.0, loc, loc - QUAD_CUT * scale, loc + QUAD_CUT * scale)
    cuts = sorted({a, b, *(c for c in near if a < c < b)})
    pieces = []
    for left, right in zip(cuts, cuts[1:]):
        ends, offsets, weights = _de_nodes(left, right, scale)
        live, nodes = [], []
        for i, (end, d) in enumerate(zip(ends, offsets)):
            density = standard_pdf(law, (end - loc) / scale + d / scale)
            if density:  # fn is not called where the density vanishes
                live.append(i)
                nodes.append((end + d, density))
        pieces.append((len(ends), np.array(live, dtype=np.intp), tuple(nodes), weights / scale))
    return tuple(pieces)


@dataclass(frozen=True)
class RngStream:
    """A named position in seed space: (seed, stream_id).

    Equal streams reproduce bitwise-equal draws; distinct stream ids give
    statistically independent sequences (numpy SeedSequence spawn keys).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer, got {v!r}")
            if not (0 <= int(v) < 2**64):
                raise InvalidConfig(f"{name} must fit in 64 unsigned bits, got {v}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def _double_factorial_odd(j: int) -> float:
    """(2j - 1)!! = E[z^{2j}] for standard normal z."""
    out = 1.0
    for i in range(1, 2 * j, 2):
        out *= i
    return out


class Record:
    """Base of every dataclass written as JSON: ``to_dict()`` is ``kind``, where the class
    has one, then each field under its ``metadata["key"]`` or its name."""

    def to_dict(self) -> dict:
        out = {"kind": self.kind} if hasattr(self, "kind") else {}
        for f in fields(self):
            out[f.metadata.get("key", f.name)] = _config_value(getattr(self, f.name))
        return out


class KindTagged(Record):
    """Base of the laws and process specs, whose config is their record."""

    to_config = Record.to_dict


def _config_value(value):
    """A field as JSON data: a record as its to_dict(), a tuple as a list."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_config_value(v) for v in value]
    return value


@dataclass(frozen=True)
class CoefficientLaw(KindTagged):
    """Base law.

    A law states its ``support``, whether it ``has_density`` (and then its
    ``location``, ``scale`` and ``standard_pdf``), how to ``sample`` it, and
    its ``_moment`` and ``_log_moment``.  The sign facts are derived from
    these, on the one assumption that a law with a density has no atom: then
    P(X = lo) = 0 at the lower end lo of its support.
    """

    kind = "base"
    # how moment() answers a non-integer order: "closed-form" or "quadrature" (expect)
    moment_method = "closed-form"
    has_density = False

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise LawError(f"law parameters must be finite, got {self.to_config()}")

    @property
    def nonnegative(self) -> bool:
        """True when P(X >= 0) = 1."""
        return self.support[0] >= 0

    @property
    def strictly_positive(self) -> bool:
        """True when P(X > 0) = 1: the support starts above 0, or at 0 with no atom there."""
        lo = self.support[0]
        return lo > 0 or (lo == 0 and self.has_density)

    @property
    def support(self) -> tuple[float, float]:
        """Closed hull (lo, hi) of the support; lo == hi for a point mass."""
        raise NotImplementedError

    def collapsed(self) -> CoefficientLaw:
        """The same law, with a point mass in disguise written as a Constant."""
        return self

    @property
    def location(self) -> float:
        """Where the density's mass sits, or its singular end; ``expect`` cuts there."""
        raise NotImplementedError

    @property
    def scale(self) -> float:
        """Spread of the density; ``expect`` stretches its half-lines by it."""
        raise NotImplementedError

    def standard_pdf(self, z: float) -> float:
        """Density of (X - location) / scale at z."""
        raise NotImplementedError

    def expect(self, fn, lo: float = -math.inf, hi: float = math.inf) -> float:
        """E[fn(X); lo <= X <= hi], by double-exponential quadrature of fn * pdf.

        The nodes, their densities and weights come from ``_node_table``,
        built once per law and range, so a call evaluates only fn, at the
        nodes where the density is nonzero.  The result is the sum at step
        h/2; if the sum at step h differs from it by more than
        max(QUAD_EPSABS, QUAD_EPSREL * |result|), QuadratureError names the
        gap; MomentOverflow names the first node where fn overflows.
        """
        s_lo, s_hi = self.support
        a, b = max(s_lo, lo), min(s_hi, hi)
        if not a < b:
            return 0.0
        if not self.has_density:
            raise NoDensity(f"{self.kind} law has no density")
        fine = coarse = 0.0
        for size, live, nodes, weights in _node_table(self, type(self).standard_pdf, a, b):
            products = []
            for x, density in nodes:
                try:
                    products.append(density * fn(x))
                except OverflowError:
                    raise self._overflow(x) from None
            values = np.zeros(size)
            values[live] = products
            values *= weights
            fine += float(values.sum())
            coarse += 2.0 * float(values[::2].sum())
        gap = abs(fine - coarse)
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(fine))
        if not gap <= tol:
            raise QuadratureError(
                f"quadrature of E[fn(X)] under the {self.kind} law did not converge: "
                f"steps h and h/2 differ by {gap:.3g} > {tol:.3g}"
            )
        return fine

    def _overflow(self, x: float) -> MomentOverflow:
        """What ``expect`` raises when fn overflows at x."""
        return MomentOverflow(f"E[fn(X)] under the {self.kind} law: fn overflows at x = {x:.3g}")

    def abs_moment(self, mu: float) -> float:
        """E|X|^mu."""
        if self.nonnegative:
            return self.moment(mu)
        return self.expect(lambda x: abs(x) ** mu)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """Draw n iid values, advancing the generator."""
        raise NotImplementedError

    def mean(self) -> float:
        return self.moment(1.0)

    def moment(self, mu: float) -> float:
        """E(X^mu): at any positive order for a nonnegative law, at integer orders
        for a signed one; MomentOverflow where the value leaves the float range."""
        if mu <= 0:
            raise LawError(f"moment order must be positive, got {mu}")
        if not (self.nonnegative or float(mu).is_integer()):
            raise NonnegativityRequired(
                f"{self.kind} law admits negative values; "
                f"E(X^mu) is only defined here for integer mu, got {mu}"
            )
        try:
            val = self._moment(mu)
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise MomentOverflow(f"E(X^{mu:g}) of the {self.kind} law exceeds the float range")
        return val

    def _moment(self, mu: float) -> float:
        """E(X^mu) at an order that ``moment`` accepts."""
        raise NotImplementedError

    def log_moment(self) -> float:
        """E[log X]; PositivityRequired unless P(X > 0) = 1."""
        if not self.strictly_positive:
            raise PositivityRequired(
                f"E[log X] requires P(X > 0) = 1; {self.kind} law violates it"
            )
        return self._log_moment()

    def _log_moment(self) -> float:
        """E[log X] of a strictly positive law."""
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        if not self.has_density:
            raise NoDensity(f"{self.kind} law has no density")
        return self.standard_pdf((x - self.location) / self.scale) / self.scale


@dataclass(frozen=True)
class Exponential(CoefficientLaw):
    """Exponential law with the given mean: E(X^mu) = Gamma(mu+1) * mean^mu."""

    mean_value: float = field(metadata={"key": "mean"})
    kind = "exponential"
    has_density = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.mean_value > 0:
            raise LawError(f"exponential mean must be positive, got {self.mean_value}")

    @property
    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    location = 0.0

    @property
    def scale(self) -> float:
        return self.mean_value

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.exponential(self.mean_value, n)

    def _moment(self, mu: float) -> float:
        return math.exp(math.lgamma(mu + 1.0) + mu * math.log(self.mean_value))

    def _log_moment(self) -> float:
        return math.log(self.mean_value) - EULER_GAMMA

    def standard_pdf(self, z: float) -> float:
        return math.exp(-z) if z >= 0 else 0.0


@dataclass(frozen=True)
class Uniform(CoefficientLaw):
    """Uniform law on [lo, hi), with the left-continuous density 1/(hi - lo) on (lo, hi]."""

    lo: float
    hi: float
    kind = "uniform"
    has_density = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lo < self.hi:
            raise LawError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    @property
    def location(self) -> float:
        return self.lo

    @property
    def scale(self) -> float:
        return self.hi - self.lo

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.uniform(self.lo, self.hi, n)

    def _moment(self, mu: float) -> float:
        p = mu + 1.0  # an integer when lo < 0, so lo**p stays real
        return (self.hi**p - self.lo**p) / (p * (self.hi - self.lo))

    def _log_moment(self) -> float:
        lo, hi = self.lo, self.hi
        upper = hi * math.log(hi) - hi
        lower = lo * math.log(lo) - lo if lo > 0 else 0.0
        return (upper - lower) / (hi - lo)

    def standard_pdf(self, z: float) -> float:
        return 1.0 if 0.0 < z <= 1.0 else 0.0


@dataclass(frozen=True)
class Normal(CoefficientLaw):
    """Normal law; a noise term or a lag weight, never a feedback coefficient."""

    mean_value: float = field(metadata={"key": "mean"})
    sd: float
    kind = "normal"
    has_density = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sd > 0:
            raise LawError(f"normal sd must be positive, got {self.sd}")

    @property
    def support(self) -> tuple[float, float]:
        return -math.inf, math.inf

    @property
    def location(self) -> float:
        return self.mean_value

    @property
    def scale(self) -> float:
        return self.sd

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.normal(self.mean_value, self.sd, n)

    def _moment(self, mu: float) -> float:
        # E(m + sd z)^n = sum over even j of C(n, j) m^(n-j) sd^j (j-1)!!
        n, m = int(mu), self.mean_value
        return sum(
            math.comb(n, j) * m ** (n - j) * self.sd**j * _double_factorial_odd(j // 2)
            for j in range(0, n + 1, 2)
        )

    def abs_moment(self, mu: float) -> float:
        if self.mean_value != 0:
            return super().abs_moment(mu)
        # E|X|^mu = sd^mu 2^(mu/2) Gamma((mu+1)/2) / sqrt(pi)
        try:
            return math.exp(
                mu * math.log(self.sd) + 0.5 * mu * math.log(2.0)
                + math.lgamma((mu + 1.0) / 2.0) - 0.5 * math.log(math.pi)
            )
        except OverflowError:
            raise MomentOverflow(
                f"E|X|^{mu:g} of the normal law with sd {self.sd:g} exceeds the float range"
            ) from None

    def standard_pdf(self, z: float) -> float:
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Constant(CoefficientLaw):
    """Degenerate law: X == value surely.  Sampling consumes no randomness."""

    value: float
    kind = "constant"

    @property
    def support(self) -> tuple[float, float]:
        return self.value, self.value

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def _moment(self, mu: float) -> float:
        return self.value**mu

    def _log_moment(self) -> float:
        return math.log(self.value)

    def expect(self, fn, lo: float = -math.inf, hi: float = math.inf) -> float:
        if not lo <= self.value <= hi:
            return 0.0
        try:
            return fn(self.value)
        except OverflowError:
            raise self._overflow(self.value) from None


@dataclass(frozen=True)
class GarchCoefficient(CoefficientLaw):
    """Law of a = beta + alpha * z^2 with z standard normal.

    This is the feedback coefficient satisfied by the squared volatility of
    a GARCH(1,1) process.  Integer moments are closed form via the normal
    even moments; fractional moments and the log-moment are integrals of
    the chi2(1) density by ``expect``, or the point mass at ``beta`` when
    alpha == 0.
    """

    beta: float
    alpha: float
    kind = "garch_coeff"
    moment_method = "quadrature"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.beta < 0 or self.alpha < 0:
            raise LawError(
                f"garch coefficient requires beta, alpha >= 0, "
                f"got beta={self.beta}, alpha={self.alpha}"
            )

    @property
    def has_density(self) -> bool:
        return self.alpha > 0

    @property
    def support(self) -> tuple[float, float]:
        return self.beta, math.inf

    @property
    def location(self) -> float:
        return self.beta

    @property
    def scale(self) -> float:
        return self.alpha

    def collapsed(self) -> CoefficientLaw:
        return Constant(self.beta) if self.alpha == 0 else self

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        z = gen.standard_normal(n)
        return self.beta + self.alpha * z * z

    def _moment(self, mu: float) -> float:
        """E(X^mu): closed form for integer mu, ``expect`` otherwise."""
        if float(mu).is_integer():
            k = int(mu)
            val = 0.0
            for j in range(k + 1):
                val += (
                    math.comb(k, j)
                    * self.beta ** (k - j)
                    * self.alpha**j
                    * _double_factorial_odd(j)
                )
            return val
        return self.collapsed().expect(lambda x: x**mu)

    def _log_moment(self) -> float:
        return self.collapsed().expect(math.log)

    def standard_pdf(self, z: float) -> float:
        """The chi2(1) density of z^2."""
        return math.exp(-0.5 * z) / math.sqrt(2.0 * math.pi * z) if z > 0 else 0.0

def check_keys(config: dict, known, what: str) -> None:
    """Raise InvalidConfig naming the first key of ``config`` that is not in ``known``."""
    for key in config:
        if key not in known:
            raise InvalidConfig(
                f"unknown key {key!r} in {what} (known: {', '.join(known) or 'none'})"
            )


def _typed(value, cls: type, name: str):
    if not isinstance(value, cls):
        raise InvalidConfig(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def read_value(tp, value, name: str):
    """The JSON value ``value`` read as the annotation ``tp``; errors name it ``name``.

    A float or int is a JSON number or a numeric string, never a bool, and an
    int must be integral.  ``X | None``, ``tuple[...]``, ``list[...]`` and
    ``dict[str, ...]`` are read part by part, a dataclass by ``read_record``
    (a law by its kind), and any other class must be the value's own type.
    """
    if isinstance(tp, types.UnionType):
        options = [t for t in typing.get_args(tp) if t is not type(None)]
        if value is None and len(options) < len(typing.get_args(tp)):
            return None
        if len(options) > 1:
            return read_record(options, value, name)
        tp = options[0]
    if tp is float or tp is int:
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if tp is float and number is not None:
            return number
        if number is not None and number.is_integer():
            return int(value) if isinstance(value, (int, np.integer)) else int(number)
        kind = "a number" if tp is float else "an integer"
        raise InvalidConfig(f"{name} must be {kind}, got {value!r}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list or origin is tuple:
        items = _typed(value, list, name)
        parts = args if origin is tuple and args[-1] is not ... else args[:1] * len(items)
        if len(parts) != len(items):
            raise InvalidConfig(f"{name} must hold {len(parts)} values, got {value!r}")
        return origin(
            read_value(t, v, f"{name}[{i}]") for i, (t, v) in enumerate(zip(parts, items))
        )
    if origin is dict:
        items = _typed(value, dict, name).items()
        return {k: read_value(args[1], v, f"{name}.{k}") for k, v in items}
    if is_dataclass(tp):
        return read_record(tp.__subclasses__() or [tp], value, name)
    return _typed(value, tp, name)


_FIELD_HINTS: dict[type, dict] = {}  # read_record's resolved annotations, per class


def read_record(classes, data, what: str):
    """The record that the JSON object ``data`` describes: the inverse of its
    ``to_dict()``.

    Of classes with a ``kind``, the one named by ``data["kind"]``.  Each field
    is read by ``read_value`` as its annotation, under its ``metadata["key"]``
    or its name, and ``what.key`` names it in errors.  A key that the record
    would not write back is an error, checked only after the record is built;
    so is a value that the record's own checks refuse.
    """
    _typed(data, dict, what)
    cls = classes[0]
    if hasattr(cls, "kind"):
        kinds = {c.kind: c for c in classes}
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise InvalidConfig(f"unknown {what} kind {kind!r} (known: {', '.join(kinds)})")
        cls = kinds[kind]
    hints = _FIELD_HINTS.get(cls)
    if hints is None:
        hints = _FIELD_HINTS[cls] = typing.get_type_hints(cls)
    args = {}
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        if key in data:
            args[f.name] = read_value(hints[f.name], data[key], f"{what}.{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise InvalidConfig(f"{what} is missing field {key!r}")
    try:
        record = cls(**args)
    except KestenLabError as exc:
        raise InvalidConfig(str(exc)) from exc
    check_keys(data, record.to_dict(), what)
    return record


def law_from_config(config: dict) -> CoefficientLaw:
    """Build a law from a config fragment like {"kind": "exponential", "mean": 0.55}."""
    return read_value(CoefficientLaw, config, "law")
