"""Return-path generators.

Three generative models for returns driven by a feedback coefficient:
the one-shot inverse-multiplier process r = (1 - a)^{-1} e, the order-K
feedback recursion r_t = a_t * sum_k w_kt r_{t-k} + e_t with the scalar
r_t = a_t r_{t-1} + e_t as its K = 1 case, and GARCH(1,1), whose squared
volatility is the scalar recursion.  Every recursion runs on one blocked
kernel over ``companion_step``, the step theory's matrix products share.
Each spec states the laws of the scalar recursion behind it (``feedback``)
and its order-K form (``companion``), each None on a kind without one, and
draws its own paths (``paths``).  ``simulate``, the one entry point for
every kind, runs a scalar spec as its companion.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .distributions import (
    CoefficientLaw,
    Constant,
    GarchCoefficient,
    KindTagged,
    RngStream,
    read_value,
)
from .errors import (
    DegenerateSpec,
    InvalidConfig,
    NumericalOverflow,
    ParseError,
    ZeroWeightSum,
)

# A path that reaches this in absolute value raises NumericalOverflow.
OVERFLOW_LIMIT = 1e300

# Steps per block of the path kernel; a block is never shorter than the order K.
PATH_BLOCK = 1024

# Steps per chunk of the path kernel: the draws of all blocks for this many
# steps are gathered into one contiguous buffer (a few MB at n = 10^6).
PATH_CHUNK = 64

# Draws with |1 - a| below this are resampled in the inverse-multiplier
# process instead of emitting +-inf.
NEAR_ONE_TOL = 1e-12


@dataclass(frozen=True)
class InverseMultiplier(KindTagged):
    """Spec for the iid process r = (1 - a)^{-1} e."""

    a_law: CoefficientLaw
    e_law: CoefficientLaw
    kind = "inverse_multiplier"
    feedback = companion = None

    def paths(self, gen: np.random.Generator, total: int) -> tuple[tuple[np.ndarray, ...], int]:
        a_lo, a_hi = self.a_law.collapsed().support
        if a_lo == a_hi and abs(1.0 - a_lo) < NEAR_ONE_TOL:
            raise DegenerateSpec("a == 1 surely: the multiplier (1 - a)^{-1} is undefined")
        a = self.a_law.sample(gen, total)
        e = self.e_law.sample(gen, total)
        # resample draws with |1 - a| < NEAR_ONE_TOL rather than emit huge
        # finite spikes; the asymptotics concern large-but-finite values
        resamples = 0
        for _ in range(128):
            mask = np.abs(1.0 - a) < NEAR_ONE_TOL
            bad = int(mask.sum())
            if bad == 0:
                break
            resamples += bad
            a[mask] = self.a_law.sample(gen, bad)
        else:
            raise DegenerateSpec("a concentrates at 1: resampling did not terminate")
        with np.errstate(over="ignore"):
            path = e / (1.0 - a)
        return (_checked(path, "the path e / (1 - a)", "rescale the e law"),), resamples


@dataclass(frozen=True)
class KestenScalar(KindTagged):
    """Spec for the scalar feedback recursion r_t = a_t r_{t-1} + e_t."""

    a_law: CoefficientLaw
    e_law: CoefficientLaw
    r0: float = 0.0
    kind = "kesten_scalar"

    def __post_init__(self) -> None:
        if not math.isfinite(self.r0):
            raise InvalidConfig(f"kesten_scalar r0 must be finite, got {self.r0}")

    @property
    def feedback(self) -> tuple[CoefficientLaw, CoefficientLaw]:
        return self.a_law, self.e_law

    @property
    def companion(self) -> KestenAR:
        """The order-1 embedding: one lag, weight exactly 1."""
        return KestenAR(self.a_law, self.e_law, (Constant(1.0),), False, (self.r0,))


@dataclass(frozen=True)
class KestenAR(KindTagged):
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
    feedback = None
    companion = property(lambda self: self)  # its own order-K form

    def __post_init__(self) -> None:
        if len(self.weight_laws) < 1:
            raise InvalidConfig("kesten_ar needs at least one weight law")
        object.__setattr__(self, "weight_laws", tuple(self.weight_laws))
        r_init = tuple(self.r_init) if self.r_init else (0.0,) * len(self.weight_laws)
        if len(r_init) != len(self.weight_laws):
            raise InvalidConfig(
                f"r_init has length {len(r_init)}, expected K={len(self.weight_laws)}"
            )
        if not all(map(math.isfinite, r_init)):
            raise InvalidConfig(f"kesten_ar r_init must be finite, got {list(r_init)}")
        object.__setattr__(self, "r_init", r_init)

    @property
    def order(self) -> int:
        return len(self.weight_laws)

    def draw_coefficients(
        self, gen: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``size`` draws of a, and the (K, size) weight columns drawn after them.

        With ``normalize_weights`` each drawn weight vector is divided by
        its sum; a sum within 1e-12 of zero raises ZeroWeightSum.
        """
        a = self.a_law.sample(gen, size)
        w = np.empty((self.order, size))  # filled row by row: one law's draws live at a time
        for i, law in enumerate(self.weight_laws):
            w[i] = law.sample(gen, size)
        if self.normalize_weights:
            sums = w.sum(axis=0)
            zero = np.abs(sums) < 1e-12
            if zero.any():
                raise ZeroWeightSum(
                    f"drawn weight vector {int(np.argmax(zero))} sums to ~0; "
                    "cannot normalize to unit sum"
                )
            w /= sums
        return a, w

    def paths(self, gen: np.random.Generator, total: int) -> tuple[tuple[np.ndarray, ...], int]:
        # weights exactly (Constant(1.0),) take the scalar step, with no weight
        # row: the same bits, since 1.0 * x == x and a Constant draws nothing
        unit = self.weight_laws == (Constant(1.0),)
        a, w = (self.a_law.sample(gen, total), None) if unit else self.draw_coefficients(gen, total)
        e = self.e_law.sample(gen, total)
        return (_checked(_companion_path(a, w, e, self.r_init)),), 0


@dataclass(frozen=True)
class Garch11(KindTagged):
    """GARCH(1,1): r_t = sigma_t z_t, sigma2_t = omega + alpha r_{t-1}^2 + beta sigma2_{t-1}."""

    omega: float
    alpha: float
    beta: float
    sigma0: float = 0.1
    kind = "garch11"
    companion = None

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.omega, self.alpha, self.beta, self.sigma0))):
            raise InvalidConfig(f"garch11 parameters must be finite, got {self.to_config()}")
        if not self.omega > 0:
            raise InvalidConfig(f"garch11 omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidConfig("garch11 alpha and beta must be nonnegative")
        if not self.sigma0 > 0:
            raise InvalidConfig(f"garch11 sigma0 must be positive, got {self.sigma0}")

    @property
    def feedback(self) -> tuple[CoefficientLaw, CoefficientLaw]:
        """sigma2_t = (beta + alpha z^2) sigma2_{t-1} + omega: GarchCoefficient(beta,
        alpha), a Constant when alpha == 0, and the constant noise omega."""
        return GarchCoefficient(self.beta, self.alpha).collapsed(), Constant(self.omega)

    def paths(self, gen: np.random.Generator, total: int) -> tuple[tuple[np.ndarray, ...], int]:
        z = gen.standard_normal(total)
        # sigma2_t = a_{t-1} sigma2_{t-1} + omega, a = beta + alpha z^2 as GarchCoefficient draws it
        zp, s0, omega = z[:-1], self.sigma0 * self.sigma0, np.full(total - 1, self.omega)
        path = _companion_path(self.beta + self.alpha * zp * zp, None, omega, (s0,))
        sigma2 = _checked(np.concatenate(([s0], path)))
        return (np.sqrt(sigma2) * z, sigma2, z), 0


ProcessSpec = InverseMultiplier | KestenScalar | KestenAR | Garch11


def kinds_with(fact: str) -> str:
    """The kinds whose specs state ``fact`` ("feedback" or "companion"), as "x or y"."""
    specs = ProcessSpec.__args__
    return " or ".join(cls.kind for cls in specs if getattr(cls, fact) is not None)


def spec_from_config(config: dict) -> ProcessSpec:
    """Inverse of ``spec.to_config()``; a key that it would not write back is an error."""
    return read_value(ProcessSpec, config, "process")


def spec_digest(spec: ProcessSpec) -> str:
    """Stable content hash of a process spec."""
    payload = json.dumps(spec.to_config(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def series_values(series) -> np.ndarray:
    """The values of a ReturnSeries or an array-like as float64, checked to be
    nonempty, 1-d and finite (InvalidConfig otherwise)."""
    arr = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidConfig("expected a nonempty 1-d series")
    if not np.isfinite(arr).all():
        raise InvalidConfig("return series contains NaN or inf")
    return arr


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """A simulated or ingested sequence of returns with its provenance.

    Construction checks the values with ``series_values``.
    """

    values: np.ndarray
    spec_digest: str
    seed: RngStream | None = None
    burn_in_dropped: int = 0
    resamples: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", series_values(self.values))

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


def companion_step(a, w, rows: list) -> list:
    """The rows of M P from the rows of P, where M is the companion matrix with
    first row a * w: the top row becomes a * (w[0] rows[0] + ... + w[K-1] rows[K-1]),
    summed left to right, and the other rows shift down by one.  ``w`` None is
    the scalar step, a weight of exactly 1: [a * rows[0]]."""
    if w is None:
        return [a * rows[0]]
    acc = w[0] * rows[0]
    for wj, row in zip(w[1:], rows[1:]):
        acc += wj * row
    return [a * acc, *rows[:-1]]


def _gather(x: np.ndarray, block: int, start: int, buf: np.ndarray, tile: np.ndarray) -> None:
    """buf[..., i, b] = step start + i of block b of x, along x's last axis,
    for as many steps as buf holds; a short last block leaves its entries
    past its end as they were.

    The full blocks' steps are first copied, one lead row at a time, into
    ``tile``, a contiguous (full blocks, chunk) staging array.  In x the
    blocks lie PATH_BLOCK * 8 = 8192 bytes apart, a power of two, so the
    lines of one step share a few cache sets, and a transpose straight out
    of x evicts each line before it reads the line's next step."""
    *lead, total = x.shape
    full, steps = total // block, buf.shape[-2]
    body = x[..., : full * block].reshape(*lead, full, block)[..., start : start + steps]
    stage = tile[:full, :steps]
    for j in np.ndindex(*lead):
        stage[:] = body[j]
        buf[j][:, :full] = stage.T
    tail = x[..., full * block + start : full * block + start + steps]
    buf[..., : tail.shape[-1], full:] = tail[..., None]


def _run_blocks(a, w, e, rows: list, block: int, out=None, rejoin: bool = False) -> list:
    """Run step t of all blocks at once from the draws a[t::block]: rows[i][r, b]
    is lag i of run r in block b, e enters run 0 only, and ``out`` gets run 0;
    ``w`` None is the scalar recursion, which has no weight row.

    The draws are copied in, and run 0 copied out to ``out``, PATH_CHUNK
    steps at a time through contiguous (steps, blocks) buffers made once per
    call, so a step reads adjacent memory and not one value per block; the
    draws pass through one staging tile, shared by a, each weight row and e
    (``_gather`` says why).

    With ``rejoin``, ``out`` already holds a run of the same draws from other
    starts, and the call stops after the first chunk at whose end every block
    has rejoined it: its last len(rows) steps equal out's bit for bit (int64
    views, so +-0.0 and NaN are exact), or the block has ended.  A rejoined
    state reads the same draws with the same arithmetic, so the rest of
    ``out`` is already this run.  The steps that agree are counted across
    chunks, so an order above PATH_CHUNK is checked too."""
    steps = min(block, a.size)
    chunk, full = min(PATH_CHUNK, block), a.size // block
    ac, ec, oc = (np.empty((chunk, -(-a.size // block))) for _ in range(3))
    wc = None if w is None else np.empty((len(w), *ac.shape))
    tile = np.empty((full, chunk))
    gathered = [(x, buf) for x, buf in ((a, ac), (w, wc), (e, ec)) if x is not None]
    if rejoin:
        before, agree = np.empty_like(oc), np.zeros(oc.shape[1], dtype=np.int64)
        length = np.minimum(block, a.size - block * np.arange(oc.shape[1]))
    for start in range(0, steps, chunk):
        m = min(chunk, steps - start)
        for x, buf in gathered:
            _gather(x, block, start, buf[..., :m, :], tile)
        for i in range(m):
            n = len(range(start + i, a.size, block))  # the blocks that reach this step
            wi = None if wc is None else wc[:, i, :n]
            rows = companion_step(ac[i, :n], wi, [r[:, :n] for r in rows])
            rows[0][0] += ec[i, :n]
            oc[i, :n] = rows[0][0]
        if out is None:
            continue
        if rejoin:  # agree[b]: how many of block b's latest steps equal out's
            _gather(out, block, start, before[:m], tile)
            miss = oc[:m].view(np.int64) != before[:m].view(np.int64)
            agree = np.where(miss.any(axis=0), np.argmax(miss[::-1], axis=0), agree + m)
        out[: full * block].reshape(full, block)[:, start : start + m] = oc[:m, :full].T
        tail = out[full * block + start : full * block + start + m]
        tail[:] = oc[: tail.size, full:].ravel()
        if rejoin and ((agree >= len(rows)) | (length <= start + m)).all():
            break
    return rows


def _companion_path(a: np.ndarray, w, e: np.ndarray, r_init: tuple) -> np.ndarray:
    """r_t = a_t * sum_k w_kt r_{t-k} + e_t from r_init = (r_{-1}, ..., r_{-K});
    ``w`` None is the scalar recursion r_t = a_t r_{t-1} + e_t from r_init = (r_{-1},).

    The steps are cut into blocks of max(PATH_BLOCK, K).  A first pass runs
    every block from a zero start, which it writes to the path, and from
    the K unit starts, and keeps the block ends, from which a loop over the
    blocks finds each true start (a block whose unit response lost its
    finite start's share is rerun from it).  A second pass reruns every
    block from its start with the plain loop's arithmetic until each block
    has rejoined its zero-start run, which the contraction brings about
    within a few dozen steps on a mixing path; from there the first pass's
    steps stand.  Both passes read their draws a chunk of PATH_CHUNK steps
    at a time (``_run_blocks``), which changes no arithmetic.  A diverging
    path comes back holding inf or NaN.
    """
    k, total, block = len(r_init), a.size, max(PATH_BLOCK, len(r_init))

    def draws(span: slice) -> tuple:
        return a[span], None if w is None else w[:, span], e[span]

    blocks = max(-(-total // block), 1)
    out = np.empty(total)
    with np.errstate(all="ignore"):
        unit = np.broadcast_to(np.eye(k, k + 1, 1)[:, :, None], (k, k + 1, blocks))
        # [end row, zero start or 1 + lag, block]; the last block runs for its
        # zero start, which the second pass rejoins, and its end is not needed
        ends = np.array(_run_blocks(a, w, e, list(unit), block, out))[:, :, : blocks - 1]
        # lost[j, b]: the lag-j start size whose share block b's composed end loses:
        # any where a unit response overflowed; where one underflowed into the
        # subnormals or to 0, any that would show next to the zero-start end
        size = np.abs(ends)
        fp = np.finfo(np.float64)
        small = (size[:, 1:] < fp.tiny).any(axis=0)
        lost = np.where(small, fp.eps / fp.tiny * size[:, 0].min(axis=0), np.inf)
        lost[~np.isfinite(size[:, 1:]).all(axis=0)] = 0.0
        starts = np.full((blocks, k), r_init, dtype=np.float64)  # row b: block b's start
        for b in range(blocks - 1):
            if np.isfinite(starts[b]).all() and (np.abs(starts[b]) > lost[:, b]).any():
                span = slice(b * block, (b + 1) * block)  # rerun as the second pass will
                rows = list(starts[b][:, None, None])
                rows = _run_blocks(*draws(span), rows, block)
                starts[b + 1] = [row[0, 0] for row in rows]
            else:  # a zero lag adds nothing, even through an inf response
                live = starts[b] != 0.0
                starts[b + 1] = [end[0, b] + end[1:, b][live] @ starts[b][live] for end in ends]
        _run_blocks(a, w, e, list(starts.T[:, None, :]), block, out, rejoin=True)
    return out


_UNSTATIONARY = (
    "the coefficient law is likely outside the stationary regime "
    "(see theory.stationarity_check / theory.lyapunov_top)"
)


def _checked(path: np.ndarray, what: str = "the recursion", cause: str = _UNSTATIONARY):
    """The path, or NumericalOverflow at its first step not inside +-OVERFLOW_LIMIT,
    naming the path and the likely cause."""
    # two reductions that write nothing; either reads NaN if the path holds one
    if -OVERFLOW_LIMIT < path.min() and path.max() < OVERFLOW_LIMIT:
        return path
    inside = (path > -OVERFLOW_LIMIT) & (path < OVERFLOW_LIMIT)  # False at NaN
    raise NumericalOverflow(
        f"{what} exceeded {OVERFLOW_LIMIT:g} in absolute value at step "
        f"{int(np.argmin(inside))}; {cause}"
    )


def _paths(
    spec: ProcessSpec, rng: RngStream, n: int, burn_in: int
) -> tuple[tuple[np.ndarray, ...], int]:
    """The spec's paths with the first burn_in steps dropped, and the resample count.

    ``paths(gen, total)`` of the spec, or of a scalar spec's order-1 companion,
    draws total steps of each path, the returns first (GARCH(1,1) adds sigma2
    and z), from one up-front block per law, a before e, and counts the resamples.
    """
    if n < 1 or burn_in < 0:
        raise InvalidConfig(f"need n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    if not isinstance(spec, ProcessSpec):
        raise InvalidConfig(f"unknown process spec {type(spec).__name__}")
    paths, resamples = (spec.companion or spec).paths(rng.generator(), burn_in + n)
    return tuple(p[burn_in:] for p in paths), resamples


def simulate(spec: ProcessSpec, rng: RngStream, n: int, burn_in: int) -> ReturnSeries:
    """n returns of the spec's process after dropping burn_in warm-up steps."""
    paths, resamples = _paths(spec, rng, n, burn_in)
    return ReturnSeries(paths[0], spec_digest(spec), rng, burn_in, resamples)


def garch11_paths(
    spec: Garch11, rng: RngStream, n: int, burn_in: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(returns, sigma2, z) paths after burn-in, as simulate draws them; diagnostic surface.

    sigma2_t = a_{t-1} sigma2_{t-1} + omega with a = beta + alpha z^2 from one
    up-front block of z draws, so a GarchCoefficient law sampled from the
    same stream reproduces sigma2 bitwise.
    """
    if not isinstance(spec, Garch11):
        raise InvalidConfig(f"garch11_paths needs a Garch11 spec, got {type(spec).__name__}")
    return _paths(spec, rng, n, burn_in)[0]


def as_ar(spec: ProcessSpec) -> KestenAR:
    """The spec's companion form (``spec.companion``); InvalidConfig for a kind without one."""
    if (companion := spec.companion) is None:
        raise InvalidConfig(
            f"a companion form needs a {kinds_with('companion')} process, got {spec.kind}"
        )
    return companion


# series files: CSV and .npy round trips -------------------------------------

# Rows formatted and written per block, so memory does not grow with the file.
CSV_BLOCK_ROWS = 16_384


def write_csv(path, header: str, *columns) -> None:
    """Write a header and one row per index of the equal-length columns to a
    path, or to an open text file such as sys.stdout.

    Each column is a numpy array or a range.  Cells are written with repr,
    so floats round-trip exactly and integers stay integers; lines end in LF.
    A block of rows is one %-format over its cells, taken row by row.
    """
    if not hasattr(path, "write"):
        with open(path, "w", newline="\n") as fh:
            return write_csv(fh, header, *columns)
    path.write(header + "\n")
    row = ",".join(["%r"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        parts = []
        for column in columns:
            part = column[start : start + CSV_BLOCK_ROWS]
            parts.append(part.tolist() if isinstance(part, np.ndarray) else part)
        path.write((row * len(parts[0])) % tuple(itertools.chain.from_iterable(zip(*parts))))


def write_series_csv(series: ReturnSeries, path: str | Path) -> None:
    """Write header t,r with round-trip-exact decimal floats and LF endings.

    The text is measured and hashed as it is written, never read back, and
    the values are stored in the series cache under its size and hash:
    ``read_series_csv`` of these bytes parses to exactly them, since
    float(repr(x)) == x.
    """
    sha = hashlib.sha256()

    def write(text: str) -> None:
        data = text.encode()
        sha.update(data)
        fh.write(data)

    with open(path, "wb") as fh:
        write_csv(SimpleNamespace(write=write), "t,r", range(len(series.values)), series.values)
        size = fh.tell()
    _cache_put(f"{size}-{sha.hexdigest()}", series.values)


def write_series_npy(series: ReturnSeries, path: str | Path) -> None:
    """Write the values as a 1-d float64 ``.npy`` array, bit for bit.

    Saved through an open handle: ``np.save`` on a path would append ``.npy``.
    """
    with open(path, "wb") as fh:
        np.save(fh, series.values, allow_pickle=False)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_npy(path: Path) -> np.ndarray:
    """The finite, nonempty, 1-d float64 array in a ``.npy`` file.

    The header is checked against the file size before any data is read,
    and no pickled data is ever loaded; anything else is a ParseError.
    """
    with path.open("rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported format version {version}")
            shape, _, dtype = _NPY_HEADER_READERS[version](fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not a .npy array: {exc}") from None
        if dtype.kind != "f" or dtype.itemsize != 8 or len(shape) != 1:
            raise ParseError(
                f"{path}: expected a 1-d float64 array, got dtype {dtype} and shape {shape}"
            )
        if shape[0] == 0:
            raise ParseError(f"{path}: empty array")
        data_bytes = path.stat().st_size - fh.tell()
        if data_bytes != 8 * shape[0]:
            raise ParseError(
                f"{path}: holds {data_bytes} data bytes, its header declares {8 * shape[0]}"
            )
        values = np.fromfile(fh, dtype=dtype).astype(np.float64, copy=False)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParseError(f"{path}: element {bad[0]} is not finite: {float(values[bad[0]])!r}")
    return values


# Suffixes by which numpy's reader picks a decompressor (compared case-sensitively).
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _file_key(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def read_snapshot(path: Path) -> tuple[os.stat_result, bytes]:
    """The file's stat and its bytes, both from one open handle."""
    with open(path, "rb") as fh:
        return os.fstat(fh.fileno()), fh.read()


def read_csv_column(
    path: Path, select: Callable, before: os.stat_result, raw: bytes
) -> tuple[np.ndarray, Callable]:
    """Column ``select(header)`` of the CSV file ``path`` and a row locator.

    ``before, raw`` is ``read_snapshot(path)``, the file's stat and bytes.
    Returns (values, row).  ``values`` holds a float64 for each data
    row of ``raw`` whose cells are not all blank: float() of the column's
    cell, NaN where that fails.  ``row(i)`` is the i-th such row as (line,
    cells, value), where line is the row's first physical line and value
    is float() of the cell (None when that fails); it rescans ``raw``, so
    a caller asks for it only to name a bad row.  ``select`` gets None for
    an empty file.  Bytes that are not UTF-8, and a row csv.reader refuses,
    raise ParseError naming their line.
    """

    def scan(fh):
        reader = csv.reader(fh)
        line = 1
        try:
            for cells in reader:
                yield line, cells
                line = reader.line_num + 1
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            raise ParseError(f"{path}: line {line}: {exc}") from None
        except UnicodeDecodeError:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise ParseError(
                    f"{path}: line {line}: byte {raw[exc.start]:#04x} is not valid UTF-8"
                ) from None
            raise

    def rows():
        data = scan(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
        next(data, None)
        for line, cells in data:
            if any(c.strip() for c in cells):
                try:
                    value = float(cells[col])
                except (IndexError, ValueError):
                    value = None
                yield line, cells, value

    def row(i: int) -> tuple:
        return next(itertools.islice(rows(), i, None))

    # read with the line endings numpy sees, so a header record that spans
    # physical lines holds a "\n"
    header = next(scan(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")), (1, None))[1]
    col = select(header)
    # numpy's C reader runs only on a path (a file object is read line by line
    # in Python), so it reads the file again; its rows are the row scan's, in
    # order.  The row scan parses raw instead where numpy fails, where numpy
    # would decompress by the suffix, where skiprows (which counts physical
    # lines) would not skip exactly the header, where numpy's float parser
    # would strip a \x1c-\x1f around a field (float() does not), and where
    # the file is not the one raw was read from.
    if not (
        before.st_size != len(raw)
        or os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES
        or any("\n" in cell for cell in header or ())
        or any(c in raw for c in b"\x1c\x1d\x1e\x1f")
    ):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
                values = np.loadtxt(
                    os.path.abspath(path),  # never a URL to numpy
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    usecols=col,
                    ndmin=1,
                    skiprows=1,
                    encoding="utf-8",
                )
            if _file_key(os.stat(path)) == _file_key(before):
                return values, row
        except (ValueError, OSError):  # a row that does not parse, bytes not UTF-8, a lost file
            pass
    values = [math.nan if value is None else value for _, _, value in rows()]
    return np.array(values, dtype=np.float64), row


def _is_npy(path: str | Path) -> bool:
    """The suffix rule for series files: ``.npy`` is an array, any other name a t,r CSV."""
    return Path(path).suffix == ".npy"


def write_series(series: ReturnSeries, path: str | Path) -> None:
    """Write the series in the format its suffix names (see ``_is_npy``)."""
    (write_series_npy if _is_npy(path) else write_series_csv)(series, path)


def read_series_csv(path: str | Path) -> np.ndarray:
    """Read a t,r series CSV, or a ``.npy`` series by its suffix, into a
    value array of finite returns."""
    path = Path(path)
    if _is_npy(path):
        return _read_npy(path)

    def select(header: list[str] | None) -> int:
        text = ",".join(header or []).strip()
        if text != "t,r":
            raise InvalidConfig(f"{path}: expected header 't,r', got {text!r}")
        return 1

    before, raw = read_snapshot(path)
    if (values := _cache_get(raw)) is not None:
        return values
    values, row = read_csv_column(path, select, before, raw)
    finite = np.isfinite(values)
    if not finite.all():
        line, cells, _ = row(int(finite.argmin()))
        text = ",".join(cells).rstrip()
        raise ParseError(f"{path}: line {line}: no finite return in {text!r}")
    if not values.size:
        raise ParseError(f"{path}: no data rows")
    return values


# the series cache ----------------------------------------------------------------

# Entries the series cache keeps; each put drops the least recently used beyond it.
CACHE_ENTRIES = 16


def _cache_dir() -> Path | None:
    """$XDG_CACHE_HOME/kestenlab/<version>, or ~/.cache/... when that variable is
    unset, empty or relative; None when there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    except RuntimeError:
        return None
    return root / "kestenlab" / __version__


def _cache_get(raw: bytes) -> np.ndarray | None:
    """The values ``write_series_csv`` stored for a file of exactly the bytes
    ``raw``: the entry under their size and sha256, if it passes ``_read_npy``
    and holds one value per LF-terminated row after the header; else None.
    The bytes are hashed only when an entry of their size is listed.  A hit
    is marked as the most recently used, and an OSError is a miss."""
    if (directory := _cache_dir()) is None:
        return None
    prefix = f"{len(raw)}-"
    try:
        if not any(name.startswith(prefix) for name in os.listdir(directory)):
            return None
        entry = directory / f"{prefix}{hashlib.sha256(raw).hexdigest()}.npy"
        values = _read_npy(entry)
        if values.size == raw.count(b"\n") - 1:
            os.utime(entry)
            return values
    except (OSError, ParseError):
        pass
    return None


def _cache_put(key: str, values: np.ndarray) -> None:
    """Store ``values`` under ``key``: written to a temporary file, then renamed
    into place, and then all but the CACHE_ENTRIES most recently used files
    (a stale temporary file too) are removed.  An OSError ends the store
    silently; in the pruning it skips just the file it names, such as one
    that another process removed after the listing."""
    if (directory := _cache_dir()) is None:
        return
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".", suffix=".npy", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, values, allow_pickle=False)
            os.replace(tmp, directory / f"{key}.npy")
        finally:
            Path(tmp).unlink(missing_ok=True)
        used = []
        with os.scandir(directory) as found:
            for entry in found:
                with contextlib.suppress(OSError):
                    used.append((entry.stat().st_mtime_ns, entry.path))
    except OSError:
        return
    for _, stale in sorted(used, reverse=True)[CACHE_ENTRIES:]:
        with contextlib.suppress(OSError):
            os.unlink(stale)
