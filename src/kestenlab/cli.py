"""Config-driven experiment runner and data pipeline.

One JSON config describes a process, a sample size, a seed and a set of
analyses; ``run`` simulates the path once, feeds every requested analysis
from that same path and writes a reproducible result bundle (the series as
``.npy``, CCDF/ACF tables, JSON summaries, manifest).  Identical configs produce
byte-identical payloads; timestamps live only in the manifest.

Subcommands: run, ingest, fit-tail, acf, cramer, lyapunov, report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from .distributions import Record, RngStream, check_keys, law_from_config, read_record, read_value
from .errors import (
    InvalidConfig,
    KestenLabError,
    MissingArtifacts,
    NonPositivePrice,
    NonStationary,
    ParseError,
    ReturnOverflow,
)
from .estimators import (
    MIN_TAIL_POINTS,
    TailFit,
    acf,
    check_max_lag,
    check_threshold,
    hill_estimator,
    mean_std,
    returns_from_prices,
    tail_exponent_ls,
    tail_fit_with_ccdf,
    write_acf_csv,
    write_ccdf_csv,
)
from .processes import (
    Garch11,
    InverseMultiplier,
    ProcessSpec,
    ReturnSeries,
    kinds_with,
    read_csv_column,
    read_series_csv,
    read_snapshot,
    simulate,
    write_series,
    write_series_npy,
)
from .theory import (
    CramerSolution,
    LyapunovEstimate,
    RegimeClassification,
    StationarityCheck,
    TheoryReport,
    UnitExponentPrediction,
    check_lyapunov_params,
    check_moment_spec,
    classify_regime,
    cramer_root,
    kesten_conditions_report,
    lyapunov_top,
    moment_lyapunov_root,
    stationarity_check,
    unit_exponent_prediction,
)

OUTPUT_ROOT_ENV = "KESTENLAB_OUTPUT_ROOT"


@dataclass
class ExperimentConfig(Record):
    """Full description of one experiment; round-trips through canonical JSON."""

    process: ProcessSpec
    n_samples: int
    seed: int
    burn_in: int = 0
    analyses: dict = field(default_factory=dict)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise InvalidConfig(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise InvalidConfig(f"burn_in must be >= 0, got {self.burn_in}")
        RngStream(self.seed)  # refuses a seed outside 64 unsigned bits
        if not self.analyses:
            raise InvalidConfig("config must request at least one analysis")
        self.analyses = {
            name: _analysis_params(name, params, self.process)
            for name, params in self.analyses.items()
        }


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of ``config.to_dict()``; a key that it would not write back is an error."""
    return read_record([ExperimentConfig], data, "config")


def config_from_json(text: str | bytes) -> ExperimentConfig:
    return config_from_dict(_load_json(text, "config"))


def config_to_json(config: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return _canonical_json(config.to_dict())


def config_digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_json(config).encode()).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config file; bare names fall back to the bundled golden configs."""
    p = Path(path)
    if not p.exists():
        bundled = importlib.resources.files("kestenlab") / "configs" / p.name
        if p.name == str(path) and bundled.is_file():
            return config_from_json(bundled.read_bytes())
        raise InvalidConfig(f"config file not found: {path}")
    return config_from_json(p.read_bytes())


@dataclass
class RunManifest(Record):
    """Record of a completed run; written last, so its existence marks success."""

    config_digest: str
    toolkit_version: str
    seed: int
    started_at: str
    finished_at: str
    output_dir: str
    outputs: dict[str, list[str]]
    counters: dict[str, int]


def _load_json(text: str | bytes, what: str):
    """The JSON value in ``text``; InvalidConfig if it is not UTF-8 JSON or
    nests too deep to decode."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidConfig(f"{what} is not valid JSON: {exc}") from None


def _read_json(path: Path, cls: type, what: str):
    """The ``cls`` record in the JSON file ``path``; an InvalidConfig names the file."""
    try:
        return read_record([cls], _load_json(path.read_bytes(), what), what)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def _canonical_json(data) -> str:
    """Sorted keys, two-space indent, a trailing newline; a record is written as its to_dict()."""
    return json.dumps(data, indent=2, sort_keys=True, default=lambda r: r.to_dict()) + "\n"


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _law_text(law) -> str:
    cfg = law.to_config()
    args = ", ".join(f"{k}={v}" for k, v in cfg.items() if k != "kind")
    return f"{cfg['kind']}({args})"


def resolve_output_dir(
    config: ExperimentConfig, override: str | None = None, name: str | None = None
) -> Path:
    """Explicit override > config.output_dir > $KESTENLAB_OUTPUT_ROOT/<name>."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if override is not None:
        return Path(override)
    if config.output_dir is not None:
        p = Path(config.output_dir)
        if not p.is_absolute() and root:
            return Path(root) / p
        return p
    base = Path(root) if root else Path("runs")
    return base / (name or f"run-{config_digest(config)[:12]}")


# analyses --------------------------------------------------------------------


@dataclass(frozen=True)
class Analysis:
    """One analysis a run can request; a config value is read as its default's type.

    ``compute(series, config, params, write)`` writes the analysis files with
    ``write(filename, payload)`` and returns its ``summary.json`` entry: a
    value of the ``RunSummary`` field named after the analysis, which
    ``report(entry, out_dir)`` renders as lines.  ``needs`` names the spec
    fact the analysis reads, "feedback" or "companion"; a process kind on
    which it is None is refused (``needs`` None: any kind).
    """

    defaults: dict
    needs: str | None
    compute: Callable[[ReturnSeries, ExperimentConfig, dict, Callable], object]
    report: Callable[[object, Path], list[str]]
    check: Callable[[dict, ProcessSpec], None] | None = None  # rejects bad parameters


def _solution_text(sol: CramerSolution) -> str:
    """The root, how it was solved, and its stencil spread where set."""
    spread = "" if sol.stencil_spread is None else f", stencil spread {sol.stencil_spread:.1g}"
    return f"mu = {sol.mu_star:.4f} (method {sol.method}, residual {sol.residual:.2g}{spread})"


def _garch_returns_text(sol: CramerSolution) -> str:
    """GARCH(1,1)'s root mu* is sigma^2's; r = sigma z has the tail exponent 2 mu*
    (Breiman's lemma: z has every moment)."""
    return f"returns: predicted mu = 2 x sigma^2's mu above = {2.0 * sol.mu_star:.4f}"


def _cramer(series, config: ExperimentConfig, params: dict, write) -> RegimeClassification:
    entry = classify_regime(config.process.feedback[0])
    write("cramer.json", entry)
    return entry


def _report_cramer(entry: RegimeClassification, out_dir: Path) -> list[str]:
    rel = "=" if entry.case == "A" else (">" if entry.case == "B" else "<")
    return [
        f"regime: {entry.case} (E(a) = {entry.mean_a:.4g} {rel} 1) -> predicted {entry.predicted}",
        "predicted " + _solution_text(entry.solution),
    ]


def _tail_fit(series, config: ExperimentConfig, params: dict, write) -> TailFit:
    fit, x, p = tail_fit_with_ccdf(series, params["threshold"])
    write("ccdf.csv", lambda path: write_ccdf_csv(x, p, path))
    write("tail_fit.json", fit)
    return fit


def _report_tail_fit(entry: TailFit, out_dir: Path) -> list[str]:
    return [
        f"fitted mu = {entry.exponent:.4f} +- {entry.stderr:.4f} "
        f"(log-log LS above {entry.threshold:.4g}, n_tail {entry.n_tail})"
    ]


@dataclass(frozen=True)
class HillEstimate(Record):
    """The Hill tail index from the top k order statistics, a cross-check."""

    k: int
    estimate: float


def _hill(series, config: ExperimentConfig, params: dict, write) -> HillEstimate:
    entry = HillEstimate(params["k"], hill_estimator(series, params["k"]))
    write("hill.json", entry)
    return entry


def _check_hill(params: dict, process: ProcessSpec) -> None:
    if params["k"] < MIN_TAIL_POINTS:
        raise InvalidConfig(f"hill k must be >= {MIN_TAIL_POINTS}, got {params['k']}")


def _report_hill(entry: HillEstimate, out_dir: Path) -> list[str]:
    return [f"hill cross-check (k={entry.k}): {entry.estimate:.4f}"]


def _acf(series, config: ExperimentConfig, params: dict, write) -> dict:
    entry = {}
    for kind in params["kinds"]:
        res = acf(series, params["max_lag"], absolute=(kind == "absolute"))
        write(f"acf_{kind}.csv", lambda path: write_acf_csv(res, path))
        entry[kind] = {
            "lag_1": res.at(1),
            f"lag_{params['max_lag']}": res.at(params["max_lag"]),
        }
    return entry


def _check_acf(params: dict, process: ProcessSpec) -> None:
    check_max_lag(params["max_lag"])
    kinds = params["kinds"]
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= {"raw", "absolute"}:
        raise InvalidConfig(f"acf kinds must be distinct raw/absolute, got {kinds!r}")


def _report_acf(entry: dict, out_dir: Path) -> list[str]:
    parts = []
    for kind, vals in entry.items():
        detail = ", ".join(f"{k.replace('_', ' ')} = {v:+.4f}" for k, v in vals.items())
        parts.append(f"{kind}: {detail}")
    return ["acf: " + " | ".join(parts)]


@dataclass(frozen=True)
class ConditionsSummary(Record):
    """The verdict of the (a)-(h) checklist; ``conditions.json`` holds the checklist."""

    all_verified: bool


def _conditions(series, config: ExperimentConfig, params: dict, write) -> ConditionsSummary:
    report_ = kesten_conditions_report(*config.process.feedback)
    write("conditions.json", report_)
    return ConditionsSummary(report_.all_verified)


def _report_conditions(entry: ConditionsSummary, out_dir: Path) -> list[str]:
    ok = "all verified" if entry.all_verified else "NOT all verified"
    checklist = _read_json(out_dir / "conditions.json", TheoryReport, "conditions report")
    lines = [f"Kesten-theorem conditions (a)-(h): {ok} (case {checklist.regime_case})"]
    for c in checklist.conditions:
        ev = "" if c.evidence is None else f"{c.evidence:+.6g}"
        lines.append(f"  ({c.condition}) {c.status:<13} {ev:<14} {c.note}")
    return lines


def _lyapunov(series, config: ExperimentConfig, params: dict, write) -> LyapunovEstimate:
    est = lyapunov_top(
        config.process, params["t_horizon"], params["trials"], RngStream(config.seed, 1)
    )
    write("lyapunov.json", est)
    return est


def _report_lyapunov(entry: LyapunovEstimate, out_dir: Path) -> list[str]:
    return [
        f"top Lyapunov exponent: {entry.gamma_hat:+.4f} +- {entry.stderr:.4f} "
        f"({'stationary' if entry.gamma_hat < 0 else 'non-stationary'})"
    ]


def _moment_lyapunov(series, config: ExperimentConfig, params: dict, write) -> CramerSolution:
    sol = moment_lyapunov_root(config.process)
    write("moment_lyapunov.json", sol)
    return sol


def _report_moment_lyapunov(entry: CramerSolution, out_dir: Path) -> list[str]:
    return ["moment-Lyapunov root: " + _solution_text(entry)]


# in report order; a run computes the requested analyses in this order too
ANALYSES: dict[str, Analysis] = {
    "cramer": Analysis({}, "feedback", _cramer, _report_cramer),
    "tail_fit": Analysis(
        {"threshold": None}, None, _tail_fit, _report_tail_fit,
        lambda params, process: check_threshold(params["threshold"]),
    ),
    "hill": Analysis({"k": 10_000}, None, _hill, _report_hill, _check_hill),
    "acf": Analysis(
        {"max_lag": 50, "kinds": ["raw"]}, None, _acf, _report_acf, _check_acf
    ),
    "conditions": Analysis({}, "feedback", _conditions, _report_conditions),
    "lyapunov": Analysis(
        {"t_horizon": 1000, "trials": 100}, "companion", _lyapunov, _report_lyapunov,
        lambda params, process: check_lyapunov_params(**params),
    ),
    "moment_lyapunov": Analysis(
        {}, "companion", _moment_lyapunov, _report_moment_lyapunov,
        lambda params, process: check_moment_spec(process),
    ),
}


def _analysis_params(name: str, params, process: ProcessSpec) -> dict:
    """Validated parameters of one analysis, with its defaults filled in; a value is
    read as its default's type, where a None default stands for an optional float."""
    if name not in ANALYSES:
        raise InvalidConfig(f"unknown analysis {name!r}; known: {', '.join(ANALYSES)}")
    analysis = ANALYSES[name]
    if analysis.needs is not None and getattr(type(process), analysis.needs) is None:
        raise InvalidConfig(f"{name!r} analysis needs a {kinds_with(analysis.needs)} process")
    what = f"config.analyses.{name}"
    params = read_value(dict, {} if params is None else params, what)
    check_keys(params, analysis.defaults, what)
    out = {}
    for key, default in analysis.defaults.items():
        tp = float | None if default is None else type(default)
        tp = list[type(default[0])] if tp is list else tp
        out[key] = read_value(tp, params.get(key, default), f"{what}.{key}")
    if analysis.check is not None:
        analysis.check(out, process)
    return out


@dataclass(frozen=True)
class RunSummary(Record):
    """``summary.json``: the run's headline numbers and one entry per analysis run."""

    process: ProcessSpec
    n_samples: int
    burn_in: int
    seed: int
    sample_mean: float
    sample_std: float
    stationarity: StationarityCheck | None = None
    unit_exponent_prediction: UnitExponentPrediction | None = None
    cramer: RegimeClassification | None = None
    tail_fit: TailFit | None = None
    hill: HillEstimate | None = None
    acf: dict[str, dict[str, float]] | None = None
    conditions: ConditionsSummary | None = None
    lyapunov: LyapunovEstimate | None = None
    moment_lyapunov: CramerSolution | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


def run(
    config: ExperimentConfig,
    output_dir: str | Path | None = None,
    seed: int | None = None,
    name: str | None = None,
) -> RunManifest:
    """Simulate once, run every requested analysis, write the result bundle.

    All payload files are written through temp-then-rename, and the
    manifest goes last: an interrupted run leaves only ``.tmp`` debris and
    never a manifest.
    """
    if seed is not None:
        config = config_from_dict({**config.to_dict(), "seed": seed})
    digest = config_digest(config)
    started = _utcnow()
    out_dir = resolve_output_dir(config, None if output_dir is None else str(output_dir), name)

    process = config.process
    feedback = process.feedback
    entries: dict = {}  # the optional RunSummary fields

    if feedback is not None:
        stat = stationarity_check(feedback[0])
        entries["stationarity"] = stat
        # fail fast on a provably non-stationary scalar recursion (GARCH's sigma^2 is one)
        if stat.verdict == "non-stationary":
            raise NonStationary(
                f"E[log a] = {stat.log_moment:+.4g} > 0: the recursion has no "
                "stationary solution; refusing to simulate"
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(process, InverseMultiplier) and process.a_law.has_density:
        entries["unit_exponent_prediction"] = unit_exponent_prediction(process.a_law)

    sim_rng = RngStream(config.seed, 0)
    series = simulate(process, sim_rng, config.n_samples, config.burn_in)
    mean, std = mean_std(series)

    outputs: dict[str, list[str]] = {}

    def write(group: str | None, filename: str, payload) -> None:
        """Write ``payload(tmp_path)``, or ``payload`` as canonical JSON, to a ``.tmp``
        path, rename it into place and list it under ``group`` (None: unlisted)."""
        tmp = out_dir / (filename + ".tmp")
        if callable(payload):
            payload(tmp)
        else:
            tmp.write_text(_canonical_json(payload), newline="\n")
        os.replace(tmp, out_dir / filename)
        if group is not None:
            outputs.setdefault(group, []).append(filename)

    write("series", "series.npy", lambda p: write_series_npy(series, p))
    write("series", "series_meta.json", series.metadata())
    for key, analysis in ANALYSES.items():
        if key in config.analyses:
            params = config.analyses[key]
            entries[key] = analysis.compute(series, config, params, partial(write, key))
    summary = RunSummary(
        process, config.n_samples, config.burn_in, config.seed, mean, std, **entries
    )
    write("summary", "summary.json", summary)

    manifest = RunManifest(
        config_digest=digest,
        toolkit_version=__version__,
        seed=config.seed,
        started_at=started,
        finished_at=_utcnow(),
        output_dir=str(out_dir),
        outputs=outputs,
        counters={"resamples": series.resamples},
    )
    write(None, "manifest.json", manifest)
    return manifest


def ingest_prices(csv_path: str | Path, column_spec: str | int = "close") -> ReturnSeries:
    """Relative returns from a price CSV; provenance is the file digest.

    ``column_spec`` is a header name or a 0-based column index.
    """
    path = Path(csv_path)

    def select(header: list[str] | None) -> int:
        if header is None:
            raise ParseError(f"{path}: empty file")
        try:
            col = int(column_spec)
        except (TypeError, ValueError):
            names = [h.strip().lower() for h in header]
            want = str(column_spec).strip().lower()
            if want not in names:
                raise ParseError(
                    f"{path}: no column named {column_spec!r} in header {header!r}"
                ) from None
            col = names.index(want)
        if not 0 <= col < len(header):
            raise ParseError(f"{path}: column index {col} out of range")
        return col

    before, raw = read_snapshot(path)
    prices, row = read_csv_column(path, select, before, raw)
    positive = prices > 0  # False at NaN: a cell float() cannot parse, or nan
    if not positive.all():
        line, cells, value = row(int(positive.argmin()))
        if value is None:
            raise ParseError(f"{path}: line {line}: cannot parse price from {cells!r}")
        raise NonPositivePrice(f"{path}: line {line}: price {value!r} is not positive")
    if prices.size < 2:
        raise ParseError(f"{path}: need at least two price rows, got {prices.size}")
    if prices.max() == math.inf:  # the one non-finite value that passes value > 0
        line = row(int(prices.argmax()))[0]
        raise ParseError(f"{path}: line {line}: price inf is not finite")
    try:
        returns = returns_from_prices(prices)
    except ReturnOverflow as exc:
        line, _, value = row(exc.position)
        raise ParseError(
            f"{path}: line {line}: the return into price {value!r} is not finite"
        ) from None
    return ReturnSeries(returns, hashlib.sha256(raw).hexdigest(), None, 0, 0)


def report(path: str | Path) -> str:
    """One-screen human-readable summary of the run whose ``manifest.json`` is at
    ``path``; the bundle files are read beside it, wherever the run wrote them."""
    manifest = _read_json(Path(path), RunManifest, "manifest")
    out_dir = Path(path).parent
    for files in manifest.outputs.values():
        for fname in files:
            if not (out_dir / fname).exists():
                raise MissingArtifacts(f"missing run artifact: {out_dir / fname}")
    summary = _read_json(out_dir / "summary.json", RunSummary, "summary")
    proc = summary.process
    desc = f"process: {proc.kind}"
    if isinstance(proc, Garch11):
        desc += f" | omega={proc.omega} alpha={proc.alpha} beta={proc.beta}"
    else:
        desc += f" | a ~ {_law_text(proc.a_law)} | e ~ {_law_text(proc.e_law)}"
    lines = [
        f"kestenlab {manifest.toolkit_version} | run {manifest.config_digest[:12]} "
        f"| seed {manifest.seed}",
        desc,
        f"samples: {summary.n_samples} after {summary.burn_in} burn-in "
        f"| sample std {summary.sample_std:.4g}",
    ]
    st = summary.stationarity
    if st is not None:
        lines.append(f"stationarity: E[log a] = {st.log_moment:+.4f} -> {st.verdict}")
    up = summary.unit_exponent_prediction
    if up is not None and up.predicted_mu is not None:
        lines.append(
            "tail regime: inverse-multiplier amplification "
            f"(unit-exponent law, predicted mu = {up.predicted_mu:g}, "
            f"tail constant {up.tail_constant:.4g})"
        )
    for name, analysis in ANALYSES.items():
        entry = getattr(summary, name)
        if entry is not None:
            lines.extend(analysis.report(entry, out_dir))
            if name == "cramer" and isinstance(proc, Garch11):
                lines.append(_garch_returns_text(entry.solution))
    n_files = sum(len(v) for v in manifest.outputs.values())
    lines.append(f"outputs: {out_dir} ({n_files} files)")
    return "\n".join(lines)


# command line ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kestenlab",
        description="Simulate feedback-driven return processes and analyze "
        "their power-law tails.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="config file path or bundled name (fig2.cfg, ...)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")

    p_ing = sub.add_parser("ingest", help="turn a price CSV into a return series")
    p_ing.add_argument("csv")
    p_ing.add_argument("--price-col", default="close", help="column name or 0-based index")
    p_ing.add_argument(
        "--out", default=None,
        help="output series path: .npy writes an array, any other name a t,r CSV",
    )

    p_fit = sub.add_parser("fit-tail", help="tail-exponent fit of a series CSV or .npy file")
    p_fit.add_argument("series")
    p_fit.add_argument("--threshold", type=float, default=None)

    p_acf = sub.add_parser("acf", help="autocorrelation of a series CSV or .npy file")
    p_acf.add_argument("series")
    p_acf.add_argument("--max-lag", type=int, required=True)
    p_acf.add_argument("--absolute", action="store_true")

    p_cr = sub.add_parser("cramer", help="solve the moment equation for a law")
    p_cr.add_argument("--law", required=True, help='law JSON, e.g. \'{"kind": "exponential", "mean": 0.55}\'')

    p_ly = sub.add_parser("lyapunov", help="top Lyapunov exponent for a config's process")
    p_ly.add_argument("--config", required=True)

    p_rep = sub.add_parser("report", help="summarize a completed run")
    p_rep.add_argument("manifest")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    name = Path(args.config).stem
    manifest = run(config, output_dir=args.output_dir, seed=args.seed, name=name)
    print(report(Path(manifest.output_dir) / "manifest.json"))
    return 0


def _cmd_ingest(args) -> int:
    series = ingest_prices(args.csv, args.price_col)
    out = Path(args.out) if args.out else Path(args.csv).with_suffix(".returns.csv")
    write_series(series, out)
    meta = series.metadata()
    meta["source"] = str(args.csv)
    print(_canonical_json({"out": str(out), **meta}), end="")
    return 0


def _cmd_fit_tail(args) -> int:
    values = read_series_csv(args.series)
    fit = tail_exponent_ls(values, args.threshold)
    print(_canonical_json(fit), end="")
    return 0


def _cmd_acf(args) -> int:
    values = read_series_csv(args.series)
    write_acf_csv(acf(values, args.max_lag, absolute=args.absolute), sys.stdout)
    return 0


def _cmd_cramer(args) -> int:
    law = law_from_config(_load_json(args.law, "--law"))
    print(_canonical_json(cramer_root(law)), end="")
    return 0


def _cmd_lyapunov(args) -> int:
    config = load_config(args.config)
    name = "lyapunov"
    params = _analysis_params(name, config.analyses.get(name), config.process)
    # the analysis without its bundle: print the entry, write no files
    entry = ANALYSES[name].compute(None, config, params, lambda filename, payload: None)
    print(_canonical_json(entry), end="")
    return 0


def _cmd_report(args) -> int:
    print(report(args.manifest))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ingest": _cmd_ingest,
    "fit-tail": _cmd_fit_tail,
    "acf": _cmd_acf,
    "cramer": _cmd_cramer,
    "lyapunov": _cmd_lyapunov,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KestenLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidConfig, ParseError, NonPositivePrice)):
            return 2
        return 4 if isinstance(exc, OSError) else 3


if __name__ == "__main__":
    sys.exit(main())
