"""In-memory span recorder for one traced kestenlab process.

``install(tracer)`` wraps the public names that the kestenlab modules expose
to their callers (and the names ``kestenlab.cli`` imported from them), so
each call records a span: name, start, end and parent span.  Nothing in the
package is edited on disk; the wrappers live only in the traced process.

Every span charges its self time (duration minus its children) to exactly
one per-layer metric, so the layer self times add up to the duration of the
root ``kestenlab.cli.main`` span.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

# per-layer metrics that hold self time, in seconds
TIME_KEYS = (
    "distributions.sample_s",
    "distributions.moment_s",
    "processes.simulate_s",
    "processes.series_csv_s",
    "processes.read_series_s",
    "estimators.ccdf_s",
    "estimators.tail_fit_s",
    "estimators.hill_s",
    "estimators.acf_s",
    "estimators.acf_csv_s",
    "estimators.ccdf_csv_s",
    "estimators.returns_s",
    "theory.cramer_s",
    "theory.classify_s",
    "theory.conditions_s",
    "theory.stationarity_s",
    "theory.lyapunov_s",
    "theory.moment_lyapunov_s",
    "cli.load_config_s",
    "cli.ingest_s",
    "cli.report_s",
    "cli.self_s",
)

COUNT_KEYS = (
    "distributions.draws",
    "distributions.mc_draws",
    "distributions.moment_calls",
    "processes.steps",
    "processes.series_csv_bytes",
    "estimators.ccdf_csv_bytes",
    "estimators.ccdf_points",
    "theory.cramer_calls",
    "theory.matrix_products",
)

_MOMENT_SPANS = ("moment_with_stderr", "log_moment_with_stderr")


class Tracer:
    """Spans and counters of one process, kept in memory until ``layers()``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    def wrap(self, fn, name: str, key: str | None, on_exit=None):
        """Record a span around every call of ``fn``.

        ``key`` is the metric charged with the span's self time; ``None``
        charges the caller's metric, for spans that only count work.
        ``on_exit(span, args, result)`` records counters after the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "id": len(self.spans),
                "name": name,
                "key": key if key is not None else parent and parent["key"],
                "parent": None if parent is None else parent["id"],
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def layers(self) -> dict:
        """Per-layer self times and counters, plus the root span duration."""
        child_time = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {k: 0.0 for k in TIME_KEYS}
        for s in self.spans:
            out[s["key"]] += s["end"] - s["start"] - child_time[s["id"]]
        out.update({k: int(self.counts[k]) for k in COUNT_KEYS})
        out["traced_run_s"] = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] is None
        )
        return out


def install(tracer: Tracer) -> None:
    """Replace kestenlab's public names with span-recording wrappers."""
    from kestenlab import cli, distributions, estimators, processes, theory

    counts = tracer.counts

    def on_sample(span, args, result):
        parent = None if span["parent"] is None else tracer.spans[span["parent"]]
        if parent is not None and parent["name"].endswith(_MOMENT_SPANS):
            span["key"] = "distributions.moment_s"
            counts["distributions.mc_draws"] += len(result)
            parent["mc"] = True
        else:
            counts["distributions.draws"] += len(result)

    def on_moment(span, args, result):
        if span.get("mc"):
            counts["distributions.moment_calls"] += 1

    def on_simulate(span, args, result):
        counts["processes.steps"] += len(result) + result.burn_in_dropped

    def on_series_csv(span, args, result):
        counts["processes.series_csv_bytes"] += os.stat(args[1]).st_size

    def on_ccdf_csv(span, args, result):
        counts["estimators.ccdf_points"] += len(args[0])
        counts["estimators.ccdf_csv_bytes"] += os.stat(args[2]).st_size

    def on_cramer(span, args, result):
        counts["theory.cramer_calls"] += 1

    def on_log_norms(span, args, result):
        # args: (spec, gen, horizons, trials, norm); one K x K product per
        # trial and step
        counts["theory.matrix_products"] += args[3] * max(args[2])

    # (home module, name, metric, counter hook); cli's own binding of the
    # name is replaced with the same wrapper when cli imported it.
    targets = [
        (cli, "main", "cli.self_s", None),
        (cli, "run", "cli.self_s", None),
        (cli, "load_config", "cli.load_config_s", None),
        (cli, "report", "cli.report_s", None),
        (cli, "ingest_prices", "cli.ingest_s", None),
        (processes, "simulate", "processes.simulate_s", on_simulate),
        (processes, "write_series_csv", "processes.series_csv_s", on_series_csv),
        (processes, "read_series_csv", "processes.read_series_s", None),
        (estimators, "empirical_ccdf", "estimators.ccdf_s", None),
        (estimators, "tail_exponent_ls", "estimators.tail_fit_s", None),
        (estimators, "hill_estimator", "estimators.hill_s", None),
        (estimators, "acf", "estimators.acf_s", None),
        (estimators, "write_acf_csv", "estimators.acf_csv_s", None),
        (estimators, "write_ccdf_csv", "estimators.ccdf_csv_s", on_ccdf_csv),
        (estimators, "returns_from_prices", "estimators.returns_s", None),
        (theory, "cramer_root", "theory.cramer_s", on_cramer),
        (theory, "classify_regime", "theory.classify_s", None),
        (theory, "kesten_conditions_report", "theory.conditions_s", None),
        (theory, "stationarity_check", "theory.stationarity_s", None),
        (theory, "lyapunov_top", "theory.lyapunov_s", None),
        (theory, "moment_lyapunov_root", "theory.moment_lyapunov_s", None),
        (theory, "_batched_log_norms", None, on_log_norms),
    ]
    for module, name, key, hook in targets:
        original = getattr(module, name)
        wrapped = tracer.wrap(original, f"{module.__name__}.{name}", key, hook)
        setattr(module, name, wrapped)
        if getattr(cli, name, None) is original:
            setattr(cli, name, wrapped)

    laws = [distributions.CoefficientLaw]
    laws += distributions.CoefficientLaw.__subclasses__()
    for law in laws:
        for name, key, hook in (
            ("sample", "distributions.sample_s", on_sample),
            ("moment_with_stderr", "distributions.moment_s", on_moment),
            ("log_moment_with_stderr", "distributions.moment_s", on_moment),
        ):
            if name in vars(law):
                span_name = f"{law.__name__}.{name}"
                setattr(law, name, tracer.wrap(vars(law)[name], span_name, key, hook))
