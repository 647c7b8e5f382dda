"""Desk benchmark for kestenlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The load is a closed loop with one client: one operation at a
time, each kestenlab command in a fresh interpreter started from this
process, because a desk user pays the numpy/scipy import on every
invocation and a fresh process keeps in-process caches from carrying over
between repeats.  Operations repeat until ``--seconds`` have passed.

Every operation checks its outputs; a non-zero exit, a traceback on stderr
or a failed check makes it a failed operation.  All operations of one run
use the same seed, so their payload digests must also agree.

``--trace 0`` prints the end-to-end metrics (medians over operations).
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics of the traced ones (see spans.py) and the tracing
overhead.  The last stdout line is the JSON result; a record with the
provenance, every operation and the spans goes to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OP_SCRIPT = HERE / "op.py"
# a run must end within 180 s: no command may outlive this many seconds
# after the run started
RUN_LIMIT_S = 165.0

# The machine-speed reference: a fresh interpreter importing the numpy and
# scipy modules kestenlab uses, timed just before every operation.  It does
# not involve kestenlab, so no change to the program moves it.  On a shared
# host the machine's speed drifts by 20-40% over minutes; dividing by the
# reference cancels most of that drift (see README.md, "Noise").
REFERENCE_CODE = "import numpy, scipy.integrate, scipy.special, scipy.stats"

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bundle_bytes": "bytes",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "ns_per_step": "ns"}

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# operations -----------------------------------------------------------------


@dataclass
class Command:
    """One kestenlab invocation of an operation."""

    argv: list
    code: int
    stdout: str
    stderr: str
    record: dict | None
    setup_s: float | None


@dataclass
class Operation:
    index: int
    traced: bool
    reference_s: float | None = None
    commands: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str | None = None
    bundle_bytes: int = 0
    bundle_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def run_s(self) -> float:
        return sum(c.record["run_s"] for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.record["peak_rss_mb"] for c in self.commands)

    def layers(self) -> dict:
        out: dict = {}
        for c in self.commands:
            for k, v in c.record["layers"].items():
                out[k] = out.get(k, 0) + v
        out["cli.bundle_files"] = self.bundle_files
        steps = out["processes.steps"]
        out["processes.ns_per_step"] = (
            out["processes.simulate_s"] / steps * 1e9 if steps else 0.0
        )
        return out


def run_command(argv, cwd: Path, record_path: Path, traced: bool, env, kill_at: float) -> Command:
    """Run one command in a fresh interpreter; kill it at monotonic time kill_at."""
    if record_path.exists():
        record_path.unlink()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(OP_SCRIPT), str(record_path), "1" if traced else "0", "--", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, kill_at - spawned),
        )
    except subprocess.TimeoutExpired:
        return Command(argv, -1, "", "killed at the run's time limit", None, None)
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    setup_s = None if record is None else record["ready_monotonic"] - spawned
    return Command(argv, proc.returncode, proc.stdout, proc.stderr, record, setup_s)


def time_reference(cwd: Path, env, kill_at: float) -> float | None:
    """Wall seconds of one run of REFERENCE_CODE; None if it fails."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", REFERENCE_CODE], cwd=cwd, env=env,
            capture_output=True, timeout=max(1.0, kill_at - start),
        )
    except subprocess.TimeoutExpired:
        return None
    return time.monotonic() - start if proc.returncode == 0 else None


def command_failures(cmd: Command) -> list:
    out = []
    if cmd.code != 0:
        out.append(f"{cmd.argv[0]}: exit code {cmd.code}")
    if "Traceback" in cmd.stderr:
        out.append(f"{cmd.argv[0]}: traceback on stderr")
    if cmd.record is None and cmd.code == 0:
        out.append(f"{cmd.argv[0]}: no operation record")
    return out


def in_band(failures: list, name: str, value, lo: float, hi: float) -> None:
    if not (isinstance(value, (int, float)) and lo <= value <= hi):
        failures.append(f"{name} = {value!r} outside [{lo}, {hi}]")


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# workloads ------------------------------------------------------------------


class RunWorkload:
    """``kestenlab run CONFIG --seed N`` writing one result bundle."""

    def __init__(self, config: str, check) -> None:
        self.config = config
        self.check_summary = check

    def prepare(self, work: Path, seed: int) -> None:
        """Write the workload's inputs; returns what ``finish`` checks against."""

    def commands(self, work: Path, seed: int) -> list:
        return [["run", self.config, "--seed", str(seed), "--output-dir", "bundle"]]

    def finish(self, op: Operation, op_dir: Path, inputs) -> None:
        """Digest, size and check the operation's outputs."""
        bundle = op_dir / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        payloads = sorted(f for files in manifest["outputs"].values() for f in files)
        op.digest = sha256_files(bundle / f for f in payloads)
        written = [p for p in bundle.iterdir() if p.is_file()]
        op.bundle_files = len(written)
        op.bundle_bytes = sum(p.stat().st_size for p in written)
        summary = json.loads((bundle / "summary.json").read_text())
        self.check_summary(summary, op.failures)


def check_fig3(summary: dict, failures: list) -> None:
    """Acceptance criterion 1, with the std and lag-1 bands widened for any seed.

    Criterion 1's bands (std in [0.008, 0.012], lag-1 ACF in [0.53, 0.57])
    fit seed 42.  The tail exponent is near 3, so the sample std and ACF
    have heavy-tailed sampling errors: over seeds 0-719, 10 lag-1 ACFs fell
    outside [0.53, 0.57] (extremes 0.527 and 0.615) and one std outside
    [0.008, 0.012] (0.01201).  The bands here are centred on the theory
    (std 0.0103, E(a) = 0.55) and clear those extremes.
    """
    in_band(failures, "tail exponent", summary["tail_fit"]["exponent"], 2.7, 3.3)
    in_band(failures, "sample std", summary["sample_std"], 0.008, 0.014)
    in_band(failures, "lag-1 acf", summary["acf"]["raw"]["lag_1"], 0.50, 0.65)


def check_fig4(summary: dict, failures: list) -> None:
    """Acceptance criterion 7: stationary (gamma < 0), exponent in [2, 4]."""
    gamma = summary["lyapunov"]["gamma_hat"]
    if not (isinstance(gamma, float) and gamma < 0):
        failures.append(f"top Lyapunov exponent {gamma!r} is not negative")
    in_band(failures, "tail exponent", summary["tail_fit"]["exponent"], 2.0, 4.0)


def check_garch(summary: dict, failures: list) -> None:
    if summary["conditions"]["all_verified"] is not True:
        failures.append("Kesten conditions not all verified")
    mu = summary["cramer"]["solution"]["mu_star"]
    if not (isinstance(mu, float) and math.isfinite(mu) and mu > 0):
        failures.append(f"cramer mu_star {mu!r} is not finite and positive")


GARCH_CONFIG = {
    "process": {"kind": "garch11", "omega": 0.01, "alpha": 0.09, "beta": 0.9, "sigma0": 0.1},
    "n_samples": 200_000,
    "burn_in": 10_000,
    "analyses": {
        "tail_fit": {"threshold": None},
        "hill": {"k": 2000},
        "acf": {"max_lag": 50, "kinds": ["raw", "absolute"]},
        "cramer": {},
        "conditions": {},
    },
    "output_dir": None,
}


class GarchWorkload(RunWorkload):
    def prepare(self, work: Path, seed: int) -> None:
        config = dict(GARCH_CONFIG, seed=seed)
        (work / self.config).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    def commands(self, work: Path, seed: int) -> list:
        return [["run", str(work / self.config), "--seed", str(seed), "--output-dir", "bundle"]]


PRICE_ROWS = 10**6


def write_prices(path: Path, seed: int) -> np.ndarray:
    """A date,open,close CSV of PRICE_ROWS rows; returns the close column.

    Log prices mean-revert slowly (AR(1), phi = 0.999) under Student-t(4)
    shocks of 1% scale, so returns are heavy-tailed and prices stay within
    a few multiples of 100.
    """
    gen = np.random.default_rng([seed, 0x1D6E57])
    shocks = 0.01 * gen.standard_t(4, PRICE_ROWS) / math.sqrt(2.0)
    logp = np.empty(PRICE_ROWS)
    x = 0.0
    for i, s in enumerate(shocks.tolist()):
        x = 0.999 * x + s
        logp[i] = x
    close = 100.0 * np.exp(logp)
    open_ = close * np.exp(0.002 * gen.standard_normal(PRICE_ROWS))
    dates = np.datetime64("1900-01-01") + np.arange(PRICE_ROWS)
    rows = "\n".join(
        f"{d},{o!r},{c!r}" for d, o, c in zip(dates.astype(str), open_.tolist(), close.tolist())
    )
    path.write_text("date,open,close\n" + rows + "\n")
    return close


class IngestWorkload:
    """ingest a price CSV, then fit-tail and acf on the returns it wrote."""

    def prepare(self, work: Path, seed: int) -> np.ndarray:
        close = write_prices(work / "prices.csv", seed)
        return np.diff(close) / close[:-1]

    def commands(self, work: Path, seed: int) -> list:
        return [
            ["ingest", str(work / "prices.csv"), "--price-col", "close", "--out", "returns.csv"],
            ["fit-tail", "returns.csv"],
            ["acf", "returns.csv", "--max-lag", "50", "--absolute"],
        ]

    def finish(self, op: Operation, op_dir: Path, expected: np.ndarray) -> None:
        returns = op_dir / "returns.csv"
        h = hashlib.sha256(returns.read_bytes())
        for cmd in op.commands[1:]:
            h.update(cmd.stdout.encode())
        op.digest = h.hexdigest()
        op.bundle_files = 1
        op.bundle_bytes = returns.stat().st_size
        got = np.loadtxt(returns, delimiter=",", skiprows=1, usecols=1)
        if not np.array_equal(got, expected):
            op.failures.append("returns differ from diff(p)/p[:-1] of the generated prices")
        exponent = json.loads(op.commands[1].stdout)["exponent"]
        if not (isinstance(exponent, float) and math.isfinite(exponent) and exponent > 0):
            op.failures.append(f"fit-tail exponent {exponent!r} is not finite and positive")
        rows = op.commands[2].stdout.split()
        if rows[0] != "lag,acf" or len(rows) != 52 or rows[1] != "0,1.0":
            op.failures.append("acf output is not 51 lags starting at lag 0 = 1.0")


# why each workload was chosen: see "workloads" in BENCHMARK.json
WORKLOADS = {
    "fig3-scalar": RunWorkload("fig3.cfg", check_fig3),
    "fig4-order3": RunWorkload("fig4.cfg", check_fig4),
    "garch-moments": GarchWorkload("garch.cfg", check_garch),
    "ingest-prices": IngestWorkload(),
}


def run_operation(wl, inputs, work: Path, seed: int, index: int, traced: bool, env,
                  kill_at: float) -> Operation:
    op = Operation(index, traced)
    op_dir = work / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir()
    op.reference_s = time_reference(op_dir, env, kill_at)
    if op.reference_s is None:
        op.failures.append("the reference import failed")
        return op
    for argv in wl.commands(work, seed):
        cmd = run_command(argv, op_dir, work / "record.json", traced, env, kill_at)
        op.commands.append(cmd)
        op.failures += command_failures(cmd)
        if op.failures:
            break
    if op.ok:
        try:
            wl.finish(op, op_dir, inputs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            op.failures.append(f"output check could not read the outputs: {exc!r}")
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def check_digests(ops: list) -> None:
    """Criterion 9: identical inputs give identical payloads in every operation."""
    digests = [op.digest for op in ops if op.ok]
    for op in ops:
        if op.ok and op.digest != digests[0]:
            op.failures.append("payload digest differs from the run's first operation")


# measurement ----------------------------------------------------------------


def cpu_ticks() -> list:
    """Machine-wide CPU ticks from /proc/stat: user .. steal; [] where absent."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return []


def provenance(root: Path) -> dict:
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    src = sorted((root / "src").rglob("*"))
    src_digest = sha256_files(p for p in src if p.is_file() and "__pycache__" not in p.parts)
    return {
        "git_rev": rev,
        "src_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "loadavg_start": os.getloadavg(),
    }


def program_env(root: Path) -> dict:
    """This environment, with the checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure(name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    kill_at = time.monotonic() + RUN_LIMIT_S
    ticks_start = cpu_ticks()
    wl = WORKLOADS[name]
    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = program_env(root)
    try:
        prov = provenance(root)
        t_prepare = time.perf_counter()
        inputs = wl.prepare(work, seed)
        prepare_s = time.perf_counter() - t_prepare
        # fills the bytecode cache and the file cache before timing
        warm = run_command(
            ["cramer", "--law", '{"kind": "exponential", "mean": 0.55}'],
            work, work / "record.json", False, env, kill_at,
        )
        if command_failures(warm) or warm.record is None:
            raise SystemExit(f"kestenlab does not start from {root / 'src'}:\n{warm.stderr}")
        ops: list = []
        deadline = time.monotonic() + seconds
        while True:
            op_traced = traced and len(ops) % 2 == 1
            ops.append(
                run_operation(wl, inputs, work, seed, len(ops), op_traced, env, kill_at)
            )
            now = time.monotonic()
            enough = len(ops) >= (2 if traced else 1)
            if (enough and now >= deadline) or now >= kill_at:
                break
        check_digests(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()
    ticks = [b - a for a, b in zip(ticks_start, cpu_ticks())]
    # share of CPU time the hypervisor gave to other guests during the run
    prov["steal_share"] = ticks[7] / sum(ticks) if len(ticks) == 8 and sum(ticks) else None
    return {"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
            "prepare_s": prepare_s, "provenance": prov, "ops": ops}


def summarize(run: dict) -> dict:
    ops = run["ops"]
    good = [op for op in ops if op.ok]
    plain = [op for op in good if not op.traced]
    if run["traced"]:
        traced = [op for op in good if op.traced]
        if not traced or not plain:
            return {}
        # the layers of the median traced operation, so they add up exactly
        layer_runs = sorted((op.layers() for op in traced), key=lambda lr: lr["traced_run_s"])
        metrics = layer_runs[(len(layer_runs) - 1) // 2]
        metrics["tracing_overhead_s"] = statistics.median(
            op.run_s for op in traced
        ) - statistics.median(op.run_s for op in plain)
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    if not plain:
        return {}
    # times in reference units: seconds on a machine where the reference
    # import takes exactly one second
    reference_s = statistics.median(op.reference_s for op in plain)
    values = {
        "run_s": statistics.median(op.run_s for op in plain) / reference_s,
        "setup_s": statistics.median(c.setup_s for op in plain for c in op.commands)
        / reference_s,
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in plain),
        "bundle_bytes": statistics.median_low(op.bundle_bytes for op in plain),
        "success_rate": len(good) / len(ops),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def write_record(run: dict, metrics: dict, root: Path) -> None:
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{run['workload']}-seed{run['seed']}-trace{int(run['traced'])}.json"
    ops = [
        {
            "index": op.index,
            "traced": op.traced,
            "reference_s": op.reference_s,
            "failures": op.failures,
            "digest": op.digest,
            "bundle_bytes": op.bundle_bytes,
            "commands": [
                {"argv": c.argv, "code": c.code, "setup_s": c.setup_s, "record": c.record}
                for c in op.commands
            ],
        }
        for op in run["ops"]
    ]
    path.write_text(json.dumps({**run, "ops": ops, "metrics": metrics}, indent=1))


def report(run: dict, metrics: dict) -> None:
    ops = run["ops"]
    failed = sum(not op.ok for op in ops)
    print(f"# workload {run['workload']} seed {run['seed']}: {len(ops)} operations, "
          f"{failed} failed (error_rate {failed / len(ops):.4g})")
    for op in ops:
        for reason in op.failures:
            print(f"#   operation {op.index} failed: {reason}", file=sys.stderr)
    plain = [op for op in ops if not op.traced and op.ok]
    if plain:
        print("#   wall-clock medians: run {:.6g} s, setup {:.6g} s, reference {:.6g} s".format(
            statistics.median(op.run_s for op in plain),
            statistics.median(c.setup_s for op in plain for c in op.commands),
            statistics.median(op.reference_s for op in plain),
        ))
    for k, m in metrics.items():
        print(f"#   {k:<34} {m['value']:>16.6g} {m['unit']:<6} (median of {len(plain)} ops)"
              if k in END_TO_END else f"#   {k:<34} {m['value']:>16.6g} {m['unit']}")
    print("# provenance " + json.dumps(run["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kestenlab" / "__init__.py").is_file():
        print(f"error: no kestenlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**64
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics: dict = {}
    for name in names:
        run = measure(name, seed, args.seconds, bool(args.trace), root)
        metrics = summarize(run)
        write_record(run, metrics, root)
        report(run, metrics)
        attempted += len(run["ops"])
        failed += sum(not op.ok for op in run["ops"])
        if not metrics:
            print(f"error: no operation of {name} succeeded", file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else f"{name}."
        result_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
