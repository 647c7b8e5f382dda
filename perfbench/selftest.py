"""Negative self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py      (from the root of a source checkout)

Runs four real operations through ``run.run_operation``: an untouched
run of a small config, the same run with its summary pushed out of band
before the output check reads it, a run of a missing config (exit code 2),
and a fit-tail of a malformed series file (a traceback or a non-zero
exit).  The three bad ones must count as failed operations, so
``success_rate`` is 1/4.  It also checks that a payload digest that
differs within a run fails its operation, and that ``BENCHMARK.json``
names exactly the metrics the benchmark prints.  Exits 0 when all hold.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import run
import spans

SMALL_CONFIG = {
    "process": {
        "kind": "kesten_scalar",
        "a_law": {"kind": "exponential", "mean": 0.55},
        "e_law": {"kind": "normal", "mean": 0.0, "sd": 0.0065},
        "r0": 0.0,
    },
    "n_samples": 200_000,
    "burn_in": 1000,
    "seed": 5,
    "analyses": {"tail_fit": {"threshold": 0.02}, "acf": {"max_lag": 5, "kinds": ["raw"]}},
}


class SmallRun(run.RunWorkload):
    """A fig3-like run on a small config, optionally corrupting its summary.

    The untouched run (seed 5, n = 2e5) lands inside the fig3 bands.
    """

    def __init__(self, argv=None, corrupt=False) -> None:
        super().__init__("small.cfg", run.check_fig3)
        self.argv, self.corrupt = argv, corrupt

    def commands(self, work, seed):
        return [self.argv or ["run", str(work / self.config), "--output-dir", "bundle"]]

    def finish(self, op, op_dir, inputs):
        if self.corrupt:
            path = op_dir / "bundle" / "summary.json"
            summary = json.loads(path.read_text())
            summary["tail_fit"]["exponent"] = 9.0
            path.write_text(json.dumps(summary))
        super().finish(op, op_dir, inputs)


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        (work / "small.cfg").write_text(json.dumps(SMALL_CONFIG))
        (work / "bad.csv").write_text("t,r\n0,0.1\n1,not-a-number\n")
        env = run.program_env(root)
        cases = [
            ("good", SmallRun(), True),
            ("out-of-band summary", SmallRun(corrupt=True), False),
            ("non-zero exit", SmallRun(["run", "no-such.cfg"]), False),
            ("malformed input", SmallRun(["fit-tail", str(work / "bad.csv")]), False),
        ]
        ops = []
        for label, wl, want_ok in cases:
            op = run.run_operation(wl, None, work, 0, len(ops), False, env, time.monotonic() + 60)
            ops.append(op)
            print(f"{label}: ok={op.ok} failures={op.failures}")
            if op.ok != want_ok:
                problems.append(f"{label}: expected ok={want_ok}, got failures {op.failures}")
        metrics = run.summarize({"traced": False, "ops": ops})
        if metrics["success_rate"]["value"] != 1 / 4:
            problems.append(f"success_rate {metrics['success_rate']} is not 1/4")

        twin = run.Operation(9, False, digest="other")
        run.check_digests([ops[0], twin])
        if twin.ok:
            problems.append("a differing payload digest did not fail its operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bench = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["end_to_end"]}
    if declared != set(run.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {sorted(declared)} != {sorted(run.END_TO_END)}")
    printed = set(spans.TIME_KEYS) | set(spans.COUNT_KEYS) | {
        "traced_run_s", "tracing_overhead_s", "cli.bundle_files", "processes.ns_per_step"
    }
    declared = {m["name"] for m in bench["per_layer"]}
    if declared != printed:
        problems.append(f"BENCHMARK.json per_layer differs by {sorted(declared ^ printed)}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
