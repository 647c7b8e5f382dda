"""Run one kestenlab command in this fresh interpreter and record its cost.

Usage: python3 op.py RESULT_JSON TRACE(0|1) -- KESTENLAB_ARGV...

Set-up ends once ``kestenlab.cli`` is imported and, for ``run``, the config
is loaded; the operation is the ``kestenlab.cli.main(argv)`` call.  The
result file records the set-up end on the system-wide monotonic clock (the
parent subtracts its spawn time), the operation's wall time, the peak
resident memory and, when traced, the per-layer metrics and spans.  An
exception from ``main`` is left to print its traceback and exit 1, so no
result file is written for it.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]

    import kestenlab.cli as cli
    from kestenlab.errors import KestenLabError

    if argv[0] == "run":
        try:
            cli.load_config(argv[1])
        except (KestenLabError, OSError):
            pass  # main() reports it below, with its documented exit code
    ready = time.monotonic()

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    t0 = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - t0
    sys.stdout.flush()

    result = {
        "ready_monotonic": ready,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
