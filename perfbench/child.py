"""One ``hlop run`` in its own process, with the benchmark's hooks installed.

    python3 perfbench/child.py <run|trace|probe> <config> <record.json>

run    the two timing hooks only: trainer entries and evaluate_task calls;
trace  every wrapper of ``tracing.trace_sites``;
probe  stops at the first training batch, so set-up is timed alone.

The parent pins BLAS threads in this process's environment. The child writes
a JSON record: spans, counts, end time, exit code, peak RSS and the pins.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(mode: str, config: str, record_path: str) -> int:
    import hlop.cli
    from hlop.harness import loop

    tracer = tracing.Tracer()

    def write(**fields) -> None:
        record = {
            "mode": mode,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "pins": {v: os.environ.get(v) for v in PIN_VARS},
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            **fields,
        }
        with open(record_path, "w", encoding="utf-8") as f:
            json.dump(record, f)

    if mode == "probe":

        def stop(*args, **kwargs):
            write(first_batch=tracing.now(), exit=0)
            os._exit(0)

        for key in loop._TRAINERS:
            loop._TRAINERS[key] = stop
        hlop.cli.main(["run", config])
        return 1  # the run ended without a training batch

    sites = tracing.trace_sites() if mode == "trace" else tracing.timing_sites()
    with tracing.installed(tracer, sites) as missing:
        rc = hlop.cli.main(["run", config])
        end = tracing.now()
    write(end=end, exit=rc, missing=missing)
    return rc


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("run", "trace", "probe"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
