"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload pmnist-linear --seeds 1 2 3 4 5

Runs the benchmark once per seed, in sequence, and prints per metric the
median, the quartile spread (q3 - q1) / median over the runs, and the bound.
A spread above a third of its bound is marked; setup_s is shown but its
spread is not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        spread = stats.quartile_spread(xs) if len(xs) > 1 else 0.0
        mark = "" if metric["name"] == "setup_s" or spread <= metric["bound"] / 3 else "  <-- above bound/3"
        print(
            f"{args.workload:17s} {metric['name']:20s} median {median(xs):14.6f} "
            f"spread {spread:7.4f} bound {metric['bound']:.3f}{mark}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
