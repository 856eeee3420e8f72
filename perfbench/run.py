"""The hlop benchmark: the four shipped configs, timed from outside the program.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

From ``--seed`` it generates the synthetic IDX corpus (untimed; users pay it
once per machine) and writes the workload's shipped config with the derived
master seed and a private ``output_dir``. Seed 1 reproduces the shipped
configs: master seed 2022, corpus seed 1. It then runs
``hlop.cli.main(["run", cfg])`` in fresh child processes, one at a time: a
closed loop with one client, BLAS pinned to one thread in each child.

``--trace 0`` runs set-up probes and untraced runs for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` runs one untraced reference
and traced runs, and reports the per-layer metrics. ``--workload all`` does
both for every workload and prints one table.

Every run passes a correctness gate: exit code 0, finite weights and
subspaces in the final checkpoint, and CSVs byte-identical to the first run
of the invocation. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    "pmnist-off": "pmnist_baseline.cfg",
    "pmnist-linear": "pmnist_hlop.cfg",
    "pmnist-spiking": "pmnist_hlop_spiking.cfg",
    "splitconv-linear": "split_conv.cfg",
}
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "result.acc_final": "%",
    "result.bwt_final": "points",
}
LAYER_UNITS = tracing.LAYER_METRICS | EXTRA_LAYER_UNITS
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CORPUS = {"n_train": 12000, "n_test": 4000}  # the size the README and tests use
PROBES = 2  # set-up-only children per untraced invocation
DEADLINE_S = 170.0  # an invocation must end within 180 s
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")


class Invocation:
    """Work directory, clock and failure tally of one benchmark invocation."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.master_seed = 2021 + seed
        self.corpus_seed = seed
        self.start = tracing.now()
        self.dir = os.path.join(WORK, f"inv-{os.getpid()}")
        self.data = os.path.join(self.dir, "data")
        self.deadline: float | None = DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.pins_seen: dict | None = None
        self._n = 0

    def write_config(self, workload: str) -> tuple[str, str, int]:
        """Shipped config with this seed, the corpus and a private output_dir."""
        out_dir = os.path.join(self.dir, workload)
        override = {
            "seed": str(self.master_seed),
            "output_dir": json.dumps(out_dir),
            "data_dir": json.dumps(self.data),
        }
        lines = []
        with open(os.path.join(ROOT, "configs", WORKLOADS[workload]), encoding="utf-8") as f:
            for line in f:
                key = line.split("=", 1)[0].strip()
                if "=" in line and not line.lstrip().startswith("#") and key in override:
                    continue
                lines.append(line.rstrip("\n"))
        lines += [f"{k} = {v}" for k, v in override.items()]
        path = os.path.join(self.dir, f"{workload}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        from hlop.config import load_config

        return path, out_dir, load_config(path).n_tasks

    def spawn(self, mode: str, config: str, out_dir: str) -> tuple[dict | None, float]:
        """Run one child to completion; return its record (None on failure)
        and the clock reading taken just before it was spawned."""
        self._n += 1
        self.attempted += 1
        tag = f"{self._n:03d}-{mode}"
        record_path = os.path.join(self.dir, tag + ".json")
        log_path = os.path.join(self.dir, tag + ".log")
        shutil.rmtree(out_dir, ignore_errors=True)
        timeout = None if self.deadline is None else max(5.0, self.deadline - self.elapsed())
        with open(log_path, "wb") as log:
            spawned = tracing.now()
            proc = subprocess.Popen(
                [sys.executable, CHILD, mode, config, record_path],
                stdout=log,
                stderr=subprocess.STDOUT,
                env={**os.environ, **PINS},
                cwd=self.dir,
            )
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:  # timed out or interrupted
                    proc.kill()
                    proc.wait()
        if rc != 0 or not os.path.exists(record_path):
            with open(log_path, encoding="utf-8", errors="replace") as f:
                tail = f.read()[-2000:]
            self.fail(f"{tag}: exit {rc}\n{tail}")
            return None, spawned
        with open(record_path, encoding="utf-8") as f:
            record = json.load(f)
        self.pins_seen = record["pins"]
        return record, spawned

    def fail(self, what: str, run: bool = True) -> None:
        """Record a problem; ``run`` counts it as a failed run."""
        self.failed += run
        self.problems.append(what)

    def elapsed(self) -> float:
        return tracing.now() - self.start


def read_results(out_dir: str, n_tasks: int) -> tuple[bytes, float, float, list[str]]:
    """CSV bytes, final ACC and BWT, and problems found in the final checkpoint."""
    import numpy as np
    from hlop.harness import load_checkpoint
    from hlop.harness.metrics import read_summary_csv

    problems = []
    blob = b""
    for name in ("metrics.csv", "summary.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            blob += f.read()
    rows = read_summary_csv(os.path.join(out_dir, "summary.csv"))
    if len(rows) != n_tasks:
        problems.append(f"summary.csv has {len(rows)} rows, expected {n_tasks}")
    _, acc, bwt = rows[-1]
    ckpt = load_checkpoint(os.path.join(out_dir, f"task{n_tasks}.ckpt"))
    arrays = [a for _, w, b in ckpt.layers for a in (w, b)]
    arrays += [a for s in ckpt.subspaces.values() for a in (s.H, s.H_new)]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append(f"non-finite weights or subspaces in task{n_tasks}.ckpt")
    return blob, acc, bwt, problems


def run_timings(record: dict, spawned: float) -> dict:
    """Set-up, time to result, rates and batch latencies of one run."""
    spans = record["spans"]
    trainer = [s[1] for s in spans if s[0] == tracing.TRAINER]
    evals = [(s[1], s[2]) for s in spans if s[0] == tracing.EVAL]
    first = min(trainer)
    run_s = record["end"] - first
    eval_s = sum(e - s for s, e in evals)
    # a batch lasts from its trainer entry to the next trainer entry or, for
    # the last batch of a task, to the evaluation that follows it
    marks = sorted([(t, True) for t in trainer] + [(s, False) for s, _ in evals])
    gaps = [b[0] - a[0] for a, b in zip(marks, marks[1:]) if a[1]]
    return {
        "setup_s": first - spawned,
        "run_s": run_s,
        "train_samples_per_s": record["counts"]["training.samples"] / (run_s - eval_s),
        "eval_samples_per_s": record["counts"]["harness.eval_samples"] / eval_s,
        "gaps_ms": [1000.0 * g for g in gaps],
        "peak_rss_mb": record["rss_kb"] / 1024.0,
    }


def full_run(inv: Invocation, mode: str, workload: str, ref: dict) -> dict | None:
    """One gated run; ``ref`` keeps the first run's CSV bytes for the rest."""
    from hlop.harness.checkpoint import CheckpointError

    config, out_dir, n_tasks = ref["config"]
    record, spawned = inv.spawn(mode, config, out_dir)
    if record is None:
        return None
    try:
        blob, acc, bwt, problems = read_results(out_dir, n_tasks)
    except (OSError, ValueError, IndexError, CheckpointError) as e:
        inv.fail(f"{workload}: unreadable results: {e!r}")
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ref.setdefault("csv", blob)
    if blob != ref["csv"]:
        problems.append(f"{mode} run CSVs differ from the first run of {workload}")
    if problems:
        inv.fail("; ".join(problems))
        return None
    if record.get("missing"):
        inv.notes.append(f"not wrapped (absent): {', '.join(record['missing'])}")
    return {**run_timings(record, spawned), "acc": acc, "bwt": bwt, "record": record}


def measure_untraced(inv: Invocation, workload: str, seconds: float) -> tuple[dict, list[str]]:
    """Set-up probes, then untraced runs until ``seconds`` have been spent."""
    ref = {"config": inv.write_config(workload)}
    start = tracing.now()
    setups = []
    config, out_dir, _ = ref["config"]
    for _ in range(PROBES):
        record, spawned = inv.spawn("probe", config, out_dir)
        if record is not None:
            setups.append(record["first_batch"] - spawned)
    runs, durations = [], []
    # start another run while at least half of one still fits in the budget
    while not runs or tracing.now() - start + median(durations) / 2 <= seconds:
        t0 = tracing.now()
        run = full_run(inv, "run", workload, ref)
        durations.append(tracing.now() - t0)
        if run is None:
            if len(durations) >= 3:
                break
            continue
        runs.append(run)
    if not runs:
        return {}, []
    setups += [r["setup_s"] for r in runs]
    # batch-latency percentiles per run, then their median over the runs, so
    # host interference during one run does not pass for tail latency
    p50s = [stats.percentile(r["gaps_ms"], 50) for r in runs]
    p90s = [stats.percentile(r["gaps_ms"], 90) for r in runs]
    n = len(runs)
    metrics = {
        "setup_s": median(setups),
        "run_s": median(r["run_s"] for r in runs),
        "train_samples_per_s": median(r["train_samples_per_s"] for r in runs),
        "eval_samples_per_s": median(r["eval_samples_per_s"] for r in runs),
        "step_ms_p50": median(p.value for p in p50s),
        "step_ms_p90": median(p.value for p in p90s),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
    }
    per_run = f"median of {n} runs, each over {p90s[0].count} batches"
    how = {
        "setup_s": f"median of {len(setups)} ({len(setups) - n} probes + {n} runs)",
        "step_ms_p50": f"{per_run} with {p50s[0].beyond} beyond",
        "step_ms_p90": f"{per_run} with {p90s[0].beyond} beyond",
    }
    lines = [
        f"{workload:17s} {m:20s} {v:14.6f} {E2E_UNITS[m]:5s} {how.get(m, f'median of {n} runs')}"
        for m, v in metrics.items()
    ]
    lines += [
        f"{workload:17s} {name:20s} {runs[0][key]:14.6f} {unit:5s} last row of summary.csv"
        for name, key, unit in (("acc_final", "acc", "%"), ("bwt_final", "bwt", "pts"))
    ]
    return metrics, lines


def source_digest(workload: str) -> str:
    h = hashlib.sha256(workload.encode())
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    files.append(os.path.join(ROOT, "configs", WORKLOADS[workload]))
    for path in files:
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def check_counts(inv: Invocation, workload: str, counts: list[dict]) -> list[str]:
    """Counts that must repeat exactly: between the traced runs of this
    invocation, and against earlier invocations of the same code and seed."""
    keyed = [{k: c.get(k, 0) for k in tracing.REPEATED_COUNTS} for c in counts]
    store = os.path.join(WORK, "counts", f"{workload}-seed{inv.seed}-{source_digest(workload)}.json")
    if os.path.exists(store):
        with open(store, encoding="utf-8") as f:
            keyed.append(json.load(f))
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w", encoding="utf-8") as f:
            json.dump(keyed[0], f, indent=1)
    flagged = sorted({k for c in keyed[1:] for k in c if c[k] != keyed[0][k]})
    if flagged:
        inv.fail(f"{workload}: counts did not repeat: {', '.join(flagged)}", run=False)
    return [
        f"{workload:17s} counts repeat exactly across {len(keyed)} records"
        if not flagged
        else f"{workload:17s} COUNTS DID NOT REPEAT: {', '.join(flagged)}"
    ]


def measure_traced(inv: Invocation, workload: str, seconds: float) -> tuple[dict, list[str]]:
    """One untraced reference run, then traced runs until ``seconds`` are spent."""
    ref = {"config": inv.write_config(workload)}
    start = tracing.now()
    base = full_run(inv, "run", workload, ref)
    traced, durations = [], []
    while base is not None and (not traced or tracing.now() - start + median(durations) <= seconds):
        t0 = tracing.now()
        run = full_run(inv, "trace", workload, ref)  # gated on the reference's CSV bytes
        durations.append(tracing.now() - t0)
        if run is None:
            break
        traced.append(run)
    if not traced:
        return {}, []
    metrics = tracing.layer_metrics([r["record"] for r in traced])
    metrics["trace.overhead_ratio"] = median(r["run_s"] for r in traced) / base["run_s"]
    metrics["result.acc_final"] = traced[0]["acc"]
    metrics["result.bwt_final"] = traced[0]["bwt"]
    lines = [
        f"{workload:17s} {m:28s} {v if isinstance(v, int) else f'{v:.6f}':>20} {LAYER_UNITS[m]}"
        for m, v in metrics.items()
    ]
    lines.append(
        f"{workload:17s} traced CSVs equal the untraced run's; traced run_s "
        f"{median(r['run_s'] for r in traced):.3f} s over untraced {base['run_s']:.3f} s "
        f"({len(traced)} traced runs)"
    )
    lines += check_counts(inv, workload, [r["record"]["counts"] for r in traced])
    return metrics, lines


def environment(inv: Invocation) -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "child_pins": PINS,
        "nproc": os.cpu_count(),
        "cpu": "unknown",
        "caches": {},
        "git": "not a git checkout",
        "seed": inv.seed,
        "master_seed": inv.master_seed,
        "corpus_seed": inv.corpus_seed,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "unknown"
            )
        for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(d, name), encoding="utf-8") as f:
                    fields[name] = f.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            env["caches"][f"L{fields['level']}{kind}"] = fields["size"]
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(
            [*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        )
        env["git"] = head.stdout.strip() + (" dirty" if dirty.stdout.strip() else " clean")
    env["child_pins_seen"] = inv.pins_seen
    return env


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=21.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    needed = [os.path.join(ROOT, "src", "hlop", "cli.py")]
    needed += [os.path.join(ROOT, "configs", c) for c in WORKLOADS.values()]
    absent = [os.path.relpath(n, ROOT) for n in needed if not os.path.exists(n)]
    if absent:
        print(f"error: not an hlop checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    os.environ.update(PINS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hlop.harness import write_idx_dataset

    inv = Invocation(args.seed)
    if args.workload == "all":
        inv.deadline = None
    os.makedirs(inv.dir, exist_ok=True)
    try:
        write_idx_dataset(inv.data, seed=inv.corpus_seed, **CORPUS)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.workload == "all" else [args.trace]
        out: dict[str, tuple[float, str]] = {}
        lines: list[str] = []
        for workload in names:
            for trace in modes:
                measure = measure_traced if trace else measure_untraced
                metrics, text = measure(inv, workload, args.seconds)
                units = LAYER_UNITS if trace else E2E_UNITS
                prefix = f"{workload}/" if args.workload == "all" else ""
                out.update({prefix + m: (v, units[m]) for m, v in metrics.items()})
                lines += text
        env = environment(inv)
    finally:
        shutil.rmtree(inv.dir, ignore_errors=True)

    print(f"env {json.dumps(env, sort_keys=True)}")
    for line in lines + [f"note: {n}" for n in sorted(set(inv.notes))]:
        print(line)
    for problem in inv.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"runs_failed {inv.failed}/{inv.attempted} (share {inv.failed / max(1, inv.attempted):.3f})")
    if not out:
        print("error: no run completed", file=sys.stderr)
        return 1
    result = {
        "correct": not inv.problems,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in out.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
