"""Command-line entry point.

    hlop run <config>            execute a task-sequence experiment
    hlop synth-data --out DIR    generate the offline IDX dataset

Exit codes: 0 success, 1 failed run (divergence), 2 invalid configuration
or arguments (including a config file that cannot be read or is not UTF-8)
or an output file that cannot be written (a CSV, resolved_config.cfg, an IDX
file), 3 missing, unopenable or malformed dataset or checkpoint files
(including a checkpoint that cannot be written, one that does not fit the
resuming run or whose task cursor is outside 1..n_tasks, and a subspace
schedule that overfills a layer of the net built from the data).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, echo_config, load_config
from .harness.checkpoint import CheckpointError
from .harness.data import DatasetError, atomic_path, write_idx_dataset
from .harness.loop import DivergenceError, ScheduleError, run_continual
from .harness.metrics import write_metrics_csv, write_summary_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


def cmd_run(config_path: str, resume: str | None = None) -> int:
    try:
        cfg = load_config(config_path)
    except OSError as e:
        print(f"error: cannot read config file {config_path}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print("invalid configuration:", file=sys.stderr)
        for p in e.problems:
            print(f"  - {p}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output_dir {cfg.output_dir!r}: {e.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_continual(
            cfg,
            resume_path=resume,
            checkpoint_dir=cfg.output_dir if cfg.checkpoint_every_task else None,
        )
    except (FileNotFoundError, DatasetError) as e:
        print(f"dataset error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ScheduleError as e:
        print(f"schedule error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_FAIL

    for line in result.logs:
        print(line)
    if result.audit is not None:
        worst = max(result.audit.values()) if result.audit else 0.0
        print(f"interference audit: worst protected-direction drift {worst:.3e}")

    try:
        echo_path = os.path.join(cfg.output_dir, "resolved_config.cfg")
        with atomic_path(echo_path) as tmp, open(tmp, "w", encoding="utf-8") as f:
            f.write(echo_config(cfg))
        write_metrics_csv(os.path.join(cfg.output_dir, "metrics.csv"), result.matrix)
        write_summary_csv(os.path.join(cfg.output_dir, "summary.csv"), result.matrix)
    except OSError as e:
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote metrics.csv, summary.csv, resolved_config.cfg to {cfg.output_dir}")
    return EXIT_OK


def cmd_synth_data(out_dir: str, n_train: int, n_test: int, seed: int) -> int:
    if n_train < 1 or n_test < 1:
        print(f"error: --train and --test must be >= 1, got {n_train} and {n_test}",
              file=sys.stderr)
        return EXIT_CONFIG
    if seed < 0:
        print(f"error: --seed must be >= 0, got {seed}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create --out {out_dir!r}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_idx_dataset(out_dir, n_train=n_train, n_test=n_test, seed=seed)
    except OSError as e:
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote IDX dataset ({n_train} train / {n_test} test) to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hlop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a task-sequence experiment from a config file")
    run_p.add_argument("config", help="flat-key config file")
    run_p.add_argument("--resume", default=None, help="checkpoint to continue from")

    syn_p = sub.add_parser("synth-data", help="generate the deterministic offline dataset")
    syn_p.add_argument("--out", required=True, help="output directory for the IDX files")
    syn_p.add_argument("--train", type=int, default=12000)
    syn_p.add_argument("--test", type=int, default=4000)
    syn_p.add_argument("--seed", type=int, default=1)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, resume=args.resume)
    if args.command == "synth-data":
        return cmd_synth_data(args.out, args.train, args.test, args.seed)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
