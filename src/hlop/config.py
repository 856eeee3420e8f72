"""Experiment configuration: flat-key text files, validation, echo.

The on-disk format is one ``key = value`` assignment per line (TOML-like):
``#`` comments, integers, floats, booleans (``true``/``false``, which no key
takes), quoted or bare strings, and (nested) lists. Every knob of a run
lives here; a resolved copy of the config is echoed next to the results so
any run can be reproduced from one file, its data and one master seed.
Nothing here knows the image size: the training loop checks the geometry
against the data.
"""

from __future__ import annotations

import ast
import math
import os
from dataclasses import dataclass, field, fields


class ConfigError(Exception):
    """Invalid configuration; ``problems`` lists field-level diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class ExperimentConfig:
    seed: int = 0
    trainer: str = "ottt"  # "rate" | "bptt" | "ottt"
    errorprop: str = "bp"  # "bp" | "fa" | "ss"
    hlop: str = "off"  # "off" | "linear" | "spiking"
    T: int = 6
    lam: float = 0.5
    v_th: float = 0.4
    a2: float = 0.25
    delta_t: float = 0.05
    tau: float = 1.0
    lr: float = 0.1
    batch: int = 64
    epochs: int = 1
    hidden_sizes: list = field(default_factory=lambda: [200, 200])
    subspace_schedule: list = field(default_factory=list)  # per layer [first, expand]; [] = from the data
    task: str = "pmnist"  # "pmnist" | "split_mnist"
    n_tasks: int = 5
    train_per_task: int = 2000
    test_per_task: int = 1000
    output_dir: str = "runs/out"
    data_dir: str = ""  # empty -> $HLOP_DATA_DIR
    conv_channels: int = 8
    conv_kernel: int = 3
    conv_pool: int = 2
    conv_hidden: int = 100

    def resolved_data_dir(self) -> str:
        return self.data_dir or os.environ.get("HLOP_DATA_DIR", "")


# config-file key -> dataclass field (only where they differ)
_KEY_ALIASES = {"lambda": "lam"}
_FIELD_TO_KEY = {v: k for k, v in _KEY_ALIASES.items()}

_ENUMS = {
    "trainer": ("rate", "bptt", "ottt"),
    "errorprop": ("bp", "fa", "ss"),
    "hlop": ("off", "linear", "spiking"),
    "task": ("pmnist", "split_mnist"),
}


def default_subspace_schedule(widths: list[int], split: bool) -> list:
    """Per-layer [first-task rows, per-task expansion] when none is given,
    sized from the presynaptic widths (``in_dim``) of the built net's
    trainable layers.

    Scales the working full-size ratios linearly to those widths: about a
    tenth of the input width, a quarter of each hidden width, and an eighth
    of the classifier's presynaptic width for the first task, with per-task
    expansions near 9% of the width (e.g. hidden width 200 gives 50
    first-task rows and +18 per later task). Split runs project only the conv
    and dense blocks (per-task heads are never revisited).
    """
    if split:
        patch, flat = widths[:2]
        return [
            [max(2, patch // 4), 1],
            [max(4, flat // 4), max(2, flat // 12)],
        ]
    first_ratio = [0.102] + [0.25] * (len(widths) - 2) + [0.125]
    sched = []
    for w, r in zip(widths, first_ratio):
        sched.append([max(1, round(w * r)), max(1, round(w * 0.0875))])
    return sched


def _shown(value, width: int = 60) -> str:
    """A refused value's repr for a problem line, cut to ``width`` characters."""
    r = repr(value)
    return r if len(r) <= width else f"{r[:width]}... ({len(r)} characters)"


def _parse_value(raw: str, line_no: int, problems: list[str]):
    raw = raw.strip()
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return ast.literal_eval(raw)
    except (ValueError, TypeError, SyntaxError, RecursionError, MemoryError):
        pass  # also unhashable set/dict members, and nesting too deep for the parser
    # bare strings (unquoted identifiers such as `trainer = ottt`)
    if raw and all(ch.isalnum() or ch in "._-/" for ch in raw):
        return raw
    problems.append(f"line {line_no}: cannot parse value {_shown(raw)}")
    return None


def parse_flat_config(text: str) -> dict:
    """Parse flat ``key = value`` lines into a dict.

    Raises:
        ConfigError: on syntax problems, with one diagnostic per line.
    """
    out: dict = {}
    problems: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {line_no}: expected 'key = value', got {_shown(stripped)}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        # strip trailing comments outside of strings/brackets
        if "#" in raw and not raw.strip().startswith(('"', "'", "[")):
            raw = raw.split("#", 1)[0]
        value = _parse_value(raw, line_no, problems)
        if key in out:
            problems.append(f"line {line_no}: duplicate key {_shown(key)}")
        out[key] = value
    if problems:
        raise ConfigError(problems)
    return out


def _validate(cfg: ExperimentConfig) -> list[str]:
    """Field-named problems of ``cfg`` that the config alone decides."""
    p: list[str] = []
    if cfg.seed < 0:
        p.append(f"seed: must be >= 0, got {_shown(cfg.seed)}")
    for name in ("T", "batch", "epochs", "n_tasks", "train_per_task", "test_per_task"):
        if getattr(cfg, name) < 1:
            p.append(f"{name}: must be >= 1, got {_shown(getattr(cfg, name))}")
    for name, allowed in _ENUMS.items():
        v = getattr(cfg, name)
        if v not in allowed:
            p.append(f"{_FIELD_TO_KEY.get(name, name)}: {_shown(v)} not one of {allowed}")
    if not (0.0 < cfg.lam < 1.0):
        p.append(f"lambda: must lie in (0, 1), got {cfg.lam}")
    if cfg.v_th <= 0:
        p.append(f"v_th: must be positive, got {cfg.v_th}")
    if cfg.a2 <= 0:
        p.append(f"a2: must be positive, got {cfg.a2}")
    if cfg.lr < 0:
        p.append(f"lr: must be >= 0, got {cfg.lr}")
    for f in fields(cfg):
        if isinstance(v := getattr(cfg, f.name), float) and not math.isfinite(v):
            p.append(f"{_FIELD_TO_KEY.get(f.name, f.name)}: must be finite, got {v}")
    split = cfg.task == "split_mnist"
    if split and cfg.n_tasks > 5:
        p.append(f"n_tasks: split_mnist has 5 class pairs, got {_shown(cfg.n_tasks)}")
    # ``type(h) is int`` refuses booleans, which are ints to isinstance.
    if not cfg.hidden_sizes or not all(type(h) is int and h > 0 for h in cfg.hidden_sizes):
        p.append(f"hidden_sizes: need positive integers, got {_shown(cfg.hidden_sizes)}")
    for name in ("conv_channels", "conv_kernel", "conv_pool", "conv_hidden") if split else ():
        if getattr(cfg, name) < 1:
            p.append(f"{name}: must be >= 1, got {_shown(getattr(cfg, name))}")
    # An empty schedule is sized, and a given one checked, against the data.
    if cfg.hlop != "off" and (sched := cfg.subspace_schedule):
        n_layers = 2 if split else len(cfg.hidden_sizes) + 1  # per-task heads get none
        if len(sched) != n_layers:
            p.append(f"subspace_schedule: need {n_layers} per-layer [first, expand] entries, "
                     f"got {len(sched)}")
        for i, entry in enumerate(sched):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(v) is int and v >= 0 for v in entry)):
                p.append(f"subspace_schedule[{i}]: expected [first, expand] ints")
    return p


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from parsed flat keys.

    Unknown keys, type mismatches, enum violations and cross-field
    inconsistencies are all reported together.
    """
    problems: list[str] = []
    known = {f.name: f for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for key, value in raw.items():
        name = _KEY_ALIASES.get(key, key)
        if name not in known:
            problems.append(f"unknown key {_shown(key)}")
            continue
        current = getattr(cfg, name)
        if isinstance(current, int):
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{key}: expected an integer, got {_shown(value)}")
                continue
        elif isinstance(current, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{key}: expected a number, got {_shown(value)}")
                continue
            try:
                value = float(value)
            except OverflowError:  # an int beyond float range, refused as non-finite below
                value = math.inf if value > 0 else -math.inf
        elif isinstance(current, str):
            if not isinstance(value, str):
                problems.append(f"{key}: expected a string, got {_shown(value)}")
                continue
        elif isinstance(current, list):
            if not isinstance(value, list):
                problems.append(f"{key}: expected a list, got {_shown(value)}")
                continue
        setattr(cfg, name, value)
    if problems:
        raise ConfigError(problems)
    problems = _validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError([f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"]) from e
    return config_from_dict(parse_flat_config(text))


def _format_value(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return repr(v)


def echo_config(cfg: ExperimentConfig) -> str:
    """Serialize the fully resolved config back to the flat-key format.

    Feeding the echo back into a run reproduces it exactly.
    """
    lines = []
    for f in fields(ExperimentConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        lines.append(f"{key} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
