"""Experiment configuration: flat-key text files, validation, echo.

The on-disk format is one ``key = value`` assignment per line (TOML-like):
``#`` comments, integers, floats, booleans (``true``/``false``), quoted or
bare strings, and (nested) lists. Every knob of a run lives here; a resolved
copy of the config is echoed next to the results so any run can be
reproduced from one file and one master seed.
"""

from __future__ import annotations

import ast
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
    subspace_schedule: list = field(default_factory=list)  # per layer [first, expand]
    quant_scale: float = 20.0
    quant_t_l: int = 40
    task: str = "pmnist"  # "pmnist" | "split_mnist"
    n_tasks: int = 5
    train_per_task: int = 2000
    test_per_task: int = 1000
    head_mode: str = "single"  # "single" | "multi"
    output_dir: str = "runs/out"
    data_dir: str = ""  # empty -> $HLOP_DATA_DIR
    audit_samples: int = 200
    checkpoint_every_task: bool = True
    ss_scale: float = 0.0  # 0 -> per-layer mean |W|
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
    "head_mode": ("single", "multi"),
}


def default_subspace_schedule(cfg: ExperimentConfig) -> list:
    """Per-layer [first-task rows, per-task expansion] when none is given.

    Scales the working full-size ratios linearly to the configured widths:
    about a tenth of the input width, a quarter of each hidden width, and an
    eighth of the classifier's presynaptic width for the first task, with
    per-task expansions near 9% of the width (e.g. hidden width 200 gives 50
    first-task rows and +18 per later task).
    """
    widths = _projected_widths(cfg)
    if cfg.task == "split_mnist":
        patch, flat = widths
        return [
            [max(2, patch // 4), 1],
            [max(4, flat // 4), max(2, flat // 12)],
        ]
    first_ratio = [0.102] + [0.25] * (len(widths) - 2) + [0.125]
    sched = []
    for w, r in zip(widths, first_ratio):
        sched.append([max(1, round(w * r)), max(1, round(w * 0.0875))])
    return sched


def _parse_value(raw: str, line_no: int, problems: list[str]):
    raw = raw.strip()
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        pass
    # bare strings (unquoted identifiers such as `trainer = ottt`)
    if raw and all(ch.isalnum() or ch in "._-/" for ch in raw):
        return raw
    problems.append(f"line {line_no}: cannot parse value {raw!r}")
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
            problems.append(f"line {line_no}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        # strip trailing comments outside of strings/brackets
        if "#" in raw and not raw.strip().startswith(('"', "'", "[")):
            raw = raw.split("#", 1)[0]
        value = _parse_value(raw, line_no, problems)
        if key in out:
            problems.append(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    if problems:
        raise ConfigError(problems)
    return out


def _validate(cfg: ExperimentConfig) -> list[str]:
    p: list[str] = []
    for name, allowed in _ENUMS.items():
        v = getattr(cfg, name)
        if v not in allowed:
            p.append(f"{_FIELD_TO_KEY.get(name, name)}: {v!r} not one of {allowed}")
    if not (0.0 < cfg.lam < 1.0):
        p.append(f"lambda: must lie in (0, 1), got {cfg.lam}")
    if cfg.v_th <= 0:
        p.append(f"v_th: must be positive, got {cfg.v_th}")
    if cfg.T < 1:
        p.append(f"T: must be >= 1, got {cfg.T}")
    if cfg.a2 <= 0:
        p.append(f"a2: must be positive, got {cfg.a2}")
    if cfg.lr < 0:
        p.append(f"lr: must be >= 0, got {cfg.lr}")
    if cfg.batch < 1:
        p.append(f"batch: must be >= 1, got {cfg.batch}")
    if cfg.epochs < 1:
        p.append(f"epochs: must be >= 1, got {cfg.epochs}")
    if cfg.n_tasks < 1:
        p.append(f"n_tasks: must be >= 1, got {cfg.n_tasks}")
    if cfg.quant_scale <= 0:
        p.append(f"quant_scale: must be positive, got {cfg.quant_scale}")
    if cfg.quant_t_l < 1:
        p.append(f"quant_t_l: must be >= 1, got {cfg.quant_t_l}")
    if not cfg.hidden_sizes or not all(
        isinstance(h, int) and h > 0 for h in cfg.hidden_sizes
    ):
        p.append(f"hidden_sizes: need positive integers, got {cfg.hidden_sizes}")
    if cfg.task == "pmnist" and cfg.head_mode != "single":
        p.append("head_mode: pmnist runs use the shared single-head classifier")
    if cfg.task == "split_mnist" and cfg.head_mode != "multi":
        p.append("head_mode: split_mnist runs use per-task heads")
    if cfg.hlop != "off":
        sched = cfg.subspace_schedule
        widths = _projected_widths(cfg)
        if len(sched) != len(widths):
            p.append(
                f"subspace_schedule: need {len(widths)} per-layer [first, expand] entries, "
                f"got {len(sched)}"
            )
        else:
            for i, entry in enumerate(sched):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(v, int) and v >= 0 for v in entry)
                ):
                    p.append(f"subspace_schedule[{i}]: expected [first, expand] ints")
                    continue
                total = entry[0] + entry[1] * (cfg.n_tasks - 1)
                if total > widths[i]:
                    p.append(
                        f"subspace_schedule[{i}]: {total} subspace neurons exceed "
                        f"presynaptic width {widths[i]}"
                    )
    return p


def _projected_widths(cfg: ExperimentConfig) -> list[int]:
    """Presynaptic width of each projected layer, for 28x28 single-channel input:
    every hidden layer plus the shared classifier, or on split runs the conv
    and dense blocks (per-task heads are never revisited)."""
    if cfg.task == "split_mnist":
        from .spiking import pooled_flat_width

        flat = pooled_flat_width(cfg.conv_channels, (28, 28), cfg.conv_kernel, cfg.conv_pool)
        return [cfg.conv_kernel * cfg.conv_kernel, flat]
    return [784, *cfg.hidden_sizes]


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
            problems.append(f"unknown key {key!r}")
            continue
        current = getattr(cfg, name)
        if isinstance(current, bool):
            if not isinstance(value, bool):
                problems.append(f"{key}: expected a boolean, got {value!r}")
                continue
        elif isinstance(current, int):
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{key}: expected an integer, got {value!r}")
                continue
        elif isinstance(current, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{key}: expected a number, got {value!r}")
                continue
            value = float(value)
        elif isinstance(current, str):
            if not isinstance(value, str):
                problems.append(f"{key}: expected a string, got {value!r}")
                continue
        elif isinstance(current, list):
            if not isinstance(value, list):
                problems.append(f"{key}: expected a list, got {value!r}")
                continue
        setattr(cfg, name, value)
    if problems:
        raise ConfigError(problems)
    if cfg.hlop != "off" and not cfg.subspace_schedule:
        cfg.subspace_schedule = default_subspace_schedule(cfg)
    problems = _validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return config_from_dict(parse_flat_config(f.read()))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
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
