"""The shipped configs, which the benchmark runs as its workloads, load and
round-trip through their echo."""

from pathlib import Path

import pytest

from hlop.config import ExperimentConfig, echo_config, load_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def test_the_configs_are_there():
    assert [p.name for p in CONFIGS] == [
        "pmnist_baseline.cfg", "pmnist_hlop.cfg", "pmnist_hlop_spiking.cfg", "split_conv.cfg"
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_loads_and_its_echo_reloads_equal(path, tmp_path):
    cfg = load_config(str(path))
    assert isinstance(cfg, ExperimentConfig) and cfg != ExperimentConfig()
    echo = tmp_path / "resolved_config.cfg"
    echo.write_text(echo_config(cfg), encoding="utf-8")
    assert load_config(str(echo)) == cfg
