"""The shipped configs, which the benchmark runs as its workloads, load,
round-trip through their echo, and size their circuits as they always have."""

from pathlib import Path

import pytest

from hlop.config import ExperimentConfig, echo_config, load_config
from hlop.harness.loop import build_net, make_task_sequence, subspace_schedule

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


# Each workload's schedule on 28x28 data, as given or as the default sizes it
# from the built net: a drift would silently change what the benchmark measures.
SCHEDULES = {
    "pmnist_hlop": [[80, 69], [50, 18], [25, 18]],
    "pmnist_hlop_spiking": [[80, 69], [50, 18], [25, 18]],
    "split_conv": [[2, 1], [338, 112]],
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedule_resolved_on_28x28_data(name, data_pools):
    (path,) = [p for p in CONFIGS if p.stem == name]
    cfg = load_config(str(path))
    seq = make_task_sequence(cfg, *data_pools)
    assert seq.image_hw == (28, 28)
    assert subspace_schedule(cfg, build_net(cfg, seq)) == SCHEDULES[name]
