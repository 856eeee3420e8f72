import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hlop import training
from hlop.harness.data import load_data_dir, write_idx_dataset
from reference import smooth_step

POOL_SEED = 1

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches constants read from local source files while it
    # collects; without this, under ./.hypothesis of the working directory.
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    if home := config.stash.get(_HYPOTHESIS_HOME, None):
        shutil.rmtree(home, ignore_errors=True)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_idx_dataset(str(d), n_train=12000, n_test=4000, seed=POOL_SEED)
    return str(d)


@pytest.fixture(scope="session")
def data_pools(data_dir):
    return load_data_dir(data_dir)


@pytest.fixture
def smooth_forward(monkeypatch):
    """Every spiking walk of the test steps the sigmoid-relaxed neuron."""
    monkeypatch.setattr(training, "lif_step", smooth_step)
