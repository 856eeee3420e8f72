import pytest

from hlop import training
from hlop.harness.data import load_data_dir, write_idx_dataset
from reference import smooth_step

POOL_SEED = 1


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
