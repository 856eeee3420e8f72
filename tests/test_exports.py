import pytest

import hlop
import hlop.harness


@pytest.mark.parametrize("module", [hlop, hlop.harness], ids=["hlop", "hlop.harness"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
