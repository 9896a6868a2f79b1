"""Public surface: every exported name resolves, and removed wrappers stay gone."""
import pytest

import spinglass
from spinglass import franz_parisi, mclab


@pytest.mark.parametrize("module", [spinglass, mclab, franz_parisi], ids=lambda mod: mod.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", ["SigmaMatrix", "GenericityReport"])
def test_removed_wrappers_are_not_exported(name):
    assert name not in spinglass.__all__
    assert not hasattr(spinglass, name)
    assert not hasattr(spinglass.mixtures, name)
