"""Every name a module exports must exist, so a deleted function cannot
leave a stale ``__all__`` entry behind."""

import importlib
import pkgutil

import pytest

import fibercover

MODULES = ["fibercover"] + [
    f"fibercover.{info.name}" for info in pkgutil.iter_modules(fibercover.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
