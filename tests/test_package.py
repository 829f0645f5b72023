"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import nldiff

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(nldiff.__path__))


@pytest.mark.parametrize("module", ["nldiff"] + ["nldiff." + name for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    # a module without an export list (the command line) exports nothing
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []
