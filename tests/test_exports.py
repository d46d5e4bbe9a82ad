"""Every name a transtri module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import transtri

MODULES = sorted(info.name for info in pkgutil.iter_modules(transtri.__path__))


def test_every_module_is_listed():
    assert {"bump", "charts", "cli", "perturb", "simplicial", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"transtri.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"transtri.{name}.__all__ names missing attributes: {missing}"
