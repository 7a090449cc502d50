"""Every name a module of ``eigensums`` lists in ``__all__`` must exist, so
that ``from eigensums.<module> import *`` does not raise on a stale entry."""

import importlib
import pkgutil

import pytest

import eigensums

MODULES = [
    f"eigensums.{info.name}"
    for info in pkgutil.iter_modules(eigensums.__path__)
    if not info.name.startswith("_")  # importing a __main__ would run it
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing
