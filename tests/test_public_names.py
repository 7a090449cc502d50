"""Every name a module of ``eigensums`` lists in ``__all__`` must exist, so
that ``from eigensums.<module> import *`` does not raise on a stale entry,
and every name the package imports from a module must be in that module's
``__all__``, so that a name dropped from one is dropped from the other."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_package_import_is_in_its_module_all():
    tree = ast.parse(Path(eigensums.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in getattr(importlib.import_module(f"eigensums.{node.module}"), "__all__", ())
    ]
    assert not unlisted, unlisted
