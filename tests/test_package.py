"""Every name a module of the package exports exists."""

import importlib
import pkgutil

import pytest

import dunkl_spectra

MODULES = ["dunkl_spectra"] + [
    f"dunkl_spectra.{info.name}"
    for info in pkgutil.iter_modules(dunkl_spectra.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # errors declares none
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
