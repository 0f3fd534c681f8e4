"""The public API: every exported name resolves, each exported once, and the
removed verdict helpers stay removed."""

import importlib
import pkgutil

import pytest

import ncmart
import ncmart.harness

REMOVED = ("expect_chain", "CheckResult", "is_martingale", "is_submartingale_abs2",
           "loewner_psd", "IntegralSum", "instance_checks")


@pytest.mark.parametrize("package", [ncmart, ncmart.harness], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(package):
    names = package.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(package, n)] == []


def test_removed_names_are_absent_from_every_module():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(ncmart.__path__, "ncmart.")]
    for module in [ncmart, *modules]:
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__
