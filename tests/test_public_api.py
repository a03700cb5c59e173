"""Every name a package exports in ``__all__`` resolves on that package."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.predictors",
    "repro.link",
    "repro.radio",
    "repro.serve",
    "repro.sim",
    "repro.station",
    "repro.uav",
    "repro.uwb",
    "repro.wifi",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
