"""The packages that re-export their submodules' names on first use.

Each package with a module ``__getattr__`` builds ``__all__``, the hook
and ``__dir__`` from one table (``repro._lazy.lazy_exports``); this test
holds every such package to the same contract.
"""

import importlib
import sys

import pytest

LAZY_PACKAGES = (
    "repro.calibrate",
    "repro.codegen",
    "repro.experiments",
    "repro.ir",
    "repro.lint",
    "repro.mca",
    "repro.models",
    "repro.obs",
    "repro.sim",
    "repro.symbolic",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_export_contract(package):
    pkg = importlib.import_module(package)
    origin = {name: module for module, names in pkg._LAZY.items() for name in names}
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    assert set(origin) <= set(pkg.__all__)
    listed = dir(pkg)
    for name in pkg.__all__:
        assert name in listed, name
        if name in origin:
            defining = importlib.import_module(f"{package}.{origin[name]}")
            # call the hook itself: an earlier lookup may have cached the name
            assert pkg.__getattr__(name) is getattr(defining, name), name
            assert getattr(pkg, name) is getattr(defining, name), name
        else:
            # bound when the package was imported, from one of its submodules
            value = vars(pkg)[name]
            assert any(
                module_name.startswith(package + ".") and vars(module).get(name) is value
                for module_name, module in list(sys.modules.items())
            ), name
    missing = "no_such_name"
    with pytest.raises(AttributeError, match=f"module {package!r} has no attribute {missing!r}"):
        getattr(pkg, missing)
