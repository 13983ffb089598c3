"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists the public names it loads on first use in a table keyed
by the submodule that defines them::

    _LAZY = {"export": ("chrome_trace_json", "render_trace_text")}

    __all__, __getattr__, __dir__ = lazy_exports(globals(), _LAZY, eager=(...))

Importing the package then imports none of those submodules.  The first
``package.name`` or ``from package import name`` does, and caches the
value in the package's globals, so the hook runs once per name.  This
module imports nothing beyond :mod:`importlib`, because every package on
the decision and sweep paths imports it.
"""

import importlib


def lazy_exports(
    namespace: dict,
    lazy: dict[str, tuple[str, ...]],
    eager: tuple[str, ...] = (),
) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for the package owning ``namespace``.

    ``namespace`` is the package's ``globals()``, ``lazy`` maps each
    submodule to the public names it defines, and ``eager`` lists the
    public names the package has already imported.  ``__all__`` holds
    the eager names, then the lazy ones in table order.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in lazy.items() for name in names}
    exported = [*eager, *origin]

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exported})

    return exported, __getattr__, __dir__
