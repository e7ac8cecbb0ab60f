"""Lazy package exports (PEP 562).

A package ``__init__`` declares which submodule defines each public
name; the submodule is imported the first time one of its names is
read, so importing a package costs only the package itself::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.busgen.algorithm": ("BusDesign", "generate_bus"),
    })

``from package import name``, ``package.name`` and ``from package
import *`` (driven by ``__all__``) all resolve through the same map.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, modules: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object],
                            Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``modules`` maps a defining module's absolute name to the names
    the package re-exports from it.  A resolved name is cached in the
    package namespace, so each is looked up through the map once.
    """
    exports: Dict[str, str] = {name: module
                               for module, names in modules.items()
                               for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
