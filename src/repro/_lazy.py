"""Package front doors that import a submodule only when a name is used.

A package ``__init__`` lists its public names by defining module and
binds the two functions :func:`lazy_exports` returns as its PEP 562
``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.miner": ("execute_request", "mine_recurring_patterns"),
    })

Importing the package then imports none of those modules.  The first
access of a name (``pkg.name``, ``from pkg import name`` or ``from pkg
import *``) imports its module and stores the object in the package's
namespace, so later reads are plain attribute lookups and ``pkg.name``
is the defining module's object.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.
    """
    table = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
