"""Lazy package exports (PEP 562).

A package declares its public names as a ``{module: names}`` table and
hands it to :func:`lazy_exports`.  Each name is imported from its module
on first access and then bound in the package, so ``import repro`` (or
``repro.core``, ...) loads only the submodules a process actually uses:
a plain simulation never pays for the process pool, the oracle, the
observers or the chart and trace writers.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Sequence


def lazy_exports(namespace: Dict[str, Any], table: Dict[str, Sequence[str]]) -> None:
    """Install ``__getattr__`` and ``__dir__`` in a package's ``globals()``.

    ``table`` maps a module path to the names the package re-exports
    from it; a name whose module is ``<package>.<name>`` is that
    submodule itself.  The inverted table (name -> module) is kept as
    the package's ``_EXPORTS``.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    namespace.update(__getattr__=__getattr__, __dir__=__dir__, _EXPORTS=exports)
