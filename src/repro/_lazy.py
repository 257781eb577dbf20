"""Lazy package attributes (PEP 562), shared by every package ``__init__``.

Every ``python -m repro`` command and every ledger child is a fresh
process, so a package that imported all of its submodules up front made
each of them pay for the whole library. A package ``__init__`` instead
names where each public attribute lives::

    __getattr__, __dir__ = _lazy.attach(__name__, {"Workload": "workload", ...})

and the submodule is imported on first access. A table entry whose value
equals its key (``{"core": "core"}``) names a submodule itself.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from typing import Any

__all__ = ["attach"]


def attach(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package`` for ``table``.

    ``table`` maps each attribute name to the submodule, relative to
    ``package``, that defines it. A resolved attribute is stored in the
    package's namespace, so ``__getattr__`` runs once per name.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            where = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # The builtin ``__import__``, not ``importlib.import_module``:
        # only the builtin's imports appear in ``python -X importtime``.
        __import__(f"{package}.{where}")
        module = sys.modules[f"{package}.{where}"]
        value = module if where == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
