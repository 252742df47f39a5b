"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package maps each name it re-exports to the module that defines it; the
name is imported on first attribute access and cached in the package's
globals, so ``import repro`` loads only what its caller touches.  A
re-exported name must not equal one of the package's submodule names:
importing that submodule binds the module object to the package attribute,
which then shadows the lazy name.  Such a name stays an eager import.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return a module ``__getattr__`` and ``__dir__`` over *exports*.

    *exports* maps an exported name to its defining module, or to
    ``"module:attribute"`` when the module calls it something else.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module, _, attribute = exports[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
