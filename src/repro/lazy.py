"""Package re-exports that import their defining module on first use.

A package ``__init__`` (or the :mod:`repro.api` facade) that re-exports
names with ``from .x import Name`` imports every such module whenever
the package is imported, though the importer may run none of them.
:func:`attach` builds the module hooks of PEP 562 instead: a re-exported
name is imported on first access, resolved exactly as ``from <module>
import <name>`` resolves it, and cached in the package's globals, so each
later access is a plain attribute lookup.  ``from package import Name``,
``from package import *`` (through ``__all__``) and ``dir(package)``
behave as they did with the eager imports.

A module's own functions do not see these names as globals: a function
in a lazy ``__init__`` that needs one imports it from its defining
module.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Dict, Mapping, Optional, Sequence


def attach(
    namespace: Dict[str, object],
    exports: Mapping[str, Sequence[str]],
    fallback: Optional[Callable[[str], object]] = None,
):
    """The ``(__getattr__, __dir__)`` hooks of a lazily re-exporting module.

    ``namespace`` is the module's ``globals()``.  ``exports`` maps each
    defining module, relative to the module's package (``".config"``), to
    the names re-exported from it; a subpackage re-exported whole is a
    name of its parent (``{".": ("obs",)}`` is ``from . import obs``).
    ``fallback(name)`` answers every other name; without it they raise
    :class:`AttributeError`.
    """
    package = namespace["__package__"]
    module_of = {
        name: importlib.util.resolve_name(module, package)
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            if fallback is not None:
                return fallback(name)
            raise AttributeError(
                "module %r has no attribute %r" % (namespace["__name__"], name)
            )
        # With a fromlist, __import__ returns ``module`` itself and, as a
        # from-import does, imports ``name`` as its submodule when it is
        # not an attribute.
        value = getattr(__import__(module, fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
