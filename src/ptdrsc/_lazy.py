"""Module objects that run their module's code on first attribute access."""

import importlib
import sys
import types


class _LazyModule(types.ModuleType):
    """Stands in for a module until the first attribute access imports it.

    On the first access this object imports the module, copies its
    namespace into its own and becomes a plain module: a ``__getattr__``
    on the class would put every later lookup on the slow attribute hook.
    Nothing is looked up before that access, so a dotted name does not
    load its parent package at definition time either.
    ``importlib.import_module`` takes the import lock, so threads racing
    on the first access copy the same, complete namespace.
    """

    def __getattr__(self, attr):
        vars(self).update(vars(importlib.import_module(self.__name__)))
        self.__class__ = types.ModuleType
        return getattr(self, attr)


def lazy_module(name: str):
    """The module ``name``, executed on first attribute access.

    Importing a ptdrsc module then costs nothing for numpy and scipy: a
    command that never computes with them never loads them.  After the
    first access the object is an ordinary module that holds the real
    module's namespace, so attribute lookups cost what they cost on a
    normally imported one.  A module already imported is returned as it
    is.
    """
    if name in sys.modules:
        return sys.modules[name]
    return _LazyModule(name)
