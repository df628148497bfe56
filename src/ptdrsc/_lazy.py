"""Module objects that run their module's code on first attribute access."""

import importlib
import importlib.util
import sys
import types


class _Submodule(types.ModuleType):
    """Stands in for a submodule until the first attribute access imports it.

    ``find_spec`` of a dotted name imports the parent package, so a
    submodule cannot go through ``LazyLoader`` without loading its parent
    at definition time.  On the first access this object imports the
    submodule, copies its namespace into its own and becomes a plain
    module, as ``LazyLoader``'s modules do: a ``__getattr__`` on the class
    would put every later lookup on the slow attribute hook.
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
    first access the object is an ordinary module (for a dotted name, one
    that holds the submodule's namespace), so attribute lookups cost what
    they cost on a normally imported one.  A module already imported is
    returned as it is.  Python 3.11's LazyLoader takes no lock, so there
    a thread that touches a top-level module while another one runs its
    first access can find it half initialised.
    """
    if name in sys.modules:
        return sys.modules[name]
    if "." in name:
        return _Submodule(name)
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
