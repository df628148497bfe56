"""Module objects that run their module's code on first attribute access."""

import importlib.util
import sys


def lazy_module(name: str):
    """The top-level module ``name``, executed on first attribute access.

    Importing a ptdrsc module then costs nothing for numpy and scipy: a
    command that never computes with them never loads them.  After the
    first access the object is an ordinary module, so attribute lookups
    cost what they cost on a normally imported one.  A module already
    imported is returned as it is.  Python 3.11's LazyLoader takes no
    lock, so there a thread that touches the module while another one
    runs its first access can find it half initialised.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
