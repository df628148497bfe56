"""ptdrsc._lazy.lazy_module: deferred execution, the plain module left
behind after the first access, and threads racing on that access."""

import math
import sys
import threading
import types

import pytest

from ptdrsc._lazy import lazy_module

NAMES = 500


@pytest.fixture
def probe(tmp_path, monkeypatch):
    """A package ``lazyprobe`` on sys.path with one submodule ``sub``, whose
    code sleeps before it defines NAMES names; both leave sys.modules after
    the test."""
    pkg = tmp_path / "lazyprobe"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    body = "".join(f"v{i} = object()\n" for i in range(NAMES))
    (pkg / "sub.py").write_text("import time\ntime.sleep(0.05)\n" + body)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "lazyprobe.sub"
    for name in ("lazyprobe.sub", "lazyprobe"):
        sys.modules.pop(name, None)


def test_first_access_leaves_a_plain_module_with_the_real_objects(probe):
    module = lazy_module(probe)
    # nothing runs until an attribute is read, not even the parent package
    assert "lazyprobe" not in sys.modules and probe not in sys.modules
    first = module.v0
    real = sys.modules[probe]
    assert type(module) is types.ModuleType
    assert first is real.v0
    for i in range(NAMES):
        assert getattr(module, f"v{i}") is getattr(real, f"v{i}")
    assert module.__name__ == probe


def test_an_imported_module_is_returned_as_it_is():
    assert lazy_module("math") is math
    assert lazy_module("types") is types


def test_threads_racing_on_the_first_access_see_the_whole_namespace(probe):
    module = lazy_module(probe)
    start = threading.Barrier(8)
    seen = []

    def reader():
        start.wait()
        last = getattr(module, f"v{NAMES - 1}")
        seen.append((last, all(hasattr(module, f"v{i}") for i in range(NAMES))))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    real = sys.modules[probe]
    assert seen == [(getattr(real, f"v{NAMES - 1}"), True)] * 8
    assert type(module) is types.ModuleType
