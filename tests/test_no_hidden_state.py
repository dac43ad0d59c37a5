"""The package keeps no hidden memo.

A call that reuses a build (a report of roots, a pair of branches, a count
table) gets it from its caller or makes its own, so a changed input shows
in the next call.  The one piece of process-wide state is the kappa store,
metallic._tables, guarded by metallic._tables_lock.  These tests import
every module of the package (but __main__, which runs the command line)
and look at what each binds: no functools cache wrapper, at module level
or on a class, and no lock but the store's.
"""

import importlib
import pkgutil
import sys
import threading

import qmetallic
from qmetallic import metallic

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def _bindings():
    """(qualified name, value) for every module- and class-level binding
    in every qmetallic module."""
    for info in pkgutil.iter_modules(qmetallic.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qmetallic.{info.name}")
    for name, module in list(sys.modules.items()):
        if name != "qmetallic" and not name.startswith("qmetallic."):
            continue
        for attr, value in vars(module).items():
            yield f"{name}.{attr}", value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    yield f"{name}.{attr}.{member}", inner


def test_no_module_binds_a_cache_wrapper():
    cached = [name for name, value in _bindings()
              if hasattr(value, "cache_clear") or hasattr(value, "cache_info")]
    assert cached == []


def test_the_kappa_store_lock_is_the_only_lock():
    assert isinstance(metallic._tables_lock, _LOCK_TYPES)
    others = [name for name, value in _bindings()
              if isinstance(value, _LOCK_TYPES)
              and value is not metallic._tables_lock]
    assert others == []
