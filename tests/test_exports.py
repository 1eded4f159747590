"""Every public name a module of orw lists in `__all__` exists.

A name deleted from a module but left in its export list only fails at a
`from orw.x import *` or at first use; this reads each list directly.
"""

import importlib
import pkgutil

import orw


def test_every_exported_name_resolves():
    modules = [orw] + [importlib.import_module(f"orw.{info.name}")
                       for info in pkgutil.iter_modules(orw.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    # the package itself and cli, coloring, lowerbound, ordinals, ramsey,
    # replay, solver
    assert len(listed) >= 8, [m.__name__ for m in listed]
    for m in listed:
        assert len(set(m.__all__)) == len(m.__all__), m.__name__
        missing = [name for name in m.__all__ if not hasattr(m, name)]
        assert missing == [], (m.__name__, missing)
