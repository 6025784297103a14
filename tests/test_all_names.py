"""Every name a hyperreg module lists in __all__ is an attribute of it, so a
deleted definition cannot linger in a stale list."""

from __future__ import annotations

import importlib
import pkgutil

import hyperreg


def _modules():
    for info in pkgutil.walk_packages(hyperreg.__path__, "hyperreg."):
        yield importlib.import_module(info.name)


def test_every_all_name_resolves():
    listed = [m for m in _modules() if hasattr(m, "__all__")]
    assert {"hyperreg.hypergeom", "hyperreg.ode", "hyperreg.lfun.euler"} \
        <= {m.__name__ for m in listed}
    assert [f"{m.__name__}.{name}" for m in listed for name in m.__all__
            if not hasattr(m, name)] == []
