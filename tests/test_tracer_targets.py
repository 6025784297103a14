"""The benchmark's span recorder wraps hyperreg functions by name: every
(module, attribute) of perfbench/tracer.py's TARGETS must still resolve, or
the traced benchmark fails at install.  The recorder is loaded by path; it
has no import side effects."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    targets = _tracer().TARGETS
    assert targets
    for _layer, _metric, modname, attr in targets:
        owner = importlib.import_module(modname)
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (modname, attr)
