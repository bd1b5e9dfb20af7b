"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
module and attribute name, and reports a name it cannot find as an absent
layer reading 0.  A rename in the library must fail here instead of quietly
zeroing a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = [(mod, attr) for _, mod, attr in tracing.SPANS]
    names += [("cli", "verify_range"), ("cli", "cmd_verify")]
    missing = [f"supercong.{mod}.{attr}" for mod, attr in names
               if not callable(getattr(importlib.import_module(
                   f"supercong.{mod}"), attr, None))]
    assert missing == []
