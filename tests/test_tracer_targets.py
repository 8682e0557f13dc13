"""The benchmark's tracer can still find every function it wraps.

`perfbench/tracing.py` replaces the layer functions named in its `_TARGETS`
table by (module, attribute, class).  A rename in the package would make
`install` fail with an AttributeError, and with it the traced benchmark runs
and `perfbench/selftest.py`.  The table is read here from the source file,
executed in a fresh namespace, so nothing under `perfbench/` is written.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves_in_the_package():
    targets = _tracing_module()._TARGETS
    assert targets
    missing = []
    for name, module, attr, cls, *_ in targets:
        owner = importlib.import_module(f"limsup_lab.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []
