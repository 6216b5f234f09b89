"""The traced benchmark run patches library names; each one must exist.

``perfbench/tracer.py`` wraps every (module, attribute) in ``LIBRARY_SITES``
with ``getattr``, so renaming or deleting one of those names breaks
``perfbench/run.py --trace 1``.  The tracer is loaded read-only by path.
The harness also reads ``_kernels.<name>`` directly; the perfbench sources
are scanned as text for those names.
"""

import importlib
import re
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_library_site_resolves():
    sites = _load_tracer().LIBRARY_SITES
    assert sites
    for module, attr, _, _ in sites:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_every_kernels_name_in_the_harness_resolves():
    kernels = importlib.import_module("gincomplex._kernels")
    names = set()
    for path in sorted(TRACER.parent.glob("*.py")):
        names.update(re.findall(r"\b_kernels\.([A-Za-z_]\w*)",
                                path.read_text()))
    assert {"warmup", "USING_NUMBA"} <= names
    for name in sorted(names):
        assert hasattr(kernels, name), f"_kernels.{name}"
