"""The traced benchmark run patches library names; each one must exist.

``perfbench/tracer.py`` wraps every (module, attribute) in ``LIBRARY_SITES``
with ``getattr``, so renaming or deleting one of those names breaks
``perfbench/run.py --trace 1``.  The tracer is loaded read-only by path.
The harness also reads ``_kernels.<name>`` directly; the perfbench sources
are scanned as text for those names.  ``perfbench/workloads.py`` reads its
entry points off ``gincomplex`` in ``library()`` and calls them with keyword
arguments; its syntax tree is checked against the package.
"""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import gincomplex

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


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


def _workloads_tree():
    return ast.parse(WORKLOADS.read_text(), str(WORKLOADS))


def _library_names(tree):
    """Every ``gincomplex.<name>`` read inside ``library()``."""
    (library,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "library"]
    return {node.attr for node in ast.walk(library)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gincomplex"}


def test_every_library_entry_point_resolves():
    names = _library_names(_workloads_tree())
    assert {"gin", "recombine_m", "hilbert_identity_check",
            "k1_saturation_check"} <= names
    for name in sorted(names):
        assert callable(getattr(gincomplex, name, None)), f"gincomplex.{name}"


def test_entry_points_take_the_workload_keywords():
    # every lib.<name>(..., key=...) call in the workloads must bind
    calls = {}
    for node in ast.walk(_workloads_tree()):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "lib"):
            calls.setdefault(node.func.attr, set()).update(
                k.arg for k in node.keywords)
    for name in ("recombine_m", "hilbert_identity_check",
                 "k1_saturation_check"):
        assert {"seed_base", "gin_result"} <= calls[name], name
    for name, keywords in sorted(calls.items()):
        params = inspect.signature(getattr(gincomplex, name)).parameters
        assert keywords <= set(params), (name, keywords - set(params))
