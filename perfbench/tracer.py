"""Spans around calls into gincomplex, recorded from outside the package.

A name is traced at the site where its caller looks it up: a module global
(``gincomplex.gin.buchberger``), a module attribute (``_kernels.rank_mod``) or
the benchmark's own lookup table.  The wrapper records one span per call --
name, parent span, start, end -- and, for a few calls, a work count taken from
the arguments or the result.  Nothing inside the package changes; every
wrapper is removed again when the tracer closes.

Modules are reached through ``importlib.import_module`` because the package
re-exports functions under module names (``gincomplex.gin`` on the package is
the function, not the module).
"""

import importlib
import time
from collections import Counter


def _count_reduce(counts, args, result):
    vec = args[0]
    counts["kernels.reduce_dense.slots"] += int(vec.shape[0])
    if not vec.any():
        counts["kernels.reduce_dense.zero"] += 1


def _count_rank(counts, args, result):
    rows, cols = args[0].shape
    counts["kernels.rank_mod.cells"] += int(rows) * int(cols)


def _count_basis(counts, args, result):
    counts["groebner.basis_elems"] += len(result)


# (module, attribute, span name, work counter); a span is named
# <module>.<function>, with _kernels as "kernels" because metric names
# start with a letter
LIBRARY_SITES = (
    ("gincomplex._kernels", "reduce_dense", "kernels.reduce_dense",
     _count_reduce),
    ("gincomplex._kernels", "transvect", "kernels.transvect", None),
    ("gincomplex._kernels", "rank_mod", "kernels.rank_mod", _count_rank),
    ("gincomplex.gin", "buchberger", "groebner.buchberger", _count_basis),
    ("gincomplex.gin", "apply_linear_change", "poly.apply_linear_change",
     None),
    ("gincomplex.gin", "random_change", "gin.random_change", None),
    ("gincomplex.groebner", "buchberger", "groebner.buchberger",
     _count_basis),
    ("gincomplex.groebner", "intersect", "groebner.intersect", None),
    ("gincomplex.groebner", "ideal_quotient", "groebner.ideal_quotient",
     None),
    ("gincomplex.groebner", "ideals_equal", "groebner.ideals_equal", None),
    ("gincomplex.groebner", "normal_form", "groebner.normal_form", None),
    ("gincomplex.pei", "gin", "gin.gin", None),
    ("gincomplex.pei", "partial_elimination", "pei.partial_elimination",
     None),
    ("gincomplex.pei", "hilbert_function_macaulay",
     "groebner.hilbert_function_macaulay", None),
    ("gincomplex.pei", "ideals_equal", "groebner.ideals_equal", None),
    ("gincomplex.pei", "saturate_irrelevant", "groebner.saturate_irrelevant",
     None),
)

# span names for the benchmark's own lookups (see workloads.Library)
BENCH_SITES = {
    "gin": "gin.gin",
    "recombine_m": "pei.recombine_m",
    "hilbert_identity_check": "pei.hilbert_identity_check",
    "k1_saturation_check": "pei.k1_saturation_check",
    "hilbert_function_macaulay": "groebner.hilbert_function_macaulay",
}

ITEM = "item"
NO_PARENT = -1


class Tracer:
    """Span recorder; use as a context manager around one traced batch.

    ``spans[i]`` is ``(name, parent index, start, end)`` in perf_counter
    seconds; the parent of a top-level span is ``NO_PARENT``.
    """

    def __init__(self, library):
        self.library = library
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, counter in LIBRARY_SITES:
            self._patch(importlib.import_module(module), attr, name, counter)
        for attr, name in BENCH_SITES.items():
            self._patch(self.library, attr, name, None)
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, name, counter):
        original = getattr(obj, attr)
        self._saved.append((obj, attr, original))
        setattr(obj, attr, self._wrap(name, original, counter))

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def item(self, fn, *args):
        """Run one benchmark item under a root span of its own."""
        return self._wrap(ITEM, fn, None)(*args)


def summarize(spans, counts):
    """Per-layer numbers of one traced batch.

    ``<name>.calls`` counts spans, ``<name>.s`` is busy time (spans nested in
    a span of the same name are not counted twice), ``<name>.self_s`` is busy
    time minus the time of direct child spans.  ``item.s`` and
    ``item.self_s`` are the same for the benchmark's item spans; the latter is
    item time that no library span covers.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent != NO_PARENT:
            child_time[parent] += end - start
    out = Counter(counts)
    for sid, (name, parent, start, end) in enumerate(spans):
        if name == ITEM:
            out["item.s"] += end - start
            out["item.self_s"] += end - start - child_time[sid]
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += end - start - child_time[sid]
        if not _has_ancestor(spans, parent, name):
            out[name + ".s"] += end - start
        if (name == "gin.gin" and parent != NO_PARENT
                and spans[parent][0] == "pei.recombine_m"):
            out["pei.stratum_gins"] += 1
    out["gin.trials"] = out["gin.random_change.calls"]
    return out


COUNTS = ("gin.trials", "groebner.basis_elems", "pei.stratum_gins")
COUNT_SUFFIXES = (".calls", ".slots", ".zero", ".cells")


def counts(summary):
    """The exact work counts of a summary, which repeat for a fixed seed."""
    return {n: v for n, v in summary.items()
            if n in COUNTS or n.endswith(COUNT_SUFFIXES)}


def _has_ancestor(spans, sid, name):
    while sid != NO_PARENT:
        if spans[sid][0] == name:
            return True
        sid = spans[sid][1]
    return False
