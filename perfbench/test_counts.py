"""The traced work counts repeat exactly for a fixed workload seed.

Later claims that rest on a count (reductions to zero, trials, basis sizes)
need this.  Run with ``python3 -m pytest perfbench/test_counts.py``; it takes
about a minute.
"""

import importlib

import pytest

import run
import tracer

SEED = 7


@pytest.mark.parametrize("name", ["glex-gin", "pipeline", "regularity"])
def test_traced_counts_repeat(name):
    lib, workload, items = run.set_up(name, SEED)
    seen = []
    for _ in range(2):
        with tracer.Tracer(lib) as tr:
            for item in items:
                out = tr.item(workload.solve, lib, item)
                assert workload.check(item, out) == []
        seen.append(tracer.counts(tracer.summarize(tr.spans, tr.counts)))
    assert seen[0] == seen[1]
    assert seen[0]["gin.gin.calls"] > 0
    assert seen[0]["kernels.reduce_dense.calls"] > 0
    # the tracer puts every name back
    assert importlib.import_module("gincomplex.gin").buchberger is (
        importlib.import_module("gincomplex.groebner").buchberger)
    assert lib.gin is importlib.import_module("gincomplex.gin").gin
