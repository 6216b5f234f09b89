#!/usr/bin/env python3
"""Time the graded-lex gin of named ideals, one fresh process per ideal.

Usage, from the root of a checkout:

    python3 scripts/time_gin.py [--runs N] [NAME ...]

A NAME is one of the high-degree ideals below or a corpus entry; the
default is acm5.  Each run of an ideal computes it twice, each time by a
Python process of its own, so no monomial table or allocator state carries
over and the peaks are that ideal's.  The first process builds the ideal and
times ``gin(ideal, GLEX)`` alone; the second computes the same gin under
``tracemalloc``, which slows it, and reports only its traced peak.  The
script prints one JSON line per run: the ideal, the seconds, the first
process's peak RSS in MB, the traced peak in MB (Python and numpy
allocations made during the gin, the number to compare across runs; the
RSS also holds the interpreter and swings with heap layout), M (the top
generator degree of the gin), the number of minimal generators of the
gin, and the monomial tables the timed gin built: ``tables_built`` counts
every ``MonomialTable`` construction, so a table rebuilt after the cache
evicted it counts again, and ``table_degrees`` the distinct degrees among
them; ``table_mb`` is what the table cache holds after the gin, in MB:
rows, keys, support counts and transvection plans.  Only the first process
counts tables, and only during the gin.  ``--runs N`` (default 1) runs each
ideal N times, one pair of fresh processes per run, prints every run, and
then, for N > 1, one line with the median of each field over the runs.
The library is imported from ``src/`` of this checkout.

    acm5   corpus.acm_surface(5, 7)              closed form M = 74
    ci25   corpus.complete_intersection(5, 7)    closed form M = 122
    ci33   two random cubics drawn from SplitMix64(7), off the quadric
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def build(name):
    from gincomplex import Ideal, corpus
    from gincomplex.field import DEFAULT_PRIME
    from gincomplex.rng import SplitMix64

    if name == "acm5":
        return corpus.acm_surface(5, 7)
    if name == "ci25":
        return corpus.complete_intersection(5, 7)
    if name == "ci33":
        rng = SplitMix64(7)
        return Ideal([corpus._dense_form(3, 5, DEFAULT_PRIME, rng)
                      for _ in range(2)], 5, DEFAULT_PRIME)
    return corpus.build(name)


def time_one(name):
    sys.path.insert(0, str(SRC))
    from gincomplex import GLEX, gin, poly

    ideal = build(name)
    built = []

    class Counting(poly.MonomialTable):
        __slots__ = ()

        def __init__(self, nvars, degree, order):
            super().__init__(nvars, degree, order)
            built.append(degree)

    # table_for constructs through this module global
    poly.MonomialTable = Counting
    started = time.perf_counter()
    result = gin(ideal, GLEX)
    seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ideal": name, "seconds": round(seconds, 3),
            "peak_rss_mb": round(peak, 1),
            "M": result.gin.max_generator_degree(),
            "generators": len(result.gin.gens),
            "tables_built": len(built), "table_degrees": len(set(built)),
            "table_mb": round(sum(tab.nbytes for tab in
                                  poly._TABLE_CACHE.values()) / 2**20, 1)}


def trace_one(name):
    sys.path.insert(0, str(SRC))
    from gincomplex import GLEX, gin

    ideal = build(name)
    tracemalloc.start()
    gin(ideal, GLEX)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"traced_peak_mb": round(peak / 2**20, 1)}


def child(mode, name):
    """The JSON of ``mode`` ("time" or "trace") from a fresh process."""
    done = subprocess.run([sys.executable, __file__, f"--{mode}", name],
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout)


def medians(runs):
    """The median of each numeric field over the runs of one ideal."""
    return {key: round(statistics.median(run[key] for run in runs), 3)
            for key, value in runs[0].items()
            if isinstance(value, (int, float))}


def main(args):
    if len(args) == 2 and args[0] in ("--time", "--trace"):
        run = time_one if args[0] == "--time" else trace_one
        print(json.dumps(run(args[1])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("names", nargs="*", default=["acm5"])
    options = parser.parse_args(args)
    if options.runs < 1:
        parser.error("--runs must be at least 1")
    status = 0
    for name in options.names:
        runs = []
        for _ in range(options.runs):
            timed, traced = child("time", name), child("trace", name)
            if timed is None or traced is None:
                status = 1
                continue
            runs.append({**timed, **traced})
            print(json.dumps(runs[-1]), flush=True)
        if options.runs > 1 and runs:
            print(json.dumps({"ideal": name, "runs": len(runs),
                              "median": medians(runs)}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
