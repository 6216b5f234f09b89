#!/usr/bin/env python3
"""Time the Macaulay-rank Hilbert function on the regularity batch's calls.

Usage, from the root of a checkout:

    python3 scripts/time_macaulay.py [--seed N] [--runs N]

The regularity workload of ``perfbench/workloads.py`` calls
``hilbert_function_macaulay(ideal, m)`` for m = 0..6 on each member of its
batch.  This script rebuilds the members of the batch of workload seed
``--seed`` (default 7) from their member seeds, once at p = 32003, the
prime the benchmark runs, and once at p = 3037000493, the largest prime the
int64 kernels admit, where ``_kernels.matmul_mod`` takes two 16-bit limbs
instead of one.  For each prime it makes the same calls once untimed, so the
monomial tables are built, and then ``--runs`` times (default 5), timing
each call.  It prints one JSON line: the seed, the runs, the calls per run,
and per prime the median over the runs of the batch's total seconds and of
its slowest call, and the Hilbert function values of the first run, summed
over the calls as a checksum.  The library is imported from ``src/`` of
this checkout, with one BLAS thread unless the environment says otherwise,
as the benchmark runs it.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (32003, 3037000493)


def batch(seed, p):
    """(ideal, m) for every Macaulay call of the batch, rebuilt at p."""
    from gincomplex import corpus
    from perfbench import workloads

    calls = []
    for item in workloads.WORKLOADS["regularity"].build(seed):
        build = (corpus.complete_intersection if item.family == "ci"
                 else corpus.acm_surface)
        ideal = build(item.alpha, item.member_seed, p)
        calls.extend((ideal, m)
                     for m in range(workloads.ORACLE_MAX_DEGREE + 1))
    return calls


def main(args):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=5)
    options = parser.parse_args(args)
    if options.runs < 1:
        parser.error("--runs must be at least 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from gincomplex import hilbert_function_macaulay

    result = {"seed": options.seed, "runs": options.runs}
    for p in PRIMES:
        calls = batch(options.seed, p)
        values = [hilbert_function_macaulay(ideal, m) for ideal, m in calls]
        totals, slowest = [], []
        for _ in range(options.runs):
            seconds = []
            for ideal, m in calls:
                started = time.perf_counter()
                hilbert_function_macaulay(ideal, m)
                seconds.append(time.perf_counter() - started)
            totals.append(sum(seconds))
            slowest.append(max(seconds))
        result["calls"] = len(calls)
        result[f"p{p}"] = {
            "batch_s": round(statistics.median(totals), 5),
            "slowest_call_s": round(statistics.median(slowest), 5),
            "hilbert_sum": sum(values)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
