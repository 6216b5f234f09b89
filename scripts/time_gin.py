#!/usr/bin/env python3
"""Time the graded-lex gin of named ideals, one fresh process per ideal.

Usage, from the root of a checkout:

    python3 scripts/time_gin.py [NAME ...]

A NAME is one of the high-degree ideals below or a corpus entry; the
default is acm5.  Each ideal is computed by a Python process of its own,
so no monomial table or allocator state carries over from one to the
next and the peak RSS is that ideal's.  That process builds the ideal,
times ``gin(ideal, GLEX)`` alone and prints one JSON line: the ideal, the
seconds, the process's peak RSS in MB, M (the top generator degree of the
gin) and the number of minimal generators of the gin.  The library is
imported from ``src/`` of this checkout.

    acm5   corpus.acm_surface(5, 7)              closed form M = 74
    ci25   corpus.complete_intersection(5, 7)    closed form M = 122
    ci33   two random cubics drawn from SplitMix64(7), off the quadric
"""

import json
import resource
import subprocess
import sys
import time
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
    from gincomplex import GLEX, gin

    ideal = build(name)
    started = time.perf_counter()
    result = gin(ideal, GLEX)
    seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ideal": name, "seconds": round(seconds, 3),
            "peak_rss_mb": round(peak, 1),
            "M": result.gin.max_generator_degree(),
            "generators": len(result.gin.gens)}


def main(names):
    if len(names) == 1:
        print(json.dumps(time_one(names[0])), flush=True)
        return 0
    status = 0
    for name in names:
        status |= subprocess.run([sys.executable, __file__, name]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["acm5"]))
