import os
import tempfile
import time

import pytest
from hypothesis import configuration, settings

from gincomplex import _kernels, corpus
from gincomplex.gin import gin as run_gin
from gincomplex.poly import ORDERS

# every property runs the same examples on every run and writes no example
# database; a slow example is not a failure
settings.register_profile("gincomplex", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("gincomplex")


def pytest_configure(config):
    # Hypothesis also caches the constants it finds in the imported sources,
    # whatever the profile says; that cache lives and dies with the test run
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


EXTENDED = os.environ.get("GINCOMPLEX_EXTENDED", "").strip() not in ("", "0")

extended_only = pytest.mark.skipif(
    not EXTENDED, reason="set GINCOMPLEX_EXTENDED=1 to run the heavy target")


def rank_mod_loop(mat, p):
    """Rank of a matrix mod p by forward elimination in Python integers.

    The scalar reference for ``_kernels.rank_mod`` and for the singularity
    verdict of ``poly.factor_change``, and the rank of the unpruned Macaulay
    matrix; ``mat`` is any sequence of rows and is left as it is.
    """
    rows = [[int(x) % p for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        upper = rows[rank]
        inv = pow(upper[col], p - 2, p)
        for row in rows[rank + 1:]:
            if row[col]:
                f = row[col] * inv % p
                row[col:] = [(a - f * b) % p
                             for a, b in zip(row[col:], upper[col:])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    _kernels.warmup()


class CorpusStore:
    """Session-wide cache of built ideals and stabilized gins.

    Gins are computed once, with the wall time of the first computation kept
    for the runtime-budget checks.
    """

    def __init__(self):
        self.ideals = {}
        self.gins = {}
        self.timings = {}

    def ideal(self, name):
        if name not in self.ideals:
            self.ideals[name] = corpus.build(name)
        return self.ideals[name]

    def gin(self, name, order_name="glex"):
        key = (name, order_name)
        if key not in self.gins:
            started = time.monotonic()
            result = run_gin(self.ideal(name), ORDERS[order_name])
            self.timings[key] = time.monotonic() - started
            self.gins[key] = result
        return self.gins[key]


@pytest.fixture(scope="session")
def store():
    return CorpusStore()
