"""Each numpy kernel must agree exactly with its scalar loop reference.

The loops below compute in Python integers, so they cannot overflow; the
primes run up to the largest one whose residue products fit in int64.
"""

from bisect import bisect_left

import numpy as np
import pytest

from gincomplex import _kernels
from gincomplex.groebner import _covered_rows
from gincomplex.poly import GLEX, GREVLEX, _binomial_table, table_for
from gincomplex.rng import SplitMix64

P = 32003
PRIMES = [7, 32003, 3037000493]


# -- scalar references ------------------------------------------------------

def _reduce_dense_loop(vec, table_exps, table_keys,
                       lead_exps, lead_keys,
                       tail_keys, tail_coeffs, tail_bounds, p):
    """Reference for ``_kernels.reduce_dense``: scans every row, in place."""
    keys = table_keys.tolist()
    exps = table_exps.tolist()
    leads = lead_exps.tolist()
    for idx in range(len(keys)):
        c = int(vec[idx])
        if c == 0:
            continue
        red = next((j for j, lead in enumerate(leads)
                    if all(a <= b for a, b in zip(lead, exps[idx]))), None)
        if red is None:
            continue
        vec[idx] = 0
        shift = keys[idx] - int(lead_keys[red])
        for t in range(int(tail_bounds[red]), int(tail_bounds[red + 1])):
            lo = bisect_left(keys, int(tail_keys[t]) + shift)
            vec[lo] = (int(vec[lo]) - c * int(tail_coeffs[t])) % p


def _transvect_loop(vec, out, exp_col, table_keys, wdelta, binom_c, p):
    """Reference for ``_kernels.transvect``: term by term, into ``out``."""
    keys = table_keys.tolist()
    for idx in range(len(keys)):
        v = int(vec[idx])
        if v == 0:
            continue
        e = int(exp_col[idx])
        out[idx] = (int(out[idx]) + v) % p
        for k in range(1, e + 1):
            lo = bisect_left(keys, keys[idx] + k * wdelta)
            out[lo] = (int(out[lo]) + v * int(binom_c[e, k])) % p


def _rank_mod_loop(mat, p):
    """Reference for ``_kernels.rank_mod``: Gauss-Jordan, in place."""
    rows = [[int(x) % p for x in row] for row in mat.tolist()]
    nrows = len(rows)
    rank = 0
    for col in range(mat.shape[1]):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(nrows):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [(a - f * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    mat[:] = rows
    return rank


# -- random inputs ------------------------------------------------------------

def _entry(rng, p):
    """A residue: uniform, or one of the top few, whose products are largest."""
    if rng.below(2):
        return rng.below(p)
    return p - 1 - rng.below(min(p, 3))


def _random_pack(rng, nvars, degree, order, nred, p):
    """A degree slice plus monic reducers of degree <= ``degree`` + 1.

    Each tail monomial comes after its lead in the order, as in a basis, so
    every shifted tail lands on a later row of the slice.  A reducer of
    degree ``degree`` + 1 divides no row of the slice.
    """
    tab = table_for(nvars, degree, order)
    vec = np.zeros(len(tab), dtype=np.int64)
    for _ in range(len(tab) // 2 + 1):
        vec[rng.below(len(tab))] = _entry(rng, p)
    lead_rows, tail_keys, tail_coeffs, bounds = [], [], [], [0]
    for _ in range(nred):
        low = table_for(nvars, 1 + rng.below(degree + 1), order)
        lead = rng.below(len(low))
        lead_rows.append(low.exps[lead])
        later = range(lead + 1, len(low))
        rows = sorted({later[rng.below(len(later))]
                       for _ in range(rng.below(6))}) if later else []
        tail_keys.extend(low.keys[rows].tolist())
        tail_coeffs.extend(_entry(rng, p) for _ in rows)
        bounds.append(len(tail_keys))
    lead_exps = np.array(lead_rows, dtype=np.int64)
    return (tab, vec, lead_exps, lead_exps @ tab.weights,
            np.array(tail_keys, dtype=np.int64),
            np.array(tail_coeffs, dtype=np.int64),
            np.array(bounds, dtype=np.int64))


def _divisible_rows(table_exps, lead_exps):
    """Rows some lead divides, tested on plain tuples."""
    leads = [tuple(lead) for lead in lead_exps.tolist()]
    return np.array([any(all(a <= b for a, b in zip(lead, row))
                         for lead in leads)
                     for row in table_exps.tolist()], dtype=bool)


# -- kernel against loop ------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_reduce_dense_matches_loop(order, p):
    rng = SplitMix64(404)
    above = 0
    for trial in range(20):
        tab, vec, lexp, lkey, tkey, tcoef, bounds = _random_pack(
            rng, 3 + trial % 2, 2 + trial % 4, order, 1 + trial % 4, p)
        high = lexp[lexp.sum(axis=1) > tab.degree]
        above += len(high)
        assert not _covered_rows(tab, high).any()
        reducible = _divisible_rows(tab.exps, lexp)
        # the blocked cover behind the backend's masks marks the same rows
        assert (_covered_rows(tab, lexp) == reducible).all()
        loop = vec.copy()
        _reduce_dense_loop(loop, tab.exps, tab.keys, lexp, lkey,
                           tkey, tcoef, bounds, p)
        # a mask that marks every row only costs time
        for mask in (reducible, np.ones(len(tab), dtype=bool)):
            kernel = vec.copy()
            _kernels.reduce_dense(kernel, tab.exps, tab.keys, mask, lexp,
                                  lkey, tkey, tcoef, bounds, p)
            assert (kernel == loop).all()
    assert above > 0


@pytest.mark.parametrize("p", PRIMES)
def test_transvect_matches_loop(p):
    rng = SplitMix64(808)
    for trial in range(20):
        nvars = 3 + trial % 3
        degree = 2 + trial % 5
        tab = table_for(nvars, degree, GLEX)
        vec = np.zeros(len(tab), dtype=np.int64)
        for _ in range(len(tab) // 2 + 1):
            vec[rng.below(len(tab))] = _entry(rng, p)
        i = rng.below(nvars)
        j = (i + 1 + rng.below(nvars - 1)) % nvars
        c = 1 + _entry(rng, p - 1)
        binom = _binomial_table(degree, p)
        binom_c = np.array([[int(binom[n, k]) * pow(c, k, p) % p
                             for k in range(degree + 1)]
                            for n in range(degree + 1)], dtype=np.int64)
        wdelta = int(tab.weights[j] - tab.weights[i])
        col = np.ascontiguousarray(tab.exps[:, i])
        kernel = np.zeros_like(vec)
        loop = np.zeros_like(vec)
        _kernels.transvect(vec, kernel, col, tab.keys, wdelta, binom_c, p)
        _transvect_loop(vec, loop, col, tab.keys, wdelta, binom_c, p)
        assert (kernel == loop).all()


@pytest.mark.parametrize("p", PRIMES)
def test_rank_mod_matches_loop(p):
    rng = SplitMix64(909)
    for trial in range(30):
        rows = 1 + rng.below(12)
        cols = 1 + rng.below(12)
        # a product through `inner` columns has rank at most `inner`
        inner = 1 + rng.below(min(rows, cols) + 1)
        left = [[_entry(rng, p) for _ in range(inner)] for _ in range(rows)]
        right = [[_entry(rng, p) for _ in range(cols)] for _ in range(inner)]
        mat = np.array([[sum(a * b for a, b in zip(row, col)) % p
                         for col in zip(*right)] for row in left],
                       dtype=np.int64)
        kernel = mat.copy()
        loop = mat.copy()
        rank = int(_kernels.rank_mod(kernel, p))
        assert rank == _rank_mod_loop(loop, p)
        assert rank <= min(rows, cols, inner)
        assert (kernel == loop).all()


def test_rank_identity_and_singular():
    eye = np.eye(5, dtype=np.int64)
    assert _kernels.rank_mod(eye.copy(), P) == 5
    sing = np.ones((4, 4), dtype=np.int64)
    assert _kernels.rank_mod(sing.copy(), P) == 1
    scaled = (np.eye(3, dtype=np.int64) * P)
    assert _kernels.rank_mod(scaled.copy(), P) == 0
