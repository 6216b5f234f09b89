"""Each numpy kernel must agree exactly with its scalar loop reference.

The loops below compute in Python integers, so they cannot overflow; the
primes run up to the largest one whose residue products fit in int64.
"""

from bisect import bisect_left

import numpy as np
import pytest

from gincomplex import _kernels
from gincomplex.groebner import _covered_rows
from gincomplex.poly import (
    GLEX,
    GREVLEX,
    _binomial_table,
    factor_change,
    table_for,
)
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


def _echelon_mod_loop(mat, p):
    """Reference for ``_kernels.echelon_mod``: forward elimination, in place."""
    rows = [[int(x) % p for x in row] for row in mat.tolist()]
    nrows, ncols = mat.shape
    order = list(range(nrows))
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, nrows):
            f = (rows[r][col] * inv) % p
            rows[r][col] = f
            for c in range(col + 1, ncols):
                rows[r][c] = (rows[r][c] - f * rows[rank][c]) % p
        rank += 1
    mat[:] = rows
    return rank, np.array(order)


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


def _product(rng, rows, inner, cols, p):
    """A rows x cols matrix through ``inner`` columns, so of rank <= inner."""
    left = [[_entry(rng, p) for _ in range(inner)] for _ in range(rows)]
    right = [[_entry(rng, p) for _ in range(cols)] for _ in range(inner)]
    return np.array([[sum(a * b for a, b in zip(row, col)) % p
                      for col in zip(*right)] for row in left],
                    dtype=np.int64).reshape(rows, cols)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_mod_matches_loop(p):
    rng = SplitMix64(909)
    for trial in range(30):
        rows = 1 + rng.below(12)
        cols = 1 + rng.below(12)
        inner = 1 + rng.below(min(rows, cols) + 1)
        mat = _product(rng, rows, inner, cols, p)
        kernel = mat.copy()
        loop = mat.copy()
        rank, order = _kernels.echelon_mod(kernel, p)
        loop_rank, loop_order = _echelon_mod_loop(loop, p)
        assert rank == loop_rank == _kernels.rank_mod(mat.copy(), p)
        assert (order == loop_order).all()
        assert rank <= min(rows, cols, inner)
        assert (kernel == loop).all()


def _square(rng, p):
    """A square matrix of 1..6 rows: uniform, sparse, or of deficient rank."""
    n = 1 + rng.below(6)
    kind = rng.below(3)
    if kind == 0:
        return [[rng.below(p) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        return [[_entry(rng, p) if rng.below(2) else 0 for _ in range(n)]
                for _ in range(n)]
    inner = 1 + rng.below(n - 1) if n > 1 and rng.below(2) else n
    return _product(rng, n, inner, n, p).tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_factor_change_matches_loop(p, monkeypatch):
    """The kernel-driven factorization gives the reference-driven steps."""
    rng = SplitMix64(1010)
    matrices = [_square(rng, p) for _ in range(10_000)]
    kernel = [factor_change(m, p) for m in matrices]
    monkeypatch.setattr(_kernels, "echelon_mod", _echelon_mod_loop)
    loop = [factor_change(m, p) for m in matrices]
    assert kernel == loop
    singular = sum(f is None for f in kernel)
    assert 1_000 < singular < 9_000


def test_rank_identity_and_singular():
    eye = np.eye(5, dtype=np.int64)
    assert _kernels.rank_mod(eye.copy(), P) == 5
    sing = np.ones((4, 4), dtype=np.int64)
    assert _kernels.rank_mod(sing.copy(), P) == 1
    scaled = (np.eye(3, dtype=np.int64) * P)
    assert _kernels.rank_mod(scaled.copy(), P) == 0
