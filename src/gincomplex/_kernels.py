"""Hot numeric kernels: dense reduction, linear substitution, matrix rank mod p.

One numpy implementation of each kernel.  ``tests/test_kernels.py`` keeps a
scalar loop for each as the reference the kernels must match exactly.

Conventions shared by all kernels:

* a "degree slice" is a dense int64 coefficient vector indexed by the rows of
  a monomial table (all monomials of one degree, sorted descending in the
  active order);
* ``table_keys`` is the matching int64 key array, strictly ascending, and
  keys are linear in exponents, so the key of a monomial product is the sum
  of the factor keys;
* coefficients stay in [0, p) with p*p < 2**63 (``field.check_int64_prime``),
  so products fit in int64.
"""

import numpy as np

# read by the benchmark harness, which records which path ran
USING_NUMBA = False


# ---------------------------------------------------------------------------
# dense normal form
# ---------------------------------------------------------------------------

def reduce_dense(vec, table_exps, table_keys,
                 lead_exps, lead_keys,
                 tail_keys, tail_coeffs, tail_bounds, p):
    """Full normal form of a degree slice against packed monic reducers.

    One forward scan: positions earlier than the cursor are final, every
    elimination only touches strictly later positions because keys ascend as
    monomials descend.
    """
    npos = vec.shape[0]
    nred = lead_exps.shape[0]
    idx = 0
    while idx < npos:
        nz = np.nonzero(vec[idx:])[0]
        if nz.size == 0:
            return
        idx += int(nz[0])
        c = int(vec[idx])
        red = -1
        if nred:
            hits = np.nonzero(np.all(lead_exps <= table_exps[idx], axis=1))[0]
            if hits.size:
                red = int(hits[0])
        if red < 0:
            idx += 1
            continue
        vec[idx] = 0
        shift = int(table_keys[idx]) - int(lead_keys[red])
        lo, hi = int(tail_bounds[red]), int(tail_bounds[red + 1])
        if hi > lo:
            pos = np.searchsorted(table_keys, tail_keys[lo:hi] + shift)
            contrib = (c * tail_coeffs[lo:hi]) % p
            np.subtract.at(vec, pos, contrib)
            np.mod(vec, p, out=vec)


# ---------------------------------------------------------------------------
# linear substitution building block
# ---------------------------------------------------------------------------

def transvect(vec, out, exp_col, table_keys, wdelta, binom_c, p):
    """Accumulate the substitution x_i <- x_i + c*x_j into ``out``.

    ``exp_col`` is the x_i exponent per table row, ``wdelta`` the key weight
    difference w_j - w_i, ``binom_c[e, k] = C(e, k) * c**k mod p``.
    """
    nz = np.nonzero(vec)[0]
    if nz.size == 0:
        return
    out[nz] = (out[nz] + vec[nz]) % p
    maxe = int(exp_col[nz].max())
    for k in range(1, maxe + 1):
        sel = nz[exp_col[nz] >= k]
        if sel.size == 0:
            continue
        pos = np.searchsorted(table_keys, table_keys[sel] + k * wdelta)
        contrib = (vec[sel] * binom_c[exp_col[sel], k]) % p
        np.add.at(out, pos, contrib)
        np.mod(out, p, out=out)


# ---------------------------------------------------------------------------
# rank over F_p
# ---------------------------------------------------------------------------

def rank_mod(mat, p):
    """Row-echelon rank of an int64 matrix mod p (destroys ``mat``)."""
    nrows, ncols = mat.shape
    np.mod(mat, p, out=mat)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        factors = mat[:, col].copy()
        factors[rank] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            mat[rows] = (mat[rows] - factors[rows, None] * mat[rank]) % p
        rank += 1
    return rank


def warmup():
    """Run each kernel once on tiny inputs, so a timed run pays no first call."""
    vec = np.array([1, 0, 1], dtype=np.int64)
    exps = np.array([[2, 0], [1, 1], [0, 2]], dtype=np.int64)
    keys = np.array([-2, -1, 0], dtype=np.int64)
    lead = np.array([[1, 0]], dtype=np.int64)
    lkey = np.array([-1], dtype=np.int64)
    tkeys = np.array([0], dtype=np.int64)
    tcoef = np.array([1], dtype=np.int64)
    bounds = np.array([0, 1], dtype=np.int64)
    reduce_dense(vec.copy(), exps, keys, lead, lkey, tkeys, tcoef, bounds, 7)
    out = np.zeros(3, dtype=np.int64)
    binom = np.ones((3, 3), dtype=np.int64)
    transvect(vec.copy(), out, exps[:, 0].copy(), keys, 1, binom, 7)
    rank_mod(np.eye(2, dtype=np.int64), 7)
