"""Hot numeric kernels: dense reduction, linear substitution, elimination mod p.

One numpy implementation of each kernel.  ``tests/test_kernels.py`` keeps a
scalar loop for each as the reference the kernels must match exactly.

Conventions shared by all kernels:

* a "degree slice" is a dense int64 coefficient vector indexed by the rows of
  a monomial table (all monomials of one degree, sorted descending in the
  active order), and "a block of degree slices" is an int64 array of shape
  (slices, table rows), one slice per row;
* ``table_keys`` is the matching int64 key array, strictly ascending, and
  keys are linear in exponents, so the key of a monomial product is the sum
  of the factor keys;
* coefficients stay in [0, p) with p*p < 2**63 (``field.check_int64_prime``),
  so products fit in int64;
* reducers are monic: one lead exponent row each, and a tail of
  (key - lead key, coefficient) arrays in term order, so each tail's keys
  ascend and a tail lands on the rows of the lead's multiple by one shift.

The reduction scan is driven by a boolean row mask of the slice: the rows
some reducer lead divides.  The caller keeps that mask: the Buchberger
backend chains it from the degree below along the standard rows, which no
lead divides.  A degree-d row is standard iff it is not a lead and every
m / x_i is a standard row of degree d - 1, so the mask is the degree-d
leads plus each row that the standard rows below reach fewer times than it
has dividing variables.  So the kernel's work is one step per elimination,
not one per nonzero row.

``transvect`` moves a whole block of degree slices through one elementary
substitution by a gather plan that the table builds once per variable pair,
so the number of array operations per step depends neither on the degree
nor on the number of slices.

``echelon_mod`` is the package's one Gaussian elimination mod p.  The
Macaulay-matrix Hilbert function reads its rank through ``rank_mod``, and
``poly.factor_change`` reads the row order and the L and U factors of each
coordinate change off it.
"""

import numpy as np

# read by the benchmark harness, which records which path ran
USING_NUMBA = False


# ---------------------------------------------------------------------------
# dense normal form
# ---------------------------------------------------------------------------

def reduce_dense(vec, table_exps, table_keys, reducible, lead_exps, tails,
                 p):
    """Full normal form of a degree slice against monic reducers.

    ``reducible`` marks the rows divisible by some reducer lead.  The scan
    jumps from one nonzero marked row to the next and never visits a
    standard monomial.  Every elimination touches only strictly later rows,
    because keys ascend as monomials descend, so the rows still ahead sit in
    one sorted queue, and an elimination queues the marked rows it turns
    from zero to nonzero; a queued row that cancelled to zero is skipped.
    A marked row that no lead divides is left alone, so a mask that marks
    too much costs time, never correctness; one that misses a divisible row
    leaves that row unreduced.

    ``tails[r]`` is reducer r's tail as (keys relative to its lead key,
    coefficients), so the row's own key shifts it onto the slice.
    """
    if lead_exps.shape[0] == 0:
        return
    ahead = np.flatnonzero(reducible & (vec != 0))
    k = 0
    while k < ahead.shape[0]:
        idx = int(ahead[k])
        k += 1
        c = int(vec[idx])
        if c == 0:
            continue
        hits = np.all(lead_exps <= table_exps[idx], axis=1)
        red = int(hits.argmax())
        if not hits[red]:
            continue
        vec[idx] = 0
        rel_keys, coeffs = tails[red]
        if rel_keys.shape[0] == 0:
            continue
        # one reducer's tail monomials are distinct and ascend in key, so
        # their rows are distinct and ascend too
        pos = np.searchsorted(table_keys, rel_keys + table_keys[idx])
        before = vec[pos]
        vec[pos] = (before - c * coeffs) % p
        new = pos[(before == 0) & reducible[pos]]
        if new.size:
            ahead = ahead[k:]
            k = 0
            ahead = np.insert(ahead, np.searchsorted(ahead, new), new)


# ---------------------------------------------------------------------------
# linear substitution building block
# ---------------------------------------------------------------------------

def transvect(block, plan, binom_c, p):
    """Substitute x_i <- x_i + c*x_j in every slice of a block, in place.

    ``plan`` is the table's gather plan of (i, j) (``sources``, ``cells``,
    ``starts``, ``targets``; see ``poly.MonomialTable.transvection``) and
    ``binom_c`` the C-contiguous (degree + 1)-square table of
    C(e, k) * c^k mod p.  Row m of each slice sends C(e_i, k) c^k times its
    coefficient to the row of m * (x_j/x_i)^k for every 1 <= k <= e_i; the
    k = 0 term is the slice itself.
    """
    sources, cells, starts, targets = plan
    if starts.shape[0] == 0:
        return
    terms = block[:, sources] * binom_c.ravel()[cells] % p
    # each term is below p and a target receives at most one term per k,
    # so at most degree <= 255 of them: with the slice entry, every sum
    # stays below 256 * p < 2^63 for p <= 3037000493
    sums = np.add.reduceat(terms, starts, axis=1)
    block[:, targets] = (block[:, targets] + sums) % p


# ---------------------------------------------------------------------------
# forward elimination over F_p
# ---------------------------------------------------------------------------

def echelon_mod(mat, p):
    """In-place forward elimination of an int64 matrix mod p.

    Column by column, the pivot is the first nonzero row at or below the
    current rank; a column with none is skipped.  Each row below the pivot
    keeps its multiplier (entry / pivot) in the pivot column and is reduced
    to the right of it, so ``mat`` ends with the unit lower factor L below
    the pivots and U from each pivot rightwards: for a nonsingular square
    matrix, ``mat[order] = L U`` of the input.  Returns ``(rank, order)``,
    where ``order[i]`` is the input row now at row i.
    """
    nrows, ncols = mat.shape
    np.mod(mat, p, out=mat)
    order = np.arange(nrows)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(mat[rank:, col])
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
            order[[rank, pivot]] = order[[pivot, rank]]
        # rows above the old pivot row were zero in this column, so the
        # swap leaves the nonzero rows below the pivot where they were
        below = rank + nz[1:]
        if below.size:
            inv = pow(int(mat[rank, col]), p - 2, p)
            factors = (mat[below, col] * inv) % p
            mat[below, col] = factors
            upper = mat[rank, col + 1:]
            mat[below, col + 1:] = (mat[below, col + 1:]
                                    - factors[:, None] * upper) % p
        rank += 1
    return rank, order


def rank_mod(mat, p):
    """Rank of an int64 matrix mod p (destroys ``mat``)."""
    return echelon_mod(mat, p)[0]


def warmup():
    """Run each kernel once on tiny inputs, so a timed run pays no first call."""
    vec = np.array([1, 0, 1], dtype=np.int64)
    exps = np.array([[2, 0], [1, 1], [0, 2]], dtype=np.int64)
    keys = np.array([-2, -1, 0], dtype=np.int64)
    lead = np.array([[1, 0]], dtype=np.int64)
    tails = [(np.array([1], dtype=np.int64), np.array([1], dtype=np.int64))]
    reducible = np.array([True, True, False])
    reduce_dense(vec.copy(), exps, keys, reducible, lead, tails, 7)
    # x0 <- x0 + x1 on these rows: x0^2 feeds x0*x1 (k = 1) and x1^2
    # (k = 2), x0*x1 feeds x1^2; cells index the 3 x 3 binomial table
    plan = tuple(np.array(a, dtype=np.intp)
                 for a in ([0, 0, 1], [7, 8, 4], [0, 1], [1, 2]))
    binom = np.array([[1, 0, 0], [1, 1, 0], [1, 2, 1]], dtype=np.int64)
    transvect(np.array([vec, vec[::-1]]), plan, binom, 7)
    rank_mod(np.eye(2, dtype=np.int64), 7)
