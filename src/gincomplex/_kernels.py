"""Hot numeric kernels: dense reduction, substitution, rank and product mod p.

One numpy implementation of each kernel.  The tests keep a scalar loop for
each as the reference the kernels must match exactly.

Conventions shared by all kernels:

* a "degree slice" is a dense int64 coefficient vector indexed by the rows of
  a monomial table (all monomials of one degree, sorted descending in the
  active order), and "a block of degree slices" holds one slice per row of
  a C-contiguous int64 array of shape (slices, table rows).
  ``reduce_dense`` takes the transpose of such a block: shape (table rows,
  trials), stored trial-major, one slice per column;
* ``table_exps`` is the table's exponent rows, uint8 (no exponent exceeds
  255), and ``table_keys`` the matching int64 key array, strictly
  ascending; keys are linear in exponents, so the key of a monomial
  product is the sum of the factor keys;
* reducer leads (``lead_exps``) are int64 rows, so comparing them with
  table rows promotes to int64 and never wraps;
* coefficients stay in [0, p) with p*p < 2**63 (``field.check_int64_prime``),
  so products fit in int64;
* reducers are monic: one lead exponent row each, and a tail of
  (key - lead key, coefficients) arrays in term order, so each tail's keys
  ascend and a tail lands on the rows of the lead's multiple by one shift.
  ``reduce_dense`` takes one row of coefficients per trial.

``reduce_dense`` is driven by a boolean row mask of the slice: the rows
some reducer lead divides.  The caller keeps that mask: the Buchberger
backend chains it from the degree below along the standard rows, which no
lead divides.  A degree-d row is standard iff it is not a lead and every
m / x_i is a standard row of degree d - 1, so the mask is the degree-d
leads plus each row that the standard rows below reach fewer times than it
has dividing variables.  The kernel first collects every marked row the
reduction can reach (symbolic preprocessing, as in Faugere's F4, JPAA 139,
1999), then solves for the multiple of each such row's reducer in one
triangular pass and subtracts all the scaled tails at once.  So its array
work is a few calls per round of that closure, not per elimination, and
trials that share their leads (see ``groebner.buchberger_trials``) share
the closure too: only the solve and the scatter run once per trial.

``transvect`` moves a whole block of degree slices through one elementary
substitution by a gather plan that the table builds once per variable pair,
so the number of array operations per step depends neither on the degree
nor on the number of slices.  Its block has a trials axis in front: changes
that share their steps and differ only in the coefficient c (the trials of
a gin) move together, with one binomial row per trial.

``rank_mod`` and ``matmul_mod`` serve the Macaulay-matrix Hilbert function,
which needs the rank alone.  The rows of the matrix's first generator are
pivots before any elimination (``groebner.hilbert_function_macaulay``), so
the caller eliminates them by block products, ``matmul_mod``, a few per
matrix and none per pivot, and hands ``rank_mod`` only the remainder, the
rows whose pivots must be searched for.  ``rank_mod`` keeps no multipliers
and no row order, updates only the rows a pivot reaches, defers the
reduction mod p of what it updates for as long as int64 allows, and stops
at full row rank.  It takes one pivot at a time; on matrices this small,
the number of numpy calls per pivot is what costs.  ``matmul_mod`` runs
float64 GEMMs on 16-bit limbs of the residues, exact while every sum stays
below 2^53.  The package's other elimination, which factors a dense
coordinate change, is n x n for n variables and runs in Python integers in
``poly.factor_change``.
"""

import numpy as np

from .errors import ConfigurationError
from .field import check_int64_prime

# read by the benchmark harness, which records which path ran
USING_NUMBA = False


# ---------------------------------------------------------------------------
# dense normal form
# ---------------------------------------------------------------------------

def reduce_dense(block, table_exps, table_keys, reducible, lead_exps, tails,
                 p):
    """Full normal form of a block of degree slices against monic reducers.

    ``block`` has shape (table rows, trials) and is stored trial-major
    (Fortran order), so ``block[:, t]``, the slice of trial t, is
    contiguous; it is reduced in place.  The trials share the table, the
    mask and the reducer leads and tail keys, and differ only in
    coefficients: ``tails[r]`` is reducer r's tail as (keys relative to its
    lead key, coefficients of shape (trials, tail terms), or (tail terms,)
    for one trial), so a row's own key shifts it onto the slice.  A trial
    whose reducer lacks a tail term has coefficient 0 there.  A tail lands
    only on later rows, because keys ascend as monomials descend.
    ``reducible`` marks the rows divisible by some reducer lead.  The
    reduction runs in three phases:

    * closure: from the rows marked and nonzero in some trial, round by
      round, each row takes the first reducer in list order whose lead
      divides it (one broadcast per round), and every marked row its tail
      lands on joins the next round.  A marked row that no lead divides is
      left alone, so a mask that marks too much costs time, never
      correctness; one that misses a divisible row leaves that row
      unreduced;
    * solve: one forward pass in row order per trial, in Python integers,
      over only the tail terms that land on closure rows gives the
      multiple of each closure row's reducer;
    * scatter: every scaled tail is subtracted at once and the closure rows
      are cleared.

    A closure row that cancels before its turn, or is zero in a trial, gets
    multiple 0, so each trial's result is that of eliminating row after row
    in its own slice.
    """
    if lead_exps.shape[0] == 0:
        return
    # one C-contiguous row per trial
    slices = block.T
    nonzero = slices[0] != 0 if len(slices) == 1 else slices.any(axis=0)
    rows = (reducible & nonzero).nonzero()[0]
    # marked rows that no round has taken yet
    waiting = reducible > nonzero
    closure, sizes, coeffs, landing = [], [], [], []
    while rows.size:
        hits = (lead_exps <= table_exps[rows, None]).all(axis=2)
        red = hits.argmax(axis=1)
        divisible = hits.any(axis=1)
        if not divisible.all():
            rows, red = rows[divisible], red[divisible]
            if not rows.size:
                break
        picked = [tails[r] for r in red.tolist()]
        round_sizes = [keys.shape[0] for keys, _ in picked]
        pos = table_keys.searchsorted(
            np.concatenate([keys for keys, _ in picked])
            + table_keys[rows].repeat(round_sizes))
        closure.append(rows)
        sizes.extend(round_sizes)
        coeffs.extend(cf for _, cf in picked)
        landing.append(pos)
        rows = pos[waiting[pos]]
        if rows.size:
            # two tails may land on one row; it joins once
            rows.sort()
            rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
            waiting[rows] = False
    if not closure:
        return
    closure = np.concatenate(closure)
    pos = np.concatenate(landing)
    coeffs = np.concatenate(coeffs, axis=-1).reshape(len(slices), -1)
    # tail terms that land on a row some round took: a closure row, or a
    # marked row that no lead divides, which the solve skips
    inner = (reducible[pos] > waiting[pos]).nonzero()[0]
    if inner.size:
        rows = closure.tolist()
        src = closure.repeat(sizes)[inner].tolist()
        dst = pos[inner].tolist()
    for vec, vec_coeffs in zip(slices, coeffs):
        scale = vec[closure]
        if inner.size:
            multiple = dict(zip(rows, scale.tolist()))
            # in source row order: a row's multiple is final once every
            # term landing on it, all from earlier rows, is in
            for s, d, cf in sorted(zip(src, dst,
                                       vec_coeffs[inner].tolist())):
                if d in multiple:
                    multiple[d] = (multiple[d] - multiple[s] * cf) % p
            scale = np.fromiter(multiple.values(), dtype=np.int64,
                                count=closure.shape[0])
        # each product is below p*p < 2^63; reduced, a row receives at most
        # one term per closure row, far fewer than 2^63 / p of them
        np.subtract.at(vec, pos, scale.repeat(sizes) * vec_coeffs % p)
        vec[pos] %= p
        vec[closure] = 0


# ---------------------------------------------------------------------------
# linear substitution building block
# ---------------------------------------------------------------------------

def transvect(block, plan, binom_c, p):
    """Substitute x_i <- x_i + c_t*x_j in every slice of trial t, in place.

    ``block`` has shape (trials, slices, table rows).  ``plan`` is the
    table's gather plan of (i, j) (``sources``, ``cells``, ``starts``,
    ``targets``; see ``poly.MonomialTable.transvection``) and ``binom_c``
    has one row per trial: row t is the flattened (degree + 1)-square table
    of C(e, k) * c_t^k mod p.  Row m of each slice of trial t sends
    C(e_i, k) c_t^k times its coefficient to the row of m * (x_j/x_i)^k for
    every 1 <= k <= e_i; the k = 0 term is the slice itself.
    """
    sources, cells, starts, targets = plan
    if starts.shape[0] == 0:
        return
    terms = (block.take(sources, axis=2)
             * binom_c.take(cells, axis=1)[:, None] % p)
    # each term is below p and a target receives at most one term per k,
    # so at most degree <= 255 of them: with the slice entry, every sum
    # stays below 256 * p < 2^63 for p <= 3037000493
    sums = np.add.reduceat(terms, starts, axis=2)
    block[..., targets] = (block[..., targets] + sums) % p


# ---------------------------------------------------------------------------
# forward elimination over F_p
# ---------------------------------------------------------------------------

def _update_budget(p):
    """Trailing-block updates an int64 entry takes before it must be reduced.

    A reduced entry lies in [0, p), and each update subtracts a product of
    two residues, at most (p - 1)^2, so after k updates it lies in
    [-k (p - 1)^2, p): k stays within the budget while p + k (p - 1)^2 fits
    in int64.  That is about 9e9 updates at p = 32003 and one at the
    largest prime ``field.check_int64_prime`` admits, 3037000493.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2


def rank_mod(mat, p):
    """Rank of an int64 matrix mod p (destroys ``mat``).

    Column by column, the pivot is the first nonzero row at or below the
    current rank; a column with none is skipped.  No multipliers are stored
    and no row order is kept, and each pivot updates only the rows below it
    that are nonzero in its column.  The trailing
    block is reduced mod p only when the next update would exceed
    ``_update_budget(p)``, or when a column has no pivot and the loop asks
    whether the rows without one are zero; the pivot column and the pivot
    row are reduced before they are read, so a pivot is found, inverted and
    applied on residues.  The loop stops once every row holds a pivot, or
    once the rows without one are zero.
    """
    nrows, ncols = mat.shape
    np.mod(mat, p, out=mat)
    budget = _update_budget(p)
    # updates the trailing block has taken since it was last reduced
    pending = 0
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        column = mat[rank:, col]
        if pending:
            np.mod(column, p, out=column)
        nz = column.nonzero()[0]
        # the rows from the pivot down, right of its column
        rest = mat[rank:, col + 1:]
        if nz.size == 0:
            if pending:
                np.mod(rest, p, out=rest)
                pending = 0
            if not rest.any():
                break
            continue
        if nz[0]:
            mat[[rank, rank + nz[0]]] = mat[[rank + nz[0], rank]]
        below = nz[1:]
        if below.size:
            if pending == budget:
                np.mod(rest, p, out=rest)
                pending = 0
            # the pivot row is not read after this step
            upper = rest[0]
            np.mod(upper, p, out=upper)
            factors = column[below] * pow(int(column[0]), p - 2, p) % p
            rest[below] -= factors[:, None] * upper
            pending += 1
        rank += 1
    return rank


# an inner dimension below this keeps every float64 sum of limb products,
# each below 2^32, under 2^53, where float64 holds integers exactly
_MATMUL_INNER_LIMIT = 2**21

def matmul_mod(a, b, p):
    """a @ b mod p for int64 matrices of residues in [0, p), exactly.

    The products run as float64 GEMMs on 16-bit limbs of the residues: one
    limb for p <= 2^16, so one GEMM, and two limbs, high and low, up to
    3037000493.  The four limb products of two limbs come out of one GEMM
    of the stacked limbs of ``a`` against the side-by-side limbs of ``b``,
    and are recombined in int64 by Horner's rule in 2^16.  Each limb
    product is below 2^32, so a sum of fewer than 2^21 of them is below
    2^53 and exact in float64.  A larger inner dimension, or a p whose
    residue products overflow int64, raises ``ConfigurationError``.
    """
    inner = a.shape[1]
    if inner >= _MATMUL_INNER_LIMIT:
        raise ConfigurationError(
            f"matmul_mod: inner dimension {inner} is not below "
            f"{_MATMUL_INNER_LIMIT}, where float64 sums stay exact")
    check_int64_prime(p)
    if p <= 2**16:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    rows, cols = a.shape[0], b.shape[1]
    limbs_a = np.concatenate((a >> 16, a & 0xFFFF)).astype(np.float64)
    limbs_b = np.concatenate((b >> 16, b & 0xFFFF), axis=1).astype(np.float64)
    prod = (limbs_a @ limbs_b).astype(np.int64)
    high, low = prod[:rows], prod[rows:]
    # (hi_a hi_b mod p) 2^16 + the two cross products stays below 2^55
    out = (high[:, :cols] % p << 16) + high[:, cols:] + low[:, :cols]
    out %= p
    out <<= 16
    out += low[:, cols:]
    out %= p
    return out


def warmup():
    """Run each kernel once on tiny inputs, so a timed run pays no first call."""
    vec = np.array([1, 0, 1], dtype=np.int64)
    exps = np.array([[2, 0], [1, 1], [0, 2]], dtype=np.uint8)
    keys = np.array([-2, -1, 0], dtype=np.int64)
    lead = np.array([[1, 0]], dtype=np.int64)
    tail = np.array([1], dtype=np.int64)
    reducible = np.array([True, True, False])
    # x0^2 -> x0*x1 -> x1^2 by x0 + x1: x0*x1 joins the closure in a second
    # round, and the tail term of x0^2 that lands on it runs the solve; once
    # for one trial, once for two
    reduce_dense(vec[:, None].copy(order="F"), exps, keys, reducible, lead,
                 [(tail, tail)], 7)
    reduce_dense(np.array([vec, vec[::-1]]).T, exps, keys, reducible, lead,
                 [(tail, np.array([tail, tail]))], 7)
    # x0 <- x0 + x1 on these rows: x0^2 feeds x0*x1 (k = 1) and x1^2
    # (k = 2), x0*x1 feeds x1^2; cells index the 3 x 3 binomial table; once
    # for one trial, once for two (c = 1 and c = 2)
    plan = tuple(np.array(a, dtype=np.intp)
                 for a in ([0, 0, 1], [7, 8, 4], [0, 1], [1, 2]))
    binom = np.array([[1, 0, 0, 1, 1, 0, 1, 2, 1],
                      [1, 0, 0, 1, 2, 0, 1, 4, 4]], dtype=np.int64)
    transvect(np.array([[vec, vec[::-1]]]), plan, binom[:1], 7)
    transvect(np.array([[vec], [vec[::-1]]]), plan, binom, 7)
    rank_mod(np.eye(2, dtype=np.int64), 7)
