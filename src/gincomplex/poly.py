"""Monomials, graded orders, sparse polynomials and ideals over F_p.

Variables are x0 > x1 > ... > x(n-1); the ambient count is a runtime
parameter so the same kernel serves P^4 surfaces, their P^3 quotients and
curve examples.

Exponent vectors are dense int64 rows (ambient dimension stays tiny, degrees
reach the few dozens).  A polynomial stores its terms strictly descending in
the order it is tagged with; switching orders is an explicit resort, never an
implicit conversion, so graded-lex and graded-revlex pipelines cannot share
sorted state by accident.

A linear change of coordinates is factored once, by the package's one
Gaussian elimination mod p (``_kernels.echelon_mod``), into permutation,
transvection and scaling steps; the inverse's steps follow in closed form.
Substitution applies the steps to each homogeneous component on its dense
degree table.
"""

import itertools
import math
import operator

import numpy as np

from . import _kernels
from .errors import (
    ConfigurationError,
    GincomplexError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .field import check_int64_prime

LT, EQ, GT = -1, 0, 1

# base for packed per-degree keys; caps every exponent a table can hold
_KEY_BASE = 256
DEGREE_CAP = _KEY_BASE - 1
_KEY_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)
# ---------------------------------------------------------------------------

def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))

def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(map(operator.le, a, b))

def monomial_lcm(a, b):
    return tuple(map(max, a, b))

def unit_exponent(nvars, i):
    return tuple(1 if j == i else 0 for j in range(nvars))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total multiplicative order on monomials, exposed as a sort key.

    ``key`` grows with the monomial.  ``index_weights`` gives int64 weights w
    such that, within one total degree, e @ w is injective and *ascending*
    while the monomial descends; the linearity key(m*u) = key(m) + key(u) is
    what the dense kernels rely on.
    """

    name = "?"

    def key(self, e):
        raise NotImplementedError

    def index_weights(self, nvars):
        raise NotImplementedError

    def descending(self, exps):
        """Indices that sort exponent rows descending in this order."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _check_key_range(nvars, degree):
    """Packed keys of degree-``degree`` monomials reach degree * 256^(nvars-1)."""
    if degree * _KEY_BASE ** (nvars - 1) > _KEY_MAX:
        raise ConfigurationError(
            f"{nvars} variables at degree {degree} overflow the int64 "
            f"packed monomial keys")


class _GradedLex(MonomialOrder):
    name = "glex"

    def key(self, e):
        return (sum(e),) + tuple(e)

    def descending(self, exps):
        # np.lexsort's last key is the primary one
        return np.lexsort(np.vstack([exps[:, ::-1].T, exps.sum(axis=1)]))[::-1]

    def index_weights(self, nvars):
        _check_key_range(nvars, 1)
        return np.array(
            [-(_KEY_BASE ** (nvars - 1 - j)) for j in range(nvars)],
            dtype=np.int64,
        )


class _GradedRevLex(MonomialOrder):
    name = "grevlex"

    def key(self, e):
        return (sum(e),) + tuple(-v for v in reversed(e))

    def descending(self, exps):
        return np.lexsort(np.vstack([-exps.T, exps.sum(axis=1)]))[::-1]

    def index_weights(self, nvars):
        _check_key_range(nvars, 1)
        return np.array([_KEY_BASE ** j for j in range(nvars)], dtype=np.int64)


GLEX = _GradedLex()
GREVLEX = _GradedRevLex()

ORDERS = {"glex": GLEX, "grevlex": GREVLEX}


def compare(order, a, b):
    """LT/EQ/GT for monomials a, b under the given order."""
    if len(a) != len(b):
        raise RingMismatchError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    ka, kb = order.key(tuple(a)), order.key(tuple(b))
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


# ---------------------------------------------------------------------------
# per-degree monomial tables
# ---------------------------------------------------------------------------

def _enumerate_degree(nvars, degree):
    """Exponent rows of all degree-``degree`` monomials, by stars and bars.

    Each choice of nvars - 1 bar positions among degree + nvars - 1 slots
    is one monomial: the exponents are the gaps between consecutive bars,
    with sentinel bars at -1 and degree + nvars - 1.  All bars but the last
    come from ``itertools.combinations``; the last then takes every slot
    after the one before it, which splits the remaining gap both ways.
    Rows come in no particular order; ``MonomialTable`` sorts them by key.
    """
    if nvars == 1:
        return np.array([[degree]], dtype=np.int64)
    slots, bars = degree + nvars - 1, nvars - 1
    heads = math.comb(slots - 1, bars - 1)
    head = np.full((heads, bars), -1, dtype=np.int64)
    head[:, 1:] = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(slots - 1), bars - 1)),
        dtype=np.int64, count=heads * (bars - 1)).reshape(heads, bars - 1)
    # slots left for the last bar after each head
    runs = slots - 1 - head[:, -1]
    exps = np.empty((int(runs.sum()), nvars), dtype=np.int64)
    exps[:, :-2] = np.repeat(np.diff(head, axis=1) - 1, runs, axis=0)
    step = np.arange(len(exps)) - np.repeat(np.cumsum(runs) - runs, runs)
    exps[:, -2] = step
    exps[:, -1] = np.repeat(runs - 1, runs) - step
    return exps


class MonomialTable:
    """All monomials of one degree, descending in the order, with packed keys.

    The rows come in closed form from ``_enumerate_degree`` and are sorted
    by packed key, which is injective within one degree, so a table does not
    depend on the order its rows were enumerated in.  That also keeps valid
    the successor map (``successors``), which a table builds on first use
    and holds until it leaves the cache: the row of each x_i * m in the
    table of the next degree, even if that table is evicted and rebuilt.
    """

    __slots__ = ("nvars", "degree", "order", "exps", "keys", "weights",
                 "_successors")

    def __init__(self, nvars, degree, order):
        self.nvars = nvars
        self.degree = degree
        self.order = order
        self.weights = order.index_weights(nvars)
        exps = _enumerate_degree(nvars, degree)
        keys = exps @ self.weights
        idx = np.argsort(keys, kind="stable")
        self.exps = np.ascontiguousarray(exps[idx])
        self.keys = np.ascontiguousarray(keys[idx])
        self._successors = None

    def __len__(self):
        return self.exps.shape[0]

    def positions(self, keys):
        """Row indices for packed keys that are known to be in the table."""
        return np.searchsorted(self.keys, keys)

    def dense(self, f):
        """Coefficient vector of f, of this table's degree and order."""
        vec = np.zeros(len(self), dtype=np.int64)
        vec[self.positions(f.weighted_keys(self.weights))] = f.coeffs
        return vec

    def polynomial(self, vec, p):
        """Polynomial mod p of the nonzero rows of a coefficient vector."""
        nz = np.flatnonzero(vec)
        return Polynomial(self.exps[nz], vec[nz], self.nvars, p, self.order,
                          _presorted=True)

    def successors(self):
        """int32 array: entry [r, i] is the next degree's row of x_i * m_r."""
        if self._successors is None:
            up = table_for(self.nvars, self.degree + 1, self.order)
            self._successors = up.positions(
                self.keys[:, None] + self.weights).astype(np.int32)
        return self._successors


# least recently used first; _table_rows is the total row count it holds.
# A table whose successor map was built also carries nvars int32 entries
# per row (about 1.1 MB over the acm4 graded-lex chain to degree 21); the
# budget counts rows only.
_TABLE_CACHE = {}
_table_rows = 0
_TABLE_ROW_BUDGET = 4_000_000


def table_for(nvars, degree, order):
    global _table_rows
    if degree > DEGREE_CAP:
        raise ConfigurationError(
            f"degree {degree} exceeds the packed-key cap {DEGREE_CAP}"
        )
    key = (nvars, degree, order.name)
    # a hit is taken out and put back as the newest entry
    tab = _TABLE_CACHE.pop(key, None)
    if tab is None:
        _check_key_range(nvars, degree)
        tab = MonomialTable(nvars, degree, order)
        _table_rows += len(tab)
        # evict the oldest first; the new table is not in the cache yet, so
        # it is never evicted, even when it alone exceeds the budget
        while _table_rows > _TABLE_ROW_BUDGET and _TABLE_CACHE:
            _table_rows -= len(_TABLE_CACHE.pop(next(iter(_TABLE_CACHE))))
    _TABLE_CACHE[key] = tab
    return tab


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse homogeneous-friendly polynomial, terms descending in ``order``."""

    __slots__ = ("exps", "coeffs", "nvars", "p", "order")

    def __init__(self, exps, coeffs, nvars, p, order, _presorted=False):
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, nvars)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if not _presorted:
            raise GincomplexError("use Polynomial.from_terms or zero()")
        self.exps = exps
        self.coeffs = coeffs
        self.nvars = nvars
        self.p = p
        self.order = order

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, nvars, p, order=GLEX):
        check_int64_prime(p)
        return cls(np.zeros((0, nvars), dtype=np.int64),
                   np.zeros(0, dtype=np.int64), nvars, p, order,
                   _presorted=True)

    @classmethod
    def from_terms(cls, terms, nvars, p, order=GLEX):
        """Build from (exponent sequence, coefficient) pairs.

        Coefficients reduce mod p, duplicate monomials merge, zeros drop.
        A modulus whose residue products overflow int64 is rejected.
        """
        check_int64_prime(p)
        acc = {}
        for e, c in terms:
            e = tuple(int(v) for v in e)
            if len(e) != nvars:
                raise RingMismatchError(
                    f"exponent length {len(e)} != nvars {nvars}")
            if any(v < 0 for v in e):
                raise GincomplexError(f"negative exponent in {e}")
            acc[e] = (acc.get(e, 0) + int(c)) % p
        items = [(e, c) for e, c in acc.items() if c]
        items.sort(key=lambda t: order.key(t[0]), reverse=True)
        if not items:
            return cls.zero(nvars, p, order)
        exps = np.array([e for e, _ in items], dtype=np.int64)
        coeffs = np.array([c for _, c in items], dtype=np.int64)
        return cls(exps, coeffs, nvars, p, order, _presorted=True)

    @classmethod
    def monomial(cls, exponent, nvars, p, order=GLEX, coeff=1):
        return cls.from_terms([(exponent, coeff)], nvars, p, order)

    @classmethod
    def constant(cls, c, nvars, p, order=GLEX):
        return cls.from_terms([((0,) * nvars, c)], nvars, p, order)

    def _sorted_trusted(self, exps, coeffs):
        return Polynomial(exps, coeffs, self.nvars, self.p, self.order,
                          _presorted=True)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self):
        return self.coeffs.shape[0] == 0

    @property
    def num_terms(self):
        return self.coeffs.shape[0]

    @property
    def degree(self):
        """Maximal total degree over the terms (-1 for the zero polynomial)."""
        if self.is_zero:
            return -1
        return int(self.exps.sum(axis=1).max())

    @property
    def is_homogeneous(self):
        if self.is_zero:
            return True
        degs = self.exps.sum(axis=1)
        return bool((degs == degs[0]).all())

    def terms(self):
        return [(tuple(int(v) for v in self.exps[i]), int(self.coeffs[i]))
                for i in range(self.num_terms)]

    def leading_term(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return int(self.coeffs[0]), tuple(int(v) for v in self.exps[0])

    def leading_monomial(self):
        return self.leading_term()[1]

    def leading_coeff(self):
        return self.leading_term()[0]

    def d0(self):
        """Power of x0 in the graded-lex greatest term."""
        if self.is_zero:
            raise ZeroPolynomialError("d0 of the zero polynomial")
        if self.order is GLEX:
            return int(self.exps[0, 0])
        best = max(range(self.num_terms),
                   key=lambda i: GLEX.key(tuple(self.exps[i])))
        return int(self.exps[best, 0])

    def weighted_keys(self, weights):
        return self.exps @ weights

    # -- ring checks -------------------------------------------------------

    def _same_ring(self, other):
        if self.nvars != other.nvars or self.p != other.p:
            raise RingMismatchError(
                f"rings differ: ({self.nvars} vars mod {self.p}) vs "
                f"({other.nvars} vars mod {other.p})")
        if self.order is not other.order:
            raise RingMismatchError(
                f"orders differ: {self.order!r} vs {other.order!r}; "
                "resort with with_order() first")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._same_ring(other)
        merged = dict(zip(map(tuple, self.exps.tolist()), self.coeffs.tolist()))
        for e, c in zip(map(tuple, other.exps.tolist()), other.coeffs.tolist()):
            merged[e] = (merged.get(e, 0) + c) % self.p
        return Polynomial.from_terms(merged.items(), self.nvars, self.p,
                                     self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._sorted_trusted(self.exps, (-self.coeffs) % self.p)

    def mul_term(self, coeff, exponent):
        """Multiply by coeff * x^exponent; term order is preserved."""
        coeff = int(coeff) % self.p
        if coeff == 0 or self.is_zero:
            return Polynomial.zero(self.nvars, self.p, self.order)
        shift = np.asarray(exponent, dtype=np.int64)
        return self._sorted_trusted(self.exps + shift,
                                    (self.coeffs * coeff) % self.p)

    def __mul__(self, other):
        """Product over all term pairs at once, sorted and merged in numpy.

        Each coefficient product is reduced mod p before the sums, so with
        p*p < 2**63 nothing overflows int64.
        """
        self._same_ring(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.nvars, self.p, self.order)
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(
            -1, self.nvars)
        coeffs = (self.coeffs[:, None] * other.coeffs[None, :]
                  % self.p).ravel()
        idx = self.order.descending(exps)
        exps, coeffs = exps[idx], coeffs[idx]
        first = np.ones(len(idx), dtype=bool)
        first[1:] = (exps[1:] != exps[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(coeffs, starts) % self.p
        keep = sums != 0
        return self._sorted_trusted(exps[starts[keep]], sums[keep])

    def monic(self):
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        lc = int(self.coeffs[0])
        if lc == 1:
            return self
        inv = pow(lc, self.p - 2, self.p)
        return self._sorted_trusted(self.exps, (self.coeffs * inv) % self.p)

    def with_order(self, order):
        """Explicit resort under a different order.

        The monomials are distinct and the coefficients nonzero residues, so
        the resort is one permutation of the rows: the lexsort that orders
        a product.
        """
        if order is self.order:
            return self
        idx = order.descending(self.exps)
        return Polynomial(self.exps[idx], self.coeffs[idx], self.nvars,
                          self.p, order, _presorted=True)

    def homogeneous_components(self):
        """Split into homogeneous parts, highest degree first."""
        if self.is_zero:
            return []
        degs = self.exps.sum(axis=1)
        out = []
        for d in sorted(set(degs.tolist()), reverse=True):
            sel = degs == d
            out.append(self._sorted_trusted(self.exps[sel], self.coeffs[sel]))
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars or self.p != other.p:
            return False
        return (dict(zip(map(tuple, self.exps.tolist()), self.coeffs.tolist()))
                == dict(zip(map(tuple, other.exps.tolist()),
                            other.coeffs.tolist())))

    __hash__ = None

    def __repr__(self):
        return (f"Polynomial<{self.nvars} vars mod {self.p}, "
                f"{self.num_terms} terms, deg {self.degree}>")


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """A finite generating set with its ring data.

    Generators must be nonzero and homogeneous: every ideal the package
    handles is graded, which is what lets the Buchberger engine work one
    degree slice at a time.
    """

    __slots__ = ("generators", "nvars", "p")

    def __init__(self, generators, nvars=None, p=None):
        gens = tuple(generators)
        if gens:
            nvars = gens[0].nvars if nvars is None else nvars
            p = gens[0].p if p is None else p
        if nvars is None or p is None:
            raise GincomplexError("empty ideal needs explicit nvars and p")
        for g in gens:
            if g.nvars != nvars or g.p != p:
                raise RingMismatchError("generators live in different rings")
            if g.is_zero:
                raise ZeroPolynomialError("zero generator")
            if not g.is_homogeneous:
                raise GincomplexError(
                    "inhomogeneous generator in a homogeneous ideal")
        self.generators = gens
        self.nvars = nvars
        self.p = p

    @property
    def is_zero(self):
        return not self.generators

    def min_degree(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero ideal has no minimal degree")
        return min(g.degree for g in self.generators)

    def with_order(self, order):
        return Ideal([g.with_order(order) for g in self.generators],
                     self.nvars, self.p)

    def __repr__(self):
        return f"Ideal<{len(self.generators)} gens, {self.nvars} vars mod {self.p}>"


# ---------------------------------------------------------------------------
# linear coordinate changes
# ---------------------------------------------------------------------------

def _binomial_table(maxdeg, p):
    tab = np.zeros((maxdeg + 1, maxdeg + 1), dtype=np.int64)
    tab[:, 0] = 1
    for n in range(1, maxdeg + 1):
        for k in range(1, n + 1):
            tab[n, k] = (tab[n - 1, k - 1] + tab[n - 1, k]) % p
    return tab


def _inverse_perm(tau):
    """tau^{-1} as a tuple: position tau[i] holds i."""
    return tuple(sorted(range(len(tau)), key=tau.__getitem__))


def _substitution_ops(matrix, p):
    """Factor a square matrix mod p into substitution steps; None if singular.

    Row-pivoted elimination (``_kernels.echelon_mod``) writes A = P^T L D U1
    as steps ("perm", tau), ("trans", i, j, c) and ("scale", i, c) -- the
    matrices with rows e_tau(i), I + c E_ij and I + (c-1) E_ii -- whose
    product in list order is A.  That identity is asserted because
    substitution correctness hinges on it.  Returns the steps and the
    inverses of the n diagonal entries of D.
    """
    n = len(matrix)
    target = tuple(tuple(int(x) % p for x in row) for row in matrix)
    lu = np.array(target, dtype=np.int64).reshape(n, n)
    rank, order = _kernels.echelon_mod(lu, p)
    if rank < n:
        return None
    # lu now holds the unit lower factor below the diagonal and U from it up
    m = lu.tolist()
    perm = order.tolist()
    ops = []
    # P^T sends row i to basis vector at perm^{-1}(i)
    if perm != list(range(n)):
        ops.append(("perm", _inverse_perm(perm)))
    for j in range(n):
        for i in range(j + 1, n):
            if m[i][j]:
                ops.append(("trans", i, j, m[i][j]))
    for i in range(n):
        if m[i][i] != 1:
            ops.append(("scale", i, m[i][i]))
    inverses = tuple(pow(m[i][i], p - 2, p) for i in range(n))
    # unit upper part factors column by column, right to left
    for j in range(n - 1, -1, -1):
        for i in range(j):
            c = (m[i][j] * inverses[i]) % p
            if c:
                ops.append(("trans", i, j, c))
    if _ops_product(ops, n, p) != target:
        raise GincomplexError("internal: substitution factorization mismatch")
    return tuple(ops), inverses


def factor_change(matrix, p):
    """Factor a square matrix mod p for substitution in both directions.

    Returns (steps, inverse steps, inverse matrix), or None when the matrix
    is singular.  The inverse's steps are the forward steps reversed, each
    one inverted; their product is the inverse matrix.
    """
    factored = _substitution_ops(matrix, p)
    if factored is None:
        return None
    ops, inverses = factored
    inverse_ops = []
    for op in reversed(ops):
        if op[0] == "perm":
            inverse_ops.append(("perm", _inverse_perm(op[1])))
        elif op[0] == "trans":
            _, i, j, c = op
            inverse_ops.append(("trans", i, j, (-c) % p))
        else:
            inverse_ops.append(("scale", op[1], inverses[op[1]]))
    inverse_ops = tuple(inverse_ops)
    return ops, inverse_ops, _ops_product(inverse_ops, len(matrix), p)


def _ops_product(ops, n, p):
    """Product of substitution steps mod p, as a tuple of rows.

    Each step updates columns of the running product: column j += c * column
    i, column i *= c, or column k moves to tau(k).
    """
    cols = [[int(r == k) for r in range(n)] for k in range(n)]
    for op in ops:
        if op[0] == "perm":
            moved = [None] * n
            for k, t in enumerate(op[1]):
                moved[t] = cols[k]
            cols = moved
        elif op[0] == "trans":
            _, i, j, c = op
            cols[j] = [(a + c * b) % p for a, b in zip(cols[j], cols[i])]
        else:
            _, i, c = op
            cols[i] = [(a * c) % p for a in cols[i]]
    return tuple(zip(*cols))


def _apply_ops_dense(component, ops, p):
    order = component.order
    nvars = component.nvars
    degree = component.degree
    tab = table_for(nvars, degree, order)
    w = tab.weights
    vec = tab.dense(component)
    binom = _binomial_table(degree, p)
    for op in ops:
        if op[0] == "perm":
            tau = op[1]
            new_exps = np.empty_like(tab.exps)
            for i in range(nvars):
                new_exps[:, tau[i]] = tab.exps[:, i]
            npos = tab.positions(new_exps @ w)
            nvec = np.zeros_like(vec)
            nvec[npos] = vec
            vec = nvec
            continue
        c = op[-1]
        cpow = np.ones(degree + 1, dtype=np.int64)
        for k in range(1, degree + 1):
            cpow[k] = (cpow[k - 1] * c) % p
        if op[0] == "scale":
            vec = (vec * cpow[tab.exps[:, op[1]]]) % p
        else:
            _, i, j, _ = op
            binom_c = (binom * cpow[np.newaxis, :]) % p
            out = np.zeros_like(vec)
            _kernels.transvect(vec, out,
                               np.ascontiguousarray(tab.exps[:, i]),
                               tab.keys, int(w[j] - w[i]), binom_c, p)
            vec = out
    return tab.polynomial(vec, p)


def _apply_change_terms(f, matrix):
    """Reference substitution by per-term expansion with power memoization."""
    n, p = f.nvars, f.p
    rows = [[int(matrix[i][j]) % p for j in range(n)] for i in range(n)]
    lin = []
    for i in range(n):
        lin.append({unit_exponent(n, j): rows[i][j]
                    for j in range(n) if rows[i][j]})
    powers = [{0: {(0,) * n: 1}} for _ in range(n)]

    def power(i, e):
        store = powers[i]
        if e not in store:
            prev = power(i, e - 1)
            cur = {}
            for m1, c1 in prev.items():
                for m2, c2 in lin[i].items():
                    key = monomial_mul(m1, m2)
                    cur[key] = (cur.get(key, 0) + c1 * c2) % p
            store[e] = cur
        return store[e]

    acc = {}
    for e, c in f.terms():
        cur = {(0,) * n: c}
        for i, ei in enumerate(e):
            if not ei:
                continue
            pw = power(i, ei)
            nxt = {}
            for m1, c1 in cur.items():
                for m2, c2 in pw.items():
                    key = monomial_mul(m1, m2)
                    nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
            cur = nxt
        for m, cv in cur.items():
            acc[m] = (acc.get(m, 0) + cv) % p
    return Polynomial.from_terms(acc.items(), n, p, f.order)


def apply_linear_change(f, change):
    """Substitute x_i <- sum_j m[i][j] * x_j and expand.

    ``change`` is either a factored change -- an object with ``matrix``,
    ``ops`` and ``p`` attributes, such as ``gin.CoordinateChange`` -- whose
    stored steps are applied without any elimination, or a raw matrix (rows
    of ints), which is factored on this call.  Each homogeneous component is
    moved on its dense degree table.  Degree and homogeneity are preserved; a
    singular raw matrix is rejected, also for the zero polynomial.
    """
    matrix = getattr(change, "matrix", change)
    n = f.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise RingMismatchError(
            f"change of coordinates must be {n}x{n} for {n} variables")
    ops = getattr(change, "ops", None)
    if ops is None:
        factored = _substitution_ops(matrix, f.p)
        if factored is None:
            raise GincomplexError("singular coordinate change")
        ops = factored[0]
    elif change.p != f.p:
        raise RingMismatchError(
            f"change of coordinates mod {change.p} applied mod {f.p}")
    if f.is_zero or not ops:
        return f
    parts = [_apply_ops_dense(component, ops, f.p)
             for component in f.homogeneous_components()]
    return sum(parts[1:], parts[0])
