"""Monomials, graded orders, sparse polynomials and ideals over F_p.

Variables are x0 > x1 > ... > x(n-1); the ambient count is a runtime
parameter so the same kernel serves P^4 surfaces, their P^3 quotients and
curve examples.

A polynomial's exponent vectors are dense int64 rows (ambient dimension
stays tiny, degrees reach the low hundreds).  A polynomial stores its terms
strictly descending in the order it is tagged with; switching orders is an
explicit resort, never an implicit conversion, so graded-lex and
graded-revlex pipelines cannot share sorted state by accident.

The monomials of one degree and order form a ``MonomialTable``: exponent
rows, descending, each with a packed int64 key.  No table exponent exceeds
``DEGREE_CAP`` = 255, so a table holds its rows as uint8, an eighth of
int64, from enumeration on; arithmetic on them runs in int64 or intp, and
a row becomes int64 when a ``Polynomial`` is built from it.  The keys are
the table's own format.  Code outside the table
finds rows by exponent, through ``MonomialTable.rows`` (or
``product_rows``, for the products of two sets of rows); keys, linear in the
exponents, are read only by the reduction kernel, beside reducer tails
given as keys relative to their lead key, and by the lead cover, which
adds a variable's weight to a key.

A linear change of coordinates is applied as a sequence of permutation,
transvection and scaling steps.  A dense matrix is factored into them once,
by a row-pivoted LU elimination mod p in Python integers
(``factor_change``; the matrix is n x n for n variables), and the
inverse's steps follow in closed form; a lower unitriangular change
(``gin.unitriangular_change``) is drawn as its transvections directly.
Substitution moves all homogeneous pieces of one degree and order -- an
ideal's generators, a polynomial's components -- together, as one block of
coefficient vectors on their dense degree table.  Several changes that share
their steps, and differ only in the coefficients, move together as well
(``apply_linear_changes``): the block gets a trials axis in front.  Each
transvection is then one pass of a gather plan that the table builds once
per (i, j) and keeps.
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
from .field import check_prime

LT, EQ, GT = -1, 0, 1

# base for packed per-degree keys; caps every exponent a table can hold
_KEY_BASE = 256
DEGREE_CAP = _KEY_BASE - 1
_KEY_MAX = int(np.iinfo(np.int64).max)
# the most variables whose degree-1 keys, up to 256^(nvars - 1), fit in
# int64 (see ``_check_key_range``); a higher degree may allow fewer
NVARS_CAP = 8


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

def _exponent_row(m):
    """Tuple of the nonnegative integer exponents in the sequence ``m``."""
    row = tuple(m)
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in row):
        raise GincomplexError(
            f"exponents must be nonnegative integers, got {row}")
    return tuple(map(int, row))


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
    The rows are uint8, every exponent at most ``DEGREE_CAP``; only the
    heads, one per run of the last bar, and the last bar's offset within
    its run are wider.
    """
    if nvars == 1:
        return np.array([[degree]], dtype=np.uint8)
    slots, bars = degree + nvars - 1, nvars - 1
    heads = math.comb(slots - 1, bars - 1)
    head = np.full((heads, bars), -1, dtype=np.int64)
    head[:, 1:] = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(slots - 1), bars - 1)),
        dtype=np.int64, count=heads * (bars - 1)).reshape(heads, bars - 1)
    # slots left for the last bar after each head
    runs = slots - 1 - head[:, -1]
    exps = np.empty((int(runs.sum()), nvars), dtype=np.uint8)
    exps[:, :-2] = np.repeat((np.diff(head, axis=1) - 1).astype(np.uint8),
                             runs, axis=0)
    step = np.arange(len(exps))
    step -= np.repeat(np.cumsum(runs) - runs, runs)
    exps[:, -2] = step
    np.subtract(np.repeat((runs - 1).astype(np.uint8), runs), exps[:, -2],
                out=exps[:, -1])
    return exps


class MonomialTable:
    """All monomials of one degree, descending in the order, with packed keys.

    The rows come in closed form from ``_enumerate_degree`` and are sorted
    by packed key, which is injective within one degree, so a table does not
    depend on the order its rows were enumerated in.  ``exps`` is uint8,
    ``nvars`` bytes a row; ``keys`` is int64, summed one column at a time,
    so the rows are never widened whole.  Arithmetic on the rows widens
    them first: a uint8 sum wraps, and a uint8 cumsum is uint64, which
    mixes with int64 into float64.  The keys are the table's own format:
    code outside it finds rows by exponent, through ``rows``; only the
    reduction kernel and the lead cover read ``keys``.  A table knows only
    its own degree: the lead cover finds each x_i * m of the table below by
    its key, the key of m plus x_i's weight, and compares what reaches each
    row with the number of variables dividing it (``supports``), which a
    table counts on first use and holds until it leaves the cache.  So are
    the gather plans of the transvections (``transvection``), one per
    (i, j) asked for.
    """

    __slots__ = ("nvars", "degree", "order", "exps", "keys", "weights",
                 "_supports", "_transvections")

    def __init__(self, nvars, degree, order):
        self.nvars = nvars
        self.degree = degree
        self.order = order
        self.weights = order.index_weights(nvars)
        exps = _enumerate_degree(nvars, degree)
        # one int64 column product at a time, so the uint8 rows are never
        # widened whole
        keys = np.zeros(len(exps), dtype=np.int64)
        for j, weight in enumerate(self.weights):
            keys += np.multiply(exps[:, j], weight, dtype=np.int64)
        idx = keys.argsort(kind="stable")
        self.exps = exps[idx]
        self.keys = keys[idx]
        self._supports = None
        self._transvections = {}

    def __len__(self):
        return self.exps.shape[0]

    @property
    def nbytes(self):
        """Bytes of the arrays the table holds: rows, keys, the support
        counts and the transvection plans it has built."""
        arrays = [self.exps, self.keys, *itertools.chain.from_iterable(
            self._transvections.values())]
        if self._supports is not None:
            arrays.append(self._supports)
        return sum(a.nbytes for a in arrays)

    def rows(self, exps):
        """Row indices of exponent rows known to be in the table.

        ``exps`` has any leading shape and a last axis of length nvars; the
        result has the leading shape.
        """
        return self.keys.searchsorted(exps @ self.weights)

    def product_rows(self, left, right):
        """Row indices of the products of each row of ``left`` with each row
        of ``right``, exponent rows whose degrees sum to the table's.

        The result has shape (len(left), len(right)).  Keys are linear in
        the exponents, so a product's key is the sum of its factors' keys,
        and the products' exponent rows are never formed.
        """
        return self.keys.searchsorted(
            (left @ self.weights)[:, None] + right @ self.weights)

    def dense(self, f):
        """Coefficient vector of f, of this table's degree and order."""
        vec = np.zeros(len(self), dtype=np.int64)
        vec[self.rows(f.exps)] = f.coeffs
        return vec

    def polynomial(self, vec, p):
        """Polynomial mod p of the nonzero rows of a coefficient vector."""
        nz = vec.nonzero()[0]
        return Polynomial(self.exps[nz], vec[nz], self.nvars, p, self.order,
                          _presorted=True)

    def supports(self):
        """int8 array: entry r is the number of variables dividing m_r."""
        if self._supports is None:
            self._supports = np.count_nonzero(self.exps, axis=1).astype(
                np.int8)
        return self._supports

    def transvection(self, i, j):
        """Gather plan of x_i <- x_i + c * x_j on this table's rows.

        One entry per row m and power 1 <= k <= e_i(m): its source row m,
        its cell e_i(m) * (degree + 1) + k of a flattened (degree + 1)-square
        table of C(e, k) * c^k, and its target, the row of m * (x_j/x_i)^k.
        The plan is ``(sources, cells, starts, targets)``, all intp: the
        entries' sources and cells sorted by target, the index at which each
        target's run of entries starts, and that target's row, so one
        reduceat over ``starts`` sums what each target receives (see
        ``_kernels.transvect``).  A degree-0 table has an empty plan.
        """
        plan = self._transvections.get((i, j))
        if plan is None:
            # intp: a uint8 cumsum is uint64, which mixes with the intp
            # aranges below into float64, and e * (degree + 1) wraps in uint8
            e = self.exps[:, i].astype(np.intp)
            sources = np.repeat(np.arange(len(self)), e)
            # k runs 1..e_i(m) within each row's entries
            k = (np.arange(len(sources))
                 - np.repeat(np.cumsum(e) - e, e) + 1)
            targets = np.searchsorted(
                self.keys,
                self.keys[sources] + k * (self.weights[j] - self.weights[i]))
            by_target = np.argsort(targets, kind="stable")
            targets = targets[by_target]
            first = np.ones(len(targets), dtype=bool)
            first[1:] = targets[1:] != targets[:-1]
            starts = first.nonzero()[0]
            cells = e[sources] * (self.degree + 1) + k
            # intp, numpy's index type, so no gather converts the plan
            plan = tuple(a.astype(np.intp, copy=False) for a in (
                sources[by_target], cells[by_target], starts,
                targets[starts]))
            self._transvections[(i, j)] = plan
        return plan


# least recently used first; _table_rows is the total row count it holds.
# A row costs nvars + 8 bytes: uint8 exponents and an int64 key.  A table
# the lead cover has climbed through also carries one int8 support count
# per row; each transvection plan holds about 2 * degree / nvars + 2 intp
# (8-byte) entries per row (up to nvars * (nvars - 1) plans on a table that
# coordinate changes reach).  The budget counts rows only.
_TABLE_CACHE = {}
_table_rows = 0
_TABLE_ROW_BUDGET = 4_000_000

# int64 cells of the largest Macaulay matrix that
# ``groebner.hilbert_function_macaulay`` builds: 256 MiB, which its block
# elimination holds a few times over in products and limbs
_MACAULAY_CELL_CAP = 2**25


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
        check_prime(p)
        return cls(np.zeros((0, nvars), dtype=np.int64),
                   np.zeros(0, dtype=np.int64), nvars, p, order,
                   _presorted=True)

    @classmethod
    def from_terms(cls, terms, nvars, p, order=GLEX):
        """Build from (exponent sequence, coefficient) pairs.

        Coefficients reduce mod p, duplicate monomials merge, zeros drop.
        Exponents must be nonnegative integers and coefficients integers,
        Python or numpy; anything else, a float even when integral, raises
        ``GincomplexError``.  A modulus that is not prime, or whose residue
        products overflow int64, raises ``ConfigurationError``.
        """
        check_prime(p)
        acc = {}
        for e, c in terms:
            e = _exponent_row(e)
            if len(e) != nvars:
                raise RingMismatchError(
                    f"exponent length {len(e)} != nvars {nvars}")
            if not isinstance(c, (int, np.integer)):
                raise GincomplexError(
                    f"coefficients must be integers, got {c!r}")
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
        if not gens:
            # a generator's modulus was checked when it was built
            check_prime(p)
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
    # Pascal's rule row by row; entries above the diagonal stay 0
    for n in range(1, maxdeg + 1):
        tab[n, 1:] = (tab[n - 1, :-1] + tab[n - 1, 1:]) % p
    return tab


def _inverse_perm(tau):
    """tau^{-1} as a tuple: position tau[i] holds i."""
    return tuple(sorted(range(len(tau)), key=tau.__getitem__))


def _is_square(matrix, n):
    """True when ``matrix`` is n rows of n entries each."""
    return len(matrix) == n and all(
        hasattr(row, "__len__") and len(row) == n for row in matrix)


def factor_change(matrix, p):
    """Factor a square matrix mod p for substitution in both directions.

    Row-pivoted elimination, in Python integers, writes A = P^T L D U1 as
    steps ("perm", tau), ("trans", i, j, c) and ("scale", i, c) -- the
    matrices with rows e_tau(i), I + c E_ij and I + (c-1) E_ii -- whose
    product in list order is A.  That identity is asserted because
    substitution correctness hinges on it.  The inverse's steps are the
    forward steps reversed, each one inverted; their product is the inverse
    matrix.

    Returns (steps, inverse steps, inverse matrix), or None when the matrix
    is singular.  An entry that is not a Python or numpy integer raises
    ``GincomplexError``, and a ragged or non-square matrix
    ``RingMismatchError``.
    """
    n = len(matrix)
    if not _is_square(matrix, n):
        raise RingMismatchError(
            f"change of coordinates must be a square matrix, got {matrix!r}")
    for row in matrix:
        for x in row:
            if not isinstance(x, (int, np.integer)):
                raise GincomplexError(
                    f"entries of a change of coordinates must be integers, "
                    f"got {x!r}")
    target = tuple(tuple(int(x) % p for x in row) for row in matrix)
    # column by column, the pivot is the first nonzero row at or below the
    # diagonal, swapped up whole; each row below keeps its multiplier in the
    # pivot column, so m ends with the unit lower factor L below the
    # diagonal and U from it up: L U is the input's rows in ``perm`` order
    m = [list(row) for row in target]
    perm = list(range(n))
    inverses = []
    for j in range(n):
        pivot = next((r for r in range(j, n) if m[r][j]), None)
        if pivot is None:
            return None
        if pivot != j:
            m[j], m[pivot] = m[pivot], m[j]
            perm[j], perm[pivot] = perm[pivot], perm[j]
        inv = pow(m[j][j], p - 2, p)
        inverses.append(inv)
        upper = m[j][j + 1:]
        for row in m[j + 1:]:
            if row[j]:
                factor = row[j] * inv % p
                row[j] = factor
                row[j + 1:] = [(a - factor * b) % p
                               for a, b in zip(row[j + 1:], upper)]
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
    # unit upper part factors column by column, right to left
    for j in range(n - 1, -1, -1):
        for i in range(j):
            c = (m[i][j] * inverses[i]) % p
            if c:
                ops.append(("trans", i, j, c))
    ops = tuple(ops)
    if _ops_product(ops, n, p) != target:
        raise GincomplexError("internal: substitution factorization mismatch")
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
    return ops, inverse_ops, _ops_product(inverse_ops, n, p)


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


def _move_homogeneous(polys, trial_ops, p):
    """Homogeneous polynomials moved by each of several changes, in order.

    ``trial_ops`` holds one step sequence per change, all of one shape: the
    same kind and variables at every step, only the coefficients differ.
    The polynomials of one degree and order move together, as one block of
    stacked coefficient vectors on their degree table with one copy per
    change in front, so each step is a fixed number of array operations on
    the whole block.  Returns one list of moved polynomials per change.
    """
    groups = {}
    for r, f in enumerate(polys):
        groups.setdefault((f.degree, f.order), []).append(r)
    # tables first: a degree above the cap fails before any work
    blocks = [(table_for(polys[0].nvars, degree, order), rows)
              for (degree, order), rows in groups.items()]
    top = max(degree for degree, _ in groups)
    binom = _binomial_table(top, p)
    ops = trial_ops[0]
    # c^k for k <= top, one row per step and change; a permutation's row is
    # unused
    cs = np.array([[1 if op[0] == "perm" else op[-1] for op in change]
                   for change in trial_ops], dtype=np.int64).T
    cpow = np.ones(cs.shape + (top + 1,), dtype=np.int64)
    for k in range(1, top + 1):
        cpow[..., k] = cpow[..., k - 1] * cs % p
    trials = len(trial_ops)
    moved = [[None] * len(polys) for _ in range(trials)]
    for tab, rows in blocks:
        size = tab.degree + 1
        # per step, one flattened table of C(e, k) * c^k per change
        binom_c = (binom[:size, :size] * cpow[:, :, None, :size] % p).reshape(
            len(ops), trials, size * size)
        block = np.empty((trials, len(rows), len(tab)), dtype=np.int64)
        block[:] = np.stack([tab.dense(polys[r]) for r in rows])
        for t, op in enumerate(ops):
            if op[0] == "perm":
                # x_i goes to x_tau(i): exponent k of a moved row is the
                # exponent tau^{-1}(k) of its source
                dest = tab.rows(tab.exps[:, _inverse_perm(op[1])])
                moved_block = np.zeros_like(block)
                moved_block[..., dest] = block
                block = moved_block
            elif op[0] == "scale":
                block = block * cpow[t][:, None, tab.exps[:, op[1]]] % p
            else:
                _, i, j, _ = op
                _kernels.transvect(block, tab.transvection(i, j), binom_c[t],
                                   p)
        for out, trial_block in zip(moved, block):
            for r, vec in zip(rows, trial_block):
                out[r] = tab.polynomial(vec, p)
    return moved


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


def _change_ops(f, change):
    """The substitution steps of ``change``, checked against f's ring."""
    matrix = getattr(change, "matrix", change)
    n = f.nvars
    if not _is_square(matrix, n):
        raise RingMismatchError(
            f"change of coordinates must be {n}x{n} for {n} variables")
    ops = getattr(change, "ops", None)
    if ops is None:
        factored = factor_change(matrix, f.p)
        if factored is None:
            raise GincomplexError("singular coordinate change")
        return factored[0]
    if change.p != f.p:
        raise RingMismatchError(
            f"change of coordinates mod {change.p} applied mod {f.p}")
    return ops


def apply_linear_changes(f, changes):
    """``[apply_linear_change(f, change) for change in changes]``, in one pass.

    Changes whose steps have the same kinds and variables, and differ only
    in their coefficients -- the unitriangular changes of a gin's trials,
    say -- move together: one block per degree and order, with a trials
    axis in front.  Changes of different shapes move in separate passes.
    """
    trial_ops = [_change_ops(f, change) for change in changes]
    if f.is_zero:
        return [f] * len(trial_ops)
    shapes = {}
    for t, ops in enumerate(trial_ops):
        shape = tuple(op if op[0] == "perm" else op[:-1] for op in ops)
        shapes.setdefault(shape, []).append(t)
    is_ideal = isinstance(f, Ideal)
    pieces = f.generators if is_ideal else f.homogeneous_components()
    n, p = f.nvars, f.p
    moved = [f] * len(trial_ops)
    for shape, trials in shapes.items():
        if not shape:
            continue
        parts = _move_homogeneous(pieces, [trial_ops[t] for t in trials], p)
        for t, part in zip(trials, parts):
            # components come highest degree first, so their terms just
            # concatenate
            moved[t] = (Ideal(part, n, p) if is_ideal else Polynomial(
                np.concatenate([g.exps for g in part]),
                np.concatenate([g.coeffs for g in part]), n, p, f.order,
                _presorted=True))
    return moved


def apply_linear_change(f, change):
    """Substitute x_i <- sum_j m[i][j] * x_j and expand.

    ``f`` is a polynomial or an ideal; an ideal comes back as the ideal of
    its moved generators, in the same order, each keeping its term order.
    ``change`` is either a factored change -- an object with ``matrix``,
    ``ops`` and ``p`` attributes, such as ``gin.CoordinateChange`` -- whose
    stored steps are applied without any elimination, or a raw matrix (rows
    of Python or numpy integers), which ``factor_change`` factors on this
    call.  All homogeneous pieces of one
    degree and order -- an ideal's generators, a polynomial's components --
    move together on their dense degree table.  Degree and homogeneity are
    preserved; a singular raw matrix is rejected, also for the zero
    polynomial.  This is ``apply_linear_changes`` with one change.
    """
    return apply_linear_changes(f, [change])[0]
