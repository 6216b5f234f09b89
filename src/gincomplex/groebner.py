"""Buchberger engine and normal forms on one dense reduction path, plus
monomial-ideal queries, Hilbert functions and colon/intersection.

The engine runs the normal strategy a whole degree at a time, as Faugere's
F4 does (JPAA 139, 1999): the lowest degree with a waiting generator or
S-pair goes next, its generators in input order and then its pairs, sorted
once by the order on the lcm and then by pair index.  The two Buchberger
criteria are installed Gebauer-Moeller style at pair-update time.
Determinism matters more than raw speed here, so both the sequence of
reductions and the reducer order are fixed.

Every ideal is homogeneous and both orders are graded, so there is one
reduction path: each reduction is one numpy kernel call on one dense degree
slice.  The kernel collects the rows to eliminate, the nonzero rows that
some reducer lead divides and every such row a reducer tail reaches from
them, then solves for all their multiples at once (symbolic preprocessing,
see ``_kernels.reduce_dense``).  The backend chains the mask of divisible
rows over the degrees along the standard monomials, which no lead divides:
a monomial of degree d is standard iff it is not a lead and each m / x_i is
a standard monomial of degree d - 1.  So each degree's mask comes from the
standard rows below it, found by their keys plus each variable's weight,
and that degree's leads (see ``_ChainedCover``), which a run marks one row
at a time at the top of the chain.  ``normal_form`` and ``is_groebner_basis``
divide by known reducers on the same path, one homogeneous component at a
time, and hand the chain all their leads at once.

While a run lasts, each basis element is stored once, as the kernel reads
it: exponent rows (uint8, as the table holds them), monic coefficients and
table keys relative to its lead key.  Keys are linear in exponents, so
those relative keys, shifted by the key of an lcm, place a multiple of the
element on the lcm's degree table with one ``searchsorted``, whatever
table the element came from.  Elements become ``Polynomial``s only in the
result.  The pair queue and the Gebauer-Moeller update work on leads
packed into Python ints, one guarded bit field per variable
(``_PackedExponents``).

One engine serves several trials at once (``buchberger_trials``): the
images of one ideal under the random coordinate changes of a gin.  In
generic coordinates they all have the gin as initial ideal (Galligo;
Bayer-Stillman), and their runs are one run on different coefficients, as
in Traverso's Groebner trace algorithms (ISSAC 1988).  So everything that
depends only on leading monomials is done once for all trials: the pair
queue and its update, the lead cover and the Hilbert-driven count, the
placement of a multiple and the kernel's closure.  Each element keeps the
union of the trials' supports, with one row of coefficients per trial, and
each reduction works on a block with one slice per trial.  The trials stay
in lockstep while every reduction leaves the same leading row in each
trial, or zero in all of them.  When they part -- a special draw, with
probability about deg/p -- the run stops and each trial is run again on
its own, so the bases, counts and errors are always those of separate runs.
A single ``buchberger`` run is the engine with one trial.

Generators wait by degree and enter at their own degree, before that
degree's pairs, so elements arrive in nondecreasing degree and each arrives
fully reduced.  A new lead then divides no older lead, so every pair it
makes has a higher degree and it removes no pair of its own degree: a
degree's pairs are fixed when it starts.  The new lead can occur only in
the tails of the elements of its own degree; one same-slice subtraction
clears it from each.  The basis is thus reduced after every insertion --
the reduced echelon form of each degree is kept as it grows -- and no
interreduction runs at the end.

Given the Hilbert function d -> dim (R/I)_d, which depends on neither the
coordinates nor the term order, ``buchberger`` also applies Traverso's
Hilbert-driven criterion (Traverso, *Hilbert functions and the Buchberger
algorithm*, J. Symb. Comp. 22, 1996).  When degree d starts, the Hilbert
function says how many degree-d leading monomials are still missing; each
new element supplies one.  Once none is missing, the leading monomials span
as many degree-d monomials as I_d has dimensions, so every pair and
generator left in degree d reduces to zero and is dropped unreduced.  The
reductions that do run, and so the reduced basis, are exactly those of the
run without the Hilbert function.

Intersections and colon ideals reuse that engine: a graded-lex basis in two
extra variables eliminates one of them (see ``intersect``).  Ideal equality
needs no membership test: a reduced basis is unique per ideal and order.
"""

import math

import numpy as np

from . import _kernels, poly
from .errors import (
    ConfigurationError,
    GincomplexError,
    InvariantError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .poly import (
    DEGREE_CAP,
    GLEX,
    GREVLEX,
    Ideal,
    Polynomial,
    _exponent_row,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    table_for,
    unit_exponent,
)


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

class MonomialIdeal:
    """Minimal monomial generators, an antichain under divisibility.

    Exponents must be nonnegative integers; anything else raises
    ``GincomplexError``.  The ideal is immutable, so it keeps its Borel
    verdict and, for an ideal that is not Borel-fixed, the chained
    graded-lex masks of the monomials it contains (``_ChainedCover``) once
    a query has built them.
    """

    __slots__ = ("nvars", "gens", "_cover", "_borel")

    def __init__(self, monomials, nvars):
        mons = sorted(set(map(_exponent_row, monomials)),
                      key=lambda m: (sum(m), m))
        minimal = []
        for m in mons:
            if len(m) != nvars:
                raise RingMismatchError("monomial length != nvars")
            if not any(monomial_divides(g, m) for g in minimal):
                minimal.append(m)
        self.nvars = nvars
        self.gens = tuple(sorted(minimal, key=GLEX.key, reverse=True))
        self._cover = self._borel = None

    @classmethod
    def _of_antichain(cls, gens, nvars):
        """The ideal of ``gens``, an antichain of exponent tuples already
        sorted descending in graded-lex: no check, no sort."""
        ideal = cls.__new__(cls)
        ideal.nvars = nvars
        ideal.gens = tuple(gens)
        ideal._cover = ideal._borel = None
        return ideal

    @property
    def is_zero(self):
        return not self.gens

    def contains_monomial(self, m):
        m = _exponent_row(m)
        if len(m) != self.nvars:
            raise RingMismatchError("monomial length != nvars")
        return any(monomial_divides(g, m) for g in self.gens)

    def max_generator_degree(self):
        if self.is_zero:
            return 0
        return max(sum(g) for g in self.gens)

    def _covered(self, degree):
        """Mask of the degree-``degree`` graded-lex table rows in the ideal."""
        if self._cover is None:
            self._cover = _ChainedCover(self.nvars, GLEX, self.gens)
        return self._cover.mask(degree)

    def is_borel_fixed(self):
        """Closed under swapping a dividing variable for any earlier one.

        It suffices to make the adjacent moves x_(i-1) / x_i of the minimal
        generators: a move x_j / x_i, j < i, is a chain of adjacent ones,
        and a monomial u*w of the ideal moves inside it if its generator u
        or w does.  So each moved generator must be divisible by some
        generator, which is one broadcast comparison of the moved rows with
        the generator array.

        The verdict is kept (``_borel``): False, or for a Borel-fixed ideal
        the pair (deg u, k_u) of each minimal generator u that
        ``hilbert_function`` counts with.
        """
        if self._borel is None:
            n = self.nvars
            gens = np.array(self.gens, dtype=np.int64).reshape(-1, n)
            unit = np.eye(n, dtype=np.int64)
            # row (u, i - 1): x_(i-1) * u / x_i, for each x_i dividing u
            moved = (gens[:, None, :] + unit[:-1] - unit[1:])[gens[:, 1:] > 0]
            self._borel = False
            if (gens[None, :, :] <= moved[:, None, :]).all(
                    axis=2).any(axis=1).all():
                # k_u counts the variables after u's last (all but x_0 for 1)
                after = gens[:, ::-1] > 0
                k = np.where(after.any(axis=1), after.argmax(axis=1), n - 1)
                self._borel = tuple(zip(gens.sum(axis=1).tolist(),
                                        k.tolist()))
        return self._borel is not False

    def regularity(self):
        """Maximal generator degree; only valid for Borel-fixed ideals."""
        if not self.is_borel_fixed():
            raise GincomplexError(
                "regularity via generator degrees needs a Borel-fixed ideal")
        return self.max_generator_degree()

    def hilbert_function(self, m):
        """dim over F of (R/this)_m, by counting standard monomials.

        A Borel-fixed ideal needs no table.  Each of its monomials is
        uniquely u*v, u a minimal generator and v a monomial in x_l, ...,
        x_(n-1), x_l the last variable dividing u (l = 0 for u = 1), so
        dim I_m is sum_u C(m - deg u + k_u, k_u), k_u = n - 1 - l
        (Eliahou-Kervaire, J. Algebra 129, 1990).  Any other ideal counts
        the standard rows of its chained graded-lex masks.
        """
        if m < 0:
            return 0
        n = self.nvars
        # generators sort by degree first, so the last has the lowest
        if self.is_zero or m < sum(self.gens[-1]):
            return math.comb(m + n - 1, n - 1)
        if self.is_borel_fixed():
            return math.comb(m + n - 1, n - 1) - sum(
                math.comb(m - d + k, k) for d, k in self._borel if d <= m)
        if m > DEGREE_CAP:
            raise ConfigurationError(
                f"degree {m} exceeds the packed-key cap {DEGREE_CAP}")
        covered = self._covered(m)
        return len(covered) - int(np.count_nonzero(covered))

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal<{len(self.gens)} gens, {self.nvars} vars>"


class _ChainedCover:
    """Per-degree masks of the table rows that some lead divides.

    The chain follows the standard rows, those no lead divides: a row m of
    degree d is standard iff it is not a lead and every m / x_i, one for
    each variable x_i dividing m, is standard.  The mask of a degree is
    built once, from the mask below it, and kept: the key of x_i * m is
    key(m) plus x_i's weight, so one ``searchsorted`` finds the multiples of
    the standard rows below, and a row that fewer of them reach than it has
    dividing variables (``MonomialTable.supports``) is covered, as is each
    lead.  At high degrees most rows are covered, so the work follows the
    few standard ones.  The chain starts at the lowest lead degree or, if
    lower, the first degree asked for; below it a mask is all False and is
    not kept.

    Leads come all at once, as exponent rows at construction, each waiting
    for the chain to reach its degree and finding its row there through
    ``MonomialTable.rows``; or one at a time, as a row of the highest
    chained degree (``mark``), which is how ``buchberger`` hands on each
    new lead.  A lead below that degree would leave a kept mask stale, and
    rows it divides unreduced, so ``mark`` anywhere else raises
    ``GincomplexError``.

    A Buchberger run asks only for the degree in progress, and chains the
    next one from it, so it drops every mask below the degree before
    (``drop_below``); asking for a dropped degree then raises
    ``GincomplexError`` rather than read as all False.  Every other holder
    keeps every mask.
    """

    __slots__ = ("nvars", "order", "_masks", "_waiting", "_top", "_floor")

    def __init__(self, nvars, order, leads=()):
        self.nvars = nvars
        self.order = order
        self._masks = {}
        # degree -> exponent rows of the leads the chain has not reached
        self._waiting = {}
        self._top = -1
        # masks below this degree are dropped
        self._floor = 0
        for lead in leads:
            lead = np.asarray(lead, dtype=np.int64)
            self._waiting.setdefault(int(lead.sum()), []).append(lead)

    def mark(self, degree, row):
        """Mark ``row`` of the degree table as a lead, at the chained top."""
        if degree != self._top:
            raise GincomplexError(
                f"internal: a lead row of degree {degree} arrived with the "
                f"cover chained to degree {self._top}")
        self._masks[degree][row] = True

    def drop_below(self, degree):
        """Forget the masks of the degrees below ``degree``."""
        for d in [d for d in self._masks if d < degree]:
            del self._masks[d]
        self._floor = max(self._floor, degree)

    def mask(self, degree):
        """Boolean mask of the degree-``degree`` table rows a lead divides."""
        if degree < self._floor:
            raise GincomplexError(
                f"internal: the lead mask of degree {degree} was dropped; "
                f"the cover keeps degree {self._floor} and up")
        for d in range(self._top + 1, degree + 1):
            below = self._masks.get(d - 1)
            waiting = self._waiting.pop(d, None)
            if below is None and waiting is None and d < degree:
                continue
            if below is not None:
                # the table below first: building table d may evict it
                standard = table_for(self.nvars, d - 1,
                                     self.order).keys[~below]
            tab = table_for(self.nvars, d, self.order)
            if below is None:
                mask = np.zeros(len(tab), dtype=bool)
            else:
                # x_i * m has key key(m) + w_i: one sorted run per variable
                rows = tab.keys.searchsorted(standard + tab.weights[:, None])
                mask = (np.bincount(rows.ravel(), minlength=len(tab))
                        < tab.supports())
            if waiting is not None:
                mask[tab.rows(np.array(waiting))] = True
            self._masks[d] = mask
        self._top = max(self._top, degree)
        mask = self._masks.get(degree)
        if mask is None:
            mask = np.zeros(len(table_for(self.nvars, degree, self.order)),
                            dtype=bool)
        return mask


# ---------------------------------------------------------------------------
# Groebner basis container
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """A reduced basis plus the work counts of the run that produced it.

    ``buchberger`` builds every instance: monic elements sorted by
    descending lead, no term of one divisible by another's lead, so the
    leads generate the initial ideal.  ``pairs_reduced`` S-pairs went
    through a reduction and ``reductions_to_zero`` of those gave nothing
    new; ``pairs_pruned`` were dropped unreduced by the Hilbert-driven
    criterion.  The three count S-pairs only, not generators, and repeat
    exactly for a fixed input.  Nothing of the run's engine is kept.
    """

    __slots__ = ("elements", "order", "nvars", "p",
                 "pairs_reduced", "reductions_to_zero", "pairs_pruned")

    def __init__(self, elements, order, nvars, p,
                 pairs_reduced=0, reductions_to_zero=0, pairs_pruned=0):
        self.elements = tuple(elements)
        self.order = order
        self.nvars = nvars
        self.p = p
        self.pairs_reduced = pairs_reduced
        self.reductions_to_zero = reductions_to_zero
        self.pairs_pruned = pairs_pruned

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.elements]

    def initial_ideal(self):
        """The monomial ideal of the leads, its minimal generators.

        The basis is reduced, so no lead divides another: the leads are the
        minimal generators as they stand.  A graded-lex basis already lists
        them descending in graded-lex; any other is sorted once.
        """
        leads = np.array([g.exps[0] for g in self.elements],
                         dtype=np.int64).reshape(-1, self.nvars)
        gens = map(tuple, leads.tolist())
        if self.order is not GLEX:
            gens = sorted(gens, key=GLEX.key, reverse=True)
        return MonomialIdeal._of_antichain(gens, self.nvars)

    def normal_form(self, f):
        return normal_form(f, self.elements, self.order)

    def contains(self, f):
        return self.normal_form(f).is_zero

    def min_degree(self):
        return min(g.degree for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return (f"GroebnerBasis<{len(self.elements)} elements, "
                f"{self.order!r}, {self.nvars} vars mod {self.p}>")


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def normal_form(f, reducers, order=None):
    """Remainder of f on division by homogeneous reducers, tails reduced too.

    Terms are scanned in descending order, and each is divided by the first
    reducer, in list order, whose lead divides it; the reducers need not be
    a Groebner basis.  No term of the result is divisible by any reducer
    leading monomial, and f minus the result lies in the ideal the reducers
    generate.  A zero result is the membership signal.  The result carries
    ``order``, which defaults to f's.  Reducers from another ring raise
    ``RingMismatchError``.
    """
    order = order if order is not None else f.order
    f = f.with_order(order)
    reds = []
    for r in reducers:
        if r.nvars != f.nvars or r.p != f.p:
            raise RingMismatchError(
                f"reducer in {r.nvars} vars mod {r.p}, "
                f"dividend in {f.nvars} vars mod {f.p}")
        if not r.is_homogeneous:
            raise GincomplexError("normal_form needs homogeneous reducers")
        if not r.is_zero:
            reds.append(r.with_order(order).monic())
    if f.is_zero or not reds:
        return f
    # a homogeneous reducer keeps each component of f in its own degree
    backend = _DenseBackend(f.nvars, f.p, order, reds)
    parts = (backend.reduce(c) for c in f.homogeneous_components())
    return sum((r for r in parts if r is not None),
               Polynomial.zero(f.nvars, f.p, order))


def s_polynomial(f, g):
    """S-polynomial with both sides normalized monic."""
    f._same_ring(g)
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lmf, lmg)
    mf = tuple(a - b for a, b in zip(lcm, lmf))
    mg = tuple(a - b for a, b in zip(lcm, lmg))
    return (f.monic().mul_term(1, mf)) - (g.monic().mul_term(1, mg))


def exact_divide(h, f):
    """Quotient h / f when f divides h exactly; anything else is an error."""
    f = f.with_order(h.order)
    if f.is_zero:
        raise ZeroPolynomialError("division by zero polynomial")
    p = h.p
    lmf, lcf = f.leading_monomial(), f.leading_coeff()
    fterms = f.terms()
    inv_lcf = pow(lcf, p - 2, p)
    work = dict(zip(map(tuple, h.exps.tolist()), h.coeffs.tolist()))
    quot = {}
    order = h.order
    while work:
        lm = max(work, key=order.key)
        c = work.pop(lm)
        if not monomial_divides(lmf, lm):
            raise GincomplexError(
                "internal: elimination produced an element not divisible "
                "by the quotient polynomial")
        shift = tuple(a - b for a, b in zip(lm, lmf))
        q = (c * inv_lcf) % p
        quot[shift] = (quot.get(shift, 0) + q) % p
        for e, cf in fterms[1:]:
            key = monomial_mul(e, shift)
            val = (work.get(key, 0) - q * cf) % p
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    return Polynomial.from_terms(quot.items(), h.nvars, p, order)


# ---------------------------------------------------------------------------
# reduction backend
# ---------------------------------------------------------------------------

class _DenseBackend:
    """Homogeneous reduction on dense degree slices via ``reduce_dense``.

    Each reduction is one kernel call: from the slice's nonzero rows that
    some lead divides, the kernel closes over the rows the chosen reducers'
    tails reach, solves for every multiple in one triangular pass and
    subtracts the scaled tails together.

    A backend serves ``trials`` runs that share their leads and differ only
    in coefficients (see ``buchberger_trials``); every other caller has one
    trial.  Each slice is a block with one column per trial (``_slice``),
    and each reducer is held once, in the form the kernel reads: ``exps``,
    the exponent rows of the union of the trials' supports in term order,
    ``coeffs``, its monic coefficients with one row per trial (0 where a
    trial lacks the term), and ``keys``, the table keys of its terms
    relative to its lead key.  An element a run inserts keeps its rows as
    gathered off the table, uint8; a reducer given to the constructor
    keeps its polynomial's int64 rows.  Rows become int64 again only in the
    result's ``Polynomial``s.  ``tails[r]`` views reducer r's keys and
    coefficients without the lead, and ``leads`` is a view of the first
    rows of an int64 lead array with spare capacity, so adding a reducer
    copies neither; int64, since ``GREVLEX.descending`` negates the leads,
    which would wrap in uint8.  Relative keys place a multiple on any
    table: the terms of m * lm(r) lie at the keys ``keys[r]`` plus the key
    of m * lm(r) (``spoly_reduce``).

    ``normal_form`` and ``is_groebner_basis`` know every reducer up front
    and give them to the constructor as polynomials.  ``buchberger_trials``
    builds its basis a degree at a time: ``begin_degree`` fetches that
    degree's lead mask, and ``insert`` turns each reduced slice into an
    element, reading its rows off the degree table in hand and marking its
    lead row in the mask.  It keeps the table rows of this degree's
    elements, and only theirs, to clear a new lead from them (``replace``);
    no table of a finished degree is looked up again.  Placing, reducing
    and clearing all work on one dense block per table (``_slice``), which
    ``begin_degree`` drops before the next degree's table is chained, so a
    degree's peak memory holds no block of the degree before.

    Per degree the lead mask is chained from the mask of the degree below
    (``_ChainedCover``); the kernel's closure starts from it.  Reducers
    enter through the constructor or ``insert`` only: the cover gets the
    constructor's leads at once, and each inserted lead as its row at the
    top of the chain, since elements arrive in nondecreasing degree.
    """

    def __init__(self, nvars, p, order, reducers=(), trials=1):
        self.nvars = nvars
        self.p = p
        self.order = order
        self.trials = trials
        self.weights = order.index_weights(nvars)
        self.exps = []
        self.coeffs = []
        self.keys = []
        self.tails = []
        self._leads = np.zeros((8, nvars), dtype=np.int64)
        # element index -> its rows in the table of the degree in progress
        self._rows = {}
        self._work = None
        for h in reducers:
            self._put(len(self.exps), h.exps, h.coeffs[None],
                      h.exps @ self.weights)
        self._cover = _ChainedCover(nvars, order, self.leads)

    @property
    def leads(self):
        """Lead exponent rows, one per reducer, as one int64 array."""
        return self._leads[:len(self.exps)]

    def _put(self, k, exps, coeffs, keys):
        """Store reducer k from its terms, coefficients and table keys.

        ``coeffs`` has one row per trial.  A k equal to the reducer count
        appends; any other k replaces a reducer with the same lead.
        """
        keys = keys - keys[0]
        # one trial hands the kernel 1D tail coefficients, which it joins
        # faster than rows of one
        tail = (keys[1:], coeffs[0, 1:] if len(coeffs) == 1 else coeffs[:, 1:])
        if k < len(self.exps):
            self.exps[k], self.coeffs[k] = exps, coeffs
            self.keys[k], self.tails[k] = keys, tail
            return
        if k == len(self._leads):
            self._leads = np.concatenate([self._leads, self._leads])
        self._leads[k] = exps[0]
        self.exps.append(exps)
        self.coeffs.append(coeffs)
        self.keys.append(keys)
        self.tails.append(tail)

    def begin_degree(self, degree):
        """Start inserting elements of ``degree``; returns its lead mask.

        The elements of the degree before are final from here on, so their
        table rows are dropped, and so is the block kept for that degree,
        before chaining the mask may build the next table.  Once it is
        chained, the masks below ``degree - 1`` are dropped too: degrees
        arrive in increasing order, and the next is chained from this one.
        """
        self._rows.clear()
        self._work = None
        mask = self._cover.mask(degree)
        self._cover.drop_below(degree - 1)
        return mask

    def _slice(self, tab):
        """The all-zero block of tab, one kept for every reduction.

        It has one column per trial, stored trial-major as the kernel
        reads it.  Each use leaves it zero again, so the reductions on one
        table share one block instead of allocating one each.
        """
        if self._work is None or len(self._work) != len(tab):
            self._work = np.zeros((len(tab), self.trials), dtype=np.int64,
                                  order="F")
        return self._work

    def _reduce_slice(self, tab, block):
        """Full normal form of the block on tab, as its terms.

        Returns the rows nonzero in some trial and their coefficients, one
        row per trial, and leaves the block zero.
        """
        _kernels.reduce_dense(block, tab.exps, tab.keys,
                              self._cover.mask(tab.degree), self.leads,
                              self.tails, self.p)
        return self._take(block)

    @staticmethod
    def _take(block):
        """Rows nonzero in some trial and their coefficients, one row per
        trial; leaves the block zero."""
        slices = block.T
        if len(slices) == 1:
            # on small tables three 1D calls cost a third of the 2D ones
            vec = slices[0]
            rows = vec.nonzero()[0]
            coeffs = vec[rows][None]
            vec[rows] = 0
        else:
            rows = slices.any(axis=0).nonzero()[0]
            coeffs = slices[:, rows]
            slices[:, rows] = 0
        return rows, coeffs

    def reduce_terms(self, tab, fs):
        """Full normal forms of fs, one polynomial per trial, as terms.

        Each is homogeneous of tab's degree.  Returns what
        ``_reduce_slice`` does.
        """
        block = self._slice(tab)
        for vec, f in zip(block.T, fs):
            vec[tab.rows(f.exps)] = f.coeffs
        return self._reduce_slice(tab, block)

    def reduce(self, f):
        """Full normal form of the nonzero homogeneous f, or None when it
        reduces to zero; for a backend of one trial."""
        tab = table_for(self.nvars, f.degree, self.order)
        rows, coeffs = self.reduce_terms(tab, (f,))
        if not rows.size:
            return None
        return Polynomial(tab.exps[rows], coeffs[0], self.nvars, self.p,
                          self.order, _presorted=True)

    def spoly_reduce(self, tab, i, j, key):
        """Reduced monic S-polynomials of reducers i and j, as their terms.

        ``key`` is the key of their leads' lcm in ``tab``, the table of its
        degree: both multiples are placed by one ``searchsorted`` of their
        relative keys shifted by it.  Returns what ``_reduce_slice`` does.
        """
        ki = self.keys[i]
        pos = tab.keys.searchsorted(np.concatenate([ki, self.keys[j]]) + key)
        block = self._slice(tab)
        pi, pj = pos[:len(ki)], pos[len(ki):]
        for vec, ci, cj in zip(block.T, self.coeffs[i], self.coeffs[j]):
            # the rows of one polynomial are distinct
            vec[pi] = ci
            vec[pj] = (vec[pj] - cj) % self.p
        return self._reduce_slice(tab, block)

    def insert(self, tab, rows, coeffs):
        """Append a reduced polynomial of the degree in progress, made monic.

        It is given by its rows of ``tab`` and their coefficients, one row
        per trial; the first row, its lead, is nonzero in every trial.  That
        lead can occur only in the tails of this degree's elements, since no
        element has a higher degree; one same-slice subtraction clears it
        from each.  Returns the lead exponent row.
        """
        for c in coeffs:
            if c[0] != 1:
                c *= pow(int(c[0]), self.p - 2, self.p)
                c %= self.p
        for k in self._rows:
            self._clear_lead(k, tab, rows, coeffs)
        k = len(self.exps)
        self._put(k, tab.exps[rows], coeffs, tab.keys[rows])
        self._rows[k] = rows
        self._cover.mark(tab.degree, rows[0])
        return self.exps[k][0]

    def _clear_lead(self, k, tab, rows, coeffs):
        """Clear the lead of the monic (rows, coeffs) from element k."""
        krows = self._rows[k]
        at = int(krows.searchsorted(rows[0]))
        if at < len(krows) and krows[at] == rows[0]:
            block = self._slice(tab)
            for vec, kc, c in zip(block.T, self.coeffs[k], coeffs):
                vec[krows] = kc
                vec[rows] = (vec[rows] - kc[at] * c) % self.p
            self.replace(k, tab, block)

    def replace(self, k, tab, block):
        """Swap element k for the block on tab, which has the same lead.

        Leaves the block zero.
        """
        rows, coeffs = self._take(block)
        self._put(k, tab.exps[rows], coeffs, tab.keys[rows])
        self._rows[k] = rows

    def polynomials(self, ranked):
        """Elements ``ranked`` as polynomials, one list per trial.

        Each trial's element keeps its own support: the terms where its
        coefficient is nonzero.
        """
        bases = [[] for _ in range(self.trials)]
        for k in ranked:
            exps, coeffs = self.exps[k], self.coeffs[k]
            shared = self.trials == 1 or coeffs.all()
            for basis, vec in zip(bases, coeffs):
                own = exps
                if not shared:
                    nonzero = vec != 0
                    own, vec = exps[nonzero], vec[nonzero]
                basis.append(Polynomial(own, vec, self.nvars, self.p,
                                        self.order, _presorted=True))
        return bases


# ---------------------------------------------------------------------------
# packed exponents
# ---------------------------------------------------------------------------

# bits per variable of a packed exponent
_FIELD_BITS = 12
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class _PackedExponents:
    """Exponent rows of one ring packed into Python ints, for pair updates.

    Variable x_i takes bits 12i to 12i + 11.  No exponent exceeds
    ``DEGREE_CAP`` = 255, so bit 11 of every field, its guard bit, is clear
    and (b | H) - a, with H the guard bits, subtracts field by field without
    a borrow: a field keeps its guard bit exactly where a_i <= b_i.  That is
    divisibility, and the lcm takes each field from the side those guard
    bits select.  Two monomials are coprime exactly when their lcm is their
    product, a + b.  The total degree is the top field of a times the ones
    in every field: that field sums all exponents, and with at most 8
    variables (the packed table keys allow no more) no field of the product
    reaches 8 * 255 < 2^12, so none carries.
    """

    __slots__ = ("shifts", "ones", "guard", "top", "weights")

    def __init__(self, nvars, order):
        self.shifts = tuple(range(0, _FIELD_BITS * nvars, _FIELD_BITS))
        self.ones = sum(1 << s for s in self.shifts)
        self.guard = self.ones << (_FIELD_BITS - 1)
        self.top = self.shifts[-1]
        self.weights = order.index_weights(nvars).tolist()

    def pack(self, exps):
        return sum(int(e) << s for e, s in zip(exps, self.shifts))

    def unpack(self, a):
        return tuple((a >> s) & _FIELD_MASK for s in self.shifts)

    def divides(self, a, b):
        """True when x^a divides x^b."""
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a, b):
        return self.lcms((a,), b)[0]

    def lcms(self, leads, h):
        """The lcm of h with each of ``leads``, as a list."""
        guard = self.guard
        # each field of the mask is all ones where a_i >= h_i
        return [h ^ ((a ^ h) & (((((a | guard) - h) & guard)
                                 >> (_FIELD_BITS - 1)) * _FIELD_MASK))
                for a in leads]

    def coprime(self, a, b):
        return self.lcm(a, b) == a + b

    def degree(self, a):
        return ((a * self.ones) >> self.top) & _FIELD_MASK

    def key(self, a):
        """Key of the monomial in its ``MonomialTable``."""
        return sum(w * ((a >> s) & _FIELD_MASK)
                   for w, s in zip(self.weights, self.shifts))


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _gm_update(pairs, leads, packed):
    """Gebauer-Moeller pair update for the newest lead, on packed exponents.

    ``leads`` are the packed leads in basis order; ``pairs`` maps (i, j),
    i < j, to the packed lcm of their leads, its degree and its table key.
    Installs both classical criteria: a waiting pair whose lcm the new lead
    divides, with a smaller lcm with each of its two leads, drops out.  Of
    the new pairs, one per lcm enters, and only for an lcm that no other
    new lcm divides, unless the new lead is coprime to one of that lcm's
    leads.  A distinct lcm that divides another has a lower degree, so the
    scan by degree keeps exactly the lcms no kept one divides.
    """
    # the divisibility and coprimality tests of ``_PackedExponents`` are
    # written out below: method calls made this update 40% slower
    guard = packed.guard
    m = len(leads) - 1
    h = leads[m]
    lcms = packed.lcms(leads[:m], h)
    for ij, (lcm, _, _) in list(pairs.items()):
        if (((lcm | guard) - h) & guard == guard
                and lcms[ij[0]] != lcm and lcms[ij[1]] != lcm):
            del pairs[ij]
    groups = {}
    for i, lcm in enumerate(lcms):
        groups.setdefault(lcm, []).append(i)
    kept = []
    for degree, lcm in sorted([(packed.degree(lcm), lcm) for lcm in groups]):
        shifted = lcm | guard
        for k in kept:
            if (shifted - k) & guard == guard:
                break
        else:
            kept.append(lcm)
            members = groups[lcm]
            if all(lcm != leads[i] + h for i in members):
                pairs[members[0], m] = (lcm, degree, packed.key(lcm))


def buchberger(ideal, order, hilbert=None):
    """Reduced Groebner basis of an ``Ideal`` under a graded order.

    ``Ideal`` has already checked that its generators are nonzero,
    homogeneous and in one ring; the zero ideal raises
    ``ZeroPolynomialError``.  Deterministic for a fixed generator sequence;
    the reduced result is unique per (ideal, order) regardless of generator
    presentation.

    The run is one loop over degrees, lowest first, visiting each degree
    that has a waiting generator or pair.  A degree reduces its generators,
    in input order, then its S-pairs, sorted once by (order key of the lcm,
    i, j); within a degree the order key ascends as the lcm's table key
    descends, and the pair queue holds the table key.  A degree's pairs are
    fixed when it starts.  Each new element h of degree d is fully reduced,
    so no older lead divides lm(h).  Every pair it makes therefore has lcm
    degree above d.  The Gebauer-Moeller update drops a waiting pair (i, j)
    only if lm(h) divides its lcm; at lcm degree d that makes lm(h) the lcm,
    which lead i divides, so it cannot happen.  And h clears its lead only
    from elements of degree d.  So each degree-d S-pair reduces the same two
    polynomials as it would if the lowest (degree, order key, i, j) pair
    were selected one at a time.  Elements arrive in nondecreasing degree,
    and the basis is reduced after every insertion (see the module
    docstring); there is no final interreduction.

    The elements live in the backend as table rows, keys and coefficients
    while the run lasts, and become polynomials only in the result; the
    pair queue and its update work on packed exponents
    (``_PackedExponents``).  This is ``buchberger_trials`` with one trial.

    ``hilbert``, when given, is the Hilbert function d -> dim (R/I)_d of the
    ideal; it prunes pairs and generators (see the module docstring) without
    changing the result.  A Hilbert function that the leading monomials
    contradict -- more of them in some degree than it allows, or fewer once
    every pair and generator of that degree is done -- raises
    ``InvariantError``.  Only visited degrees are checked: a degree with
    no waiting generator or pair is never compared with it.
    """
    return _buchberger_run([ideal], order, hilbert)[0]


def buchberger_trials(ideals, order, hilbert=None):
    """``[buchberger(I, order, hilbert) for I in ideals]``, run in lockstep.

    Meant for the trials of a gin: images of one ideal under random
    coordinate changes.  In generic coordinates they have the same initial
    ideal, and their Buchberger runs make the same pairs, reductions and
    leads on different coefficients, so one run serves them all (see the
    module docstring).  Ideals that differ in ring or in the degree of some
    generator, and trials that part during the run, are computed one at a
    time by the same engine.  Either way the result, every count and any
    error are those of the separate runs.
    """
    ideals = list(ideals)
    if len(ideals) > 1 and _same_shape(ideals):
        bases = _buchberger_run(ideals, order, hilbert)
        if bases is not None:
            return bases
    return [_buchberger_run([ideal], order, hilbert)[0] for ideal in ideals]


def _same_shape(ideals):
    """True when the ideals share a ring and their generators' degrees."""
    first = ideals[0]
    degrees = [g.degree for g in first.generators]
    return all(ideal.nvars == first.nvars and ideal.p == first.p
               and [g.degree for g in ideal.generators] == degrees
               for ideal in ideals[1:])


def _buchberger_run(ideals, order, hilbert):
    """The engine: reduced bases of ideals of one shape, one per trial.

    Returns None when the trials part: some reduction leaves different
    leading rows, or zero in some trials only.  One trial never parts.
    """
    first = ideals[0]
    if first.is_zero:
        raise ZeroPolynomialError("the zero ideal has no generators")
    nvars, p = first.nvars, first.p
    trials = len(ideals)
    waiting = {}
    # one job per generator position: its polynomial in every trial
    for gens in zip(*(ideal.generators for ideal in ideals)):
        waiting.setdefault(gens[0].degree, []).append(gens)
    backend = _DenseBackend(nvars, p, order, trials=trials)
    packed = _PackedExponents(nvars, order)
    leads = []
    pairs = {}
    n_reduced = n_zero = n_pruned = 0
    while waiting or pairs:
        degree = min([*waiting, *(val[1] for val in pairs.values())])
        ranked = sorted((-val[2], ij) for ij, val in pairs.items()
                        if val[1] == degree)
        # (None, generators) first, then ((i, j), lcm table key) per S-pair
        jobs = [(None, gens) for gens in waiting.pop(degree, [])]
        jobs += [(ij, pairs.pop(ij)[2]) for _, ij in ranked]
        mask = backend.begin_degree(degree)
        tab = table_for(nvars, degree, order)
        if hilbert is not None:
            # degree-d leading monomials still to be found
            missing = len(mask) - int(np.count_nonzero(mask)) - hilbert(degree)
            if missing < 0:
                raise InvariantError(
                    f"Hilbert function contradicted: it predicts "
                    f"{hilbert(degree)} standard monomials in degree "
                    f"{degree}, but the leading monomials leave only "
                    f"{hilbert(degree) + missing}")
        for at, (ij, item) in enumerate(jobs):
            if hilbert is not None and missing == 0:
                # every job left reduces to zero; only pairs count as pruned
                n_pruned += sum(k is not None for k, _ in jobs[at:])
                break
            if ij is None:
                rows, coeffs = backend.reduce_terms(tab, item)
            else:
                n_reduced += 1
                rows, coeffs = backend.spoly_reduce(tab, ij[0], ij[1], item)
            if not rows.size:
                n_zero += ij is not None
                continue
            if trials > 1 and not coeffs[:, 0].all():
                return None
            lead = backend.insert(tab, rows, coeffs)
            leads.append(packed.pack(lead.tolist()))
            _gm_update(pairs, leads, packed)
            if hilbert is not None:
                missing -= 1
        if hilbert is not None and missing > 0:
            raise InvariantError(
                f"Hilbert function contradicted in degree {degree}: every "
                f"pair and generator is done, and {missing} of the leading "
                f"monomials it predicts are still missing")

    # the leads are distinct, so sorting them orders the elements
    return [GroebnerBasis(elements, order, nvars, p,
                          pairs_reduced=n_reduced,
                          reductions_to_zero=n_zero, pairs_pruned=n_pruned)
            for elements in backend.polynomials(
                order.descending(backend.leads).tolist())]


def is_groebner_basis(gb):
    """Buchberger criterion self-check: every S-polynomial reduces to zero."""
    backend = _DenseBackend(gb.nvars, gb.p, gb.order, gb.elements)
    leads = backend.leads
    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            lcm = np.maximum(leads[i], leads[j])
            tab = table_for(gb.nvars, int(lcm.sum()), gb.order)
            rows, _ = backend.spoly_reduce(tab, i, j,
                                           int(lcm @ backend.weights))
            if rows.size:
                return False
    return True


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def hilbert_function_macaulay(ideal, m):
    """dim (R/I)_m as (#degree-m monomials) - rank of the Macaulay matrix.

    The matrix has a row x^a * g_j for each generator g_j of degree at most
    m and each monomial x^a of degree m - deg g_j, and its rank over F_p is
    dim I_m.  Rows that the trivial syzygies g_i g_j = g_j g_i make
    redundant are left out, which is the Koszul case of Faugere's F5
    criterion (ISSAC 2002; Bardet-Faugere-Salvy, J. Symb. Comp. 70, 2015):
    the row x^a * g_j is dropped when the graded-lex lead of an earlier
    generator g_i, i < j, divides x^a.  Write x^a = lm(g_i) x^b and
    g_i = c lm(g_i) + sum_t c_t t with c != 0 and every t < lm(g_i).  Then
    x^b g_i g_j = x^b g_j g_i reads

        c (x^a * g_j) = sum_u g_j[u] (x^b u * g_i) - sum_t c_t (t x^b * g_j),

    u over the terms of g_j: rows of g_i and rows of g_j whose multipliers
    t x^b are below x^a.  By induction on j and then on x^a in the order,
    every dropped row is in the span of the kept ones, so the row space,
    and with it the rank, is that of the full matrix.

    The rows of the first generator that enters, g_1, are pivots before any
    elimination, as in the pivot/non-pivot split of Faugere's F4 (JPAA 139,
    1999): the rule above drops none of them, and their leads x^a lm(g_1)
    are distinct.  Scale them monic, so that they form a block A = [T | A2]
    of k rows, T on the k lead columns and A2 on the others; in multiplier
    order, which is lead column order, T = I + N with N strictly upper
    triangular, hence nilpotent.  The other rows form B = [B1 | B2] on the
    same columns.  Subtracting Y A from B, with Y = B1 T^-1, clears B1 and
    leaves the row space alone, and T is invertible, so

        rank [A; B] = rank [T, A2; 0, S] = k + rank S,   S = B2 - Y A2,

    and only S goes to ``_kernels.rank_mod``.  Y is the unique solution of
    Y (I + N) = B1, the fixed point of Y -> B1 - Y N.  From Y = B1 the
    t-th iterate is B1 (I - N + ... + (-N)^t); it equals the next one once
    B1 N^(t+1) = 0, at the latest when N^(t+1) = 0, and is then that fixed
    point.  So the loop takes at most as many products Y N as the
    nilpotency index of N, the last of which sees no change, and none per
    pivot.  Only N changes the iterate, so the loop multiplies by the k x k
    block N alone, and one more product, Y A2 with the fixed point, forms
    S; each is ``_kernels.matmul_mod``.

    A pruned matrix of more than ``poly._MACAULAY_CELL_CAP`` cells raises
    ``ConfigurationError`` before anything of its size is allocated.

    Independent of the monomial/initial-ideal count on purpose: the two
    implementations serve as each other's oracle.  So it reads neither the
    Buchberger engine nor a gin, only the generators, the monomial tables
    and ``_kernels``.
    """
    if m < 0:
        return 0
    tab = table_for(ideal.nvars, m, GLEX)
    ncols = len(tab)
    blocks = []
    # the graded-lex leads of the generators taken so far
    leads = np.empty((len(ideal.generators), ideal.nvars), dtype=np.int64)
    total = 0
    for g in ideal.generators:
        # a generator is homogeneous, so its first term has its degree
        d = int(g.exps[0].sum())
        if d > m:
            continue
        mu = table_for(ideal.nvars, m - d, GLEX).exps
        if blocks:
            earlier = leads[None, :len(blocks)]
            mu = mu[~(mu[:, None] >= earlier).all(axis=2).any(axis=1)]
        # keys ascend as graded-lex monomials descend
        lead = (g.exps @ tab.weights).argmin()
        leads[len(blocks)] = g.exps[lead]
        blocks.append((tab.product_rows(mu, g.exps), g.coeffs, lead))
        total += len(mu)
    if total == 0:
        return ncols
    if total * ncols > poly._MACAULAY_CELL_CAP:
        raise ConfigurationError(
            f"the degree-{m} Macaulay matrix is {total} x {ncols}, "
            f"{total * ncols * 8} bytes of int64, over the cap of "
            f"{poly._MACAULAY_CELL_CAP} cells")
    p = ideal.p
    (pos, coeffs, lead), rest = blocks[0], blocks[1:]
    k = pos.shape[0]
    other = total - k
    if other == 0 or k == ncols:
        return ncols - k
    # the lead columns first, in multiplier order; the rest after them
    lead_cols = pos[:, lead]
    free = np.ones(ncols, dtype=bool)
    free[lead_cols] = False
    place = np.empty(ncols, dtype=np.intp)
    place[np.concatenate((lead_cols, free.nonzero()[0]))] = np.arange(ncols)
    # A monic, with its unit diagonal cleared: [N | A2]
    tails = np.zeros((k, ncols), dtype=np.int64)
    monic = coeffs * pow(int(coeffs[lead]), p - 2, p) % p
    monic[lead] = 0
    tails[np.arange(k)[:, None], place[pos]] = monic
    below = np.zeros((other, ncols), dtype=np.int64)
    row = 0
    for pos, coeffs, _ in rest:
        nrows = pos.shape[0]
        below[np.arange(row, row + nrows)[:, None], place[pos]] = coeffs
        row += nrows
    b1 = below[:, :k]
    nil = tails[:, :k]
    y = b1
    while True:
        step = b1 - _kernels.matmul_mod(y, nil, p)
        step %= p
        if np.array_equal(step, y):
            break
        y = step
    product = _kernels.matmul_mod(y, tails[:, k:], p)
    rank = int(_kernels.rank_mod(below[:, k:] - product, p))
    return ncols - k - rank


# ---------------------------------------------------------------------------
# intersections and colon ideals
# ---------------------------------------------------------------------------

def _lift(f, nvars):
    """f in R = F[x0..x(n-1)] as an element of R[t, s] = F[t, x0..x(n-1), s]."""
    return Polynomial.from_terms(
        (((0,) + e + (0,), c) for e, c in f.terms()), nvars + 2, f.p, GLEX)


def intersect(I, J):
    """I cap J of homogeneous ideals, by eliminating t from a graded-lex basis.

    K = t*I + (s - t)*J in R[t, s] is homogeneous, and setting s = 1 gives
    the classical t*I + (1 - t)*J, whose t-free part is I cap J.  With t the
    first variable, a homogeneous element whose graded-lex leading monomial
    is free of t is free of t altogether, so the t-free elements of the
    reduced basis generate K cap R[s].  K is also homogeneous in (t, s)
    alone, so each of those elements is s^k * h with h in R, and the h
    generate I cap J.
    """
    if I.nvars != J.nvars or I.p != J.p:
        raise RingMismatchError("ideals live in different rings")
    if I.is_zero or J.is_zero:
        return Ideal([], I.nvars, I.p)
    p, nvars = I.p, I.nvars
    t = unit_exponent(nvars + 2, 0)
    s = unit_exponent(nvars + 2, nvars + 1)
    gens = [_lift(f, nvars).mul_term(1, t) for f in I.generators]
    for g in J.generators:
        lifted = _lift(g, nvars)
        gens.append(lifted.mul_term(1, s) - lifted.mul_term(1, t))
    return Ideal([
        Polynomial.from_terms(
            zip(map(tuple, e.exps[:, 1:-1].tolist()), e.coeffs.tolist()),
            nvars, p, GLEX)
        for e in buchberger(Ideal(gens, nvars + 2, p), GLEX).elements
        if not e.exps[:, 0].any()
    ], nvars, p)


def ideal_quotient(I, f):
    """(I : f) via intersection with (f) followed by exact division."""
    if f.is_zero:
        raise ZeroPolynomialError("colon by the zero polynomial")
    if not f.is_homogeneous:
        raise GincomplexError("colon divisor must be homogeneous")
    if f.degree == 0:
        return I
    if I.is_zero:
        return I
    inter = intersect(I, Ideal([f], I.nvars, I.p))
    gens = [exact_divide(h, f) for h in inter.generators]
    return Ideal([g for g in gens if not g.is_zero], I.nvars, I.p)


def ideals_equal(I, J):
    """Equality as equality of the reduced grevlex bases, unique per ideal."""
    if I.nvars != J.nvars or I.p != J.p:
        raise RingMismatchError("ideals live in different rings")
    if I.is_zero or J.is_zero:
        return I.is_zero and J.is_zero
    return list(buchberger(I, GREVLEX)) == list(buchberger(J, GREVLEX))
