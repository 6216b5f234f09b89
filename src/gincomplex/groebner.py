"""Buchberger engine and normal forms on one dense reduction path, plus
monomial-ideal queries, Hilbert functions and colon/intersection.

The engine keeps the classical shape: normal pair selection (lowest lcm
degree first, ties broken by the order on the lcm, then by pair index) and
the two Buchberger criteria, installed Gebauer-Moeller style at pair-update
time.  Determinism matters more than raw speed here, so both the selection
rule and the reducer order are fixed.

Every ideal is homogeneous and both orders are graded, so there is one
reduction path: each reduction is a forward scan over one dense degree
slice, with the inner multiply-accumulate in a numpy kernel.  The scan
visits only rows that some reducer lead divides.  The backend chains that
mask over the degrees: a monomial of degree d is divisible by a lead iff it
is a lead or x_i times a divisible monomial of degree d - 1, so each
degree's mask is the one below gathered through the table's successor map,
plus that degree's leads (see ``_ChainedCover``).
``normal_form`` divides by any list of homogeneous reducers on the same
path, one homogeneous component at a time.

Generators wait in a queue by degree and enter at their own degree, before
that degree's pairs, so elements arrive in nondecreasing degree and each
arrives fully reduced.  A new lead then divides no older lead, and it can
occur only in the tails of the elements of its own degree; one same-slice
subtraction clears it from each.  The basis is thus reduced after every
insertion -- the reduced echelon form of each degree is kept as it grows
(compare Faugere's F4, JPAA 139, 1999) -- and no interreduction runs at
the end.

Given the Hilbert function d -> dim (R/I)_d, which depends on neither the
coordinates nor the term order, ``buchberger`` also applies Traverso's
Hilbert-driven criterion (Traverso, *Hilbert functions and the Buchberger
algorithm*, J. Symb. Comp. 22, 1996).  Pairs come in nondecreasing lcm
degree and a fully reduced element of degree d only makes pairs of higher
degree, so once the leading monomials span as many degree-d monomials as
I_d has dimensions, every pair and generator still waiting at degree d
reduces to zero and is dropped unreduced.  The reductions that do run, and
so the reduced basis, are exactly those of the run without the Hilbert
function.

Intersections and colon ideals reuse that engine: a graded-lex basis in two
extra variables eliminates one of them (see ``intersect``).  Ideal equality
needs no membership test: a reduced basis is unique per ideal and order.
"""

import math

import numpy as np

from . import _kernels
from .errors import GincomplexError, RingMismatchError, ZeroPolynomialError
from .poly import (
    GLEX,
    GREVLEX,
    Ideal,
    Polynomial,
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

    The ideal is immutable, so it keeps the chained graded-lex masks of the
    monomials it contains (``_ChainedCover``) once a query has built them;
    the Hilbert function and the Borel test share them.
    """

    __slots__ = ("nvars", "gens", "_cover")

    def __init__(self, monomials, nvars):
        mons = sorted({tuple(int(v) for v in m) for m in monomials},
                      key=lambda m: (sum(m), m))
        minimal = []
        for m in mons:
            if len(m) != nvars:
                raise RingMismatchError("monomial length != nvars")
            if not any(monomial_divides(g, m) for g in minimal):
                minimal.append(m)
        self.nvars = nvars
        self.gens = tuple(sorted(minimal, key=GLEX.key, reverse=True))
        self._cover = None

    @property
    def is_zero(self):
        return not self.gens

    def minimal_generators(self, order=GLEX):
        return sorted(self.gens, key=order.key, reverse=True)

    def contains_monomial(self, m):
        m = tuple(m)
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

        A move keeps the degree, so each moved generator is one key lookup
        in the mask of its degree.
        """
        # with one variable there is nothing to swap
        if self.is_zero or self.nvars == 1:
            return True
        gens = np.array(self.gens, dtype=np.int64)
        weights = GLEX.index_weights(self.nvars)
        keys = gens @ weights
        degrees = gens.sum(axis=1)
        for degree in np.unique(degrees).tolist():
            at = degrees == degree
            moved = np.concatenate([
                keys[at & (gens[:, i] > 0)] - weights[i] + weights[j]
                for i in range(self.nvars) for j in range(i)])
            tab = table_for(self.nvars, degree, GLEX)
            if not self._covered(degree)[tab.positions(moved)].all():
                return False
        return True

    def regularity(self):
        """Maximal generator degree; only valid for Borel-fixed ideals."""
        if not self.is_borel_fixed():
            raise GincomplexError(
                "regularity via generator degrees needs a Borel-fixed ideal")
        return self.max_generator_degree()

    def hilbert_function(self, m):
        """dim over F of (R/this)_m, by counting standard monomials."""
        if m < 0:
            return 0
        # generators sort by degree first, so the last has the lowest
        if self.is_zero or m < sum(self.gens[-1]):
            return math.comb(m + self.nvars - 1, self.nvars - 1)
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

    A row of degree d is covered iff it is a lead or x_i times a covered row
    of degree d - 1.  The mask of a degree is built once, from the mask
    below it, by one gather through the lower table's successor map
    (``MonomialTable.successors``), and is kept.  The chain starts at the
    lowest lead degree; below it a mask is all False and nothing is built
    or kept.

    Asking for a degree chains every degree up to it, so by then each lead
    below it must be known.  A lead may still come at the highest chained
    degree, where it marks its own row, or above it, where it waits for the
    chain.  One below that degree would leave a kept mask stale, and rows
    it divides unreduced, so it raises ``GincomplexError``.
    """

    __slots__ = ("nvars", "order", "weights", "_masks", "_waiting", "_top")

    def __init__(self, nvars, order, leads=()):
        self.nvars = nvars
        self.order = order
        self.weights = order.index_weights(nvars)
        self._masks = {}
        # degree -> packed keys of the leads the chain has not reached
        self._waiting = {}
        self._top = -1
        for lead in leads:
            self.add(lead)

    def add(self, lead):
        """Mark the exponent row ``lead`` as a lead."""
        degree = int(sum(lead))
        key = int(np.asarray(lead, dtype=np.int64) @ self.weights)
        if degree > self._top:
            self._waiting.setdefault(degree, []).append(key)
        elif degree == self._top:
            tab = table_for(self.nvars, degree, self.order)
            self._masks[degree][tab.positions(key)] = True
        else:
            raise GincomplexError(
                f"internal: a lead of degree {degree} arrived after the "
                f"cover was chained to degree {self._top}")

    def mask(self, degree):
        """Boolean mask of the degree-``degree`` table rows a lead divides."""
        below = self._masks.get(self._top)
        for d in range(self._top + 1, degree + 1):
            waiting = self._waiting.pop(d, None)
            if below is None and waiting is None and d < degree:
                continue
            tab = table_for(self.nvars, d, self.order)
            mask = np.zeros(len(tab), dtype=bool)
            if below is not None:
                succ = table_for(self.nvars, d - 1, self.order).successors()
                mask[succ[below]] = True
            if waiting is not None:
                mask[tab.positions(np.array(waiting, dtype=np.int64))] = True
            self._masks[d] = below = mask
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
    exactly for a fixed input.
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
        return MonomialIdeal(self.leading_monomials(), self.nvars)

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
# reduction backends
# ---------------------------------------------------------------------------

class _DenseBackend:
    """Homogeneous reduction on dense degree slices via the packed kernel.

    The backend holds the reducers: a list that only grows, whose members
    may be replaced by others with the same leading monomial.  Per degree
    it keeps the mask of table rows some reducer lead divides, each chained
    from the mask of the degree below (``_ChainedCover``).  So once a
    degree's mask is used, no reducer may be added below that degree:
    ``buchberger`` adds its elements in nondecreasing degree, and
    ``normal_form`` and ``is_groebner_basis`` know every reducer up front.
    """

    def __init__(self, nvars, p, order, reducers=()):
        self.nvars = nvars
        self.p = p
        self.order = order
        self.weights = order.index_weights(nvars)
        self.reducers = list(reducers)
        self._pack = None
        self._cover = _ChainedCover(nvars, order,
                                    [r.exps[0] for r in self.reducers])

    def add(self, h):
        """Append the monic reducer h."""
        self.reducers.append(h)
        self._pack = None
        self._cover.add(h.exps[0])

    def replace(self, i, g):
        """Swap reducer i for g, which has the same leading monomial."""
        self.reducers[i] = g
        self._pack = None

    def covered(self, degree):
        """Rows of the degree table that some reducer lead divides."""
        return self._cover.mask(degree)

    def _packed(self):
        if self._pack is not None:
            return self._pack
        n = self.nvars
        reducers = self.reducers
        if reducers:
            lead_exps = np.array([r.exps[0] for r in reducers], dtype=np.int64)
            lead_keys = lead_exps @ self.weights
            bounds = np.zeros(len(reducers) + 1, dtype=np.int64)
            bounds[1:] = np.cumsum([r.num_terms - 1 for r in reducers])
            tail_keys = np.concatenate(
                [r.weighted_keys(self.weights)[1:] for r in reducers])
            tail_coeffs = np.concatenate([r.coeffs[1:] for r in reducers])
        else:
            lead_exps = np.zeros((0, n), dtype=np.int64)
            lead_keys = np.zeros(0, dtype=np.int64)
            tail_keys = np.zeros(0, dtype=np.int64)
            tail_coeffs = np.zeros(0, dtype=np.int64)
            bounds = np.zeros(1, dtype=np.int64)
        self._pack = (np.ascontiguousarray(lead_exps),
                      np.ascontiguousarray(lead_keys),
                      np.ascontiguousarray(tail_keys),
                      np.ascontiguousarray(tail_coeffs),
                      np.ascontiguousarray(bounds))
        return self._pack

    def _slice(self, f, tab):
        vec = np.zeros(len(tab), dtype=np.int64)
        vec[tab.positions(f.weighted_keys(self.weights))] = f.coeffs
        return vec

    def _poly(self, vec, tab):
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return None
        return Polynomial(tab.exps[nz].copy(), vec[nz].copy(), self.nvars,
                          self.p, self.order, _presorted=True)

    def _reduce_vec(self, degree, vec):
        tab = table_for(self.nvars, degree, self.order)
        _kernels.reduce_dense(vec, tab.exps, tab.keys, self.covered(degree),
                              *self._packed(), self.p)
        return self._poly(vec, tab)

    def reduce(self, f):
        """Full normal form of the homogeneous f, or None when it is zero."""
        if f.is_zero:
            return None
        tab = table_for(self.nvars, f.degree, self.order)
        return self._reduce_vec(f.degree, self._slice(f, tab))

    def spoly_reduce(self, fi, fj, lcm):
        """Full normal form of the monic S-polynomial of fi and fj at lcm."""
        degree = sum(lcm)
        tab = table_for(self.nvars, degree, self.order)
        lcm_key = int(np.array(lcm, dtype=np.int64) @ self.weights)
        vec = np.zeros(len(tab), dtype=np.int64)
        ki = lcm_key - int(fi.exps[0] @ self.weights)
        kj = lcm_key - int(fj.exps[0] @ self.weights)
        pos_i = tab.positions(fi.weighted_keys(self.weights) + ki)
        pos_j = tab.positions(fj.weighted_keys(self.weights) + kj)
        np.add.at(vec, pos_i, fi.coeffs)
        np.subtract.at(vec, pos_j, fj.coeffs)
        np.mod(vec, self.p, out=vec)
        return self._reduce_vec(degree, vec)

    def clear_lead(self, g, h):
        """g - c*h, c the coefficient of lm(h) in g (h monic, same degree).

        One subtraction on the shared degree slice; g itself when c is 0.
        """
        keys = g.weighted_keys(self.weights)
        key = int(h.exps[0] @ self.weights)
        at = int(np.searchsorted(keys, key))
        if at == keys.shape[0] or keys[at] != key:
            return g
        tab = table_for(self.nvars, g.degree, self.order)
        vec = self._slice(g, tab)
        pos = tab.positions(h.weighted_keys(self.weights))
        vec[pos] = (vec[pos] - int(g.coeffs[at]) * h.coeffs) % self.p
        return self._poly(vec, tab)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _gm_update(pairs, leads, order):
    """Gebauer-Moeller pair update for the newest basis element.

    Installs both classical criteria: coprime-lead pairs never enter, and
    pairs whose lcm strictly factors through the new lead drop out.
    """
    m = len(leads) - 1
    lmh = leads[m]
    for key in list(pairs):
        i, j = key
        lcm_ij = pairs[key][0]
        if (monomial_divides(lmh, lcm_ij)
                and monomial_lcm(leads[i], lmh) != lcm_ij
                and monomial_lcm(leads[j], lmh) != lcm_ij):
            del pairs[key]
    groups = {}
    for i in range(m):
        groups.setdefault(monomial_lcm(leads[i], lmh), []).append(i)
    kept = []
    for lcm in sorted(groups, key=order.key):
        if not any(monomial_divides(prev, lcm) for prev in kept):
            kept.append(lcm)
    for lcm in kept:
        members = groups[lcm]
        if any(monomial_lcm(leads[i], lmh) == monomial_mul(leads[i], lmh)
               for i in members):
            continue
        pairs[(min(members), m)] = (lcm, sum(lcm), order.key(lcm))


def _select_pair(pairs):
    best = None
    best_key = None
    for (i, j), (_, deg, okey) in pairs.items():
        cand = (deg, okey, i, j)
        if best_key is None or cand < best_key:
            best_key = cand
            best = (i, j)
    return best


def buchberger(ideal, order, hilbert=None):
    """Reduced Groebner basis of an ``Ideal`` under a graded order.

    ``Ideal`` has already checked that its generators are nonzero,
    homogeneous and in one ring; the zero ideal raises
    ``ZeroPolynomialError``.  Deterministic for a fixed generator sequence;
    the reduced result is unique per (ideal, order) regardless of generator
    presentation.  Generators wait in a queue sorted by degree, stable in
    input order, and each is reduced at its own degree, before that degree's
    pairs.  So elements arrive in nondecreasing degree, and the basis is
    reduced after every insertion (see the module docstring); there is no
    final interreduction.

    ``hilbert``, when given, is the Hilbert function d -> dim (R/I)_d of the
    ideal; it prunes pairs and generators (see the module docstring) without
    changing the result.  A Hilbert function that the leading monomials
    contradict -- more of them in some degree than it allows, or fewer once
    every pair and generator of that degree is done -- raises
    ``GincomplexError``.
    """
    if ideal.is_zero:
        raise ZeroPolynomialError("the zero ideal has no generators")
    nvars, p = ideal.nvars, ideal.p
    queue = sorted((g.with_order(order) for g in ideal.generators),
                   key=lambda g: g.degree)
    backend = _DenseBackend(nvars, p, order)
    basis = backend.reducers
    degrees = []
    leads = []
    pairs = {}

    def insert(h, deg):
        # h is fully reduced and no element has a higher degree, so lm(h)
        # can only occur in the tails of the elements of its own degree
        h = h.monic()
        k = len(basis) - 1
        while k >= 0 and degrees[k] == deg:
            backend.replace(k, backend.clear_lead(basis[k], h))
            k -= 1
        backend.add(h)
        degrees.append(deg)
        leads.append(h.leading_monomial())
        _gm_update(pairs, leads, order)

    def check_filled():
        if missing > 0:
            raise GincomplexError(
                f"Hilbert function contradicted in degree {degree}: every "
                f"pair and generator is done, and {missing} of the leading "
                f"monomials it predicts are still missing")

    # degree-d leading monomials still to be found, once degree d began
    degree, missing = None, 0
    n_reduced = n_zero = n_pruned = 0
    nxt = 0
    while nxt < len(queue) or pairs:
        pair = _select_pair(pairs) if pairs else None
        if nxt < len(queue) and (
                pair is None or queue[nxt].degree <= pairs[pair][1]):
            deg = queue[nxt].degree
            pair = None
        else:
            deg = pairs[pair][1]
        if hilbert is not None:
            if deg != degree:
                check_filled()
                degree = deg
                mask = backend.covered(deg)
                missing = len(mask) - int(mask.sum()) - hilbert(deg)
                if missing < 0:
                    raise GincomplexError(
                        f"Hilbert function contradicted: it predicts "
                        f"{hilbert(deg)} standard monomials in degree {deg}, "
                        f"but the leading monomials leave only "
                        f"{hilbert(deg) + missing}")
            if missing == 0:
                # every pair and generator of this degree reduces to zero;
                # only the pairs count as pruned
                done = [key for key, val in pairs.items() if val[1] == deg]
                for key in done:
                    del pairs[key]
                n_pruned += len(done)
                while nxt < len(queue) and queue[nxt].degree == deg:
                    nxt += 1
                continue
        if pair is None:
            r = backend.reduce(queue[nxt])
            nxt += 1
        else:
            i, j = pair
            lcm = pairs.pop(pair)[0]
            n_reduced += 1
            r = backend.spoly_reduce(basis[i], basis[j], lcm)
            if r is None:
                n_zero += 1
        if r is not None:
            # fully reduced: a new degree-deg leading monomial
            insert(r, deg)
            missing -= 1
    if hilbert is not None:
        check_filled()

    elements = sorted(basis, key=lambda g: order.key(g.leading_monomial()),
                      reverse=True)
    return GroebnerBasis(elements, order, nvars, p, pairs_reduced=n_reduced,
                         reductions_to_zero=n_zero, pairs_pruned=n_pruned)


def is_groebner_basis(gb):
    """Buchberger criterion self-check: every S-polynomial reduces to zero."""
    elems = list(gb.elements)
    backend = _DenseBackend(gb.nvars, gb.p, gb.order, elems)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            lcm = monomial_lcm(elems[i].leading_monomial(),
                               elems[j].leading_monomial())
            if backend.spoly_reduce(elems[i], elems[j], lcm) is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def hilbert_function_macaulay(ideal, m):
    """dim (R/I)_m as (#degree-m monomials) - rank of the Macaulay matrix.

    Independent of the monomial/initial-ideal count on purpose: the two
    implementations serve as each other's oracle.
    """
    if m < 0:
        return 0
    tab = table_for(ideal.nvars, m, GLEX)
    ncols = len(tab)
    blocks = []
    total = 0
    for g in ideal.generators:
        d = g.degree
        if d > m:
            continue
        mu = table_for(ideal.nvars, m - d, GLEX)
        gkeys = g.weighted_keys(tab.weights)
        pos = np.searchsorted(tab.keys, mu.keys[:, None] + gkeys[None, :])
        blocks.append((pos, g.coeffs))
        total += len(mu)
    if total == 0:
        return ncols
    mat = np.zeros((total, ncols), dtype=np.int64)
    row = 0
    for pos, coeffs in blocks:
        nrows = pos.shape[0]
        mat[np.arange(row, row + nrows)[:, None], pos] = coeffs[None, :]
        row += nrows
    rank = int(_kernels.rank_mod(mat, ideal.p))
    return ncols - rank


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
