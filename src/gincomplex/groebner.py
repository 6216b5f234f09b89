"""Buchberger engine, monomial-ideal queries, Hilbert functions, colon/intersection.

The engine keeps the classical shape: normal pair selection (lowest lcm
degree first, ties broken by the order on the lcm, then by pair index) and
the two Buchberger criteria, installed Gebauer-Moeller style at pair-update
time.  Determinism matters more than raw speed here, so both the selection
rule and the reducer order are fixed.

Every ideal is homogeneous and both orders are graded, so there is one
reduction path: each reduction is a forward scan over one dense degree
slice, with the inner multiply-accumulate in a numpy kernel.
Intersections and colon ideals reuse that engine: a graded-lex basis in two
extra variables eliminates one of them (see ``intersect``).
"""

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
    """Minimal monomial generators, an antichain under divisibility."""

    __slots__ = ("nvars", "gens")

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

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_full(self):
        return self.gens == ((0,) * self.nvars,)

    def minimal_generators(self, order=GLEX):
        return sorted(self.gens, key=order.key, reverse=True)

    def contains_monomial(self, m):
        m = tuple(m)
        return any(monomial_divides(g, m) for g in self.gens)

    def max_generator_degree(self):
        if self.is_zero:
            return 0
        return max(sum(g) for g in self.gens)

    def is_borel_fixed(self):
        """Closed under swapping a dividing variable for any earlier one."""
        for g in self.gens:
            for i in range(self.nvars):
                if g[i] == 0:
                    continue
                for j in range(i):
                    moved = list(g)
                    moved[i] -= 1
                    moved[j] += 1
                    if not self.contains_monomial(moved):
                        return False
        return True

    def regularity(self):
        """Maximal generator degree; only valid for Borel-fixed ideals."""
        if not self.is_borel_fixed():
            raise GincomplexError(
                "regularity via generator degrees needs a Borel-fixed ideal")
        return self.max_generator_degree()

    def hilbert_function(self, m):
        """dim over F of (R/this)_m, by enumerating standard monomials."""
        if m < 0:
            return 0
        tab = table_for(self.nvars, m, GLEX)
        if self.is_zero:
            return len(tab)
        mask = np.zeros(len(tab), dtype=bool)
        for g in self.gens:
            if sum(g) > m:
                continue
            mask |= np.all(tab.exps >= np.array(g, dtype=np.int64), axis=1)
        return int(len(tab) - mask.sum())

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal<{len(self.gens)} gens, {self.nvars} vars>"


# ---------------------------------------------------------------------------
# Groebner basis container
# ---------------------------------------------------------------------------

class GroebnerBasis:
    __slots__ = ("elements", "order", "nvars", "p", "reduced")

    def __init__(self, elements, order, nvars, p, reduced=True):
        self.elements = tuple(elements)
        self.order = order
        self.nvars = nvars
        self.p = p
        self.reduced = reduced

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.elements]

    def initial_ideal(self):
        if not self.reduced:
            raise GincomplexError("initial ideal requires a reduced basis")
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
# sparse division
# ---------------------------------------------------------------------------

def _as_dict(f):
    return dict(zip(map(tuple, f.exps.tolist()), f.coeffs.tolist()))


def normal_form(f, reducers, order=None):
    """Remainder of f on division by the reducers (full tail reduction).

    No term of the result is divisible by any reducer leading monomial, and
    f minus the result lies in the ideal the reducers generate.  A zero
    result is the membership signal.
    """
    order = order if order is not None else f.order
    f = f.with_order(order)
    reds = [(r.with_order(order)) for r in reducers if not r.is_zero]
    if f.is_zero or not reds:
        return f
    p = f.p
    lead = [(r.leading_monomial(), r.leading_coeff(), r.terms()) for r in reds]
    work = _as_dict(f)
    out = {}
    while work:
        lm = max(work, key=order.key)
        c = work.pop(lm)
        hit = None
        for lmr, lcr, terms in lead:
            if monomial_divides(lmr, lm):
                hit = (lmr, lcr, terms)
                break
        if hit is None:
            out[lm] = c
            continue
        lmr, lcr, terms = hit
        shift = tuple(a - b for a, b in zip(lm, lmr))
        factor = (c * pow(lcr, p - 2, p)) % p
        for e, cf in terms[1:]:
            key = monomial_mul(e, shift)
            val = (work.get(key, 0) - factor * cf) % p
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    return Polynomial.from_terms(out.items(), f.nvars, p, order)


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
    work = _as_dict(h)
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
    """Homogeneous reduction on dense degree slices via the packed kernel."""

    def __init__(self, nvars, p, order):
        self.nvars = nvars
        self.p = p
        self.order = order
        self.weights = order.index_weights(nvars)
        self._pack = None
        self._pack_stamp = None

    def _packed(self, reducers, stamp=None):
        if stamp is not None and stamp == self._pack_stamp:
            return self._pack
        n = self.nvars
        if reducers:
            lead_exps = np.array([r.exps[0] for r in reducers], dtype=np.int64)
            lead_keys = lead_exps @ self.weights
            tails_e = [r.exps[1:] for r in reducers]
            tails_c = [r.coeffs[1:] for r in reducers]
            bounds = np.zeros(len(reducers) + 1, dtype=np.int64)
            bounds[1:] = np.cumsum([t.shape[0] for t in tails_e])
            tail_exps = (np.vstack(tails_e) if tails_e
                         else np.zeros((0, n), dtype=np.int64))
            tail_keys = tail_exps @ self.weights
            tail_coeffs = (np.concatenate(tails_c) if tails_c
                           else np.zeros(0, dtype=np.int64))
        else:
            lead_exps = np.zeros((0, n), dtype=np.int64)
            lead_keys = np.zeros(0, dtype=np.int64)
            tail_keys = np.zeros(0, dtype=np.int64)
            tail_coeffs = np.zeros(0, dtype=np.int64)
            bounds = np.zeros(1, dtype=np.int64)
        pack = (np.ascontiguousarray(lead_exps),
                np.ascontiguousarray(lead_keys),
                np.ascontiguousarray(tail_keys),
                np.ascontiguousarray(tail_coeffs),
                np.ascontiguousarray(bounds))
        if stamp is not None:
            self._pack = pack
            self._pack_stamp = stamp
        return pack

    def _reduce_vec(self, degree, vec, reducers, stamp):
        tab = table_for(self.nvars, degree, self.order)
        lead_exps, lead_keys, tail_keys, tail_coeffs, bounds = self._packed(
            reducers, stamp)
        _kernels.reduce_dense(vec, tab.exps, tab.keys, lead_exps, lead_keys,
                              tail_keys, tail_coeffs, bounds, self.p)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return None
        return Polynomial(tab.exps[nz].copy(), vec[nz].copy(), self.nvars,
                          self.p, self.order, _presorted=True)

    def reduce(self, f, reducers, stamp=None):
        if f.is_zero:
            return None
        degree = f.degree
        tab = table_for(self.nvars, degree, self.order)
        vec = np.zeros(len(tab), dtype=np.int64)
        pos = tab.positions(f.weighted_keys(self.weights))
        np.add.at(vec, pos, f.coeffs)
        np.mod(vec, self.p, out=vec)
        return self._reduce_vec(degree, vec, reducers, stamp)

    def spoly_reduce(self, fi, fj, lcm, reducers, stamp=None):
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
        return self._reduce_vec(degree, vec, reducers, stamp)


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


def buchberger(source, order):
    """Reduced Groebner basis of homogeneous generators under a graded order.

    Deterministic for a fixed input sequence; the reduced result is unique
    per (ideal, order) regardless of generator presentation.
    """
    if isinstance(source, Ideal):
        gens = list(source.generators)
        nvars, p = source.nvars, source.p
    else:
        gens = [g for g in source]
        if not gens:
            raise ZeroPolynomialError("no generators given")
        nvars, p = gens[0].nvars, gens[0].p
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ZeroPolynomialError("all generators are zero")
    for g in gens:
        if g.nvars != nvars or g.p != p:
            raise RingMismatchError("generators live in different rings")
        if not g.is_homogeneous:
            raise GincomplexError("inhomogeneous generator; Buchberger "
                                  "requires homogeneous input")
    gens = [g.with_order(order) for g in gens]
    backend = _DenseBackend(nvars, p, order)

    basis = []
    leads = []
    alive = []
    pairs = {}
    stamp = 0

    def reducers():
        return [basis[i] for i in alive]

    def insert(h):
        nonlocal stamp
        h = h.monic()
        lm = h.leading_monomial()
        basis.append(h)
        leads.append(lm)
        _gm_update(pairs, leads, order)
        for i in list(alive):
            if monomial_divides(lm, leads[i]):
                alive.remove(i)
        alive.append(len(basis) - 1)
        stamp += 1

    for g in gens:
        r = backend.reduce(g, reducers(), stamp)
        if r is not None:
            insert(r)
    while pairs:
        i, j = _select_pair(pairs)
        lcm, _, _ = pairs.pop((i, j))
        r = backend.spoly_reduce(basis[i], basis[j], lcm, reducers(), stamp)
        if r is not None:
            insert(r)

    # minimal basis, then one full interreduction pass (leads are final, so
    # a single pass in any order yields the reduced basis)
    kept = sorted(alive, key=lambda i: order.key(leads[i]))
    final = {}
    for i in kept:
        others = [basis[j] if j not in final else final[j]
                  for j in kept if j != i]
        r = backend.reduce(basis[i], others)
        final[i] = r.monic()
    elements = sorted(final.values(),
                      key=lambda g: order.key(g.leading_monomial()),
                      reverse=True)
    return GroebnerBasis(elements, order, nvars, p, reduced=True)


def is_groebner_basis(gb):
    """Buchberger criterion self-check: every S-polynomial reduces to zero."""
    elems = list(gb.elements)
    backend = _DenseBackend(gb.nvars, gb.p, gb.order)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            lcm = monomial_lcm(elems[i].leading_monomial(),
                               elems[j].leading_monomial())
            r = backend.spoly_reduce(elems[i], elems[j], lcm, elems, stamp=1)
            if r is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def hilbert_function_macaulay(source, m):
    """dim (R/I)_m as (#degree-m monomials) - rank of the Macaulay matrix.

    Independent of the monomial/initial-ideal count on purpose: the two
    implementations serve as each other's oracle.
    """
    if isinstance(source, Ideal):
        gens, nvars, p = source.generators, source.nvars, source.p
    else:
        gens = list(source)
        if not gens:
            raise ZeroPolynomialError("need ring data; pass an Ideal")
        nvars, p = gens[0].nvars, gens[0].p
    if m < 0:
        return 0
    tab = table_for(nvars, m, GLEX)
    ncols = len(tab)
    blocks = []
    total = 0
    for g in gens:
        if not g.is_homogeneous:
            raise GincomplexError("Macaulay count needs homogeneous generators")
        d = g.degree
        if d > m:
            continue
        mu = table_for(nvars, m - d, GLEX)
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
    rank = int(_kernels.rank_mod(mat, p))
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
        for e in buchberger(gens, GLEX).elements if not e.exps[:, 0].any()
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
    """Equality by mutual membership against each other's reduced basis."""
    if I.nvars != J.nvars or I.p != J.p:
        raise RingMismatchError("ideals live in different rings")
    if I.is_zero or J.is_zero:
        return I.is_zero and J.is_zero
    gb_i = buchberger(I, GREVLEX)
    gb_j = buchberger(J, GREVLEX)
    return (all(gb_j.normal_form(g).is_zero for g in I.generators)
            and all(gb_i.normal_form(h).is_zero for h in J.generators))
