import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rank_mod_loop
from gincomplex import _kernels
from gincomplex import poly as poly_module
from gincomplex.corpus import (
    golden_monomial_ideal,
    remark_counterexample,
    scroll,
)
from gincomplex.errors import (
    ConfigurationError,
    GincomplexError,
    InvariantError,
    RingMismatchError,
    ZeroPolynomialError,
)
from gincomplex.gin import (
    is_saturated,
    random_change,
    reduced_grevlex,
    saturate_irrelevant,
)
from gincomplex import groebner as groebner_module
from gincomplex.groebner import (
    MonomialIdeal,
    _ChainedCover,
    _DenseBackend,
    _PackedExponents,
    _gm_update,
    buchberger,
    buchberger_trials,
    hilbert_function_macaulay,
    ideal_quotient,
    ideals_equal,
    intersect,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from gincomplex.pei import MODE_EQUAL, partial_elimination
from gincomplex.poly import (
    DEGREE_CAP,
    GLEX,
    GREVLEX,
    Ideal,
    Polynomial,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    table_for,
)
from gincomplex.rng import SplitMix64

P = 32003


def poly(terms, nvars=5, p=P, order=GLEX):
    return Polynomial.from_terms(terms, nvars, p, order)


def mono(e, nvars=None, p=P):
    return Polynomial.monomial(e, len(e) if nvars is None else nvars, p, GLEX)


# -- normal form ---------------------------------------------------------------

def test_normal_form_self_reduction():
    g = poly([((2, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 1), -1)])
    assert normal_form(g, [g]).is_zero


def test_normal_form_one_step():
    f = poly([((2, 1, 0, 0, 0), 1)])
    g = poly([((2, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 1), -1)])
    assert normal_form(f, [g]) == poly([((0, 1, 1, 0, 1), 1)])


def test_normal_form_no_division():
    f = mono((0, 0, 0, 1, 0))
    reducers = [mono((0, 1, 0, 0, 0)), mono((0, 0, 1, 0, 0))]
    assert normal_form(f, reducers) == f


def _normal_form_reference(f, reducers, order=None):
    """Division on term dicts: the loop the dense ``normal_form`` replaced."""
    order = order if order is not None else f.order
    f = f.with_order(order)
    reds = [(r.with_order(order)) for r in reducers if not r.is_zero]
    if f.is_zero or not reds:
        return f
    p = f.p
    lead = [(r.leading_monomial(), r.leading_coeff(), r.terms()) for r in reds]
    work = dict(zip(map(tuple, f.exps.tolist()), f.coeffs.tolist()))
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


def _random_form(rng, nvars, degree, nterms, order, below=None, p=P):
    """Random homogeneous form mod p; with ``below``, every monomial is
    less."""
    rows = [tuple(int(v) for v in e)
            for e in table_for(nvars, degree, GLEX).exps]
    if below is not None:
        rows = [e for e in rows if order.key(e) < order.key(below)]
    if not rows:
        return Polynomial.zero(nvars, p, order)
    return Polynomial.from_terms(
        [(rows[rng.below(len(rows))], rng.field_nonzero(p))
         for _ in range(nterms)], nvars, p, order)


def _random_division_case(rng):
    """Non-Groebner, non-monic reducers, some sharing a lead, and an f that
    is inhomogeneous half the time, in 2 to 5 variables."""
    nvars = 2 + rng.below(4)
    order = (GLEX, GREVLEX)[rng.below(2)]
    reducers = []
    for _ in range(1 + rng.below(4)):
        tag = (GLEX, GREVLEX)[rng.below(2)]
        r = _random_form(rng, nvars, 1 + rng.below(3), 1 + rng.below(4), tag)
        reducers.append(r)
        if rng.below(3) == 0:
            lead = r.with_order(order).leading_monomial()
            same = Polynomial.monomial(lead, nvars, P, order,
                                       rng.field_nonzero(P))
            reducers.append(same + _random_form(
                rng, nvars, sum(lead), rng.below(3), order, below=lead))
    if rng.below(8) == 0:
        reducers.insert(rng.below(len(reducers) + 1),
                        Polynomial.zero(nvars, P))
    degrees = [2 + rng.below(4)]
    if rng.below(2):
        degrees += [rng.below(6) for _ in range(1 + rng.below(2))]
    f = Polynomial.zero(nvars, P, (GLEX, GREVLEX)[rng.below(2)])
    for d in degrees:
        f = f + _random_form(rng, nvars, d, 1 + rng.below(6), f.order)
    return f, reducers, order


def test_normal_form_matches_the_dict_division():
    rng = SplitMix64(20261018)
    inhomogeneous = shared_lead = 0
    for case in range(1000):
        f, reducers, order = _random_division_case(rng)
        inhomogeneous += not f.is_homogeneous
        leads = [r.with_order(order).leading_monomial()
                 for r in reducers if not r.is_zero]
        shared_lead += len(set(leads)) < len(leads)
        for o in (order, None):
            want = _normal_form_reference(f, reducers, o)
            got = normal_form(f, reducers, o)
            assert got.order is want.order, case
            assert got.terms() == want.terms(), case
    assert inhomogeneous > 300 and shared_lead > 300


@st.composite
def _division_cases(draw):
    """The cases of ``_random_division_case``, drawn by Hypothesis.

    Reducers are 1-4 non-monic forms of degree 1..3 in 1-4 variables, each
    in either order; some have a twin with the same lead in the division
    order and a lower tail, and sometimes a zero reducer sits among them.
    The dividend has 1-3 homogeneous components of degree 0..5.
    """
    nvars = draw(st.integers(1, 4))
    p = draw(st.sampled_from([7, 32003, 3037000493]))
    order = draw(st.sampled_from([GLEX, GREVLEX]))
    residue = st.integers(1, p - 1)

    def form(degree, tag, below=None):
        rows = [tuple(int(v) for v in e)
                for e in table_for(nvars, degree, GLEX).exps]
        if below is not None:
            rows = [e for e in rows if order.key(e) < order.key(below)]
        picked = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows \
            else []
        return Polynomial.from_terms([(e, draw(residue)) for e in picked],
                                     nvars, p, tag)

    reducers = []
    for _ in range(draw(st.integers(1, 4))):
        r = form(draw(st.integers(1, 3)), draw(st.sampled_from([GLEX,
                                                                 GREVLEX])))
        if r.is_zero:
            continue
        reducers.append(r)
        if draw(st.booleans()):
            lead = r.with_order(order).leading_monomial()
            reducers.append(Polynomial.monomial(lead, nvars, p, order,
                                                draw(residue))
                            + form(sum(lead), order, below=lead))
    if draw(st.integers(0, 7)) == 0:
        reducers.insert(draw(st.integers(0, len(reducers))),
                        Polynomial.zero(nvars, p))
    f = Polynomial.zero(nvars, p, draw(st.sampled_from([GLEX, GREVLEX])))
    for d in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)):
        f = f + form(d, f.order)
    return f, reducers, order


@settings(max_examples=200)
@given(_division_cases())
def test_normal_form_matches_the_dict_division_property(case):
    f, reducers, order = case
    for o in (order, None):
        want = _normal_form_reference(f, reducers, o)
        got = normal_form(f, reducers, o)
        assert got.order is want.order
        assert got.terms() == want.terms()


def test_normal_form_rejects_reducers_from_another_ring():
    # zip used to truncate the 4-variable exponents, and the mod-7
    # coefficients used to be read mod 32003
    f = poly([((2, 0, 0, 0, 0), 1), ((0, 0, 0, 1, 1), 3)])
    other_rings = [mono((1, 0, 0, 0)),
                   poly([((1, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0), 5)], p=7)]
    for reducer in other_rings:
        gb = buchberger(Ideal([reducer]), GLEX)
        for call in (lambda: normal_form(f, [reducer]),
                     lambda: gb.normal_form(f), lambda: gb.contains(f)):
            with pytest.raises(RingMismatchError):
                call()


def test_normal_form_rejects_inhomogeneous_reducers():
    f = mono((2, 0, 0))
    reducer = poly([((1, 0, 0), 1), ((0, 0, 0), 1)], nvars=3)
    with pytest.raises(GincomplexError, match="homogeneous"):
        normal_form(f, [reducer])


# -- buchberger ------------------------------------------------------------------

def test_principal_ideal_basis():
    f = poly([((2, 0, 0, 0, 0), 3), ((0, 0, 1, 0, 1), 5)])
    gb = buchberger(Ideal([f]), GLEX)
    assert len(gb.elements) == 1
    assert gb.elements[0] == f.monic()


def test_linear_ideal_reduced_basis():
    f = poly([((0, 1, 0, 0, 0), 1), ((0, 0, 1, 0, 0), -1)])
    g = poly([((0, 0, 1, 0, 0), 1), ((0, 0, 0, 1, 0), -1)])
    gb = buchberger(Ideal([f, g]), GLEX)
    want = {
        (((0, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 0), P - 1)),
        (((0, 0, 1, 0, 0), 1), ((0, 0, 0, 1, 0), P - 1)),
    }
    got = {tuple(e.terms()) for e in gb.elements}
    assert got == want
    assert gb.initial_ideal() == MonomialIdeal(
        [(0, 1, 0, 0, 0), (0, 0, 1, 0, 0)], 5)


def test_scroll_original_coordinates_initial_ideal():
    gb = buchberger(scroll(), GLEX)
    ini = gb.initial_ideal()
    for e in [(1, 0, 0, 1, 0), (1, 1, 0, 0, 0), (2, 0, 0, 0, 0)]:
        assert ini.contains_monomial(e)


def test_empty_generators_rejected():
    with pytest.raises(ZeroPolynomialError):
        buchberger(Ideal([], 5, P), GLEX)
    with pytest.raises(ZeroPolynomialError):
        buchberger(Ideal([Polynomial.zero(5, P)]), GLEX)


def _random_small_ideal(rng, nvars=3, ngens=3, maxdeg=3):
    tabs = {d: table_for(nvars, d, GLEX) for d in range(1, maxdeg + 1)}
    gens = []
    for _ in range(ngens):
        d = 1 + rng.below(maxdeg)
        tab = tabs[d]
        rows = {rng.below(len(tab)) for _ in range(1 + rng.below(3))}
        gens.append(Polynomial.from_terms(
            [(tuple(tab.exps[r]), rng.field_nonzero(P)) for r in rows],
            nvars, P, GLEX))
    return gens


def test_reduced_basis_invariants():
    rng = SplitMix64(77)
    for _ in range(50):
        gens = _random_small_ideal(rng)
        gb = buchberger(Ideal(gens), GLEX)
        leads = [g.leading_monomial() for g in gb.elements]
        for g in gb.elements:
            assert g.leading_coeff() == 1
        for a, b in itertools.permutations(leads, 2):
            assert not all(x <= y for x, y in zip(a, b))
        for g in gb.elements:
            for e, _ in g.terms()[1:]:
                assert not any(all(x <= y for x, y in zip(lm, e))
                               for lm in leads)


def test_reduced_basis_unique_under_permutation():
    rng = SplitMix64(123)
    for _ in range(100):
        gens = _random_small_ideal(rng)
        gb1 = buchberger(Ideal(gens), GLEX)
        perm = list(gens)
        for i in range(len(perm) - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        gb2 = buchberger(Ideal(perm), GLEX)
        assert [tuple(e.terms()) for e in gb1.elements] == \
               [tuple(e.terms()) for e in gb2.elements]


def test_buchberger_criterion_self_check():
    gb = buchberger(scroll(), GLEX)
    assert is_groebner_basis(gb)
    rng = SplitMix64(11)
    for _ in range(20):
        gb = buchberger(Ideal(_random_small_ideal(rng)), GREVLEX)
        assert is_groebner_basis(gb)


# -- Hilbert-driven pair pruning -------------------------------------------------

def _moved_with_hilbert(ideal):
    """One random change of ``ideal`` and its Hilbert function, via grevlex."""
    moved = random_change(2024, ideal.nvars, ideal.p).apply_ideal(ideal)
    return moved, buchberger(moved, GREVLEX).initial_ideal().hilbert_function


def _counts(gb):
    return gb.pairs_reduced, gb.reductions_to_zero, gb.pairs_pruned


@pytest.mark.parametrize("name",
                         ["scroll", "ci22", "castelnuovo", "ci23", "acm4"])
def test_hilbert_driven_basis_equals_plain_basis(store, name):
    moved, hilbert = _moved_with_hilbert(store.ideal(name))
    plain = buchberger(moved, GLEX)
    driven = buchberger(moved, GLEX, hilbert=hilbert)
    assert [g.terms() for g in driven] == [g.terms() for g in plain]
    assert is_groebner_basis(driven)
    # same pair queue: each pair is reduced or pruned, and only pairs that
    # would reduce to zero are pruned
    assert plain.pairs_pruned == 0
    assert (driven.pairs_reduced + driven.pairs_pruned
            == plain.pairs_reduced)
    assert (driven.pairs_reduced - driven.reductions_to_zero
            == plain.pairs_reduced - plain.reductions_to_zero)
    if name == "acm4":
        assert driven.pairs_pruned > 0
        assert driven.reductions_to_zero < plain.reductions_to_zero


def _assert_reduced(gb):
    """Monic elements, and no term divisible by another element's lead.

    Checked on exponent tuples with ``monomial_divides``, apart from the
    kernel and the backend's masks.
    """
    leads = [g.leading_monomial() for g in gb]
    for k, g in enumerate(gb):
        assert g.leading_coeff() == 1
        for e, _ in g.terms():
            assert not any(monomial_divides(lead, e)
                           for i, lead in enumerate(leads) if i != k)


# (pairs_reduced, reductions_to_zero, pairs_pruned) of each corpus entry
# moved by _moved_with_hilbert, without and with its Hilbert function
GOLDEN_COUNTS = {
    ("scroll", "glex"): ((4, 3, 0), (1, 0, 3)),
    ("scroll", "grevlex"): ((2, 2, 0), (0, 0, 2)),
    ("ci22", "glex"): ((4, 2, 0), (2, 0, 2)),
    ("ci22", "grevlex"): ((2, 1, 0), (1, 0, 1)),
    ("castelnuovo", "glex"): ((9, 6, 0), (3, 0, 6)),
    ("castelnuovo", "grevlex"): ((2, 2, 0), (0, 0, 2)),
    ("ci23", "glex"): ((20, 13, 0), (7, 0, 13)),
    ("ci23", "grevlex"): ((2, 1, 0), (1, 0, 1)),
    ("acm4", "glex"): ((91, 66, 0), (26, 1, 65)),
    ("acm4", "grevlex"): ((2, 2, 0), (0, 0, 2)),
}


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
@pytest.mark.parametrize("name",
                         ["scroll", "ci22", "castelnuovo", "ci23", "acm4"])
def test_basis_is_reduced(store, name, order):
    moved, hilbert = _moved_with_hilbert(store.ideal(name))
    counts = []
    for kwargs in ({}, {"hilbert": hilbert}):
        gb = buchberger(moved, order, **kwargs)
        _assert_reduced(gb)
        counts.append(_counts(gb))
    assert tuple(counts) == GOLDEN_COUNTS[name, order.name]


# the lcm of every S-pair reduced, in order, by the plain glex basis of
# each entry moved by _moved_with_hilbert
GOLDEN_PAIR_LCMS = {
    "castelnuovo": [
        (1, 2, 1, 0, 0), (2, 1, 1, 0, 0), (2, 2, 0, 0, 0), (1, 1, 1, 2, 0),
        (1, 2, 0, 2, 0), (2, 1, 0, 2, 0), (1, 1, 4, 0, 0), (1, 5, 0, 0, 0),
        (2, 0, 4, 0, 0),
    ],
    "ci23": [
        (2, 2, 0, 0, 0), (1, 2, 2, 0, 0), (2, 1, 2, 0, 0), (1, 1, 2, 2, 0),
        (1, 2, 1, 2, 0), (2, 1, 1, 2, 0), (1, 1, 1, 2, 2), (1, 1, 2, 1, 2),
        (1, 2, 1, 1, 2), (1, 6, 0, 0, 0), (2, 1, 1, 1, 2), (1, 1, 1, 1, 4),
        (1, 1, 2, 0, 4), (1, 1, 6, 0, 0), (1, 2, 1, 0, 4), (2, 0, 6, 0, 0),
        (2, 1, 1, 0, 4), (1, 1, 1, 6, 0), (1, 2, 0, 6, 0), (2, 1, 0, 6, 0),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAIR_LCMS))
def test_pair_reduction_sequence_is_pinned(store, monkeypatch, name):
    moved, _ = _moved_with_hilbert(store.ideal(name))
    seen = []
    spoly_reduce = _DenseBackend.spoly_reduce

    def recording(backend, tab, i, j, key):
        # the key is the table key of the two leads' lcm
        row = np.searchsorted(tab.keys, key)
        assert tab.keys[row] == key
        lcm = tab.exps[row]
        assert np.array_equal(lcm, np.maximum(backend.exps[i][0],
                                              backend.exps[j][0]))
        seen.append(tuple(int(v) for v in lcm))
        return spoly_reduce(backend, tab, i, j, key)

    monkeypatch.setattr(_DenseBackend, "spoly_reduce", recording)
    buchberger(moved, GLEX)
    assert seen == GOLDEN_PAIR_LCMS[name]


def _assert_backend_in_step(backend):
    """Leads, relative keys and tails match the stored terms.

    Each trial's coefficient row is checked as a 1D element of its own:
    monic, in [0, p), nonzero on its own support, and the tail row is that
    row without the lead.  Every stored term belongs to some trial.
    """
    exps, coeffs = backend.exps, backend.coeffs
    assert len(coeffs) == len(backend.keys) == len(backend.tails) == len(exps)
    want = np.array([e[0] for e in exps], dtype=np.int64)
    assert np.array_equal(backend.leads,
                          want.reshape(len(exps), backend.nvars))
    for e, c, rel, (tail_keys, tail_coeffs) in zip(
            exps, coeffs, backend.keys, backend.tails):
        keys = e @ backend.weights
        assert (np.diff(keys) > 0).all()
        assert np.array_equal(rel, keys - keys[0])
        assert np.array_equal(tail_keys, rel[1:])
        assert c.shape == (backend.trials, len(e))
        assert (c != 0).any(axis=0).all()
        # one trial's tail coefficients may come as one 1D row
        for row, tail_row in zip(c, np.atleast_2d(tail_coeffs)):
            assert np.array_equal(tail_row, row[1:])
            assert row[0] == 1 and ((0 <= row) & (row < backend.p)).all()
        if backend.trials == 1:
            assert (c > 0).all()


@pytest.mark.parametrize("use_hilbert", [False, True],
                         ids=["plain", "hilbert"])
def test_backend_arrays_stay_in_step_with_its_reducers(store, monkeypatch,
                                                       use_hilbert):
    moved, hilbert = _moved_with_hilbert(store.ideal("acm4"))
    backends, replaced = [], []
    init, replace = _DenseBackend.__init__, _DenseBackend.replace

    def capturing(backend, *args, **kwargs):
        init(backend, *args, **kwargs)
        backends.append(backend)

    def counting(backend, k, tab, vec):
        replaced.append(k)
        replace(backend, k, tab, vec)

    monkeypatch.setattr(_DenseBackend, "__init__", capturing)
    monkeypatch.setattr(_DenseBackend, "replace", counting)
    gb = buchberger(moved, GLEX, hilbert=hilbert if use_hilbert else None)
    [backend] = backends
    # some tails changed after their element was added
    assert replaced
    assert ({tuple(zip(map(tuple, e.tolist()), c[0].tolist()))
             for e, c in zip(backend.exps, backend.coeffs)}
            == {tuple(g.terms()) for g in gb})
    _assert_backend_in_step(backend)
    # built with every reducer up front, as normal_form and
    # is_groebner_basis build it
    _assert_backend_in_step(
        _DenseBackend(gb.nvars, gb.p, GLEX, list(gb.elements)))


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_gebauer_moeller_deletes_an_older_pair(order):
    # the first two generators make a pair at lcm x0^2*x1^2*x2; x0*x1*x2
    # arrives last, divides that lcm and has a smaller lcm with each of
    # them, so the pair is dropped: only the two pairs with x0*x1*x2 are
    # reduced, where keeping it would make three
    gens = [mono((2, 0, 1)), mono((0, 2, 1)), mono((1, 1, 1))]
    gb = buchberger(Ideal(gens), order)
    assert (gb.pairs_reduced, gb.reductions_to_zero) == (2, 2)


def _gm_update_reference(pairs, leads, order):
    """Gebauer-Moeller update for the newest lead, on exponent tuples.

    The reference for ``groebner._gm_update``: ``pairs`` maps (i, j) to
    (lcm, its degree, ``order.key`` of it).  Coprime-lead pairs never enter,
    and pairs whose lcm strictly factors through the new lead drop out.
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


# exponents 0..255, with 255 = DEGREE_CAP drawn often
_EXPONENT = st.one_of(st.just(DEGREE_CAP), st.integers(0, DEGREE_CAP))


@st.composite
def _monomial_pairs(draw):
    nvars = draw(st.integers(1, 8))
    row = st.tuples(*[_EXPONENT] * nvars)
    return nvars, draw(row), draw(row)


@given(_monomial_pairs())
def test_packed_exponents_match_the_tuple_rules(pair):
    nvars, a, b = pair
    for order in (GLEX, GREVLEX):
        packed = _PackedExponents(nvars, order)
        pa, pb = packed.pack(a), packed.pack(b)
        assert packed.unpack(pa) == a
        assert packed.divides(pa, pb) == monomial_divides(a, b)
        assert packed.divides(pa, pa)
        assert packed.unpack(packed.lcm(pa, pb)) == monomial_lcm(a, b)
        assert packed.coprime(pa, pb) == (
            monomial_lcm(a, b) == monomial_mul(a, b))
        assert packed.degree(pa) == sum(a)
        assert packed.key(pa) == sum(
            w * e for w, e in zip(order.index_weights(nvars).tolist(), a))


@st.composite
def _lead_sequences(draw):
    nvars = draw(st.integers(1, 8))
    # small exponents make divisibility and shared lcms common
    cap = draw(st.sampled_from([2, 4, DEGREE_CAP]))
    exponent = (st.integers(0, cap) if cap < DEGREE_CAP else _EXPONENT)
    leads = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=1,
                          max_size=12))
    return nvars, leads


@given(_lead_sequences())
def test_packed_pair_update_matches_the_tuple_reference(sequence):
    nvars, leads = sequence
    for order in (GLEX, GREVLEX):
        packed = _PackedExponents(nvars, order)
        weights = order.index_weights(nvars).tolist()
        want, got, packed_leads = {}, {}, []
        for k, lead in enumerate(leads):
            packed_leads.append(packed.pack(lead))
            _gm_update_reference(want, leads[:k + 1], order)
            _gm_update(got, packed_leads, packed)
            assert got.keys() == want.keys()
            by_degree = {}
            for ij, (lcm, degree, _) in want.items():
                assert got[ij] == (packed.pack(lcm), degree,
                                   sum(w * e for w, e in zip(weights, lcm)))
                by_degree.setdefault(degree, []).append(ij)
            # within a degree, the negated table key ranks as the order key
            for ijs in by_degree.values():
                assert (sorted(ijs, key=lambda ij: (-got[ij][2], ij))
                        == sorted(ijs, key=lambda ij: (want[ij][2], ij)))


@pytest.mark.parametrize("budget", [poly_module._TABLE_ROW_BUDGET, 1],
                         ids=["default-budget", "budget-1"])
def test_cold_glex_run_builds_the_same_tables(store, monkeypatch, budget):
    # a basis element keeps its relative keys, so an S-pair is placed on the
    # lcm's table alone: the run builds exactly the tables of the degrees
    # it visits and of the lead cover's chain, none twice.  At a budget of
    # one row each new table evicts every other, and still none is rebuilt:
    # a chain step fetches the table below before it builds its own
    moved, _ = _moved_with_hilbert(store.ideal("acm4"))
    built = []

    class Counting(poly_module.MonomialTable):
        __slots__ = ()

        def __init__(self, nvars, degree, order):
            super().__init__(nvars, degree, order)
            built.append(degree)

    monkeypatch.setattr(poly_module, "MonomialTable", Counting)
    monkeypatch.setattr(poly_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(poly_module, "_table_rows", 0)
    monkeypatch.setattr(poly_module, "_TABLE_ROW_BUDGET", budget)
    buchberger(moved, GLEX)
    assert sorted(built) == list(range(2, 22))


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_k1_basis_is_reduced_whatever_the_generator_order(store, order):
    # acm4's first stratum: generators of degrees 3 to 19, here fed highest
    # degree first; each still enters at its own degree
    gens = sorted(_k1(store, "acm4").generators, key=lambda g: -g.degree)
    assert len(gens) == 26
    assert (gens[0].degree, gens[-1].degree) == (19, 3)
    gb = buchberger(Ideal(gens), order)
    _assert_reduced(gb)
    assert ([g.terms() for g in buchberger(Ideal(gens[::-1]), order)]
            == [g.terms() for g in gb])


def test_k1_grevlex_basis_reduces_few_pairs(store):
    # reducing every generator up front, before any pair, took 31 S-pairs
    # here, all to zero
    assert buchberger(_k1(store, "acm4"), GREVLEX).pairs_reduced < 31


def test_work_counters_are_deterministic(store):
    moved, hilbert = _moved_with_hilbert(store.ideal("ci23"))
    for kwargs in ({}, {"hilbert": hilbert}):
        first = buchberger(moved, GLEX, **kwargs)
        assert first.pairs_reduced > 0
        assert _counts(first) == _counts(buchberger(moved, GLEX, **kwargs))


# -- lockstep trials ----------------------------------------------------------

PRIMES = [7, 32003, 3037000493]


def _outcome(run):
    """What a Groebner run gives: each basis with its counts, or the error.

    A basis is compared by its elements' terms, order, ring and the three
    work counts; an error by its type and message.
    """
    try:
        bases = run()
    except GincomplexError as err:
        return type(err), str(err)
    return [([g.terms() for g in gb], gb.order, gb.nvars, gb.p, _counts(gb))
            for gb in bases]


def _assert_lockstep_equals_separate_runs(ideals, order, hilbert=None):
    assert (_outcome(lambda: buchberger_trials(ideals, order, hilbert))
            == _outcome(lambda: [buchberger(ideal, order, hilbert)
                                 for ideal in ideals]))


def _lockstep_runs(monkeypatch):
    """Record the trial count of every engine run, and whether it parted."""
    runs = []
    real = groebner_module._buchberger_run

    def recording(ideals, order, hilbert):
        bases = real(ideals, order, hilbert)
        runs.append((len(ideals), bases is None))
        return bases

    monkeypatch.setattr(groebner_module, "_buchberger_run", recording)
    return runs


@st.composite
def _ideals_of_one_shape(draw):
    """1-3 homogeneous ideals sharing a ring and generator degrees.

    A random base ideal has n = 2..5 variables and 1-4 generators of degree
    1..4 with 1-3 terms each.  Each trial is mostly a random coordinate
    change of it, as in a gin, which keeps the runs in lockstep unless the
    change is special; sometimes it is another random ideal of the same
    degrees, which usually parts them.  Also drawn: the order, and no
    Hilbert function, the base ideal's, or that one shifted by one in one
    degree, which makes the runs raise.
    """
    nvars = draw(st.integers(2, 5))
    p = draw(st.sampled_from(PRIMES))
    order = draw(st.sampled_from([GLEX, GREVLEX]))
    residue = st.integers(1, p - 1)
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def random_ideal():
        gens = []
        for d in degrees:
            tab = table_for(nvars, d, order)
            rows = draw(st.sets(st.integers(0, len(tab) - 1), min_size=1,
                                max_size=3))
            gens.append(Polynomial.from_terms(
                [(tuple(tab.exps[r]), draw(residue)) for r in sorted(rows)],
                nvars, p, order))
        return Ideal(gens, nvars, p)

    base = random_ideal()
    ideals = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 7)):
            seed = draw(st.integers(0, 2 ** 16))
            ideals.append(random_change(seed, nvars, p).apply_ideal(base))
        else:
            ideals.append(random_ideal())
    hilbert = None
    kind = draw(st.sampled_from(["none", "true", "shifted"]))
    if kind != "none":
        truth = buchberger(base, GREVLEX).initial_ideal().hilbert_function
        if kind == "true":
            hilbert = truth
        else:
            at, shift = draw(st.integers(0, 8)), draw(st.sampled_from([-1, 1]))
            hilbert = lambda d: truth(d) + shift * (d == at)  # noqa: E731
    return ideals, order, hilbert


@settings(max_examples=80)
@given(_ideals_of_one_shape())
def test_lockstep_equals_separate_runs_property(case):
    _assert_lockstep_equals_separate_runs(*case)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_lockstep_trials_part_and_rerun_one_at_a_time(store, monkeypatch,
                                                      order):
    # the unmoved scroll and a moved copy have different initial ideals
    ideal = store.ideal("scroll").with_order(order)
    moved = random_change(2024, ideal.nvars, ideal.p).apply_ideal(ideal)
    runs = _lockstep_runs(monkeypatch)
    _assert_lockstep_equals_separate_runs([ideal, moved], order)
    assert runs[0] == (2, True)
    assert runs[1:3] == [(1, False), (1, False)]


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_lockstep_keeps_a_coefficient_that_vanishes_in_one_trial(
        monkeypatch, order):
    # the second ideal lacks the x2^2 term of the first generator; the
    # leads agree throughout, so one run holds both, with a stored 0
    first = Ideal([poly([((2, 0, 0), 1), ((0, 1, 1), 3), ((0, 0, 2), 5)],
                        nvars=3),
                   poly([((1, 1, 0), 1), ((0, 0, 2), 2)], nvars=3)])
    second = Ideal([poly([((2, 0, 0), 1), ((0, 1, 1), 3)], nvars=3),
                    first.generators[1]])
    backends = []
    init = _DenseBackend.__init__

    def capturing(backend, *args, **kwargs):
        init(backend, *args, **kwargs)
        backends.append(backend)

    monkeypatch.setattr(_DenseBackend, "__init__", capturing)
    runs = _lockstep_runs(monkeypatch)
    bases = buchberger_trials([first, second], order)
    assert runs == [(2, False)]
    [backend] = backends
    assert any((c == 0).any() for c in backend.coeffs)
    _assert_backend_in_step(backend)
    # each trial's element keeps only its own nonzero terms
    assert all((g.coeffs != 0).all() for gb in bases for g in gb)
    monkeypatch.undo()
    _assert_lockstep_equals_separate_runs([first, second], order)


@pytest.mark.parametrize("p", PRIMES)
def test_lockstep_unit_ideal(p):
    for extra in ([], [((1, 1, 0), 1)]):
        ideals = [Ideal([Polynomial.constant(c, 3, p),
                         *([Polynomial.from_terms(extra, 3, p)]
                           if extra else [])])
                  for c in (1, p - 1, 5 % p)]
        _assert_lockstep_equals_separate_runs(ideals, GLEX)
        [gb, *_] = buchberger_trials(ideals, GLEX)
        assert [g.terms() for g in gb] == [[((0, 0, 0), 1)]]


def test_lockstep_single_trial_and_no_trial(store):
    moved, hilbert = _moved_with_hilbert(store.ideal("ci23"))
    for order in (GLEX, GREVLEX):
        _assert_lockstep_equals_separate_runs([moved], order, hilbert)
    assert buchberger_trials([], GLEX) == []
    with pytest.raises(ZeroPolynomialError):
        buchberger_trials([Ideal([], 5, P), Ideal([], 5, P)], GLEX)


def test_lockstep_backend_stays_in_step(store, monkeypatch):
    # two moved acm4 copies in one run: each trial's coefficient rows are
    # checked like a basis of their own, against the separate runs
    ideal = store.ideal("acm4")
    moves = [random_change(2024 + t, ideal.nvars, ideal.p).apply_ideal(ideal)
             for t in range(2)]
    backends = []
    init = _DenseBackend.__init__

    def capturing(backend, *args, **kwargs):
        init(backend, *args, **kwargs)
        backends.append(backend)

    monkeypatch.setattr(_DenseBackend, "__init__", capturing)
    bases = buchberger_trials(moves, GLEX)
    [backend] = backends
    assert backend.trials == 2
    _assert_backend_in_step(backend)
    monkeypatch.undo()
    for t, gb in enumerate(bases):
        separate = buchberger(moves[t], GLEX)
        assert [g.terms() for g in gb] == [g.terms() for g in separate]
        assert ({tuple((tuple(e), c) for e, c in zip(exps.tolist(),
                                                       coeffs[t].tolist())
                       if c)
                 for exps, coeffs in zip(backend.exps, backend.coeffs)}
                == {tuple(g.terms()) for g in separate})


def test_buchberger_run_keeps_two_lead_masks(store, monkeypatch):
    # a run chains each degree from the one below and reads no lower one,
    # so it keeps only the masks of the degree in progress and the one
    # below; keeping every mask gives the same basis
    ideal = store.ideal("ci23")
    kept = []
    begin = _DenseBackend.begin_degree

    def recording(backend, degree):
        mask = begin(backend, degree)
        kept.append((degree, set(backend._cover._masks)))
        return mask

    monkeypatch.setattr(_DenseBackend, "begin_degree", recording)
    gb = buchberger(ideal, GLEX)
    assert len(kept) > 3
    assert all(masks <= {degree - 1, degree} for degree, masks in kept)
    assert any(len(masks) == 2 for _, masks in kept)
    monkeypatch.setattr(_ChainedCover, "drop_below", lambda cover, d: None)
    assert ([g.terms() for g in buchberger(ideal, GLEX)]
            == [g.terms() for g in gb])


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
@pytest.mark.parametrize("name",
                         ["scroll", "ci22", "castelnuovo", "ci23", "acm4"])
def test_initial_ideal_is_the_monomial_ideal_of_the_leads(store, name, order):
    # the reduced basis's leads are the minimal generators as they stand
    moved, hilbert = _moved_with_hilbert(store.ideal(name))
    for kwargs in ({}, {"hilbert": hilbert}):
        gb = buchberger(moved, order, **kwargs)
        ideal = gb.initial_ideal()
        want = MonomialIdeal(gb.leading_monomials(), gb.nvars)
        assert ideal == want and ideal.gens == want.gens
        assert all(type(v) is int for g in ideal.gens for v in g)
    rng = SplitMix64(99)
    for _ in range(30):
        gb = buchberger(Ideal(_random_small_ideal(rng)), order)
        assert gb.initial_ideal() == MonomialIdeal(gb.leading_monomials(),
                                                   gb.nvars)
    # x1^2 > x0*x2 under grevlex but not under glex: the generators of the
    # initial ideal are listed descending in graded-lex whatever the order
    gb = buchberger(Ideal([mono((1, 0, 1)), mono((0, 2, 0))]), order)
    assert gb.initial_ideal().gens == ((1, 0, 1), (0, 2, 0))


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_hilbert_function_below_truth_is_rejected(store, order):
    # too few standard monomials in a degree the criterion consults: once
    # every pair of that degree is done, leading monomials are missing
    moved, hilbert = _moved_with_hilbert(store.ideal("ci23"))
    consulted = set()

    def recording(d):
        consulted.add(d)
        return hilbert(d)

    buchberger(moved, order, hilbert=recording)
    assert consulted
    for degree in sorted(consulted):
        with pytest.raises(InvariantError, match="contradicted"):
            buchberger(moved, order,
                       hilbert=lambda d: hilbert(d) - (d == degree))


def test_hilbert_function_above_count_is_rejected():
    # the leads x0^2, x0*x1 leave 5 standard cubics in 3 variables, and
    # their one pair has degree 3; claiming 6 makes the leads overshoot
    # before that pair is reduced
    gens = [mono((2, 0, 0)), mono((1, 1, 0))]
    truth = MonomialIdeal([(2, 0, 0), (1, 1, 0)], 3).hilbert_function
    assert truth(3) == 5
    assert buchberger(Ideal(gens), GLEX, hilbert=truth).pairs_pruned == 1
    with pytest.raises(InvariantError, match="contradicted"):
        buchberger(Ideal(gens), GLEX,
                   hilbert=lambda d: truth(d) + (d == 3))


def test_spolynomial_reduces_to_zero_in_basis():
    gb = buchberger(scroll(), GLEX)
    for f, g in itertools.combinations(gb.elements, 2):
        assert normal_form(s_polynomial(f, g), list(gb.elements)).is_zero


def test_normal_form_difference_lies_in_ideal():
    # f minus its remainder is a combination of the reducers
    rng = SplitMix64(314)
    for _ in range(25):
        gens = _random_small_ideal(rng)
        gb = buchberger(Ideal(gens), GLEX)
        tab = table_for(3, 4, GLEX)
        rows = {rng.below(len(tab)) for _ in range(4)}
        f = Polynomial.from_terms(
            [(tuple(tab.exps[r]), rng.field_nonzero(P)) for r in rows],
            3, P, GLEX)
        remainder = normal_form(f, gens)
        difference = f - remainder
        if not difference.is_zero:
            assert gb.normal_form(difference).is_zero
        # no term of the remainder is divisible by a reducer lead
        leads = [g.leading_monomial() for g in gens]
        for e, _ in remainder.terms():
            assert not any(all(x <= y for x, y in zip(lm, e))
                           for lm in leads)


# -- initial ideals and Borel queries ---------------------------------------------

def test_borel_fixed_examples():
    scroll_gin = MonomialIdeal(
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0),
         (0, 3, 0, 0, 0)], 5)
    assert scroll_gin.is_borel_fixed()
    assert not MonomialIdeal([(0, 1)], 2).is_borel_fixed()
    assert MonomialIdeal([(1, 0)], 2).is_borel_fixed()
    assert not MonomialIdeal([(0, 2, 0)], 3).is_borel_fixed()


def _borel_fixed_reference(ideal):
    """The tuple rule: every move of a generator stays in the ideal."""
    for g in ideal.gens:
        for i in range(ideal.nvars):
            for j in range(i if g[i] else 0):
                moved = list(g)
                moved[i] -= 1
                moved[j] += 1
                if not ideal.contains_monomial(moved):
                    return False
    return True


def _borel_closure(gens, nvars):
    """The smallest Borel-fixed set of monomials holding ``gens``."""
    closed = set(gens)
    todo = list(gens)
    while todo:
        g = todo.pop()
        for i in range(nvars):
            for j in range(i if g[i] else 0):
                moved = list(g)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if moved not in closed:
                    closed.add(moved)
                    todo.append(moved)
    return closed


def test_borel_fixed_matches_the_tuple_rule():
    # half the ideals are Borel closures, the rest mostly are not
    rng = SplitMix64(1618)
    verdicts = []
    for trial in range(200):
        nvars = 2 + rng.below(4)
        gens = {_random_exponent(rng, nvars, 1 + rng.below(5))
                for _ in range(1 + rng.below(4))}
        if trial % 2:
            gens = _borel_closure(gens, nvars)
        ideal = MonomialIdeal(gens, nvars)
        verdict = ideal.is_borel_fixed()
        assert verdict == _borel_fixed_reference(ideal)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 150


def _capped(exps, top=4):
    """The exponents cut down, left to right, to total degree ``top``."""
    out = []
    for v in exps:
        out.append(min(v, top - sum(out)))
    return tuple(out)


@st.composite
def _monomial_ideals(draw):
    """Up to four generators of degree <= 4 in 1-5 variables, half of them
    closed under the Borel moves."""
    nvars = draw(st.integers(1, 5))
    exponent = st.lists(st.integers(0, 4), min_size=nvars,
                        max_size=nvars).map(_capped)
    gens = set(draw(st.lists(exponent, max_size=4)))
    if draw(st.booleans()):
        gens = _borel_closure(gens, nvars)
    return MonomialIdeal(gens, nvars)


@settings(max_examples=200)
@given(_monomial_ideals(), st.integers(-1, 6))
def test_monomial_ideal_queries_match_the_tuple_rules(ideal, m):
    assert ideal.hilbert_function(m) == _brute_force_standard_count(
        ideal.gens, ideal.nvars, m)
    assert ideal.is_borel_fixed() == _borel_fixed_reference(ideal)
    if ideal.is_borel_fixed() and m >= 0:
        # the closed form against the table chain it replaces
        assert ideal.hilbert_function(m) == _table_chain_counts(ideal, m)[m]


def _table_chain_counts(ideal, top):
    """The standard rows of each degree 0..top, on chained graded-lex
    masks."""
    cover = _ChainedCover(ideal.nvars, GLEX, ideal.gens)
    return [len(mask) - int(np.count_nonzero(mask))
            for mask in map(cover.mask, range(top + 1))]


@pytest.mark.parametrize("order_name", ["glex", "grevlex"])
def test_closed_form_hilbert_function_matches_the_table_chain(store,
                                                              order_name):
    gins = [store.gin(name, order_name).gin
            for name in ("scroll", "ci22", "castelnuovo", "ci23", "acm4")]
    if order_name == "glex":
        gins.append(golden_monomial_ideal("ci24"))
    for gin_ideal in gins:
        assert gin_ideal.is_borel_fixed()
        top = gin_ideal.max_generator_degree() + 1
        assert [gin_ideal.hilbert_function(d) for d in range(top + 1)] == \
            _table_chain_counts(gin_ideal, top)
        assert gin_ideal._cover is None


def test_monomial_ideal_rejects_bad_exponents():
    for gens, nvars in (([(1, -1, 2)], 3), ([(-1, 2)], 2), ([(0, 1.5)], 2),
                        ([(2, 0), (0, "1")], 2), ([(0, None)], 2)):
        with pytest.raises(GincomplexError, match="nonnegative integers"):
            MonomialIdeal(gens, nvars)
    # numpy integers are integers
    ideal = MonomialIdeal([np.array([1, 0, 2]), (np.int64(0), 3, 0)], 3)
    assert ideal.gens == ((1, 0, 2), (0, 3, 0))
    assert all(type(v) is int for g in ideal.gens for v in g)


def test_contains_monomial_reads_the_monomial_like_a_generator():
    ideal = MonomialIdeal([(1, 0)], 2)
    assert ideal.contains_monomial((2, 1))
    assert ideal.contains_monomial(np.array([1, 3]))
    assert not ideal.contains_monomial([0, 4])
    # a monomial of another ring is rejected, not answered
    for m in ((1, 0, 0), (1,), ()):
        with pytest.raises(RingMismatchError, match="length != nvars"):
            ideal.contains_monomial(m)
    for m in ((1, -1), (1.5, 0)):
        with pytest.raises(GincomplexError, match="nonnegative integers"):
            ideal.contains_monomial(m)


def test_hilbert_function_names_the_degree_above_the_key_cap():
    # an ideal that is not Borel-fixed counts on tables, whose keys cap
    # the degree
    ideal = MonomialIdeal([(0, 1)], 2)
    assert ideal.hilbert_function(DEGREE_CAP) == 1
    with pytest.raises(ConfigurationError, match="degree 300 exceeds"):
        ideal.hilbert_function(300)
    # a Borel-fixed one needs no table, whatever the degree
    assert MonomialIdeal([(1, 0)], 2).hilbert_function(300) == 1
    # below the lowest generator degree no table is needed
    assert MonomialIdeal([(300, 0)], 2).hilbert_function(299) == 300


def test_borel_regularity():
    scroll_gin = MonomialIdeal(
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0),
         (0, 3, 0, 0, 0)], 5)
    assert scroll_gin.regularity() == 3
    assert MonomialIdeal([(1, 0)], 2).regularity() == 1
    assert golden_monomial_ideal("ci23").regularity() == 8
    with pytest.raises(GincomplexError):
        MonomialIdeal([(0, 1)], 2).regularity()


def _brute_force_standard_count(gens, nvars, m):
    count = 0
    for e in itertools.product(range(m + 1), repeat=nvars):
        if sum(e) != m:
            continue
        if not any(all(g[i] <= e[i] for i in range(nvars)) for g in gens):
            count += 1
    return count


def test_hilbert_function_monomial():
    zero = MonomialIdeal([], 5)
    assert zero.hilbert_function(2) == 15
    scroll_gin = MonomialIdeal(
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0),
         (0, 3, 0, 0, 0)], 5)
    assert scroll_gin.hilbert_function(1) == 5
    for m in range(9):
        assert scroll_gin.hilbert_function(m) == _brute_force_standard_count(
            scroll_gin.gens, 5, m)


def test_hilbert_function_matches_brute_force_count():
    # generator degrees with gaps, and degrees below the lowest generator
    rng = SplitMix64(3141)
    for _ in range(40):
        nvars = 2 + rng.below(3)
        low = rng.below(3)
        gens = {_random_exponent(rng, nvars, low + 2 * k + rng.below(2))
                for k in range(1 + rng.below(3))}
        ideal = MonomialIdeal(gens, nvars)
        for m in range(-1, 10):
            assert ideal.hilbert_function(m) == _brute_force_standard_count(
                ideal.gens, nvars, m)
    unit = MonomialIdeal([(0, 0, 0)], 3)
    zero = MonomialIdeal([], 3)
    for m in range(8):
        assert unit.hilbert_function(m) == 0
        assert zero.hilbert_function(m) == _brute_force_standard_count(
            [], 3, m)


def test_hilbert_function_macaulay():
    q = poly([((2, 0, 0, 0, 0), 1), ((0, 1, 1, 0, 0), 3)])
    assert hilbert_function_macaulay(Ideal([q]), 2) == 14
    assert hilbert_function_macaulay(scroll(), 2) == 12
    for m in range(2):
        assert hilbert_function_macaulay(scroll(), m) == \
            len(table_for(5, m, GLEX))
    assert hilbert_function_macaulay(Ideal([], 4, P), 3) == 20


def _macaulay_unpruned(ideal, m):
    """dim (R/I)_m off the full Macaulay matrix, a row for every generator
    of degree at most m and every multiplier: the construction the
    Koszul-pruned one replaced, ranked by the scalar ``rank_mod_loop`` so
    that it shares no code with ``_kernels.rank_mod``."""
    tab = table_for(ideal.nvars, m, GLEX)
    rows = []
    for g in ideal.generators:
        if g.degree > m:
            continue
        for mu in table_for(ideal.nvars, m - g.degree, GLEX).exps:
            row = np.zeros(len(tab), dtype=np.int64)
            row[tab.rows(g.exps + mu)] = g.coeffs
            rows.append(row)
    return len(tab) - rank_mod_loop(rows, ideal.p)


@st.composite
def _macaulay_cases(draw, p):
    """An ideal mod p and a degree m in 0..5.

    1-3 random generators in 1-4 variables, of degree 1..m + 2, so some lie
    above m; then up to three more, each put anywhere in the list: a scalar
    multiple of a generator, its product with a variable, or a form with
    its graded-lex lead and another tail.  Generators are in either order.
    """
    nvars = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    order = draw(st.sampled_from([GLEX, GREVLEX]))
    residue = st.integers(1, p - 1)

    def form(degree, lead=None):
        tab = table_for(nvars, degree, GLEX)
        # the rows after ``lead``'s hold the monomials below it in glex
        low = 0 if lead is None else lead + 1
        rows = set(draw(st.lists(st.integers(low, len(tab) - 1), max_size=3))
                   if low < len(tab) else [])
        rows.add(draw(st.integers(0, len(tab) - 1)) if lead is None
                 else lead)
        return Polynomial.from_terms(
            [(tuple(tab.exps[r]), draw(residue)) for r in sorted(rows)],
            nvars, p, order)

    gens = [form(draw(st.integers(1, m + 2)))
            for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(gens))
        kind = draw(st.sampled_from(["scaled", "times a variable", "lead"]))
        if kind == "scaled":
            extra = g.mul_term(draw(residue), (0,) * nvars)
        elif kind == "times a variable":
            var = draw(st.integers(0, nvars - 1))
            extra = g.mul_term(1, tuple(int(i == var) for i in range(nvars)))
        else:
            lead = int(table_for(nvars, g.degree, GLEX).rows(g.exps).min())
            extra = form(g.degree, lead)
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return Ideal(gens, nvars, p), m


@pytest.mark.parametrize("p", [7, 32003])
@settings(max_examples=150)
@given(data=st.data())
def test_pruned_macaulay_rank_equals_the_full_matrix_property(p, data):
    ideal, m = data.draw(_macaulay_cases(p))
    assert hilbert_function_macaulay(ideal, m) == _macaulay_unpruned(ideal, m)


def _spy_rank_mod(monkeypatch):
    """The shapes of the matrices ``_kernels.rank_mod`` ranks from now on."""
    shapes = []
    rank_mod = _kernels.rank_mod

    def spying(mat, p):
        shapes.append(mat.shape)
        return rank_mod(mat, p)

    monkeypatch.setattr(_kernels, "rank_mod", spying)
    return shapes


def test_macaulay_matrix_drops_the_koszul_rows(store, monkeypatch):
    # two quadrics at degree 6: 70 multipliers each, of which the 15 that
    # the first quadric's lead divides are dropped from the second; the
    # first quadric's 70 rows are ready pivots, so rank_mod sees only the
    # second's 55 rows on the 140 columns that are not their leads; the
    # 125 rows have full row rank
    shapes = _spy_rank_mod(monkeypatch)
    ideal = store.ideal("ci22")
    assert hilbert_function_macaulay(ideal, 6) == 210 - 125
    assert shapes == [(55, 140)]
    assert _macaulay_unpruned(ideal, 6) == 210 - 125


def test_macaulay_one_generator_needs_no_rank(monkeypatch):
    # the rows x^a * g are all pivots: dim I_m = C(m - d + n - 1, n - 1)
    def no_rank(mat, p):
        raise AssertionError("rank_mod called on one generator")

    monkeypatch.setattr(_kernels, "rank_mod", no_rank)
    rng = SplitMix64(41)
    for nvars in (1, 2, 4):
        for d in (1, 2, 3):
            g = _random_form(rng, nvars, d, 6, GLEX)
            ideal = Ideal([g], nvars, P)
            for m in range(7):
                expected = math.comb(m + nvars - 1, nvars - 1) - (
                    math.comb(m - d + nvars - 1, nvars - 1) if m >= d else 0)
                assert hilbert_function_macaulay(ideal, m) == expected
                assert _macaulay_unpruned(ideal, m) == expected


def test_macaulay_block_is_the_first_generator_that_enters(monkeypatch):
    # a cubic listed before two quadrics: below degree 3 the first quadric
    # holds the block of pivots, from degree 3 on the cubic does
    rng = SplitMix64(43)
    cubic = _random_form(rng, 4, 3, 8, GLEX)
    quadrics = [_random_form(rng, 4, 2, 6, GLEX) for _ in range(2)]
    ideal = Ideal([cubic] + quadrics, 4, P)
    shapes = _spy_rank_mod(monkeypatch)
    assert hilbert_function_macaulay(ideal, 2) == _macaulay_unpruned(ideal, 2)
    # one row of the first quadric against the second's, on 10 - 1 columns
    assert shapes == [(1, 9)]
    shapes.clear()
    assert hilbert_function_macaulay(ideal, 3) == _macaulay_unpruned(ideal, 3)
    # the cubic's one row against 4 + 4 rows of the quadrics, whose
    # multipliers no degree-2 or degree-3 lead divides, on 20 - 1 columns
    assert shapes == [(8, 19)]
    for m in range(4, 7):
        assert hilbert_function_macaulay(ideal, m) == \
            _macaulay_unpruned(ideal, m)


def test_macaulay_constant_generator(monkeypatch):
    # first, the constant's rows are every column, so nothing is left to
    # rank; later, its rows that survive the pruning fill the rest
    shapes = _spy_rank_mod(monkeypatch)
    one = Polynomial.constant(5, 3, P)
    q = poly([((2, 0, 0), 1), ((0, 1, 1), 3)], nvars=3)
    for m in range(5):
        assert hilbert_function_macaulay(Ideal([one, q]), m) == 0
        assert _macaulay_unpruned(Ideal([one, q]), m) == 0
    assert shapes == []
    for m in range(5):
        assert hilbert_function_macaulay(Ideal([q, one]), m) == 0
        assert _macaulay_unpruned(Ideal([q, one]), m) == 0


@pytest.mark.parametrize("p", [7, 65521, 65537, 3037000493])
def test_macaulay_split_equals_the_full_matrix_at_primes(p, monkeypatch):
    # one limb of matmul_mod up to 65521, two from 65537 on
    rng = SplitMix64(p)
    ideals = [
        Ideal([_random_form(rng, 4, 2, 8, GLEX, p=p) for _ in range(2)],
              4, p),
        Ideal([_random_form(rng, 4, d, 10, GLEX, p=p) for d in (3, 2, 2)],
              4, p),
    ]
    for ideal in ideals:
        for m in range(6):
            assert hilbert_function_macaulay(ideal, m) == \
                _macaulay_unpruned(ideal, m), (ideal, m)
    # x0 + x1 first: the leads are the monomials x0 divides, and N moves
    # the lead x^b x0 to x^b x1.  A kept row x^a * quartic, x0 not dividing
    # x^a, has x^a x0^4 on a lead column, which N moves through three more
    # leads to x^a x1^4, which is none: B1 N^4 = 0 is the first power to
    # vanish, and the solve runs four products with the k x k block N, then
    # one with A2 on the other columns
    products = []
    matmul_mod = _kernels.matmul_mod

    def counting(a, b, q):
        products.append(b.shape)
        return matmul_mod(a, b, q)

    monkeypatch.setattr(_kernels, "matmul_mod", counting)
    line = Polynomial.from_terms([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)],
                                 4, p, GLEX)
    quartic = Polynomial.from_terms(
        [((4, 0, 0, 0), 3), ((1, 1, 1, 1), 2), ((0, 1, 2, 1), 5),
         ((0, 0, 0, 4), 1)], 4, p, GLEX)
    ideal = Ideal([line, quartic], 4, p)
    for m in range(7):
        products.clear()
        assert hilbert_function_macaulay(ideal, m) == \
            _macaulay_unpruned(ideal, m), m
        if m < 4:
            assert products == []
            continue
        k = math.comb(m + 2, 3)
        assert products == [(k, k)] * 4 + [(k, math.comb(m + 3, 3) - k)]


def test_macaulay_matrix_above_the_cell_cap_is_refused(monkeypatch):
    # scroll at degree 3: three quadrics, five multipliers each, none
    # pruned, on the 35 cubics: 525 cells, over a cap of 300
    monkeypatch.setattr(poly_module, "_MACAULAY_CELL_CAP", 300)
    assert hilbert_function_macaulay(scroll(), 2) == 12
    with pytest.raises(ConfigurationError,
                       match=r"degree-3 Macaulay matrix is 15 x 35, 4200 "
                             r"bytes"):
        hilbert_function_macaulay(scroll(), 3)


def test_macaulay_equals_monomial_count_on_scroll():
    gb = buchberger(scroll(), GLEX)
    ini = gb.initial_ideal()
    for m in range(9):
        assert hilbert_function_macaulay(scroll(), m) == \
            ini.hilbert_function(m)


def test_macaulay_equals_monomial_count_random_monomial_ideals():
    # on a monomial ideal the matrix-rank route and the standard-monomial
    # count must coincide degree by degree
    rng = SplitMix64(2718)
    for _ in range(50):
        nvars = 3 + rng.below(2)
        gens = {tuple(tab_row)
                for tab_row in (_random_exponent(rng, nvars, 1 + rng.below(4))
                                for _ in range(1 + rng.below(4)))}
        mono_ideal = MonomialIdeal(gens, nvars)
        as_polys = Ideal([mono(g, p=P) for g in gens], nvars, P)
        for m in range(7):
            assert hilbert_function_macaulay(as_polys, m) == \
                mono_ideal.hilbert_function(m)


def _random_exponent(rng, nvars, degree):
    e = [0] * nvars
    for _ in range(degree):
        e[rng.below(nvars)] += 1
    return tuple(e)


# -- colon and saturation -----------------------------------------------------------

def test_colon_monomial():
    ideal = Ideal([mono((1, 1, 0, 0))], 4, P)
    out = ideal_quotient(ideal, mono((1, 0, 0, 0)))
    assert ideals_equal(out, Ideal([mono((0, 1, 0, 0))], 4, P))


def test_colon_by_unit_is_identity():
    ideal = Ideal([mono((1, 1, 0, 0))], 4, P)
    assert ideal_quotient(ideal, Polynomial.constant(1, 4, P)) is ideal


def test_colon_contains_original():
    rng = SplitMix64(8)
    gens = _random_small_ideal(rng, nvars=3, ngens=2, maxdeg=2)
    ideal = Ideal(gens, 3, P)
    out = ideal_quotient(ideal, mono((1, 0, 0)))
    gb = buchberger(out, GREVLEX)
    for g in ideal.generators:
        assert gb.normal_form(g).is_zero


def _random_monomial_ideal(rng, nvars):
    return [_random_exponent(rng, nvars, 1 + rng.below(4))
            for _ in range(1 + rng.below(4))]


def _initial_ideal(ideal):
    return buchberger(ideal, GREVLEX).initial_ideal()


def test_intersect_monomial_oracle():
    # for monomial ideals, I cap J is generated by the pairwise lcms
    rng = SplitMix64(4242)
    for _ in range(50):
        nvars = 3 + rng.below(2)
        a = _random_monomial_ideal(rng, nvars)
        b = _random_monomial_ideal(rng, nvars)
        got = intersect(Ideal([mono(e) for e in a], nvars, P),
                        Ideal([mono(e) for e in b], nvars, P))
        want = MonomialIdeal([monomial_lcm(u, v) for u in a for v in b],
                             nvars)
        assert _initial_ideal(got) == want


def test_intersect_between_product_and_factors():
    # I*J lies in I cap J, which lies in both I and J
    rng = SplitMix64(99)
    for _ in range(10):
        a = _random_small_ideal(rng, nvars=3, ngens=2, maxdeg=2)
        b = _random_small_ideal(rng, nvars=3, ngens=2, maxdeg=2)
        both = buchberger(intersect(Ideal(a, 3, P), Ideal(b, 3, P)), GREVLEX)
        for factor in (a, b):
            gb = buchberger(Ideal(factor), GREVLEX)
            assert all(gb.contains(h) for h in both)
        assert all(both.contains(f * g) for f in a for g in b)


def test_colon_monomial_oracle():
    # (I : x^a) is generated by g / gcd(g, x^a) over the generators g of I
    rng = SplitMix64(1729)
    for _ in range(50):
        nvars = 3 + rng.below(2)
        gens = _random_monomial_ideal(rng, nvars)
        a = _random_exponent(rng, nvars, 1 + rng.below(3))
        got = ideal_quotient(Ideal([mono(e) for e in gens], nvars, P),
                             mono(a))
        want = MonomialIdeal(
            [tuple(max(x - y, 0) for x, y in zip(g, a)) for g in gens],
            nvars)
        assert _initial_ideal(got) == want


def _times_maximal_power(ideal, k):
    n = ideal.nvars
    shifts = [tuple(int(v) for v in e) for e in table_for(n, k, GLEX).exps]
    return Ideal([g.mul_term(1, u) for g in ideal.generators for u in shifts],
                 n, ideal.p)


def _twisted_cubic():
    return Ideal([poly(t, nvars=4) for t in (
        [((1, 0, 1, 0), 1), ((0, 2, 0, 0), -1)],
        [((0, 1, 0, 1), 1), ((0, 0, 2, 0), -1)],
        [((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)],
    )], 4, P)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("build", [scroll, _twisted_cubic],
                         ids=["scroll", "twisted_cubic"])
def test_saturation_recovers_saturated_ideal(build, k):
    saturated = build()
    assert ideals_equal(saturated, saturate_irrelevant(saturated))
    padded = _times_maximal_power(saturated, k)
    assert not ideals_equal(padded, saturated)
    assert ideals_equal(saturate_irrelevant(padded), saturated)


def _variable_times_maximal_ideal():
    return Ideal([mono(e, p=P) for e in
                  [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]],
                 4, P)


def test_saturate_variable_times_maximal_ideal():
    ideal = _variable_times_maximal_ideal()
    sat = saturate_irrelevant(ideal)
    assert ideals_equal(sat, Ideal([mono((1, 0, 0, 0))], 4, P))
    assert not ideals_equal(sat, ideal)


def test_saturation_idempotent():
    once = saturate_irrelevant(_variable_times_maximal_ideal())
    twice = saturate_irrelevant(once)
    assert ideals_equal(once, twice)


def _k1(store, name):
    gb = store.gin(name).basis
    return partial_elimination(gb, 1, MODE_EQUAL, generic=True).ideal


def _remark_strict_k1(store):
    gb = buchberger(remark_counterexample(), GLEX)
    return partial_elimination(gb, 1, MODE_EQUAL, generic=True).ideal


def _unit(nvars):
    return Ideal([Polynomial.constant(1, nvars, P)], nvars, P)


_K1_ENTRIES = ("scroll", "ci22", "castelnuovo", "ci23", "acm4")
# build(store) -> ideal, and whether the ideal is saturated
_SATURATION_TABLE = (
    [pytest.param(lambda store, name=name: _k1(store, name), True,
                  id=f"{name}_k1")
     for name in _K1_ENTRIES]
    # K_1*m as the same ideal with K_1's few grevlex generators
    + [pytest.param(lambda store, name=name: _times_maximal_power(
           reduced_grevlex(_k1(store, name)), 1), False,
                    id=f"{name}_k1_times_m")
       for name in _K1_ENTRIES]
    + [pytest.param(lambda store, build=build, k=k: _times_maximal_power(
           build(), k), False, id=f"{build.__name__.strip('_')}_times_m{k}")
       for build in (scroll, _twisted_cubic) for k in (1, 2)]
    + [pytest.param(lambda store: _variable_times_maximal_ideal(), False,
                    id="x0_times_m"),
       pytest.param(_remark_strict_k1, True, id="remark_strict_k1")]
    + [pytest.param(lambda store, n=n: _unit(n), True, id=f"unit_{n}_vars")
       for n in (1, 2, 4)]
)


@pytest.mark.parametrize("build, saturated", _SATURATION_TABLE)
def test_is_saturated_agrees_with_saturate_irrelevant(store, build,
                                                      saturated):
    # the initial-ideal verdict and the colon-then-compare verdict test the
    # same equality I = I : l^inf for the same seeded l
    ideal = build(store)
    assert is_saturated(ideal) is saturated
    assert ideals_equal(saturate_irrelevant(ideal), ideal) is saturated


def test_grevlex_leads_free_of_the_last_variable_prove_saturation():
    # the read-off of pei.k1_saturation_check: under grevlex
    # in(J : x_last^inf) = in(J) : x_last^inf, so a reduced basis with no
    # lead involving x_last shows J = J : x_last^inf, which contains J^sat,
    # in any coordinates; sparse forms keep the coordinates special
    rng = SplitMix64(35)
    verdicts = []
    for _ in range(120):
        n = 3 + rng.below(3)
        gens = [_random_form(rng, n, 1 + rng.below(3), 1 + rng.below(4),
                             GREVLEX)
                for _ in range(1 + rng.below(n))]
        gens = [f for f in gens if not f.is_zero]
        if not gens:
            continue
        ideal = Ideal(gens, n, P)
        gb = buchberger(ideal, GREVLEX)
        read = all(g.leading_monomial()[-1] == 0 for g in gb.elements)
        if read:
            assert ideals_equal(saturate_irrelevant(ideal), ideal), gens
        verdicts.append(read)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
