import itertools

import numpy as np
import pytest

from gincomplex.corpus import (
    golden_monomial_ideal,
    remark_counterexample,
    scroll,
)
from gincomplex.errors import (
    GincomplexError,
    RingMismatchError,
    ZeroPolynomialError,
)
from gincomplex.gin import (
    is_saturated,
    random_change,
    reduced_grevlex,
    saturate_irrelevant,
)
from gincomplex.groebner import (
    MonomialIdeal,
    _DenseBackend,
    buchberger,
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


def _random_form(rng, nvars, degree, nterms, order, below=None):
    """Random homogeneous form; with ``below``, every monomial is less."""
    rows = [tuple(int(v) for v in e)
            for e in table_for(nvars, degree, GLEX).exps]
    if below is not None:
        rows = [e for e in rows if order.key(e) < order.key(below)]
    if not rows:
        return Polynomial.zero(nvars, P, order)
    return Polynomial.from_terms(
        [(rows[rng.below(len(rows))], rng.field_nonzero(P))
         for _ in range(nterms)], nvars, P, order)


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

    def recording(backend, fi, fj, lcm):
        seen.append(tuple(lcm))
        return spoly_reduce(backend, fi, fj, lcm)

    monkeypatch.setattr(_DenseBackend, "spoly_reduce", recording)
    buchberger(moved, GLEX)
    assert seen == GOLDEN_PAIR_LCMS[name]


def _assert_backend_in_step(backend):
    """``leads`` and ``tails`` equal arrays rebuilt from the reducers."""
    reducers = backend.reducers
    want = np.array([r.exps[0] for r in reducers], dtype=np.int64)
    assert np.array_equal(backend.leads,
                          want.reshape(len(reducers), backend.nvars))
    assert len(backend.tails) == len(reducers)
    for (rel_keys, coeffs), r in zip(backend.tails, reducers):
        keys = r.exps @ backend.weights
        assert np.array_equal(rel_keys, keys[1:] - keys[0])
        assert np.array_equal(coeffs, r.coeffs[1:])


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

    def counting(backend, i, g):
        replaced.append(i)
        replace(backend, i, g)

    monkeypatch.setattr(_DenseBackend, "__init__", capturing)
    monkeypatch.setattr(_DenseBackend, "replace", counting)
    gb = buchberger(moved, GLEX, hilbert=hilbert if use_hilbert else None)
    [backend] = backends
    # some tails changed after their element was added
    assert replaced
    assert ({tuple(g.terms()) for g in backend.reducers}
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
        with pytest.raises(GincomplexError, match="contradicted"):
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
    with pytest.raises(GincomplexError, match="contradicted"):
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
