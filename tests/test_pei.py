import pytest

import gincomplex.pei
from gincomplex.corpus import remark_counterexample
from gincomplex.errors import ConfigurationError
from gincomplex.gin import DEFAULT_SEED_BASE, gin
from gincomplex.groebner import (
    MonomialIdeal,
    buchberger,
    ideals_equal,
    normal_form,
)
from gincomplex.pei import (
    _STRATUM_SEED_STEP,
    MODE_EQUAL,
    MODE_UPTO,
    beta,
    hilbert_identity_check,
    k1_saturation_check,
    partial_elimination,
    recombine_m,
)
from gincomplex.poly import GLEX, GREVLEX, Ideal, Polynomial

P = 32003


def _leads(data):
    return sorted(g.leading_monomial() for g in data.ideal.generators)


def test_remark_counterexample_modes():
    gb = buchberger(remark_counterexample(), GLEX)
    strict = partial_elimination(gb, 1, MODE_EQUAL, generic=True)
    relaxed = partial_elimination(gb, 1, MODE_UPTO)
    assert _leads(strict) == [(0, 1, 0), (1, 0, 0)]
    assert _leads(relaxed) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert _leads(strict) != _leads(relaxed)


def test_equal_mode_requires_generic_assertion():
    gb = buchberger(remark_counterexample(), GLEX)
    with pytest.raises(ConfigurationError):
        partial_elimination(gb, 1, MODE_EQUAL)
    # relaxed mode never needs the assertion
    partial_elimination(gb, 1, MODE_UPTO)


def test_non_glex_basis_rejected(store):
    gb = buchberger(store.ideal("scroll"), GREVLEX)
    with pytest.raises(ConfigurationError):
        partial_elimination(gb, 0, MODE_UPTO)


def test_scroll_k0_is_projected_cubic(store):
    gb = store.gin("scroll").basis
    data = partial_elimination(gb, 0, MODE_EQUAL, generic=True)
    assert len(data.ideal.generators) == 1
    f = data.ideal.generators[0]
    assert f.nvars == 4 and f.degree == 3 and f.is_homogeneous
    from gincomplex.gin import gin
    assert gin(data.ideal, GLEX).gin == MonomialIdeal([(3, 0, 0, 0)], 4)


def test_chain_property(store):
    for name in ("scroll", "ci22"):
        gb = store.gin(name).basis
        b = beta(gb)
        strata = [partial_elimination(gb, i, MODE_EQUAL, generic=True)
                  for i in range(b + 1)]
        for i in range(b):
            lower, upper = strata[i].ideal, strata[i + 1].ideal
            if lower.is_zero:
                continue
            gb_upper = buchberger(upper, GREVLEX)
            for g in lower.generators:
                assert gb_upper.normal_form(g).is_zero


def test_beta_matches_ideal_min_degree(store):
    for name in ("scroll", "ci22", "ci23"):
        assert beta(store.gin(name).basis) == store.ideal(name).min_degree()


def test_beta_stratum_is_full_ring(store):
    for name in ("scroll", "ci22"):
        gb = store.gin(name).basis
        b = beta(gb)
        assert b == 2  # both lie on a quadric
        data = partial_elimination(gb, b, MODE_EQUAL, generic=True)
        assert data.is_full_ring
        gb_k = buchberger(data.ideal, GREVLEX)
        one = Polynomial.constant(1, data.ideal.nvars, P)
        assert gb_k.normal_form(one).is_zero


def test_recombination_scroll(store):
    rec = recombine_m(store.ideal("scroll"), gin_result=store.gin("scroll"))
    assert rec.value == 3
    assert [(s.index, s.complexity) for s in rec.strata] == \
        [(0, 3), (1, 1), (2, 0)]


def test_recombination_ci22(store):
    rec = recombine_m(store.ideal("ci22"), gin_result=store.gin("ci22"))
    assert rec.value == 4
    assert [(s.index, s.complexity) for s in rec.strata] == \
        [(0, 4), (1, 2), (2, 0)]


def test_strata_already_generic(store):
    # extraction from a generic-coordinates basis needs no further change:
    # its own initial ideal already equals the stratum's gin
    from gincomplex.gin import gin
    for name in ("scroll", "ci22"):
        gb = store.gin(name).basis
        for i in range(beta(gb)):
            data = partial_elimination(gb, i, MODE_EQUAL, generic=True)
            if data.ideal.is_zero:
                continue
            direct = buchberger(data.ideal, GLEX).initial_ideal()
            assert gin(data.ideal, GLEX).gin == direct


def test_extraction_is_reduced_basis_of_stratum(store):
    # the strict-filter extraction itself is the reduced basis: recomputing
    # from scratch must reproduce it element by element
    gb = store.gin("ci22").basis
    data = partial_elimination(gb, 1, MODE_EQUAL, generic=True)
    recomputed = buchberger(data.ideal, GLEX)
    got = sorted(tuple(g.terms()) for g in data.ideal.generators)
    want = sorted(tuple(g.terms()) for g in recomputed.elements)
    assert got == want


def test_hilbert_identity(store):
    for name in ("scroll", "ci22"):
        res = hilbert_identity_check(store.ideal(name), 6,
                                     gin_result=store.gin(name))
        assert res.ok, (name, res.failed_m, res.lhs, res.rhs)
        assert res.lhs[0] == 1 == res.rhs[0]


def test_hilbert_identity_rejects_negative_m_max(store):
    with pytest.raises(ConfigurationError, match="m_max"):
        hilbert_identity_check(store.ideal("scroll"), -1,
                               gin_result=store.gin("scroll"))


def _proper(strata):
    return [s for s in strata
            if not (s.data.is_full_ring or s.data.ideal.is_zero)]


@pytest.mark.parametrize("name", ["castelnuovo", "ci23"])
def test_stratum_gin_equals_gin_of_extracted_generators(store, name):
    # recombine_m hands each stratum's gin its reduced grevlex basis; the gin
    # of the raw extracted generators, same seed, must be the same ideal
    rec = recombine_m(store.ideal(name), gin_result=store.gin(name))
    strata = _proper(rec.strata)
    assert strata
    for s in strata:
        seed = DEFAULT_SEED_BASE + _STRATUM_SEED_STEP * (s.index + 1)
        assert s.gin == gin(s.data.ideal, GLEX, seed).gin, s.index


def test_stratum_gin_gets_low_degree_k1(store, monkeypatch):
    # acm4's extracted K_1 reaches degree 19; its reduced grevlex basis, which
    # the stratum gin receives, stops at degree 5
    calls = {}

    def spy(ideal, order, seed_base, *args):
        calls[seed_base] = ideal
        return gin(ideal, order, seed_base, *args)

    monkeypatch.setattr(gincomplex.pei, "gin", spy)
    rec = recombine_m(store.ideal("acm4"), gin_result=store.gin("acm4"))
    k1 = calls[DEFAULT_SEED_BASE + 2 * _STRATUM_SEED_STEP]
    assert max(g.degree for g in rec.strata[1].data.ideal.generators) == 19
    assert max(g.degree for g in k1.generators) <= 5


def test_k1_saturation_scroll(store):
    assert k1_saturation_check(store.ideal("scroll"),
                               gin_result=store.gin("scroll"))


def test_first_stratum_matches_curve_formula(store):
    # the first stratum cuts out the projection's double curve, so its
    # complexity must satisfy the closed-form curve formula once the double
    # curve is an honest space curve (degree >= 3)
    from gincomplex.geometry import (
        curve_complexity,
        surface_complexity_on_quadric,
    )
    from gincomplex.corpus import entry

    for name in ("castelnuovo", "ci23", "acm4"):
        pred = surface_complexity_on_quadric(entry(name).invariants)
        assert pred.deg_y1 >= 3
        rec = recombine_m(store.ideal(name), gin_result=store.gin(name))
        k1_complexity = rec.strata[1].complexity
        assert k1_complexity == curve_complexity(pred.deg_y1, pred.g_y1)


def test_remark_strict_k1_is_itself_saturated():
    # the strict-mode stratum of the counterexample, (x1, x2), is saturated
    # even though it is not the true first stratum
    gb = buchberger(remark_counterexample(), GLEX)
    strict = partial_elimination(gb, 1, MODE_EQUAL, generic=True)
    from gincomplex.gin import saturate_irrelevant
    assert ideals_equal(saturate_irrelevant(strict.ideal), strict.ideal)
