import dataclasses
import hashlib
import importlib

import numpy as np
import pytest

import gincomplex.pei
from gincomplex.corpus import default_names, entry, remark_counterexample
from gincomplex.errors import ConfigurationError, InvariantError
from gincomplex.gin import (
    DEFAULT_SEED_BASE,
    GinResult,
    gin,
    is_saturated,
    reduced_grevlex,
)
from gincomplex.groebner import (
    MonomialIdeal,
    buchberger,
    hilbert_function_macaulay,
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
# the module: the package re-exports the function ``gin`` under this name
GIN_MODULE = importlib.import_module("gincomplex.gin")


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

    def spy(ideal, order, seed_base, *args, **kwargs):
        calls[seed_base] = ideal
        return gin(ideal, order, seed_base, *args, **kwargs)

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


def _partial_elimination_reference(gb, index, mode):
    """Stratum generators rebuilt term by term through ``from_terms``."""
    gens = []
    for f in gb.elements:
        t = f.d0()
        if (t == index) if mode == MODE_EQUAL else (t <= index):
            gens.append(Polynomial.from_terms(
                [(e[1:], c) for e, c in f.terms() if e[0] == t],
                f.nvars - 1, f.p, GLEX))
    return gens


@pytest.mark.parametrize("name", default_names())
def test_partial_elimination_matches_a_from_terms_rebuild(store, name):
    if entry(name).family == "monomial":
        gb = buchberger(remark_counterexample(), GLEX)
    else:
        gb = store.gin(name).basis
    top = max(f.d0() for f in gb.elements)
    for mode in (MODE_EQUAL, MODE_UPTO):
        for i in range(top + 2):
            data = partial_elimination(gb, i, mode, generic=True)
            want = _partial_elimination_reference(gb, i, mode)
            got = data.ideal.generators
            assert len(got) == len(want), (mode, i)
            for g, w in zip(got, want):
                assert g.nvars == w.nvars and g.order is GLEX
                assert np.array_equal(g.exps, w.exps), (mode, i)
                assert np.array_equal(g.coeffs, w.coeffs), (mode, i)
            assert data.is_full_ring == any(w.degree == 0 for w in want)


def _pipeline(ideal, result):
    rec = recombine_m(ideal, gin_result=result)
    return (
        (rec.value, rec.beta, rec.seeds,
         [(s.index, s.gin, s.complexity,
           [g.terms() for g in s.data.ideal.generators])
          for s in rec.strata]),
        hilbert_identity_check(ideal, 6, gin_result=result),
        k1_saturation_check(ideal, gin_result=result),
    )


def test_pipeline_builds_each_stratum_basis_once(store, monkeypatch):
    # a copy of the session's result starts with an empty memo, which the
    # three pipeline checks then share
    ideal, stored = store.ideal("ci23"), store.gin("ci23")
    fresh, second = dataclasses.replace(stored), dataclasses.replace(stored)
    assert fresh._strata == {} and second._strata == {}
    calls = {"partial_elimination": [], "reduced_grevlex": []}
    for name, seen in calls.items():
        real = getattr(gincomplex.pei, name)

        def counting(*args, _real=real, _seen=seen, **kwargs):
            _seen.append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(gincomplex.pei, name, counting)
    got = _pipeline(ideal, fresh)
    monkeypatch.undo()
    b = beta(stored.basis)
    strata = [gincomplex.pei._stratum(fresh, i) for i in range(b + 1)]
    proper = [data.index for data in strata
              if not (data.is_full_ring or data.ideal.is_zero)]
    # the principal K_0 takes its gin in closed form and builds no basis;
    # K_1 is not principal, so the saturation check reuses recombine_m's
    built = [i for i in proper if not _principal(fresh, i)]
    assert proper == [0, 1] and built == [1]
    assert [a[1] for a, _ in calls["partial_elimination"]] \
        == list(range(b + 1))
    assert len(calls["reduced_grevlex"]) == len(built)
    # every stratum basis is pruned with its stratum's Hilbert function
    assert [kwargs["hilbert"] for _, kwargs in calls["reduced_grevlex"]] \
        == [gincomplex.pei._stratum_hilbert(fresh, i).hilbert_function
            for i in built]
    assert got == _pipeline(ideal, second)


def test_stratum_memo_leaves_equality_and_hash(store):
    ideal, stored = store.ideal("ci23"), store.gin("ci23")
    filled, empty = dataclasses.replace(stored), dataclasses.replace(stored)
    k1_saturation_check(ideal, gin_result=filled)
    recombine_m(ideal, gin_result=filled)
    assert filled._strata and not empty._strata
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)


CORPUS = ("scroll", "ci22", "castelnuovo", "ci23", "acm4")

# sha256 over the reduced grevlex bases of every proper stratum of the five
# default corpus entries' glex gins (default seed base), strata in index
# order; see _strata_digest.  Computed from the unpruned bases.  The bases
# live in the gin's coordinates, so it pins the gin's coordinate changes
# (``unitriangular_change``) as well.
GOLDEN_STRATA_SHA256 = (
    "948a2653748f2a20d8cc20c13b55f24c860cb20533d970ac8d0db7a4a9bb7d2e")


def _strata_digest(bases):
    digest = hashlib.sha256()
    for basis in bases:
        for g in basis.generators:
            digest.update(np.array(g.exps.shape, dtype=np.int64).tobytes())
            digest.update(g.exps.astype(np.int64).tobytes())
            digest.update(g.coeffs.astype(np.int64).tobytes())
    return digest.hexdigest()


def _proper_indices(result):
    return [i for i in range(beta(result.basis) + 1)
            if not (gincomplex.pei._stratum(result, i).is_full_ring
                    or gincomplex.pei._stratum(result, i).ideal.is_zero)]


def test_stratum_bases_equal_the_unpruned_bases(store):
    unpruned = []
    for name in CORPUS:
        result = dataclasses.replace(store.gin(name))
        for i in _proper_indices(result):
            basis = gincomplex.pei._stratum_basis(result, i)
            plain = reduced_grevlex(gincomplex.pei._stratum(result, i).ideal)
            assert len(basis.generators) == len(plain.generators), (name, i)
            for g, w in zip(basis.generators, plain.generators):
                assert g.order is w.order
                assert np.array_equal(g.exps, w.exps), (name, i)
                assert np.array_equal(g.coeffs, w.coeffs), (name, i)
            unpruned.append(plain)
    assert len(unpruned) == 10
    assert _strata_digest(unpruned) == GOLDEN_STRATA_SHA256


def test_acm4_k1_basis_is_pruned(store):
    # 26 extracted generators of degree 3-19, a grevlex basis of 4 of
    # degree <= 5: with K_1's Hilbert function every S-pair is pruned
    result = dataclasses.replace(store.gin("acm4"))
    ideal = gincomplex.pei._stratum(result, 1).ideal
    hilbert = gincomplex.pei._stratum_hilbert(result, 1).hilbert_function
    counts = [(gb.pairs_reduced, gb.reductions_to_zero, gb.pairs_pruned)
              for gb in (buchberger(ideal, GREVLEX, hilbert=hilbert),
                         buchberger(ideal, GREVLEX))]
    assert counts == [(0, 0, 3), (3, 3, 0)]


@pytest.mark.parametrize("name", CORPUS)
def test_stratum_hilbert_matches_the_macaulay_oracle(store, name):
    # the relaxed extraction's leads give K_i's Hilbert function; in the
    # gin's generic coordinates the strict extraction has the same one
    result = dataclasses.replace(store.gin(name))
    gb = result.basis
    for i in range(beta(gb) + 1):
        hilbert = gincomplex.pei._stratum_hilbert(result, i).hilbert_function
        relaxed = partial_elimination(gb, i, MODE_UPTO).ideal
        strict = partial_elimination(gb, i, MODE_EQUAL, generic=True).ideal
        for m in range(7):
            assert hilbert(m) == hilbert_function_macaulay(relaxed, m) \
                == hilbert_function_macaulay(strict, m), (i, m)


def _stratum_ideal(result, index):
    return gincomplex.pei._stratum(result, index).ideal


def _wrapped(gb):
    """A glex basis dressed as a gin result, coordinates as they are."""
    return GinResult(gin=gb.initial_ideal(), order=GLEX, trials_agreed=1,
                     seeds=(7,), borel=False,
                     prime=gb.p, basis=gb, hilbert_checked_to=0)


def test_non_generic_stratum_basis_raises():
    # the strict K_1 of the counterexample is (x1, x2), K_1 is (x1, x2, x3):
    # the pruned run ends degree 1 with a leading monomial missing
    result = _wrapped(buchberger(remark_counterexample(), GLEX))
    with pytest.raises(InvariantError,
                       match=r"stratum 1.*prime 32003, seeds \(7,\)"):
        gincomplex.pei._stratum_basis(result, 1)
    assert (1, "grevlex") not in result._strata
    # the stratum it would have returned is the smaller ideal
    assert len(reduced_grevlex(_stratum_ideal(result, 1)).generators) == 2


def test_non_generic_stratum_caught_in_a_degree_the_run_skips():
    # K_1 of (x0*x1^2, x2^3) is (x1^2, x2^3), its strict extraction (x1^2);
    # that run has nothing in degree 3, so only the check after it sees
    # the missing cubic
    gens = [Polynomial.from_terms([(e, 1)], 4, P) for e in
            ((1, 2, 0, 0), (0, 0, 3, 0))]
    result = _wrapped(buchberger(Ideal(gens, 4, P), GLEX))
    hilbert = gincomplex.pei._stratum_hilbert(result, 1).hilbert_function
    assert [hilbert(d) for d in range(4)] == [1, 3, 5, 6]
    # buchberger alone accepts the smaller ideal
    strict = _stratum_ideal(result, 1)
    assert len(buchberger(strict, GREVLEX, hilbert=hilbert).elements) == 1
    with pytest.raises(InvariantError, match="stratum 1.*degree 3"):
        gincomplex.pei._stratum_basis(result, 1)


def _principal(result, index):
    return gincomplex.pei._is_principal(
        gincomplex.pei._stratum(result, index),
        gincomplex.pei._stratum_hilbert(result, index))


@pytest.mark.parametrize("name", CORPUS)
def test_k1_saturation_read_off_agrees_with_is_saturated(store, name):
    result = dataclasses.replace(store.gin(name))
    verdict = k1_saturation_check(store.ideal(name), gin_result=result)
    assert verdict is True
    assert is_saturated(gincomplex.pei._stratum_basis(result, 1)) is verdict


def test_variable_times_maximal_ideal_reads_unsaturated_both_ways():
    # x0*x1*(x1, ..., x5) in six variables: its K_1 is x0*(x0, ..., x4) in
    # the ring without x0, whose grevlex lead x0*x4 involves the last
    # variable; its saturation is (x0)
    gens = [Polynomial.from_terms(
        [(tuple(int(k in (0, 1)) + int(k == j) for k in range(6)), 1)], 6, P)
        for j in range(1, 6)]
    result = _wrapped(buchberger(Ideal(gens, 6, P), GLEX))
    k1 = _stratum_ideal(result, 1)
    want = [tuple(int(k == 0) + int(k == j) for k in range(5))
            for j in range(5)]
    assert sorted(g.leading_monomial() for g in k1.generators) == \
        sorted(want)
    assert k1_saturation_check(None, gin_result=result) is False
    assert is_saturated(k1) is False


@pytest.mark.parametrize("name", CORPUS)
def test_principal_k0_gin_is_the_closed_form(store, name):
    # K_0, the projected hypersurface, is principal: its gin is (x1^d)
    # with no basis built, and equals the gin of its grevlex basis
    result = dataclasses.replace(store.gin(name))
    rec = recombine_m(store.ideal(name), gin_result=result)
    assert _principal(result, 0)
    assert (0, "grevlex") not in result._strata
    k0 = rec.strata[0]
    d = k0.data.ideal.generators[0].degree
    nsub = result.basis.nvars - 1
    assert k0.gin == MonomialIdeal([(d,) + (0,) * (nsub - 1)], nsub)
    assert k0.complexity == d
    seed = DEFAULT_SEED_BASE + _STRATUM_SEED_STEP
    assert k0.gin == gin(gincomplex.pei._stratum_basis(result, 0), GLEX,
                         seed).gin


@pytest.mark.parametrize("name", CORPUS)
def test_stratum_gin_with_its_hilbert_function_is_unchanged(store, name):
    result = dataclasses.replace(store.gin(name))
    rec = recombine_m(store.ideal(name), gin_result=result)
    built = [i for i in _proper_indices(result) if not _principal(result, i)]
    assert built == [1]
    for i in built:
        basis = gincomplex.pei._stratum_basis(result, i)
        hilbert = gincomplex.pei._stratum_hilbert(result, i).hilbert_function
        seed = DEFAULT_SEED_BASE + _STRATUM_SEED_STEP * (i + 1)
        pruned = gin(basis, GLEX, seed, hilbert=hilbert)
        plain = gin(basis, GLEX, seed)
        assert (pruned.gin, pruned.seeds, pruned.trials_agreed) == \
            (plain.gin, plain.seeds, plain.trials_agreed)
        assert rec.strata[i].gin == pruned.gin


def test_stratum_stage_draws_no_change_and_runs_nothing_unpruned(
        store, monkeypatch):
    calls = []
    for name in ("random_change", "apply_linear_change"):
        real = getattr(GIN_MODULE, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(GIN_MODULE, name, spy)
    for name in ("buchberger", "buchberger_trials"):
        real = getattr(GIN_MODULE, name)

        def run(ideal, order, hilbert=None, _name=name, _real=real):
            calls.append(_name if hilbert is not None
                         else f"unpruned {_name}")
            return _real(ideal, order, hilbert=hilbert)

        monkeypatch.setattr(GIN_MODULE, name, run)
    ideal, result = store.ideal("acm4"), dataclasses.replace(store.gin("acm4"))
    recombine_m(ideal, gin_result=result)
    assert k1_saturation_check(ideal, gin_result=result)
    # K_1's basis, then its gin's lockstep trials
    assert calls == ["buchberger", "buchberger_trials"]
