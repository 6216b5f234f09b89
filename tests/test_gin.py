import importlib

import numpy as np
import pytest

gin_mod = importlib.import_module("gincomplex.gin")
from gincomplex.corpus import golden_monomial_ideal, scroll
from gincomplex.errors import (
    ConfigurationError,
    GincomplexError,
    InvariantError,
    UnstableGinError,
)
from gincomplex.gin import (
    degree_complexity,
    gin,
    is_saturated,
    random_change,
    saturate_irrelevant,
    witness_check,
)
from gincomplex.groebner import MonomialIdeal, hilbert_function_macaulay
from gincomplex.poly import GLEX, GREVLEX, Ideal, Polynomial, table_for
from gincomplex.rng import SplitMix64

P = 32003


# -- coordinate changes ---------------------------------------------------------

def test_random_change_deterministic():
    a = random_change(42, 4, P)
    b = random_change(42, 4, P)
    assert a.matrix == b.matrix


def test_random_change_distinct_seeds_differ():
    assert random_change(42, 4, P).matrix != random_change(43, 4, P).matrix


def test_random_change_shape_and_inverse():
    # ambient P^4 means five variables, so a 5x5 invertible matrix
    ch = random_change(7, 5, P)
    mat = np.array(ch.matrix, dtype=np.int64)
    inv = np.array(ch.inverse, dtype=np.int64)
    assert mat.shape == (5, 5)
    assert ((mat @ inv) % P == np.eye(5, dtype=np.int64)).all()
    # small primes draw singular matrices often, so the redraw loop runs
    redrawn = 0
    for p in (3, 5, 7):
        for nvars in range(1, 6):
            for seed in range(12):
                ch = random_change(seed, nvars, p)
                mat = np.array(ch.matrix, dtype=np.int64)
                inv = np.array(ch.inverse, dtype=np.int64)
                assert ((mat @ inv) % p == np.eye(nvars, dtype=np.int64)).all()
                rng = SplitMix64(seed)
                first = tuple(tuple(rng.below(p) for _ in range(nvars))
                              for _ in range(nvars))
                if round(np.linalg.det(np.array(first, dtype=float))) % p:
                    assert ch.matrix == first
                else:
                    assert ch.matrix != first
                    redrawn += 1
    assert redrawn


# -- gins -------------------------------------------------------------------------

def test_scroll_gin_glex(store):
    result = store.gin("scroll")
    assert result.gin == golden_monomial_ideal("scroll")
    assert result.borel
    assert result.trials_agreed >= 2


def test_ci22_gin_glex(store):
    assert store.gin("ci22").gin == golden_monomial_ideal("ci22")


def test_generic_quadric_principal_gin():
    rng = SplitMix64(3)
    tab = table_for(5, 2, GLEX)
    q = Polynomial.from_terms(
        [(tuple(e), rng.field_nonzero(P)) for e in tab.exps.tolist()],
        5, P, GLEX)
    result = gin(Ideal([q]), GLEX)
    assert result.gin == MonomialIdeal([(2, 0, 0, 0, 0)], 5)


def test_degree_complexity_values(store):
    assert store.gin("scroll").gin.regularity() == 3
    assert store.gin("ci23").gin.regularity() == 8
    assert degree_complexity(store.ideal("ci22"), GREVLEX) == 3


def test_gin_reproducible_and_seed_sensitive(store):
    result = gin(store.ideal("scroll"), GLEX)
    again = gin(store.ideal("scroll"), GLEX)
    assert result.gin == again.gin and result.seeds == again.seeds
    other = gin(store.ideal("scroll"), GLEX, seed_base=777)
    assert other.gin == result.gin  # gin itself is seed-independent
    assert other.seeds != result.seeds


def test_gin_invariant_under_extra_change(store):
    ideal = store.ideal("scroll")
    pre = random_change(9001, ideal.nvars, P)
    moved = pre.apply_ideal(ideal)
    assert gin(moved, GLEX).gin == store.gin("scroll").gin


def test_hilbert_function_preserved_by_change(store):
    for name in ("scroll", "ci22"):
        ideal = store.ideal(name)
        moved = random_change(4242, ideal.nvars, P).apply_ideal(ideal)
        for m in range(9):
            assert hilbert_function_macaulay(moved, m) == \
                hilbert_function_macaulay(ideal, m)


def test_both_order_gins_share_hilbert_function(store):
    # initial ideals under any order leave the Hilbert function unchanged,
    # so the two gins must count standard monomials identically
    for name in ("scroll", "ci22", "castelnuovo", "ci23"):
        glex_gin = store.gin(name).gin
        grevlex_gin = store.gin(name, "grevlex").gin
        for m in range(9):
            assert glex_gin.hilbert_function(m) == \
                grevlex_gin.hilbert_function(m)


def test_stabilized_gins_borel_random_sample():
    rng = SplitMix64(60)
    tab1 = table_for(3, 1, GLEX)
    tab2 = table_for(3, 2, GLEX)
    for trial in range(50):
        gens = []
        for _ in range(1 + rng.below(2)):
            tab = tab2 if rng.below(2) else tab1
            rows = {rng.below(len(tab)) for _ in range(1 + rng.below(3))}
            gens.append(Polynomial.from_terms(
                [(tuple(tab.exps[r]), rng.field_nonzero(P)) for r in rows],
                3, P, GLEX))
        result = gin(Ideal(gens, 3, P), GLEX, seed_base=3000 + trial)
        assert result.borel, gens


def test_paranoid_agreement_level(store):
    result = gin(store.ideal("scroll"), GLEX, min_agree=3, trial_budget=8)
    assert result.trials_agreed >= 3
    assert result.gin == golden_monomial_ideal("scroll")


def test_config_validation(store):
    with pytest.raises(ConfigurationError):
        gin(store.ideal("scroll"), GLEX, min_agree=0)
    with pytest.raises(ConfigurationError):
        gin(store.ideal("scroll"), GLEX, min_agree=3, trial_budget=2)


def test_unstable_gin_error(monkeypatch, store):
    ideal = store.ideal("scroll")
    fake = [MonomialIdeal([(2, 0, 0, 0, 0)], 5),
            MonomialIdeal([(0, 2, 0, 0, 0)], 5)]
    calls = {"n": 0}

    real = gin_mod.buchberger

    def flipflop(moved, order, hilbert=None):
        gb = real(moved, order)

        class Wobble:
            def initial_ideal(self):
                calls["n"] += 1
                return fake[calls["n"] % 2]
        wobble = Wobble()
        wobble.elements = gb.elements
        return wobble

    monkeypatch.setattr(gin_mod, "buchberger", flipflop)
    with pytest.raises(UnstableGinError) as err:
        gin(ideal, GLEX, trial_budget=4)
    assert len(err.value.trials) == 4


def test_gin_sorts_its_input_once(monkeypatch, store):
    # the glex-built ideal is sorted into grevlex before any trial, so
    # buchberger never re-sorts a moved generator
    seen = []
    real = gin_mod.buchberger

    def spy(moved, trial_order, hilbert=None):
        seen.extend(g.order for g in moved.generators)
        return real(moved, trial_order, hilbert=hilbert)

    monkeypatch.setattr(gin_mod, "buchberger", spy)
    result = gin(store.ideal("scroll"), GREVLEX)
    assert seen and all(o is GREVLEX for o in seen)
    assert result.gin == store.gin("scroll", "grevlex").gin


@pytest.mark.parametrize("saturation", [saturate_irrelevant, is_saturated])
def test_saturation_sorts_its_input_once(monkeypatch, store, saturation):
    # the glex-built ideal is sorted into grevlex before the change, so
    # buchberger never re-sorts a moved generator
    seen = []
    real = gin_mod.buchberger

    def spy(moved, order, hilbert=None):
        seen.extend(g.order for g in moved.generators)
        return real(moved, order, hilbert=hilbert)

    ideal = store.ideal("scroll")
    assert all(g.order is GLEX for g in ideal.generators)
    monkeypatch.setattr(gin_mod, "buchberger", spy)
    saturation(ideal)
    assert seen and all(o is GREVLEX for o in seen)


# -- Hilbert function: pruning and certificate ----------------------------------------

def test_gin_certifies_hilbert_function_to_one_past_top_degree(store):
    for name in ("scroll", "ci22", "castelnuovo", "ci23"):
        for order_name in ("glex", "grevlex"):
            result = store.gin(name, order_name)
            assert result.hilbert_checked_to == \
                result.gin.max_generator_degree() + 1


def _pruning_hilbert(real, shift_at):
    """A buchberger stand-in whose pruning sees H shifted by shift_at(d)."""
    def run(moved, order, hilbert=None):
        if hilbert is None:
            return real(moved, order)
        return real(moved, order, hilbert=lambda d: hilbert(d) + shift_at(d))
    return run


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_gin_rejects_pruning_with_off_by_one_hilbert(monkeypatch, store,
                                                     order, shift):
    # a defect in the pruning looks like a wrong H inside buchberger only;
    # at every degree the criterion consults, gin must fail, not return
    ideal = store.ideal("ci23")
    real = gin_mod.buchberger
    consulted = set()

    def record(d):
        consulted.add(d)
        return 0

    monkeypatch.setattr(gin_mod, "buchberger", _pruning_hilbert(real, record))
    assert gin(ideal, order).gin == store.gin("ci23", order.name).gin
    assert consulted
    for degree in sorted(consulted):
        monkeypatch.setattr(gin_mod, "buchberger", _pruning_hilbert(
            real, lambda d: shift * (d == degree)))
        with pytest.raises(GincomplexError) as err:
            gin(ideal, order)
        assert (isinstance(err.value, InvariantError)
                or "contradicted" in str(err.value))


def test_gin_rejects_hilbert_function_below_truth(monkeypatch, store):
    # the leading monomials always fill I_d, so an H that is one too small
    # in any degree up to M + 1 cannot certify
    ideal = store.ideal("ci22")
    top = store.gin("ci22").gin.max_generator_degree() + 1
    real = gin_mod.hilbert_function_of
    for degree in range(top + 1):
        def wrong(basis, degree=degree):
            hilbert = real(basis)
            return lambda d: hilbert(d) - (d == degree)
        monkeypatch.setattr(gin_mod, "hilbert_function_of", wrong)
        with pytest.raises(GincomplexError) as err:
            gin(ideal, GLEX)
        assert (isinstance(err.value, InvariantError)
                or "contradicted" in str(err.value))


# -- witness monomials ---------------------------------------------------------------

def test_scroll_grevlex_gin_pinned(store):
    # mathematical invariant at this prime, not a seed artifact
    assert store.gin("scroll", "grevlex").gin == MonomialIdeal(
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0)], 5)


def test_golden_gins_reproduce_at_second_prime():
    # genericity is not an accident of p = 32003; 3037000493 is the largest
    # prime whose residue products fit the kernels' int64
    from gincomplex.corpus import entry, golden_monomial_ideal
    for p in (32009, 3037000493):
        for name in ("scroll", "ci22", "ci23"):
            ideal = entry(name).build(p=p)
            result = gin(ideal, GLEX)
            assert result.gin == golden_monomial_ideal(name)


def test_witness_on_golden_lists():
    assert witness_check(golden_monomial_ideal("ci23"), 6, 6, 6)
    assert witness_check(golden_monomial_ideal("acm4"), 7, 9, 18)
    assert witness_check(golden_monomial_ideal("ci24"), 8, 12, 36)


def test_witness_rejects_missing_monomial():
    stripped = MonomialIdeal(
        [g for g in golden_monomial_ideal("ci23").gens
         if g != (1, 1, 0, 6, 0)], 5)
    assert not witness_check(stripped, 6, 6, 6)
