import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

gin_mod = importlib.import_module("gincomplex.gin")
groebner_mod = importlib.import_module("gincomplex.groebner")
from gincomplex.corpus import golden_monomial_ideal, scroll
from gincomplex.errors import (
    ConfigurationError,
    GincomplexError,
    InvariantError,
    UnstableGinError,
)
from gincomplex.gin import (
    check_surface,
    degree_complexity,
    gin,
    is_saturated,
    random_change,
    saturate_irrelevant,
    unitriangular_change,
    witness_check,
    witness_monomials,
)
from gincomplex.groebner import (
    MonomialIdeal,
    buchberger,
    hilbert_function_macaulay,
)
from gincomplex.poly import (
    GLEX,
    GREVLEX,
    Ideal,
    Polynomial,
    _ops_product,
    table_for,
)
from gincomplex.rng import SplitMix64

P = 32003


# -- coordinate changes ---------------------------------------------------------

@pytest.mark.parametrize("p", [7, 32003, 3037000493])
def test_unitriangular_change_steps_multiply_to_its_matrices(p):
    for nvars in range(1, 7):
        for seed in range(20):
            ch = unitriangular_change(seed, nvars, p)
            assert ch == unitriangular_change(seed, nvars, p)
            assert (ch.seed, ch.p, ch.nvars) == (seed, p, nvars)
            # one step per pair j < i, column by column, drawn in that order
            rng = SplitMix64(seed)
            assert ch.ops == tuple(("trans", i, j, rng.below(p))
                                   for j in range(nvars)
                                   for i in range(j + 1, nvars))
            assert all(ch.matrix[i][j] == (i == j)
                       for i in range(nvars) for j in range(i, nvars))
            assert _ops_product(ch.ops, nvars, p) == ch.matrix
            assert _ops_product(ch.inverse_ops, nvars, p) == ch.inverse
            mat = np.array(ch.matrix, dtype=object)
            inv = np.array(ch.inverse, dtype=object)
            assert ((mat.dot(inv) % p) == np.eye(nvars, dtype=int)).all()
            assert ch.inverted.ops == ch.inverse_ops


@pytest.mark.parametrize("draw", [random_change, unitriangular_change],
                         ids=["random", "unitriangular"])
@pytest.mark.parametrize("p", [0, 1, 4, 3037000507])
def test_changes_reject_a_modulus_out_of_range(draw, p):
    # over a one-element ring every matrix is singular, so a dense draw
    # would redraw forever; p = 0 has no residues to draw from; mod 4 the
    # Fermat inverses of the factorization are wrong; and 3037000507, the
    # first prime past the bound, overflows int64 products
    with pytest.raises(ConfigurationError):
        draw(1, 3, p)


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


def _each_trial(run):
    """A lockstep stand-in that gives each ideal to ``run`` in turn."""
    def trials(ideals, order, hilbert=None):
        return [run(ideal, order, hilbert=hilbert) for ideal in ideals]
    return trials


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

    # the first trials of a graded-lex gin come from the lockstep entry,
    # the later ones from buchberger
    monkeypatch.setattr(gin_mod, "buchberger", flipflop)
    monkeypatch.setattr(gin_mod, "buchberger_trials", _each_trial(flipflop))
    with pytest.raises(UnstableGinError) as err:
        gin(ideal, GLEX, trial_budget=4)
    assert len(err.value.trials) == 4


def test_gin_sorts_its_input_once(monkeypatch, store):
    # the glex-built ideal is sorted into grevlex before any trial, so
    # neither Groebner entry ever re-sorts a moved generator
    seen = []
    real, real_trials = gin_mod.buchberger, gin_mod.buchberger_trials

    def spy(moved, trial_order, hilbert=None):
        seen.extend(g.order for g in moved.generators)
        return real(moved, trial_order, hilbert=hilbert)

    def spy_trials(moves, trial_order, hilbert=None):
        for moved in moves:
            seen.extend(g.order for g in moved.generators)
        return real_trials(moves, trial_order, hilbert=hilbert)

    monkeypatch.setattr(gin_mod, "buchberger", spy)
    monkeypatch.setattr(gin_mod, "buchberger_trials", spy_trials)
    result = gin(store.ideal("scroll"), GREVLEX)
    assert seen and all(o is GREVLEX for o in seen)
    assert result.gin == store.gin("scroll", "grevlex").gin


@pytest.mark.parametrize("min_agree", [1, 2, 3])
def test_glex_gin_runs_its_first_trials_in_lockstep(monkeypatch, store,
                                                    min_agree):
    # trial 1's grevlex run gives H; the first min_agree graded-lex runs go
    # through one lockstep call, and agreeing they end the gin
    seen = []
    real, real_trials = gin_mod.buchberger, gin_mod.buchberger_trials

    def spy(moved, order, hilbert=None):
        seen.append(("buchberger", order, hilbert is None))
        return real(moved, order, hilbert=hilbert)

    def spy_trials(moves, order, hilbert=None):
        seen.append(("trials", order, len(moves)))
        return real_trials(moves, order, hilbert=hilbert)

    golden = store.gin("ci23").gin
    monkeypatch.setattr(gin_mod, "buchberger", spy)
    monkeypatch.setattr(gin_mod, "buchberger_trials", spy_trials)
    result = gin(store.ideal("ci23"), GLEX, min_agree=min_agree)
    assert seen == [("buchberger", GREVLEX, True),
                    ("trials", GLEX, min_agree)]
    assert result.gin == golden
    assert len(result.seeds) == result.trials_agreed == min_agree


@pytest.mark.parametrize("min_agree", [1, 2, 3])
def test_grevlex_gin_runs_its_first_trials_in_lockstep(monkeypatch, store,
                                                       min_agree):
    # the first min_agree grevlex runs go through one unpruned lockstep
    # call, trial 1's basis from it gives H, and agreeing they end the gin
    seen, hilbert_bases = [], []
    real, real_trials = gin_mod.buchberger, gin_mod.buchberger_trials
    real_hilbert = gin_mod.hilbert_function_of

    def spy(moved, order, hilbert=None):
        seen.append(("buchberger", order, hilbert is None))
        return real(moved, order, hilbert=hilbert)

    def spy_trials(moves, order, hilbert=None):
        bases = real_trials(moves, order, hilbert=hilbert)
        seen.append(("trials", order, len(moves), hilbert is None, bases))
        return bases

    def spy_hilbert(basis):
        hilbert_bases.append(basis)
        return real_hilbert(basis)

    golden = store.gin("ci23", "grevlex").gin
    monkeypatch.setattr(gin_mod, "buchberger", spy)
    monkeypatch.setattr(gin_mod, "buchberger_trials", spy_trials)
    monkeypatch.setattr(gin_mod, "hilbert_function_of", spy_hilbert)
    result = gin(store.ideal("ci23"), GREVLEX, min_agree=min_agree)
    assert [call[:4] for call in seen] == [
        ("trials", GREVLEX, min_agree, True)]
    bases = seen[0][4]
    assert hilbert_bases == [bases[0]]
    assert result.gin == golden and result.basis is bases[-1]
    assert len(result.seeds) == result.trials_agreed == min_agree


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


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_gin_hilbert_functions_chain_no_tables(monkeypatch, store, order):
    # trial 1's initial ideal (the pruning H) and the gin are Borel-fixed,
    # so both Hilbert functions come in closed form, without a table chain
    golden = store.gin("acm4", order.name).gin

    def refuse(self, degree):
        raise AssertionError(f"table chain asked for degree {degree}")

    monkeypatch.setattr(MonomialIdeal, "_covered", refuse)
    result = gin(store.ideal("acm4"), order)
    assert result.gin == golden and result.borel
    assert result.gin._cover is None


def _pruning_hilbert(real, shift_at):
    """A buchberger (or lockstep) stand-in whose pruning sees H shifted by
    shift_at(d)."""
    def run(moved, order, hilbert=None):
        if hilbert is None:
            return real(moved, order)
        return real(moved, order, hilbert=lambda d: hilbert(d) + shift_at(d))
    return run


def _patch_pruning(monkeypatch, shift_at):
    """Shift H inside both Groebner entries of ``gin`` by shift_at(d)."""
    for name in ("buchberger", "buchberger_trials"):
        monkeypatch.setattr(gin_mod, name, _pruning_hilbert(
            getattr(groebner_mod, name), shift_at))


def _special_second_trial(monkeypatch, quadric):
    """Make trial 2 of a default gin a special draw, so it disagrees.

    Its change has the steps of every other draw, with c_10 = a, c_20 = b
    and every other c set to 0, where (1, a, b, 0, ...) is a point on the
    quadric.  The moved quadric then has no x0^2 term, so its initial
    ideal is not the gin, whose degree-2 part is x0^2.
    """
    p = quadric.p
    column = np.arange(p, dtype=np.int64)
    for a in range(p):
        # q(1, a, b, 0, ...) for every b in F_p, term by term
        values = np.zeros(p, dtype=np.int64)
        for e, c in quadric.terms():
            if any(e[3:]):
                continue
            values = (values + c * pow(a, e[1], p)
                      * column ** e[2] % p) % p
        roots = (values == 0).nonzero()[0]
        if roots.size:
            point = {(1, 0): a, (2, 0): int(roots[0])}
            break
    real = gin_mod.unitriangular_change

    def change(seed, nvars, p):
        drawn = real(seed, nvars, p)
        if seed != gin_mod.DEFAULT_SEED_BASE + 1:
            return drawn
        ops = tuple(op[:3] + (point.get(op[1:3], 0),) for op in drawn.ops)
        inverse_ops = tuple(op[:3] + (-op[3] % p,) for op in reversed(ops))
        return gin_mod.CoordinateChange(
            _ops_product(ops, nvars, p), _ops_product(inverse_ops, nvars, p),
            seed, p, ops, inverse_ops)

    monkeypatch.setattr(gin_mod, "unitriangular_change", change)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_gin_rejects_pruning_with_off_by_one_hilbert(monkeypatch, store,
                                                     order, shift):
    # a defect in the pruning looks like a wrong H inside buchberger only;
    # at every degree the criterion consults, gin must fail, not return
    ideal = store.ideal("ci23")
    consulted = set()
    if order is GREVLEX:
        # a grevlex gin's first trials run unpruned; a disagreeing trial 2
        # makes the gin run pruned trials after them
        _special_second_trial(monkeypatch, ideal.generators[0])

    def record(d):
        consulted.add(d)
        return 0

    _patch_pruning(monkeypatch, record)
    result = gin(ideal, order)
    assert result.gin == store.gin("ci23", order.name).gin
    # under grevlex, trial 2 disagreed and pruned trials 3 and 4 decided
    assert len(result.seeds) == (4 if order is GREVLEX else 2)
    assert consulted
    for degree in sorted(consulted):
        _patch_pruning(monkeypatch, lambda d: shift * (d == degree))
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


def test_witness_monomials_pad_to_the_ring():
    assert witness_monomials(5, 6, 6, 6) == (
        (0, 6, 0, 0, 0), (1, 0, 6, 0, 0), (1, 1, 0, 6, 0))
    assert witness_monomials(4, 3, 1, 0) == (
        (0, 3, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0))
    with pytest.raises(ConfigurationError):
        witness_monomials(3, 3, 1, 0)


def test_check_surface_scroll():
    from gincomplex.geometry import acm_invariants
    check = check_surface(scroll(), acm_invariants(2))
    assert (check.M, check.m) == (3, 2)
    assert check.M == check.glex.complexity() == check.prediction.M
    assert check.m == check.grevlex.complexity()
    assert check.witness is True
    bare = check_surface(scroll())
    assert bare.prediction is None and bare.witness is None
    assert bare.glex.gin == check.glex.gin


# -- the unitriangular family against dense changes ---------------------------

def _gin_outcome(run):
    """A gin's monomial ideal, seeds and agreement, or its error's type."""
    try:
        result = run()
    except GincomplexError as err:
        return type(err)
    return result.gin, result.seeds, result.trials_agreed, result.borel


def _dense_family(monkeypatch):
    """Make every gin trial draw a dense uniform change instead."""
    monkeypatch.setattr(gin_mod, "unitriangular_change", random_change)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_gin_is_the_same_under_dense_changes(monkeypatch, store, order):
    names = ("scroll", "ci22", "castelnuovo", "ci23", "acm4")
    want = [store.gin(name, order.name) for name in names]
    _dense_family(monkeypatch)
    for name, unitriangular in zip(names, want):
        dense = gin(store.ideal(name), order)
        assert dense.gin == unitriangular.gin, name
        assert dense.seeds == unitriangular.seeds, name


@st.composite
def _small_ideals(draw):
    """A random homogeneous ideal: n = 2..4, 1-3 generators of degree 1..3
    with 1-4 terms each, at one of the three test primes."""
    nvars = draw(st.integers(2, 4))
    p = draw(st.sampled_from([7, 32003, 3037000493]))
    gens = []
    for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        tab = table_for(nvars, d, GLEX)
        rows = draw(st.sets(st.integers(0, len(tab) - 1), min_size=1,
                            max_size=4))
        gens.append(Polynomial.from_terms(
            [(tuple(tab.exps[r]), draw(st.integers(1, p - 1)))
             for r in sorted(rows)], nvars, p, GLEX))
    return Ideal(gens, nvars, p)


@settings(max_examples=60)
@given(_small_ideals(), st.sampled_from([GLEX, GREVLEX]))
def test_gin_is_the_same_under_dense_changes_property(ideal, order):
    # the gin's answer is that of its last trial's change applied alone; at
    # the large primes the dense family gives the same gin.  F_7 has too
    # few points for either family's draws to be generic reliably (about a
    # fifth of these ideals get different answers, or none), so there the
    # families are not compared
    unitriangular = _gin_outcome(lambda: gin(ideal, order))
    if isinstance(unitriangular, tuple):
        gin_ideal, seeds = unitriangular[:2]
        alone = unitriangular_change(seeds[-1], ideal.nvars, ideal.p)
        moved = alone.apply_ideal(ideal.with_order(order))
        assert buchberger(moved, order).initial_ideal() == gin_ideal
    if ideal.p == 7:
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        _dense_family(monkeypatch)
        dense = _gin_outcome(lambda: gin(ideal, order))
    assert dense == unitriangular
