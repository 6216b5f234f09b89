"""Acceptance gate: one test per criterion, one printed verdict line each.

Symbolic results are exact, so tolerances are set equality of monomial
ideals and integer equality of complexities; the only numeric tolerances are
the wall-clock budgets, which assume warm kernels (the session fixture runs
each kernel once first).
"""

import time

import pytest

from gincomplex import corpus, geometry
from gincomplex.corpus import monomial_strings
from gincomplex.field import PrimeField
from gincomplex.gin import gin, witness_check
from gincomplex.groebner import buchberger, hilbert_function_macaulay
from gincomplex.pei import (
    MODE_EQUAL,
    MODE_UPTO,
    hilbert_identity_check,
    k1_saturation_check,
    partial_elimination,
    recombine_m,
)
from gincomplex.poly import GLEX, GREVLEX, Ideal, Polynomial, compare, table_for
from gincomplex.rng import SplitMix64

from conftest import EXTENDED, extended_only

P = 32003

GIN_BUDGETS = {"scroll": 1.0, "ci22": 1.0, "castelnuovo": 5.0,
               "ci23": 30.0, "acm4": 300.0}


def _line(criterion, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {label}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} {label}{suffix}"


# -- 1. golden gins ---------------------------------------------------------------

@pytest.mark.parametrize("name", list(GIN_BUDGETS))
def test_criterion_1_golden_gins(store, name):
    entry = corpus.entry(name)
    result = store.gin(name)
    elapsed = store.timings[(name, "glex")]
    got = set(monomial_strings(result.gin))
    want = set(entry.expected_gin)
    _line("1", f"{name} gin set", got == want,
          f"{len(got)} generators")
    _line("1", f"{name} M", result.borel
          and result.gin.regularity() == entry.expected_M,
          f"M={entry.expected_M}")
    _line("1", f"{name} runtime", elapsed < GIN_BUDGETS[name],
          f"{elapsed:.2f}s < {GIN_BUDGETS[name]:.0f}s")


@extended_only
@pytest.mark.extended
def test_criterion_1_extended_ci24(store):
    entry = corpus.entry("ci24")
    result = store.gin("ci24")
    elapsed = store.timings[("ci24", "glex")]
    got = set(monomial_strings(result.gin))
    ok = (got == set(entry.expected_gin) and result.borel
          and result.gin.regularity() == 38 and elapsed < 1800.0)
    attempt = 0
    if not ok:
        # documented retry policy: one reseed/re-prime attempt before red
        ideal = entry.build(seed=entry.seed + 1000, p=32009)
        started = time.monotonic()
        result = gin(ideal, GLEX)
        elapsed = time.monotonic() - started
        got = set(monomial_strings(result.gin))
        ok = (got == set(entry.expected_gin) and result.borel
              and result.gin.regularity() == 38 and elapsed < 1800.0)
        attempt = 1
    _line("1", "ci24 gin set + M=38 (extended)", ok,
          f"{elapsed:.1f}s, attempt {attempt}")


# -- 2. formula reproduction --------------------------------------------------------

CI_TABLE = {5: (122, 6), 6: (302, 7), 7: (632, 8), 8: (1178, 9),
            9: (2018, 10), 10: (3242, 11), 20: (64982, 21),
            50: (2881202, 51), 100: (48024902, 101)}
ACM_TABLE = {5: (74, 5), 6: (202, 6), 7: (452, 7), 8: (884, 8),
             9: (1570, 9), 10: (2594, 10), 20: (58484, 20),
             50: (2765954, 50), 100: (47064404, 100)}


def test_criterion_2_tables():
    geometry.table_rows()  # warm any lazy machinery
    best = min(_timed_table_rows() for _ in range(5))
    rows = geometry.table_rows()
    ci = {a: (big, small) for a, big, small in rows["ci"]}
    acm = {a: (big, small) for a, big, small in rows["acm"]}
    _line("2", "table cells", ci == CI_TABLE and acm == ACM_TABLE,
          "18 published cells")
    _line("2", "runtime", best < 0.001, f"{best * 1e6:.0f}us < 1ms")


def _timed_table_rows():
    started = time.perf_counter()
    geometry.table_rows()
    return time.perf_counter() - started


# -- 3. cross-validation --------------------------------------------------------------

def test_criterion_3_cross_validation(store):
    names = list(GIN_BUDGETS) + (["ci24"] if EXTENDED else [])
    for name in names:
        entry = corpus.entry(name)
        pred = geometry.surface_complexity_on_quadric(entry.invariants)
        big_m = store.gin(name).gin.regularity()
        _line("3", f"{name} M vs prediction", big_m == pred.M,
              f"M={big_m}")
        grev = store.gin(name, "grevlex")
        small_m = grev.gin.regularity()
        if entry.expected_m is None:
            _line("3", f"{name} m computed-only", grev.borel
                  and small_m <= big_m, f"m={small_m}, no reference value")
        else:
            ref = ("alpha+1" if entry.family == "ci" else "alpha")
            _line("3", f"{name} m = {ref}", small_m == entry.expected_m,
                  f"m={small_m}")


# -- 4. recombination identity ----------------------------------------------------------

def test_criterion_4_recombination(store):
    names = list(GIN_BUDGETS) + (["ci24"] if EXTENDED else [])
    for name in names:
        result = store.gin(name)
        rec = recombine_m(store.ideal(name), gin_result=result)
        _line("4", f"{name} recombined", rec.value == result.gin.regularity(),
              f"max over strata = {rec.value}")


# -- 5. Hilbert identity ------------------------------------------------------------------

def test_criterion_5_hilbert_identity(store):
    for name in ("scroll", "ci22", "ci23", "castelnuovo"):
        res = hilbert_identity_check(store.ideal(name), 6,
                                     gin_result=store.gin(name))
        _line("5", f"{name} stratum sum (m <= 6)", res.ok,
              f"lhs=rhs={res.lhs}" if res.ok else f"first failure m={res.failed_m}")


# -- 6. Macaulay-matrix oracle --------------------------------------------------------------

def test_criterion_6_macaulay_oracle(store):
    names = list(GIN_BUDGETS) + (["ci24"] if EXTENDED else [])
    for name in names:
        ideal = store.ideal(name)
        gin_ideal = store.gin(name).gin
        ok = all(hilbert_function_macaulay(ideal, m)
                 == gin_ideal.hilbert_function(m) for m in range(9))
        _line("6", f"{name} matrix rank vs monomial count", ok, "m = 0..8")


# -- 7. counterexample regression ---------------------------------------------------------------

def test_criterion_7_counterexample():
    gb = buchberger(corpus.remark_counterexample(), GLEX)
    strict = partial_elimination(gb, 1, MODE_EQUAL, generic=True)
    relaxed = partial_elimination(gb, 1, MODE_UPTO)
    strict_leads = sorted(g.leading_monomial()
                          for g in strict.ideal.generators)
    relaxed_leads = sorted(g.leading_monomial()
                           for g in relaxed.ideal.generators)
    ok = (strict_leads == [(0, 1, 0), (1, 0, 0)]
          and relaxed_leads == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
          and strict_leads != relaxed_leads)
    _line("7", "strict (x1,x2) vs relaxed (x1,x2,x3)", ok)


# -- 8. first-stratum saturation ------------------------------------------------------------------

def test_criterion_8_k1_saturation(store):
    for name in ("scroll", "ci22", "ci23"):
        ok = k1_saturation_check(store.ideal(name),
                                 gin_result=store.gin(name))
        _line("8", f"{name} K1 saturated", ok)


# -- 9. witness monomials ----------------------------------------------------------------------------

def test_criterion_9_witness_monomials(store):
    targets = {"ci23": (6, 6, 6), "acm4": (7, 9, 18), "ci24": (8, 12, 36)}
    for name, (d, deg_y1, nodes) in targets.items():
        golden = corpus.golden_monomial_ideal(name)
        _line("9", f"{name} golden witness", witness_check(
            golden, d, deg_y1, nodes), f"({d},{deg_y1},{nodes})")
    for name in ("ci23", "acm4"):
        d, deg_y1, nodes = targets[name]
        _line("9", f"{name} computed witness", witness_check(
            store.gin(name).gin, d, deg_y1, nodes))
    if EXTENDED:
        _line("9", "ci24 computed witness", witness_check(
            store.gin("ci24").gin, 8, 12, 36))


# -- 10. property suites -------------------------------------------------------------------------------

def test_criterion_10_field_axioms():
    field = PrimeField(P)
    rng = SplitMix64(314159)
    failures = 0
    for _ in range(10_000):
        a, b, c = rng.below(P), rng.below(P), rng.below(P)
        if field.add(field.add(a, b), c) != field.add(a, field.add(b, c)):
            failures += 1
        if field.mul(a, field.add(b, c)) != \
                field.add(field.mul(a, b), field.mul(a, c)):
            failures += 1
        if a and field.mul(a, field.inv(a)) != 1:
            failures += 1
    _line("10", "field axioms", failures == 0, "10^4 random triples")


def test_criterion_10_order_axioms():
    rng = SplitMix64(271828)
    failures = 0
    for order in (GLEX, GREVLEX):
        for _ in range(1000):
            mons = []
            for _ in range(3):
                e = [0] * 4
                for _ in range(rng.below(7)):
                    e[rng.below(4)] += 1
                mons.append(tuple(e))
            a, b, c = mons
            ab = compare(order, a, b)
            if ab != -compare(order, b, a):
                failures += 1
            if ab >= 0 and compare(order, b, c) >= 0 \
                    and compare(order, a, c) < 0:
                failures += 1
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            if compare(order, ac, bc) != ab:
                failures += 1
            if sum(a) > sum(b) and ab != 1:
                failures += 1
    _line("10", "order axioms", failures == 0,
          "10^3 triples per order")


def _random_ideal(rng, nvars=3, maxdeg=2):
    tabs = {d: table_for(nvars, d, GLEX) for d in range(1, maxdeg + 1)}
    gens = []
    for _ in range(1 + rng.below(2)):
        tab = tabs[1 + rng.below(maxdeg)]
        rows = {rng.below(len(tab)) for _ in range(1 + rng.below(3))}
        gens.append(Polynomial.from_terms(
            [(tuple(tab.exps[r]), rng.field_nonzero(P)) for r in rows],
            nvars, P, GLEX))
    return gens


def test_criterion_10_reduced_basis_uniqueness():
    rng = SplitMix64(161803)
    failures = 0
    for _ in range(1000):
        gens = _random_ideal(rng, nvars=3, maxdeg=3)
        gb1 = buchberger(Ideal(gens), GLEX)
        perm = list(gens)
        for i in range(len(perm) - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        gb2 = buchberger(Ideal(perm), GLEX)
        if [tuple(e.terms()) for e in gb1.elements] != \
                [tuple(e.terms()) for e in gb2.elements]:
            failures += 1
    _line("10", "reduced basis unique under permutation", failures == 0,
          "10^3 randomized ideals")


def test_criterion_10_gin_borel():
    rng = SplitMix64(141421)
    failures = 0
    for trial in range(1000):
        gens = _random_ideal(rng, nvars=3, maxdeg=2)
        result = gin(Ideal(gens, 3, P), GLEX, seed_base=50_000 + 10 * trial)
        if not result.borel:
            failures += 1
    _line("10", "stabilized gins Borel-fixed", failures == 0,
          "10^3 randomized ideals")
