import functools
import hashlib
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gincomplex.errors import (
    ConfigurationError,
    GincomplexError,
    RingMismatchError,
    ZeroPolynomialError,
)
from gincomplex import poly as poly_module
from gincomplex.gin import random_change, unitriangular_change
from gincomplex.poly import (
    DEGREE_CAP,
    EQ,
    GLEX,
    GREVLEX,
    GT,
    LT,
    Ideal,
    Polynomial,
    _apply_change_terms,
    apply_linear_change,
    apply_linear_changes,
    compare,
    factor_change,
    monomial_divides,
    monomial_lcm,
    table_for,
)
from gincomplex.rng import SplitMix64

P = 32003


def poly(terms, nvars=5, p=P, order=GLEX):
    return Polynomial.from_terms(terms, nvars, p, order)


# -- order comparisons -------------------------------------------------------

def test_compare_glex_leftmost_positive():
    assert compare(GLEX, (1, 0, 0, 1, 0), (0, 1, 1, 0, 0)) == GT


def test_compare_grevlex_rightmost_positive_is_smaller():
    assert compare(GREVLEX, (1, 0, 1), (0, 2, 0)) == LT


def test_compare_graded_dominates():
    for order in (GLEX, GREVLEX):
        assert compare(order, (3, 0, 0), (0, 1, 1)) == GT


def test_compare_eq_and_dimension_error():
    assert compare(GLEX, (1, 2), (1, 2)) == EQ
    with pytest.raises(RingMismatchError):
        compare(GLEX, (1, 2), (1, 2, 3))


def _random_monomial(rng, nvars, maxdeg):
    e = [0] * nvars
    for _ in range(rng.below(maxdeg + 1)):
        e[rng.below(nvars)] += 1
    return tuple(e)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_order_axioms_random_triples(order):
    rng = SplitMix64(99)
    for _ in range(1000):
        a = _random_monomial(rng, 4, 6)
        b = _random_monomial(rng, 4, 6)
        c = _random_monomial(rng, 4, 6)
        ab = compare(order, a, b)
        # antisymmetry
        assert ab == -compare(order, b, a)
        assert (ab == EQ) == (a == b)
        # transitivity
        if ab >= 0 and compare(order, b, c) >= 0:
            assert compare(order, a, c) >= 0
        # multiplicative
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare(order, ac, bc) == ab
        # graded
        if sum(a) > sum(b):
            assert ab == GT


# -- leading data -------------------------------------------------------------

def test_leading_term_scroll_generator():
    f = poly([((1, 0, 0, 1, 0), 1), ((0, 1, 1, 0, 0), -1)])
    assert f.leading_term() == (1, (1, 0, 0, 1, 0))


def test_leading_term_single_term():
    f = poly([((0, 2, 1, 0, 0), 17)])
    assert f.leading_term() == (17, (0, 2, 1, 0, 0))


def test_leading_term_grevlex_by_definition():
    # under graded revlex, x2^2 beats x1*x3: the rightmost nonzero entry of
    # the exponent difference is positive, so x1*x3 is the smaller monomial
    f = poly([((0, 1, 0, 1, 0), 1), ((0, 0, 2, 0, 0), -1)], order=GREVLEX)
    assert f.leading_term() == (P - 1, (0, 0, 2, 0, 0))


def test_leading_term_of_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(5, P).leading_term()


def test_d0_examples():
    assert poly([((2, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 1), -1)]).d0() == 2
    assert poly([((0, 1, 2, 0, 0), 5)]).d0() == 0
    f = poly([((1, 2, 0, 0, 0), 1), ((2, 0, 1, 0, 0), 1)])
    assert f.d0() == 2
    # order-independent: same polynomial resorted still reports the glex power
    assert f.with_order(GREVLEX).d0() == 2


# -- arithmetic ----------------------------------------------------------------

def test_add_negation_cancels():
    f = poly([((1, 0, 0, 1, 0), 1), ((0, 1, 1, 0, 0), -1)])
    assert (f + (-f)).is_zero


def test_product_difference_of_squares():
    a = poly([((0, 1, 0), 1), ((0, 0, 1), 1)], nvars=3)
    b = poly([((0, 1, 0), 1), ((0, 0, 1), -1)], nvars=3)
    assert (a * b) == poly([((0, 2, 0), 1), ((0, 0, 2), -1)], nvars=3)


def test_mul_term():
    f = poly([((1, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 1), -1)])
    g = f.mul_term(1, (0, 0, 1, 0, 0))
    assert g == poly([((1, 1, 1, 0, 0), 1), ((0, 0, 1, 1, 1), -1)])


def test_mul_degree_additivity_random():
    rng = SplitMix64(5)
    for _ in range(200):
        d1, d2 = 1 + rng.below(3), 1 + rng.below(3)
        f = _random_homogeneous(rng, 3, d1)
        g = _random_homogeneous(rng, 3, d2)
        assert (f * g).degree == d1 + d2


@pytest.mark.parametrize("p", [7, 32003, 3037000493])
@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_mul_matches_multinomial_coefficients(order, p):
    # (c0*x0 + c1*x1 + c2*x2)^k by repeated products: the coefficient of
    # x^a is k!/(a0! a1! a2!) * c^a mod p; coefficients near p make any
    # unreduced product sum overflow int64 at the largest prime
    k = 9
    cs = (p - 1, p - 2, (p - 1) // 2)
    base = Polynomial.from_terms(
        [((1, 0, 0), cs[0]), ((0, 1, 0), cs[1]), ((0, 0, 1), cs[2])],
        3, p, order)
    power = Polynomial.constant(1, 3, p, order)
    for _ in range(k):
        power = power * base
    expected = {}
    for a in table_for(3, k, GLEX).exps.tolist():
        coeff = math.factorial(k)
        for ai, c in zip(a, cs):
            coeff = coeff // math.factorial(ai) * pow(c, ai, p)
        if coeff % p:
            expected[tuple(a)] = coeff % p
    assert dict(power.terms()) == expected
    assert [e for e, _ in power.terms()] == sorted(
        expected, key=order.key, reverse=True)


@pytest.mark.parametrize("p", [7, 32003, 3037000493])
def test_mul_matches_termwise_reference(p):
    # inhomogeneous factors with repeated product monomials
    rng = SplitMix64(p)
    for order in (GLEX, GREVLEX):
        for _ in range(20):
            f, g = (Polynomial.from_terms(
                [(tuple(rng.below(3) for _ in range(4)), rng.below(p))
                 for _ in range(1 + rng.below(6))], 4, p, order)
                for _ in range(2))
            acc = {}
            for e1, c1 in f.terms():
                for e2, c2 in g.terms():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc[key] = (acc.get(key, 0) + c1 * c2) % p
            want = Polynomial.from_terms(acc.items(), 4, p, order)
            got = f * g
            assert got.terms() == want.terms()
            assert got.order is order


def _random_homogeneous(rng, nvars, degree, p=P):
    tab = table_for(nvars, degree, GLEX)
    k = 1 + rng.below(min(len(tab), 4))
    rows = {rng.below(len(tab)) for _ in range(k)}
    return Polynomial.from_terms(
        [(tuple(tab.exps[r]), rng.field_nonzero(p)) for r in rows],
        nvars, p, GLEX)


@functools.cache
def _enumerate_degree_reference(nvars, degree):
    """Degree-``degree`` exponent rows by recursion on the first exponent."""
    if nvars == 1:
        return np.array([[degree]], dtype=np.int64)
    blocks = []
    for e0 in range(degree, -1, -1):
        sub = _enumerate_degree_reference(nvars - 1, degree - e0)
        col = np.full((sub.shape[0], 1), e0, dtype=np.int64)
        blocks.append(np.hstack([col, sub]))
    return np.vstack(blocks)


def test_tables_match_the_recursive_enumeration(monkeypatch):
    small, large = [], []
    for nvars in range(1, 7):
        for degree in range(41):
            rows = math.comb(degree + nvars - 1, nvars - 1)
            (small if rows <= 20_000 else large).append((nvars, degree, rows))
    built = {(n, d, order): poly_module.MonomialTable(n, d, order)
             for n, d, _ in small for order in (GLEX, GREVLEX)}
    for n, d, rows in large:
        assert poly_module._enumerate_degree(n, d).shape == (rows, n)
    monkeypatch.setattr(poly_module, "_enumerate_degree",
                        _enumerate_degree_reference)
    for (n, d, order), tab in built.items():
        reference = poly_module.MonomialTable(n, d, order)
        assert np.array_equal(tab.exps, reference.exps)
        assert np.array_equal(tab.keys, reference.keys)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_packed_key_overflow_is_a_configuration_error(order):
    # 9 variables overflow int64 at any degree
    with pytest.raises(ConfigurationError):
        order.index_weights(9)
    with pytest.raises(ConfigurationError):
        table_for(9, 2, order)
    # 8 variables fit up to degree 127; at 130, x0^130 would wrap around
    assert len(table_for(8, 2, order)) == 36
    with pytest.raises(ConfigurationError):
        table_for(8, 130, order)


# tables of at most this many rows keep the property below to a few seconds
_PROPERTY_TABLE_ROWS = 20_000


def _top_table_degree(nvars):
    """Highest degree whose packed keys fit int64 and whose table is small."""
    degree = 0
    while degree < DEGREE_CAP:
        try:
            poly_module._check_key_range(nvars, degree + 1)
        except ConfigurationError:
            break
        if math.comb(degree + nvars, nvars - 1) > _PROPERTY_TABLE_ROWS:
            break
        degree += 1
    return degree


@st.composite
def _table_shapes(draw):
    nvars = draw(st.integers(1, 8))
    degree = draw(st.integers(0, _top_table_degree(nvars)))
    return nvars, degree, draw(st.sampled_from([GLEX, GREVLEX]))


@settings(max_examples=80)
@given(_table_shapes())
def test_tables_up_to_the_exponent_cap_property(shape):
    nvars, degree, order = shape
    tab = poly_module.MonomialTable(nvars, degree, order)
    assert tab.exps.dtype == np.uint8 and tab.keys.dtype == np.int64
    assert tab.nbytes == (nvars + 8) * len(tab)
    assert tab.exps.shape == (math.comb(degree + nvars - 1, nvars - 1),
                              nvars)
    assert (tab.exps.sum(axis=1, dtype=np.int64) == degree).all()
    rows = [tuple(row) for row in tab.exps.tolist()]
    # strictly descending in the order, so distinct
    keys = [order.key(row) for row in rows]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert (np.diff(tab.keys) > 0).all()
    # the packed keys, with no int64 wrap, and rows() inverts them
    weights = tab.weights.tolist()
    assert tab.keys.tolist() == [sum(map(operator.mul, row, weights))
                                 for row in rows]
    assert np.array_equal(tab.rows(tab.exps), np.arange(len(tab)))
    assert np.array_equal(tab.rows(tab.exps.astype(np.int64)),
                          np.arange(len(tab)))
    # product_rows finds the rows of products by the sum of their keys
    left = poly_module.MonomialTable(nvars, degree // 2, order).exps[:5]
    right = poly_module.MonomialTable(nvars, degree - degree // 2,
                                      order).exps[-5:]
    found = tab.product_rows(left, right)
    assert found.shape == (len(left), len(right))
    assert np.array_equal(tab.exps[found], left[:, None] + right[None])


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_transvection_near_the_exponent_cap(order):
    # a plan's cells reach e_0 * (degree + 1) + k = 250 * 251 + 250 and its
    # k runs to 250: arithmetic on the uint8 rows would wrap
    degree = 250
    f = Polynomial.from_terms(
        [((degree, 0), 3), ((degree - 1, 1), 1), ((131, 119), 5),
         ((7, degree - 7), 2), ((0, degree), 1)], 2, P, order)
    for matrix in ([[1, 9], [0, 1]], [[1, 0], [4, 1]], [[2, 3], [5, 7]]):
        moved = apply_linear_change(f, matrix)
        assert moved == _apply_change_terms(f, matrix)
        assert moved.order is order and moved.degree == degree


def test_table_cache_evicts_least_recently_used_first(monkeypatch):
    monkeypatch.setattr(poly_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(poly_module, "_table_rows", 0)
    monkeypatch.setattr(poly_module, "_TABLE_ROW_BUDGET", 30)
    cache = poly_module._TABLE_CACHE

    def cached():
        return [degree for _, degree, _ in cache]

    # in 3 variables degree d has (d + 1)(d + 2)/2 rows
    cubics = table_for(3, 3, GLEX)                  # 10 rows
    table_for(3, 2, GLEX)                           # 6
    table_for(3, 1, GLEX)                           # 3
    assert cached() == [3, 2, 1]
    assert table_for(3, 3, GLEX) is cubics          # a hit is the newest
    assert cached() == [2, 1, 3]
    table_for(3, 4, GLEX)                           # 15: 34 rows > 30
    assert cached() == [1, 3, 4]
    assert poly_module._table_rows == 28
    table_for(3, 1, GLEX)
    table_for(3, 5, GLEX)                           # 21: evicts 3, then 4
    assert cached() == [1, 5]
    # a table over the budget by itself stays, alone
    table_for(3, 7, GLEX)                           # 36
    assert cached() == [7]
    assert poly_module._table_rows == 36
    assert table_for(3, 3, GLEX) is not cubics      # rebuilt
    assert cached() == [3]
    assert poly_module._table_rows == 10


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_supports_count_the_dividing_variables(order, monkeypatch):
    for nvars in range(1, 7):
        unit = np.eye(nvars, dtype=np.int64)
        for degree in range(7):
            tab = table_for(nvars, degree, order)
            sup = tab.supports()
            assert tab.supports() is sup
            assert sup.dtype == np.int8
            assert sup.tolist() == [sum(v > 0 for v in row)
                                    for row in tab.exps.tolist()]
            # one row below reaches m through each variable dividing m
            if degree:
                lower = table_for(nvars, degree - 1, order)
                reached = tab.rows(lower.exps[:, None, :] + unit)
                assert np.array_equal(
                    np.bincount(reached.ravel(), minlength=len(tab)), sup)
    # the counts live on the table: one rebuilt after eviction counts again
    monkeypatch.setattr(poly_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(poly_module, "_table_rows", 0)
    monkeypatch.setattr(poly_module, "_TABLE_ROW_BUDGET", 20)
    cubics = table_for(3, 3, order)                 # 10 rows
    sup = cubics.supports()
    plan = cubics.transvection(0, 2)
    # 3 bytes of rows, 8 of key and 1 of support count per row, and the plan
    assert cubics.nbytes == 12 * 10 + sum(a.nbytes for a in plan)
    table_for(3, 4, order)                          # 15: evicts the cubics
    assert cubics.supports() is sup
    rebuilt = table_for(3, 3, order)
    assert rebuilt is not cubics
    assert rebuilt.supports() is not sup
    assert np.array_equal(rebuilt.supports(), sup)


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_dense_slice_round_trip(order):
    rng = SplitMix64(606)
    for nvars in range(1, 6):
        for degree in range(6):
            tab = table_for(nvars, degree, order)
            zero = tab.polynomial(np.zeros(len(tab), dtype=np.int64), P)
            assert zero.is_zero and zero.order is order
            assert zero.exps.shape == (0, nvars)
            for _ in range(5):
                f = Polynomial.from_terms(
                    [(tab.exps[rng.below(len(tab))], rng.below(P))
                     for _ in range(1 + rng.below(8))], nvars, P, order)
                vec = tab.dense(f)
                assert vec.dtype == np.int64 and vec.shape == (len(tab),)
                assert dict(zip(map(tuple, tab.exps[vec != 0].tolist()),
                                vec[vec != 0].tolist())) == dict(f.terms())
                back = tab.polynomial(vec, P)
                assert back.order is order
                assert np.array_equal(back.exps, f.exps)
                assert np.array_equal(back.coeffs, f.coeffs)


def test_prime_above_int64_bound_is_a_configuration_error():
    # residue products must fit in int64: p*p <= 2**63 - 1
    big = 3037000493
    assert Polynomial.zero(5, big).is_zero
    assert Polynomial.from_terms([((1, 0), big - 1)], 2, big).num_terms == 1
    for p in (3037000507, 4294967311):
        with pytest.raises(ConfigurationError):
            Polynomial.zero(5, p)
        with pytest.raises(ConfigurationError):
            Polynomial.from_terms([((1, 0), 1)], 2, p)


def test_composite_modulus_is_a_configuration_error():
    # mod 4 the Fermat inverse pow(c, p - 2, p) is no inverse, and two
    # quadrics in 3 variables would read H(4) = 3 off the Macaulay matrix,
    # which no pair of quadrics over a field has; 3037000491 = 21 *
    # 144619071 lies just below the largest usable prime
    for p in (1, 4, 9, 3037000491):
        with pytest.raises(ConfigurationError, match="not prime"):
            Polynomial.zero(3, p)
        with pytest.raises(ConfigurationError, match="not prime"):
            Polynomial.from_terms([((2, 0, 0), 1)], 3, p)
        with pytest.raises(ConfigurationError, match="not prime"):
            Ideal([], 3, p)
    assert Polynomial.from_terms([((2, 0, 0), 5)], 3, 2).terms() == \
        [((2, 0, 0), 1)]


def test_order_mismatch_arithmetic_rejected():
    f = poly([((1, 0, 0, 0, 0), 1)])
    g = poly([((0, 1, 0, 0, 0), 1)], order=GREVLEX)
    with pytest.raises(RingMismatchError):
        f + g


def test_with_order_resorts():
    f = poly([((0, 1, 0, 1, 0), 1), ((0, 0, 2, 0, 0), 1)])
    assert f.leading_monomial() == (0, 1, 0, 1, 0)
    g = f.with_order(GREVLEX)
    assert g.leading_monomial() == (0, 0, 2, 0, 0)
    assert f == g  # equality ignores term ordering


@pytest.mark.parametrize("nvars", range(1, 7))
def test_with_order_matches_a_from_terms_rebuild(nvars):
    rng = SplitMix64(400 + nvars)
    for source, target in ((GLEX, GREVLEX), (GREVLEX, GLEX)):
        zero = Polynomial.zero(nvars, P, source).with_order(target)
        assert zero.is_zero and zero.order is target
        assert zero.exps.shape == (0, nvars)
        for _ in range(20):
            # inhomogeneous, so the degree and the tie-break both reorder
            f = Polynomial.from_terms(
                [(_random_monomial(rng, nvars, 6), rng.below(P))
                 for _ in range(1 + rng.below(12))], nvars, P, source)
            got = f.with_order(target)
            want = Polynomial.from_terms(f.terms(), nvars, P, target)
            assert got.order is target
            assert np.array_equal(got.exps, want.exps)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.exps.shape == (f.num_terms, nvars)


def test_from_terms_merges_and_drops_zeros():
    f = poly([((1, 0, 0, 0, 0), 5), ((1, 0, 0, 0, 0), P - 5)])
    assert f.is_zero
    g = poly([((1, 0, 0, 0, 0), 1), ((1, 0, 0, 0, 0), 1)])
    assert g.terms() == [((1, 0, 0, 0, 0), 2)]


def test_from_terms_rejects_non_integral_exponents_and_coefficients():
    # nothing is truncated: x1^1.5 used to become x1, 2.5 used to become 2
    for terms in ([((0, 1.5), 1)], [((0, 1.0), 1)], [((0, -1), 1)],
                  [((0, 1), 2.5)], [((0, 1), 1.0)], [((0, 1), "1")],
                  [((0, 1), np.float64(3))]):
        with pytest.raises(GincomplexError):
            Polynomial.from_terms(terms, 2, 7)
    with pytest.raises(GincomplexError):
        Polynomial.monomial((1.5, 0), 2, 7)
    with pytest.raises(GincomplexError):
        Polynomial.constant(0.5, 2, 7)
    # Python and numpy integers of any width stay accepted
    for e, c in (((0, 2), 9), ((np.int64(0), np.int32(2)), np.int64(9)),
                 ((np.uint8(0), 2), np.int16(-5))):
        assert Polynomial.from_terms([(e, c)], 2, 7).terms() \
            == [((0, 2), 2)]


def test_homogeneity_flag():
    assert poly([((1, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0), 2)]).is_homogeneous
    assert not poly([((1, 0, 0, 0, 0), 1), ((2, 0, 0, 0, 0), 2)]).is_homogeneous


# -- linear changes -------------------------------------------------------------

def test_identity_change_is_noop():
    f = poly([((2, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 1), -1)])
    eye = np.eye(5, dtype=np.int64)
    assert apply_linear_change(f, eye) == f


def test_permutation_change_swaps_variables():
    f = poly([((2, 0, 0, 0, 0), 1)])
    swap = np.eye(5, dtype=np.int64)
    swap[[0, 1]] = swap[[1, 0]]
    assert apply_linear_change(f, swap) == poly([((0, 2, 0, 0, 0), 1)])


def test_linear_substitution_row():
    f = Polynomial.monomial((1, 0, 0, 0, 0), 5, 7)
    mat = np.eye(5, dtype=np.int64)
    mat[0] = [1, 1, 0, 0, 0]
    out = apply_linear_change(f, mat)
    assert out == Polynomial.from_terms(
        [((1, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0), 1)], 5, 7)


def test_singular_change_rejected():
    mat = np.zeros((5, 5), dtype=np.int64)
    for f in (poly([((1, 0, 0, 0, 0), 1)]), Polynomial.zero(5, P)):
        with pytest.raises(GincomplexError, match="singular"):
            apply_linear_change(f, mat)


def test_raw_change_must_be_a_square_integer_matrix():
    # a float or string entry is refused, never truncated or parsed
    f = poly([((1, 0), 1)], nvars=2)
    for bad in ([[1.5, 0], [0, 1]], [["1", 0], [0, 1]], np.eye(2)):
        with pytest.raises(GincomplexError, match="integers"):
            apply_linear_change(f, bad)
        with pytest.raises(GincomplexError, match="integers"):
            factor_change(bad, 7)
    assert apply_linear_change(f, [[np.int64(2), 0], [0, 1]]) == \
        poly([((1, 0), 2)], nvars=2)
    for ragged in ([[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [[1, 0]], [1, 0]):
        with pytest.raises(RingMismatchError, match="square"):
            factor_change(ragged, 7)
        with pytest.raises(RingMismatchError):
            apply_linear_change(f, ragged)


def test_change_roundtrip_and_reference_agreement():
    rng = SplitMix64(31)
    for trial in range(60):
        nvars = 3 + trial % 3
        degree = 1 + trial % 4
        f = _random_homogeneous(rng, nvars, degree)
        change = random_change(500 + trial, nvars, P)
        moved = apply_linear_change(f, change)
        assert moved == _apply_change_terms(f, change.matrix)
        assert apply_linear_change(moved, change.inverse) == f
        assert moved.degree == f.degree and moved.is_homogeneous


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_change_agrees_with_matrix_and_reference(p):
    # at small primes many draws are singular and get redrawn
    rng = SplitMix64(p)
    for nvars in range(1, 6):
        for trial in range(6):
            change = random_change(40 * nvars + trial, nvars, p)
            f = _random_homogeneous(rng, nvars, 1 + trial % 4, p)
            moved = change.apply(f)
            assert moved == apply_linear_change(f, change.matrix)
            assert moved == _apply_change_terms(f, change.matrix)
            assert change.apply_inverse(moved) == f


def _random_ideal(rng, nvars, p):
    """Mixed degrees and orders, some generators sharing both; one constant."""
    gens = []
    for degree in (2, 0, 3, 2, 1, 2, 3):
        f = _random_homogeneous(rng, nvars, degree, p)
        gens.append(f.with_order(GREVLEX) if rng.below(2) else f)
    return Ideal(gens, nvars, p)


@pytest.mark.parametrize("p", [2, 3, 7, P, 3037000493])
def test_moving_an_ideal_moves_each_generator(p):
    rng = SplitMix64(1700 + p % 1000)
    for nvars in range(1, 6):
        for trial in range(3):
            ideal = _random_ideal(rng, nvars, p)
            change = random_change(70 * nvars + trial, nvars, p)
            moved = change.apply_ideal(ideal)
            assert (moved.nvars, moved.p) == (nvars, p)
            assert len(moved.generators) == len(ideal.generators)
            for f, g in zip(ideal.generators, moved.generators):
                assert g.order is f.order
                for want in (apply_linear_change(f, change.matrix),
                             _apply_change_terms(f, change.matrix)):
                    assert np.array_equal(g.exps, want.exps)
                    assert np.array_equal(g.coeffs, want.coeffs)
            back = change.apply_inverse(moved)
            for f, g in zip(ideal.generators, back.generators):
                assert g.order is f.order
                assert np.array_equal(g.exps, f.exps)
                assert np.array_equal(g.coeffs, f.coeffs)


@pytest.mark.parametrize("p", [7, P, 3037000493])
def test_a_block_move_equals_each_change_alone(p):
    # 1-3 unitriangular changes (zero coefficients among them at p = 7)
    # move an ideal, or a polynomial, of degree up to 8 in one pass; each
    # result is that change applied alone, and the per-term reference
    rng = SplitMix64(2600 + p % 1000)
    for nvars in range(1, 7):
        for trials in range(1, 4):
            # every degree 0..8 comes up, and 8 for every nvars
            degrees = {(3 * nvars + trials) % 9, 8 if trials == 1 else 1}
            gens = [_random_homogeneous(rng, nvars, d, p)
                    for d in sorted(degrees)]
            gens = [f.with_order(GREVLEX) if rng.below(2) else f
                    for f in gens]
            ideal = Ideal(gens, nvars, p)
            changes = [unitriangular_change(100 * nvars + 10 * trials + t,
                                            nvars, p) for t in range(trials)]
            for change, moved in zip(changes,
                                     apply_linear_changes(ideal, changes)):
                alone = apply_linear_change(ideal, change)
                for f, g, h in zip(ideal.generators, moved.generators,
                                   alone.generators):
                    want = _apply_change_terms(f, change.matrix)
                    assert g.order is h.order is f.order
                    for got in (g, h):
                        assert np.array_equal(got.exps, want.exps)
                        assert np.array_equal(got.coeffs, want.coeffs)
            f = gens[-1]
            for change, moved in zip(changes,
                                     apply_linear_changes(f, changes)):
                assert moved == apply_linear_change(f, change)


def test_changes_of_different_shapes_move_in_separate_passes():
    # dense draws factor into steps of their own; each change still moves
    # as it would alone, in input order, whatever the mix
    rng = SplitMix64(2700)
    ideal = _random_ideal(rng, 4, P)
    changes = [random_change(1, 4, P), unitriangular_change(2, 4, P),
               random_change(3, 4, P), unitriangular_change(4, 4, P),
               np.eye(4, dtype=np.int64)]
    moved = apply_linear_changes(ideal, changes)
    assert len(moved) == len(changes)
    for change, got in zip(changes, moved):
        for g, h in zip(got.generators,
                        apply_linear_change(ideal, change).generators):
            assert np.array_equal(g.exps, h.exps)
            assert np.array_equal(g.coeffs, h.coeffs)
    assert apply_linear_changes(ideal, []) == []
    zero = Polynomial.zero(4, P)
    assert apply_linear_changes(zero, changes[:2]) == [zero, zero]


# sha256 over the moved generators of the five default corpus entries, for
# change seeds 2024, 7 and 99, both orders and both directions; see
# _moves_digest.  Any change to the coordinate change that moves a single
# coefficient changes it.
GOLDEN_MOVES_SHA256 = (
    "eeb1f623dc5a2751e32e79794f542e21789c35a77cf90ada3817a5a47d8d3942")


def _moves_digest(ideals):
    digest = hashlib.sha256()
    for ideal in ideals:
        for order in (GLEX, GREVLEX):
            start = ideal.with_order(order)
            for seed in (2024, 7, 99):
                change = random_change(seed, ideal.nvars, ideal.p)
                for move in (change.apply, change.apply_inverse):
                    for g in move(start).generators:
                        digest.update(np.array(g.exps.shape,
                                               dtype=np.int64).tobytes())
                        digest.update(g.exps.astype(np.int64).tobytes())
                        digest.update(g.coeffs.astype(np.int64).tobytes())
    return digest.hexdigest()


def test_coordinate_changes_are_pinned(store):
    names = ("scroll", "ci22", "castelnuovo", "ci23", "acm4")
    assert _moves_digest([store.ideal(name) for name in names]) \
        == GOLDEN_MOVES_SHA256


def test_factored_change_prime_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        random_change(1, 5, 7).apply(poly([((1, 0, 0, 0, 0), 1)]))


def test_degree_above_cap_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="cap"):
        table_for(5, DEGREE_CAP + 1, GLEX)
    # no substitution fallback above the cap (it used to recurse away)
    f = Polynomial.from_terms([((3000, 0), 1), ((0, 3000), -1)], 2, P)
    with pytest.raises(ConfigurationError, match="cap"):
        random_change(1, 2, P).apply(f)


# -- ideals ----------------------------------------------------------------------

def test_ideal_validation():
    with pytest.raises(ZeroPolynomialError):
        Ideal([Polynomial.zero(5, P)], 5, P)
    with pytest.raises(GincomplexError):
        Ideal([poly([((1, 0, 0, 0, 0), 1), ((2, 0, 0, 0, 0), 1)])], 5, P)
    with pytest.raises(RingMismatchError):
        Ideal([poly([((1, 0, 0), 1)], nvars=3),
               poly([((1, 0, 0, 0), 1)], nvars=4)])


def test_monomial_helpers():
    assert monomial_divides((1, 0, 2), (2, 0, 2))
    assert not monomial_divides((1, 1, 0), (2, 0, 2))
    assert monomial_lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)
