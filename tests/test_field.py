import time

import pytest
from hypothesis import given, settings, strategies as st

from gincomplex.errors import ConfigurationError, RingMismatchError
from gincomplex.field import DEFAULT_PRIME, FieldElement, PrimeField, is_prime
from gincomplex.rng import SplitMix64


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == 32003


def test_add_wraparound_and_identity():
    f = PrimeField(32003)
    assert (f.element(32002) + f.element(1)).value == 0
    assert (f.element(0) + f.element(17)).value == 17


def test_add_small_prime():
    f = PrimeField(7)
    assert (f.element(5) + f.element(4)).value == 2


def test_inverse_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    f = PrimeField(32003)
    assert f.inv(1) == 1
    for p in (7, 31, 32003):
        fp = PrimeField(p)
        assert fp.inv(p - 1) == p - 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(32003).element(0).inverse()


def test_modulus_mismatch_is_configuration_error():
    a = PrimeField(7).element(3)
    b = PrimeField(11).element(3)
    with pytest.raises(RingMismatchError):
        a + b
    assert issubclass(RingMismatchError, ConfigurationError)


def test_bad_modulus_rejected():
    for bad in (1, 4, 32001, 2):
        with pytest.raises(ConfigurationError):
            PrimeField(bad)


def test_modulus_above_the_int64_bound_rejected_at_once():
    # the smallest prime above the bound, and a prime whose trial division
    # alone would run for minutes
    for big in (3037000507, 1000000000000000003):
        started = time.perf_counter()
        with pytest.raises(ConfigurationError, match="too large"):
            PrimeField(big)
        assert time.perf_counter() - started < 1
    assert PrimeField(3037000493).p == 3037000493


def test_field_axioms_bulk():
    # associativity, commutativity, distributivity, inverses on >= 10^4
    # random triples
    f = PrimeField(32003)
    rng = SplitMix64(2024)
    p = f.p
    for _ in range(10_000):
        a, b, c = rng.below(p), rng.below(p), rng.below(p)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        if a:
            assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=300)
@given(st.integers(0, 32002), st.integers(0, 32002))
def test_sub_inverts_add(a, b):
    f = PrimeField(32003)
    assert f.sub(f.add(a, b), b) == a


def test_canonical_range_enforced():
    with pytest.raises(ConfigurationError):
        FieldElement(7, PrimeField(7))
    with pytest.raises(ConfigurationError):
        FieldElement(-1, PrimeField(7))
