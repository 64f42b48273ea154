from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tdlab.rng import SplitMix64
from tdlab.scalars import (
    FieldError,
    PrimeField,
    RationalField,
    field_from_descriptor,
    is_prime,
    rational_sqrt,
    sqrt_in_field,
)


def test_parse_canonicalizes_rationals():
    f = RationalField()
    assert f.format(f.parse("6/4")) == "3/2"
    assert f.format(f.parse("0/5")) == "0"
    assert f.format(f.parse("-4/2")) == "-2"
    assert f.parse("7") == F(7)


def test_parse_reduces_mod_p():
    f = PrimeField(13)
    assert f.parse("-3").value == 10
    assert f.parse("26").value == 0
    assert f.format(f.parse("100")) == "9"


@pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", "+3", "3/-2", "1/2/3", " 1"])
def test_rational_parse_rejects(bad):
    with pytest.raises(FieldError):
        RationalField().parse(bad)


@pytest.mark.parametrize("bad", ["", "1/2", "x", "2.0"])
def test_prime_parse_rejects(bad):
    with pytest.raises(FieldError):
        PrimeField(7).parse(bad)


def test_prime_modulus_validated():
    for p in (2, 3, 13, 10007):
        PrimeField(p)
    for bad in (0, 1, 4, 9, 10006, -7):
        with pytest.raises(FieldError):
            PrimeField(bad)


def test_is_prime_matches_trial_division():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for i in range(2, 200):
        if sieve[i]:
            for j in range(2 * i, 200, i):
                sieve[j] = False
    assert [n for n in range(200) if is_prime(n)] == [n for n in range(200) if sieve[n]]


def test_is_prime_on_large_moduli():
    assert is_prime(2**61 - 1)
    # a Carmichael number, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and a multiple of 3
    for composite in (561, 3215031751, 2**61 + 1):
        assert not is_prime(composite)
    PrimeField(2**61 - 1)
    with pytest.raises(FieldError):
        PrimeField(2**89 - 1)  # prime, but above the bound where the test is exact


def test_inverse_of_five_mod_thirteen_by_exhaustion():
    # independent oracle: scan every residue for the inverse
    expected = [r for r in range(13) if 5 * r % 13 == 1]
    assert expected == [8]
    f = PrimeField(13)
    assert (f.one / f.from_int(5)).value == 8


def test_mul_by_inverse_is_one():
    f = PrimeField(13)
    for r in range(1, 13):
        x = f.from_int(r)
        assert x * (x ** (-1)) == f.one


@pytest.mark.parametrize("field", [RationalField(), PrimeField(13), PrimeField(10007)])
def test_field_axioms_on_random_pairs(field):
    rng = SplitMix64(2024)
    for _ in range(1000):
        a, b, c = (_rand(field, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _rand(field, rng):
    if isinstance(field, RationalField):
        return F(rng.randint(-50, 50), rng.randint(1, 20))
    return field.from_int(rng.randrange(field.p))


@given(st.fractions())
def test_format_parse_round_trip(x):
    f = RationalField()
    assert f.parse(f.format(x)) == x


@given(st.integers())
def test_prime_format_parse_round_trip(n):
    f = PrimeField(10007)
    x = f.from_int(n)
    assert f.parse(f.format(x)) == x
    assert 0 <= x.value < 10007


def test_inv_is_involution():
    f = PrimeField(101)
    for r in range(1, 101):
        x = f.from_int(r)
        assert f.one / (f.one / x) == x
    q = RationalField()
    for x in (F(3, 7), F(-2, 5), F(11)):
        assert q.one / (q.one / x) == x


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).one / PrimeField(7).zero
    with pytest.raises(ZeroDivisionError):
        RationalField().one / F(0)


def test_field_mismatch_raises():
    a = PrimeField(7).from_int(3)
    b = PrimeField(11).from_int(3)
    with pytest.raises(FieldError):
        a + b


def test_descriptor_round_trip():
    for field in (RationalField(), PrimeField(13)):
        assert field_from_descriptor(field.descriptor()) == field


def test_sqrt_mod_p():
    for p in (3, 7, 13, 101, 10007):
        f = PrimeField(p)
        squares = {r * r % p for r in range(p)} if p < 200 else None
        rng = SplitMix64(p)
        for _ in range(25):
            a = f.from_int(rng.randrange(p))
            s = f.sqrt(a)
            if s is not None:
                assert s * s == a
            elif squares is not None:
                assert a.value not in squares


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None
    assert sqrt_in_field(RationalField(), F(49)) == F(7)


def test_fp_pow_and_div():
    f = PrimeField(13)
    x = f.from_int(6)
    assert x**3 == f.from_int(216)
    assert (f.one / x) * x == f.one
    assert f.from_int(12) / f.from_int(4) == f.from_int(3)
