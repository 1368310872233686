import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuo.fields import (
    MAX_DIGITS,
    PRIME_LIMIT,
    PrimeField,
    Rationals,
    _is_prime,
    field_from_name,
    scalar_from_string,
)


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        field_from_name("F2")


@pytest.mark.parametrize("name", ["F1_1", "F05", "F+5", "F 5", "F\u0663", "F",
                                  "F-5", "F5.0", "f5", "FF5", "Q5"])
def test_field_name_only_as_name_writes_it(name):
    with pytest.raises(ValueError):
        field_from_name(name)


def test_field_name_round_trips():
    for field in (Rationals(), PrimeField(3), PrimeField(101)):
        assert field_from_name(field.name) == field


def test_non_prime_rejected():
    for n in (1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_field_names_and_parse():
    assert field_from_name("Q") == Rationals()
    assert field_from_name("F5") == PrimeField(5)
    q = Rationals()
    assert q.parse("3/4") == Fraction(3, 4)
    assert q.fmt(Fraction(-3, 4)) == "-3/4"
    assert q.fmt(Fraction(2)) == "2/1"
    f5 = PrimeField(5)
    assert f5.fmt(7) == "2 mod 5"
    assert f5.parse("2 mod 5") == 2
    assert f5.parse("7") == 2
    assert scalar_from_string(f5, "1/2") == 3  # 2 * 3 = 6 = 1 mod 5


def test_rational_canonical_form():
    q = Rationals()
    assert q.div(q.from_int(2), q.from_int(-4)) == Fraction(-1, 2)
    x = q.parse("6/4")
    assert (x.numerator, x.denominator) == (3, 2)


@given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-50, 50))
@settings(max_examples=200)
def test_rational_axioms(a, b, c):
    q = Rationals()
    x, y, z = map(q.from_int, (a, b, c))
    assert q.add(q.add(x, y), z) == q.add(x, q.add(y, z))
    assert q.mul(q.mul(x, y), z) == q.mul(x, q.mul(y, z))
    assert q.mul(x, q.add(y, z)) == q.add(q.mul(x, y), q.mul(x, z))
    if x != q.zero:
        assert q.mul(x, q.inv(x)) == q.one


@given(a=st.integers(0, 100), b=st.integers(0, 100), c=st.integers(0, 100),
       p=st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=200)
def test_prime_field_axioms(a, b, c, p):
    f = PrimeField(p)
    x, y, z = (v % p for v in (a, b, c))
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    if x != 0:
        assert f.mul(x, f.inv(x)) == 1
    assert f.sub(x, x) == 0


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Rationals().inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_primality_matches_trial_division_below_ten_thousand():
    trial = [n for n in range(10000)
             if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(10000) if _is_prime(n)] == trial


def test_large_prime_modulus_accepted_at_once():
    start = time.perf_counter()
    f = field_from_name("F2305843009213693951")  # 2**61 - 1
    assert time.perf_counter() - start < 1.0
    assert f.p == 2 ** 61 - 1 and f.mul(f.inv(3), 3) == 1


def test_large_composites_rejected():
    for n in (2 ** 61 + 1,  # divisible by 3
              3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
              318665857834031151167461):  # ... and to every prime up to 37
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)


def test_modulus_beyond_exact_primality_refused():
    for n in (PRIME_LIMIT, 10 ** 40 + 1):
        with pytest.raises(ValueError, match="input too large"):
            PrimeField(n)


def test_rationals_parse_only_what_fmt_writes():
    q = Rationals()
    assert q.parse(" -3/4 ") == Fraction(-3, 4)
    assert q.parse("+7") == 7
    assert q.parse(q.fmt(Fraction(-5, 9))) == Fraction(-5, 9)
    for text in ("1e1", "0.5", "1e999999999", "1_000", "3/-4", "1 / 2", "", "inf",
                 "\u0661"):
        with pytest.raises(ValueError):
            q.parse(text)


def test_prime_field_parse_only_what_fmt_writes():
    f5 = PrimeField(5)
    assert f5.parse(f5.fmt(3)) == 3
    assert f5.parse(" 4 mod 5 ") == 4
    assert f5.parse("-1 mod 5") == 4
    assert f5.parse("+7") == 2
    assert f5.parse("-3/2") == 1  # -3 * 3 = -9 = 1 mod 5
    for x in range(5):
        assert f5.parse(f5.fmt(x)) == x
    for text in ("1_0", "1_1/2", "٣", "3/٢", "3 mod ٥", "3mod5",
                 "3 mod 5 mod 5", "1e1", "0.5", "3/-4", "1 / 2", "", "mod 5", "0x3"):
        with pytest.raises(ValueError):
            f5.parse(text)
    with pytest.raises(ValueError, match="wrong modulus"):
        f5.parse("3 mod 7")
    with pytest.raises(ZeroDivisionError):
        f5.parse("1/5")


def test_parse_names_a_scalar_with_a_zero_denominator():
    q, f5 = Rationals(), PrimeField(5)
    for field, text, where in ((q, "1/0", ""), (q, " -7/000 ", ""),
                               (f5, "1/5", " in F5"), (f5, "3/10", " in F5")):
        with pytest.raises(ValueError) as err:
            field.parse(text)
        assert str(err.value) == "scalar %r has a zero denominator%s" % (text.strip(), where)
        assert isinstance(err.value, ZeroDivisionError)
    assert q.parse("0/7") == 0 and f5.parse("0/7") == 0 and f5.parse("1/6") == 1


def test_parse_admits_numbers_up_to_the_digit_limit():
    q, f5 = Rationals(), PrimeField(5)
    limit = "9" * MAX_DIGITS
    assert q.parse(limit + "/" + limit) == 1
    assert f5.parse(limit) == f5.parse(limit + " mod 5") == 4
    for text in ("9" + limit, "1/9" + limit):
        for field in (q, f5):
            with pytest.raises(ValueError, match="input too large"):
                field.parse(text)


def test_scalar_from_string_is_the_field_parser():
    for field in (Rationals(), PrimeField(5), PrimeField(7)):
        for text in ("1/2", "-3", " 2/3 ", "+4"):
            assert scalar_from_string(field, text) == field.parse(text)
        with pytest.raises(ValueError):
            scalar_from_string(field, "1_1/2")
