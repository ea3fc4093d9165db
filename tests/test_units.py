import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehcopt.model import role_from
from ehcopt.units import _DOUBLE_MAX, UnitError, fmt12, parse_optional, parse_quantity, si_number


def test_memory_units():
    assert parse_quantity("64MiB", "memory") == 64 * 2**20
    assert parse_quantity("1GiB", "memory") == 2**30
    assert parse_quantity("10TiB", "memory") == 10 * 2**40
    assert parse_quantity("1kB", "memory") == 1000
    assert parse_quantity(4096, "memory") == 4096


def test_data_units_are_bits():
    assert parse_quantity("2Mbit", "data") == 2 * 10**6
    assert parse_quantity("1KiB", "data") == 8 * 1024  # bytes convert at 8 bits/byte
    assert parse_quantity("0.5Mbit", "data") == 500000


def test_time_units():
    assert parse_quantity("120ms", "time") == Fraction(120, 1000)
    assert parse_quantity("8000ms", "time") == 8
    assert parse_quantity("2.5s", "time") == Fraction(5, 2)
    assert parse_quantity("15us", "time") == Fraction(15, 10**6)


def test_power_and_energy_units():
    assert parse_quantity("4.2W", "power") == Fraction(21, 5)
    assert parse_quantity("129.96Wh", "energy") == 467856  # exactly, in joules
    assert parse_quantity("60Wh", "energy") == 216000
    assert parse_quantity("0.70uJ/bit", "energy_per_bit") == Fraction(7, 10**7)
    assert parse_quantity("15Mbit/s", "bandwidth") == 15 * 10**6


def test_bare_numbers_are_base_units():
    assert parse_quantity(1.5, "time") == Fraction(3, 2)
    assert parse_quantity("42", "power") == 42


def test_rejects_wrong_units():
    with pytest.raises(UnitError):
        parse_quantity("10W", "time")
    with pytest.raises(UnitError):
        parse_quantity("abc", "time")
    with pytest.raises(UnitError):
        parse_quantity("1s", "nonsense")
    with pytest.raises(UnitError):
        parse_quantity(True, "time")


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()))
def test_numbers_convert_as_the_decimal_repr(value):
    expected = Fraction(Decimal(repr(value))) if isinstance(value, float) else Fraction(value)
    got = parse_quantity(value, "data")
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def test_rejects_booleans_non_finite_numbers_and_unknown_roles():
    for value in (True, False, float("nan"), float("inf")):
        with pytest.raises(UnitError):
            parse_quantity(value, "time")
    for role in ("x", "E", ["e"], None):
        with pytest.raises(ValueError, match=r"^unknown device role .*; expected one of e, h, c$"):
            role_from(role)


def test_rejects_quantities_beyond_double_range():
    largest = int(sys.float_info.max)
    assert parse_quantity(largest, "time") == largest
    assert parse_quantity(f"-{largest}", "time") == -largest
    assert parse_quantity("5e-324s", "time") == Fraction(5, 10**324)  # the smallest double's repr
    assert parse_quantity("0e1000000000s", "time") == parse_quantity("-0.0E-1000000000", "time") == 0
    # below the smallest double used to be taken, and an exponent of ten
    # million took seconds to expand before it was rejected or taken
    for value, dimension in (("1e400s", "time"), ("1e308kWh", "energy"), (largest + 1, "time"), (-(10**400), "data"),
                             ("4.9e-324s", "time"), ("1e-316nJ", "energy"), ("1e1000000000s", "time"),
                             ("-1e-1000000000s", "time")):
        with pytest.raises(UnitError, match="beyond the range of a double"):
            parse_quantity(value, dimension)


def test_optional_budgets():
    assert parse_optional(None, "energy") is None
    assert parse_optional("unbounded", "energy") is None
    assert parse_optional("-", "energy") is None
    assert parse_optional("60Wh", "energy") == 216000


@given(st.floats(min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False))
def test_si_number_round_trip(value):
    # float -> exact rational -> float is the identity
    exact = parse_quantity(value, "time")
    assert float(si_number(exact)) == value


def test_si_number_keeps_integers_only_within_double_range():
    # every output writes quantities as doubles: a larger integer used to
    # be written as a JSON integer of hundreds of digits
    assert type(si_number(Fraction(_DOUBLE_MAX))) is int
    assert type(si_number(Fraction(-_DOUBLE_MAX))) is int
    with pytest.raises(OverflowError):
        si_number(Fraction(10**400))


def test_fmt12():
    assert fmt12(Fraction(1, 15)) == "0.0666666666667"
    assert fmt12(1) == "1"
