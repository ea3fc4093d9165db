"""Unit-aware quantity parsing.

Everything downstream works in SI base units: seconds, watts, joules,
bits, bytes, bits/second, joules/bit.  Input files may carry values with
unit suffixes ("64MiB", "120ms", "15Mbit/s", "0.70uJ/bit"); this module
converts them exactly, as rationals, so no precision is lost before the
optimization model is built.  It is the one reader of input numbers: the
dimensionless ``ratio`` dimension, which takes no suffix, reads the
performance ratios and clamp fractions of a ``--params`` file.  A string
is a decimal number and an optional suffix; its exponent is bounded from
the text before the value is built.

Conventions: 1 Wh = 3600 J, binary prefixes for byte sizes (GiB = 2^30),
decimal prefixes for bit rates (Mbit = 10^6, the networking convention).
"""

from __future__ import annotations

import functools
import gc
import re
import sys
from decimal import Decimal
from fractions import Fraction


class UnitError(ValueError):
    """Raised when a quantity string cannot be parsed or has a wrong unit."""


_KIB = 1024
_BYTE_UNITS = {
    "B": 1,
    "kB": 10**3,
    "KB": 10**3,
    "MB": 10**6,
    "GB": 10**9,
    "TB": 10**12,
    "KiB": _KIB,
    "MiB": _KIB**2,
    "GiB": _KIB**3,
    "TiB": _KIB**4,
}
_BIT_UNITS = {
    "bit": 1,
    "bits": 1,
    "kbit": 10**3,
    "Mbit": 10**6,
    "Gbit": 10**9,
}
_TIME_UNITS = {
    "s": 1,
    "ms": Fraction(1, 10**3),
    "us": Fraction(1, 10**6),
    "µs": Fraction(1, 10**6),
    "min": 60,
    "h": 3600,
}
_POWER_UNITS = {
    "W": 1,
    "mW": Fraction(1, 10**3),
    "kW": 10**3,
}
_ENERGY_UNITS = {
    "J": 1,
    "mJ": Fraction(1, 10**3),
    "uJ": Fraction(1, 10**6),
    "µJ": Fraction(1, 10**6),
    "nJ": Fraction(1, 10**9),
    "kJ": 10**3,
    "Wh": 3600,
    "mWh": Fraction(3600, 10**3),
    "kWh": 3600 * 10**3,
}

# data quantities are measured in bits; byte-suffixed values convert at 8 bits/byte
_DATA_UNITS = dict(_BIT_UNITS)
_DATA_UNITS.update({name: 8 * factor for name, factor in _BYTE_UNITS.items()})

_BANDWIDTH_UNITS = {f"{name}/s": factor for name, factor in _DATA_UNITS.items()}
_PER_BIT_UNITS = {f"{name}/bit": factor for name, factor in _ENERGY_UNITS.items()}

_DIMENSIONS: dict[str, dict[str, int | Fraction]] = {
    "time": _TIME_UNITS,
    "power": _POWER_UNITS,
    "energy": _ENERGY_UNITS,
    "data": _DATA_UNITS,
    "memory": dict(_BYTE_UNITS),
    "bandwidth": _BANDWIDTH_UNITS,
    "energy_per_bit": _PER_BIT_UNITS,
    "ratio": {},
}

# the number (its integer digits, its fraction digits, its exponent), then the suffix
_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?)\s*([A-Za-zµ/]*)\s*$"
)


def parse_quantity(value, dimension: str) -> Fraction:
    """Convert ``value`` to an exact SI rational for the given dimension.

    Bare numbers are taken as already being in base units.  Strings may
    carry any suffix registered for the dimension.  A nonzero decimal
    whose leading digit's exponent is beyond ``_EXPONENT_LIMIT`` either
    way is rejected before its value is built, however many digits its
    exponent has; zero with any exponent is 0.
    """
    try:
        units = _DIMENSIONS[dimension]
    except KeyError:
        raise UnitError(f"unknown dimension {dimension!r}") from None

    # the JSON cases first; isinstance(value, Fraction) is an ABC check.  bool
    # is an int subclass; it and an int beyond a double's range are rejected below
    if type(value) is int and -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
        return Fraction(value)
    if isinstance(value, float):
        return decimal_fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise UnitError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(_within_double(value, value))
    if not isinstance(value, str):
        raise UnitError(f"expected a number or string, got {type(value).__name__}")

    match = _QUANTITY_RE.match(value)
    if match is None:
        raise UnitError(f"cannot parse quantity {value!r}")
    number, whole, fraction, exponent, suffix = match.groups()
    # Without an exponent the value is no larger than its text, and
    # _within_double rejects it below.  With one, the leading digit's
    # exponent is read from the text: a str is shorter than 10**19 - 400
    # characters, so an exponent of 20 digits or more is beyond the limit
    # whatever the mantissa, and is not converted.
    if exponent:
        fraction = fraction or ""
        digits = (whole + fraction).lstrip("0")
        if not digits:
            number = "0"  # whatever its exponent
        elif len(exponent.lstrip("+-0")) >= 20 or abs(len(digits) - len(fraction) - 1 + int(exponent)) > _EXPONENT_LIMIT:
            raise _beyond_double(value)
    magnitude = Fraction(*Decimal(number).as_integer_ratio())

    if not suffix:
        return _within_double(magnitude, value)
    if suffix in units:
        return _within_double(magnitude * units[suffix], value)
    raise UnitError(f"unit {suffix!r} not valid for {dimension} in {value!r}")


_DOUBLE_MAX = int(sys.float_info.max)
# the smallest positive double is 2 ** -_DOUBLE_TINY, about 4.9e-324
_DOUBLE_TINY = 1074
# A nonzero decimal whose exponent is beyond +-400 lies beyond a double's
# range whatever its unit factor (1e-9 to 8.8e12), so it is rejected
# before its exact value is built: 10 ** exponent takes seconds to make
# once the exponent nears ten million.
_EXPONENT_LIMIT = 400


def _beyond_double(value) -> UnitError:
    return UnitError(f"quantity {value!r} is beyond the range of a double")


def _within_double(quantity, value):
    """``quantity`` (an ``int`` or a ``Fraction``), parsed from ``value``,
    if a double can hold it: every output writes quantities as doubles,
    so a nonzero magnitude above the largest double or below the
    smallest positive one is rejected."""
    numerator, denominator = abs(quantity.numerator), quantity.denominator
    # in integers: Fraction's comparisons are slow
    if numerator <= _DOUBLE_MAX * denominator and (not numerator or denominator <= numerator << _DOUBLE_TINY):
        return quantity
    raise _beyond_double(value)


def decimal_fraction(value: float) -> Fraction:
    """The rational that a float's shortest repr spells exactly: 0.1 gives
    1/10, not the binary value of the double nearest to it."""
    try:
        return Fraction(*Decimal(repr(value)).as_integer_ratio())
    except (ValueError, OverflowError):  # nan, inf
        raise UnitError(f"expected a finite quantity, got {value!r}") from None


def parse_optional(value, dimension: str) -> Fraction | None:
    """Like :func:`parse_quantity` but maps null/"inf"/"unbounded" to None."""
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lower() in {"inf", "unbounded", "-"}:
        return None
    if isinstance(value, float) and value == float("inf"):
        return None
    return parse_quantity(value, dimension)


def si_number(value: Fraction) -> int | float:
    """Render an exact rational as a JSON-friendly number.

    Integers a double can hold stay integers; other rationals become the
    nearest float (re-parsing that float recovers the value to within 1
    ulp).  A value beyond a double's range raises ``OverflowError``, as
    every output writes quantities as doubles.
    """
    if value.denominator == 1 and -_DOUBLE_MAX <= value.numerator <= _DOUBLE_MAX:
        return value.numerator
    return value.numerator / value.denominator  # float(value), without Fraction.__float__


def fmt12(value) -> str:
    """Format a rational (a ``Fraction`` or an ``int``) with 12 significant
    digits (for MPS/LP emission).  Integer true division is correctly
    rounded, so the double is ``float(value)``'s, made without the
    ``Fraction.__float__`` call."""
    return format(value.numerator / value.denominator, ".12g")


def without_cyclic_gc(func):
    """Decorator: run ``func`` with CPython's cyclic garbage collector paused.

    Precondition: ``func`` creates no reference cycles, so reference
    counting alone frees everything it allocates and pausing the collector
    cannot retain memory.  The model builders allocate hundreds of
    thousands of tuples, dicts and Fractions that live as long as the
    model; with the collector running, CPython repeats full passes over
    all of them as the live heap grows (in 3.11, each time it has grown
    by a quarter).

    A collector that is already paused (a nested call, or a caller that
    paused it) is left paused.  No collection is forced afterwards.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return wrapper
