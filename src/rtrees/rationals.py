"""Exact rational scalars.

Every length, offset and formula value in this package is a
:class:`fractions.Fraction`.  Floats are rejected on input so that all
comparisons (betweenness, four-point checks, type equality) stay decidable.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def as_rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or exact string like ``3/2`` to a rational.

    Strings with decimal points or exponents are rejected: the text formats
    of this package do not admit floating-point literals.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use int, Fraction or 'a/b' strings")
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text or not text:
            raise ValueError(f"not an exact rational literal: {value!r}")
        num, slash, den = value.partition("/")
        try:
            # "a" or "a/b" in ASCII digits, b not 0, is two ints; anything else
            # takes Fraction's own rules for signs, spaces, underscores and digits
            if num.isascii() and num.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isascii() and den.isdigit() and den.strip("0"):
                    return Fraction(int(num), int(den))
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rat(value: Fraction) -> str:
    """Render ``a/b``, or plain ``a`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
