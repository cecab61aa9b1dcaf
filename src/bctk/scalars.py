"""Exact scalars shared by every module.

Probabilities and matrix entries are exact ``Fraction``/``int`` values, so
every algebraic identity is asserted with ``==`` and there is no tolerance
anywhere.  Numbers from outside the program (DSL text, CLI flags, JSON)
enter only through :func:`parse_number` and :func:`number_from_json`; both
read decimals exactly and raise ``ValueError`` naming the offending text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

HALF = Fraction(1, 2)

# No exponent form: ``1e999999999`` would be an unbounded allocation.
_NUMBER_RE = re.compile(r"([+-]?\d+)(?:/(\d+)|\.\d+)?")


def parse_number(text: str) -> Fraction:
    """Parse ``"3"``, ``"1/2"`` or ``"0.25"`` into an exact Fraction."""
    t = text.strip()
    m = _NUMBER_RE.fullmatch(t)
    if m is None:
        raise ValueError(f"not a number: {text!r}")
    num, den = m.groups()
    if den is not None:
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(t) if "." in t else Fraction(int(num))


def number_text(x) -> str:
    """Inverse of :func:`parse_number`: ``"3"`` or ``"1/2"``."""
    return str(Fraction(x))


def number_json(x) -> list:
    """JSON form of an exact scalar: ``[num, den]``."""
    if type(x) is int:
        return [x, 1]
    f = Fraction(x)
    return [f.numerator, f.denominator]


def number_from_json(value) -> Fraction:
    """Read ``[num, den]``, an integer, or a float taken exactly at its
    shortest decimal text (``0.25`` is ``1/4``, ``0.1`` is ``1/10``)."""
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        if value[1] == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(value[0], value[1])
    if type(value) is int:
        return Fraction(value)
    if type(value) is float and math.isfinite(value):
        return Fraction(repr(value))
    raise ValueError(f"not an exact number: {value!r}")
