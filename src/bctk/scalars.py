"""Exact scalars shared by every module.

Probabilities and matrix entries are exact ``Fraction``/``int`` values, so
every algebraic identity is asserted with ``==`` and there is no tolerance
anywhere.  Numbers from outside the program (DSL text, CLI flags, JSON)
enter only through :func:`parse_number` and :func:`number_from_json`; both
read decimals exactly and raise ``ValueError`` naming the offending text.

The kernel objects store their values on an integer lattice: integer
numerators over one positive denominator, in lowest terms.
:func:`lattice` is the one conversion of exact values onto it.  The public
constructors of ``bct`` and ``lct``, ``Transformation.scale``,
``_Vector.scale`` and ``ClassicalMap(rows)``, the one way into a classical
map, call it once; kernel results are built from lattice numerators.
:func:`reduce_dict`/:func:`reduce_tuple` bring a kernel result to lowest
terms, :func:`reduce_ratio` does so for one value, :func:`exact` and
:func:`ratio_json` read one lattice value back out, and :func:`rank` is the
one elimination, on integer rows.  :func:`sparse_add` and
:func:`sparse_differences` add and compare sparse values, a dict of nonzero
numerators over one denominator, as transformation terms and classical map
cells are stored.
:func:`frozen_record` makes the frozen slotted dataclasses that hold lattice
values refuse every write with ``FrozenInstanceError``.

Seeded integer draws go through :func:`randint`, :func:`randints` and
:func:`cut_counts`: they return what ``random.Random.randint`` returns, from
the same ``getrandbits`` calls in the same order, so a seed gives the same
values and leaves the generator in the same state.  They are the one place
that reads ``getrandbits``: the generators of ``verify`` and ``lct`` draw
through them, and ``tests/test_draws.py`` holds both to the stdlib stream.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import sub

# No exponent form: ``1e999999999`` would be an unbounded allocation.  Only
# ASCII digits: ``\d`` and ``int`` would also read ``"\u0661/\u0663"`` as 1/3.
_NUMBER_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.[0-9]+)?")


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


# ---------------------------------------------------------------------------
# the integer lattice
# ---------------------------------------------------------------------------

_EXACT = (int, Fraction)


def lattice(values, den: int = 1) -> tuple[list, int]:
    """The exact values ``v / den`` as integer numerators over one positive
    denominator: ``den`` times the lcm of the values' denominators.

    The result is not reduced.  A value that is not an ``int`` or a
    ``Fraction`` raises ``TypeError``.  All ``int`` values come back as
    they are; otherwise each value's ratio is read once.
    """
    if type(den) is not int or den < 1:
        raise ValueError(f"a denominator must be a positive integer, got {den!r}")
    values = list(values)
    for v in values:
        if type(v) is not int:
            break
    else:
        return values, den
    ratios = []
    for v in values:
        if not isinstance(v, _EXACT):
            raise TypeError(f"not an exact number: {v!r}")
        ratios.append(v.as_integer_ratio())
    if len(ratios) == 1:
        ((num, d),) = ratios
        return [num], den * d
    scale = math.lcm(*[d for _, d in ratios])
    return [num * (scale // d) for num, d in ratios], den * scale


def frozen_record(cls):
    """Class decorator for a ``dataclass(frozen=True, slots=True)`` that
    stores lattice values: setting or deleting any name on an instance raises
    ``FrozenInstanceError``.  The frozen ``__setattr__`` that ``dataclass``
    generates calls ``super()`` with the class from before ``slots=True``
    rebuilt it, so a property or an unknown name would raise ``TypeError``.
    Trusted constructors still store their slots with ``object.__setattr__``.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(
            f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {name!r} of a frozen {type(self).__name__}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


def reduce_dict(nums: dict, den: int) -> tuple[dict, int]:
    """Numerators and denominator divided by their gcd; ``den == 1`` costs nothing."""
    if den == 1:
        return nums, 1
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def reduce_tuple(nums: tuple, den: int) -> tuple[tuple, int]:
    """:func:`reduce_dict` for a tuple of numerators."""
    if den == 1:
        return nums, 1
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(v // g for v in nums), den // g


def sparse_add(n1: dict, d1: int, n2: dict, d2: int) -> tuple[dict, int]:
    """``n1 / d1 + n2 / d2`` in lowest terms; a cancelled key is dropped."""
    den = math.lcm(d1, d2)
    k1, k2 = den // d1, den // d2
    nums = {k: k1 * n for k, n in n1.items()}
    for k, n in n2.items():
        nums[k] = nums.get(k, 0) + k2 * n
    return reduce_dict({k: n for k, n in nums.items() if n != 0}, den)


def sparse_differences(n1: dict, d1: int, n2: dict, d2: int):
    """Iterate ``(key, mine, theirs)``, read out by :func:`exact`, at each
    sorted key where ``n1 / d1`` and ``n2 / d2`` differ."""
    for k in sorted(n1.keys() | n2.keys()):
        a, b = n1.get(k, 0), n2.get(k, 0)
        if a * d2 != b * d1:
            yield k, exact(a, d1), exact(b, d2)


def exact(num: int, den: int):
    """``num / den`` as an ``int`` when it is integral, else a ``Fraction``."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def reduce_ratio(num: int, den: int) -> tuple[int, int]:
    """``num / den`` in lowest terms, as ``(num, den)``: one value's
    :func:`reduce_tuple`, without packing the numerator into a tuple."""
    if den == 1:
        return num, 1
    g = math.gcd(num, den)
    return num // g, den // g


def ratio_json(num: int, den: int) -> list:
    """:func:`number_json` of ``num / den``, without building a Fraction."""
    if den == 1:
        return [num, 1]
    g = math.gcd(num, den)
    return [num // g, den // g]


def rank(rows) -> int:
    """The exact rank of integer rows of equal length: each nonzero row, taken
    from the end, clears its leading column from the pending rows that have a
    nonzero there, and each row it updates is divided by its gcd."""
    pending, result = list(rows), 0
    if len({len(row) for row in pending}) > 1:
        raise ValueError("rank needs rows of equal length")
    while pending:
        row = pending.pop()
        col = next((c for c, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        result += 1
        p = row[col]
        for i, r in enumerate(pending):
            if (x := r[col]) != 0:
                new = [p * a - x * b for a, b in zip(r, row)]
                g = math.gcd(*new)
                pending[i] = [v // g for v in new] if g > 1 else new
    return result


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def randint(rng, a: int, b: int) -> int:
    """``rng.randint(a, b)`` without the Python frames of ``randrange``.

    This is CPython's ``_randbelow_with_getrandbits``: with ``n = b - a + 1``
    it draws ``getrandbits(n.bit_length())`` until the value is below ``n``,
    so even ``randint(rng, 0, 0)`` uses up at least one ``getrandbits(1)``.
    """
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def randints(rng, a: int, b: int, count: int) -> list[int]:
    """``[randint(rng, a, b) for _ in range(count)]`` in one frame."""
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(a + r)
    return out


def cut_counts(rng, n: int, total: int) -> list[int]:
    """``n`` nonnegative counts summing to ``total``: the gaps between
    ``n - 1`` sorted cut points, each ``randint(rng, 0, total)``."""
    cuts = randints(rng, 0, total, n - 1)
    cuts.sort()
    return list(map(sub, cuts + [total], [0] + cuts))
