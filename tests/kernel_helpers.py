"""Small constructions that only the tests need, kept out of the kernel."""

from bctk.bct import Instrument, Transformation, coarse_grain
from bctk.classical import ClassicalMap
from bctk.systems import PureLabel, SystemShape, flatten_label, unflatten_label


def point_state(dim: int, index: int) -> ClassicalMap:
    """The classical pure state ``|index)`` (1-based)."""
    return ClassicalMap._from_nums(dim, 1, {(index - 1, 0): 1}, 1)


def point_effect(dim: int, index: int) -> ClassicalMap:
    """The classical point effect ``(index|`` (1-based)."""
    return ClassicalMap._from_nums(1, dim, {(0, index - 1): 1}, 1)


def transpose(m: ClassicalMap) -> ClassicalMap:
    return ClassicalMap._from_nums(
        m.in_dim, m.out_dim, {(c, r): n for (r, c), n in m.nums.items()}, m.den)


def is_zero(t: Transformation) -> bool:
    return not t.nums


def instrument_is_valid(instr: Instrument) -> bool:
    """An instrument is valid when its full coarse-graining is a channel."""
    return coarse_grain(instr, instr.outcomes).is_channel()


def pair_label_fold(left: SystemShape, right: SystemShape, q1: int, q2: int, s: int) -> int:
    """Oracle for ``systems.pair_label``: unflatten both labels, re-associate
    ``(x (y z)_u)_s = ((x y)_s z)_{s^u}`` and flatten the joined label."""
    if left.is_trivial or right.is_trivial:
        raise ValueError("pair_label needs two non-trivial shapes")
    a = unflatten_label(left, q1)
    b = unflatten_label(right, q2)
    if s not in (0, 1):
        raise ValueError("pairing bit must be 0 or 1")
    indices = a.indices + b.indices
    sections = a.sections + (s,) + tuple(s ^ u for u in b.sections)
    return flatten_label(left.compose(right), PureLabel(indices, sections))
