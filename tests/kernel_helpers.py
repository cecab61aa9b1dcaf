"""Small constructions that only the tests need, kept out of the kernel."""

from bctk.bct import Instrument, Transformation, coarse_grain
from bctk.classical import ClassicalMap


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
