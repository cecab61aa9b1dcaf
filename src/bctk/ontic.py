"""The ontological model: classical images of systems, states, effects, maps.

Every elementary system of dimension ``n`` is assigned a classical system of
dimension ``2n`` (one extra bit of ontic state); composites get the tensor
product of their factors' ontic spaces, with wires ordered
``(n1, bit1, n2, bit2, ...)``.  :func:`wire_points` lists that layout, the
wire tuple of every ontic index in index order; ``bctk embed`` labels its
rows and columns with it, and the swap oracle :func:`wire_swap_matrix`
permutes it.

Every image is read through one cached table, :func:`fused_index`, which
places each fused point ``(q, b)`` of a shape on its composite wires; the
atomic rule ``(i, b) -> (l, b ^ flip)`` is one scatter through it.
:func:`image` sends a state to :func:`ontic_state`, an effect to
:func:`ontic_effect` and a transformation to :func:`ontic_map`; the DSL's
classical evaluator and ``bctk eval``'s differ take every image through it.
The merging permutations :func:`merge_perm`/:func:`merge_chain` and
:func:`wire_swap_matrix` are the oracles the table and the images are pinned
to.

Images stay on the integer lattice of :mod:`bctk.bct` and
:mod:`bctk.classical`: a transformation's image keeps its numerators and
denominator, an effect's image keeps its own, and a state's image doubles
the denominator (each pure label spreads half its weight over each bit) and
is reduced once.  No image reads an exact value.

This module is the model and its oracles only; the checks that the model
preserves diagrams and probabilities are the suites of :mod:`bctk.verify`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from . import classical
from .classical import ClassicalMap
from .bct import Effect, State, Transformation
from .scalars import reduce_dict
from .systems import SystemShape, q_encode, unflatten_label


def wire_points(shape: SystemShape) -> list[tuple[int, ...]]:
    """The wires ``(n1, b1, n2, b2, ...)`` of every ontic index of ``shape``, in
    index order: values 1-based, bits 0 or 1, the last wire fastest."""
    return list(product(*(wire for n in shape.elems for wire in (range(1, n + 1), (0, 1)))))


@lru_cache(maxsize=None)
def fused_index(shape: SystemShape) -> tuple[int, ...]:
    """Entry ``2*(q-1) + b0`` is the composite ontic index of label ``q`` with
    bit ``b0`` on wire 1 and ``b0 ^ sections[k-1]`` on wire ``k+1``."""
    table = []
    for q in range(1, shape.global_dim + 1):
        lab = unflatten_label(shape, q)
        for b0 in (0, 1):
            idx = (lab.indices[0] - 1) * 2 + b0
            for n, i, s in zip(shape.elems[1:], lab.indices[1:], lab.sections):
                idx = (idx * n + i - 1) * 2 + (b0 ^ s)
            table.append(idx)
    return tuple(table)


def _scalar_image(v) -> ClassicalMap:
    """The image of a vector on the trivial system: its one weight, as is."""
    n = v.nums[0]
    return ClassicalMap._from_nums(1, 1, {(0, 0): n} if n != 0 else {}, v.den)


def ontic_state(rho: State) -> ClassicalMap:
    """Image of a state: each pure label spreads over its two bit patterns."""
    if rho.shape.is_trivial:
        return _scalar_image(rho)
    index = fused_index(rho.shape)
    # The table is injective, so each cell is written once, with half a weight.
    cells = {(index[k], 0): n for q, n in enumerate(rho.nums) if n != 0
             for k in (2 * q, 2 * q + 1)}
    return ClassicalMap._from_nums(rho.shape.ontic_dim, 1, *reduce_dict(cells, 2 * rho.den))


def ontic_effect(e: Effect) -> ClassicalMap:
    """Image of an effect: same bit patterns, summed without the 1/2."""
    if e.shape.is_trivial:
        return _scalar_image(e)
    index = fused_index(e.shape)
    # e's nonzero numerators over e's denominator: already in lowest terms.
    cells = {(0, index[k]): n for q, n in enumerate(e.nums) if n != 0
             for k in (2 * q, 2 * q + 1)}
    return ClassicalMap._from_nums(1, e.shape.ontic_dim, cells, e.den)


@lru_cache(maxsize=None)
def merge_perm(n1: int, n2: int) -> ClassicalMap:
    """The merging permutation: ``(x, b1, y, b2) -> (Q(x, y, b1^b2), b1)``.

    The fused wire keeps the first factor's bit; the pairing bit is the two
    bits' parity.  Keeping the first bit is what makes parallel diagram
    preservation strict (the image of ``t (x) id`` is ``image(t) (x) id``),
    which the diagram suite checks exhaustively.
    """
    dim = 4 * n1 * n2
    cells = {}
    for x in range(1, n1 + 1):
        for b1 in (0, 1):
            for y in range(1, n2 + 1):
                for b2 in (0, 1):
                    col = (((x - 1) * 2 + b1) * n2 + (y - 1)) * 2 + b2
                    row = (q_encode(n1, n2, x, y, b1 ^ b2) - 1) * 2 + b1
                    cells[row, col] = 1
    # Cached, so its cells are read-only.
    return ClassicalMap._from_nums(dim, dim, MappingProxyType(cells), 1)


@lru_cache(maxsize=None)
def merge_chain(shape: SystemShape) -> ClassicalMap:
    """Permutation from the composite ontic space onto the fused single one."""
    acc = ClassicalMap.identity(shape.ontic_dim)
    for k in range(1, shape.num_factors):
        fused = prod(2 * n for n in shape.elems[:k]) // 2  # the first k factors, fused
        step = merge_perm(fused, shape.elems[k])
        tail = prod(2 * n for n in shape.elems[k + 1 :])
        if tail > 1:
            step = classical.compose_par(step, ClassicalMap.identity(tail))
        acc = classical.compose_seq(acc, step)
    # Cached, so its cells are read-only.
    return ClassicalMap._from_nums(acc.out_dim, acc.in_dim, MappingProxyType(acc.nums), acc.den)


def ontic_map(t: Transformation) -> ClassicalMap:
    """Image of a transformation: the atomic rule, scattered through the table."""
    rows, cols = fused_index(t.out_shape), fused_index(t.in_shape)
    # The table is injective and the weights are nonzero, so every term
    # lands on two cells of its own, with t's numerators over t's denominator.
    cells = {}
    for (src, dst, flip), n in t.nums.items():
        col = 2 * (src - 1)
        row = 2 * (dst - 1) + flip  # bit b = 0; row ^ 1 is bit 1 ^ flip
        cells[rows[row], cols[col]] = n
        cells[rows[row ^ 1], cols[col + 1]] = n
    return ClassicalMap._from_nums(t.out_shape.ontic_dim, t.in_shape.ontic_dim, cells, t.den)


def image(x: State | Effect | Transformation) -> ClassicalMap:
    """The classical image of a state, an effect or a transformation."""
    if isinstance(x, State):
        return ontic_state(x)
    if isinstance(x, Effect):
        return ontic_effect(x)
    return ontic_map(x)


def wire_swap_matrix(left: SystemShape, right: SystemShape) -> ClassicalMap:
    """Independent oracle: the permutation exchanging the two wire blocks."""
    points = wire_points(left.compose(right))
    out_index = {p: i for i, p in enumerate(wire_points(right.compose(left)))}
    cut = 2 * left.num_factors
    cells = {(out_index[p[cut:] + p[:cut]], col): 1 for col, p in enumerate(points)}
    return ClassicalMap._from_nums(len(out_index), len(points), cells, 1)
