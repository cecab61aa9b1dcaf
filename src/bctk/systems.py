"""System bookkeeping for bilocal classical theory.

Systems are ordered lists of elementary dimensions.  A composite of two
non-trivial systems of dimensions ``n`` and ``m`` has dimension ``2*n*m``,
so a shape with ``p`` non-trivial factors has global dimension
``2**(p-1) * n1 * ... * np``.  Shapes are interned: equal stripped
dimension tuples give the same :class:`SystemShape` object, so ``==`` and
``hash`` on shapes are identity, and every cache keyed by a shape is keyed
by that one object.  Pure states of composites carry one hidden
section bit per pairing; the canonical grouping is left-nested and every
label is flattened to a global index through the pair codec ``q_encode``.

The codec used here is ``Q(i, j, s) = 2*n2*(i - 1) + 2*j + s - 1``, which
is a bijection ``[1..n1] x [1..n2] x {0,1} -> [1..2*n1*n2]`` for every pair
of dimensions (the variant with stride ``2*n1`` fails to be injective when
``n1 < n2``).

Pairing two composite labels has a closed form.  Folding the left label
first leaves ``q1`` at stride ``2*G_R`` (``G_R`` the right global dimension)
and the right label, with its section bits shifted by the pairing bit ``s``,
as an offset that does not depend on the left shape::

    pair_label(L, R, q1, q2, s) == 2*G_R*(q1 - 1) + pair_offsets(R)[2*(q2 - 1) + s]

``pair_offsets(R)`` is a permutation of ``1..2*G_R``, the identity when ``R``
is elementary.

A :class:`PureLabel` is a named tuple ``(indices, sections)`` whose
constructor checks both fields.  Its ``hash`` and ``==`` are the tuple's,
computed in C, so a label is a cheap key for the cache behind
:func:`flatten_label`, which takes a label that is already a
:class:`PureLabel` as it is, and for the cache of :func:`label_text`.  That
cache is typed: it keys on the label's type too, so a plain tuple equal to
a label never reads the label's text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterator, NamedTuple


class SystemShape:
    """An ordered tuple of elementary dimensions; ``()`` is the trivial system.

    Trivial factors (dimension 1) are stripped on construction, so composing
    with the trivial system is a no-op by representation.  Shapes are
    interned: ``SystemShape(elems)`` validates ``elems`` and returns the one
    instance for the stripped tuple, so ``==`` and ``hash`` are the identity
    ones inherited from ``object``.  ``global_dim`` and ``ontic_dim`` are
    computed once, when a shape is first built.
    """

    __slots__ = ("elems", "global_dim", "ontic_dim")
    # one instance per stripped tuple, kept for the life of the process
    _interned: dict[tuple[int, ...], "SystemShape"] = {}

    def __new__(cls, elems: tuple[int, ...] = ()) -> "SystemShape":
        cleaned = []
        for n in elems:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"elementary dimension must be a positive int, got {n!r}")
            if n > 1:
                cleaned.append(n)
        return cls._intern(tuple(cleaned))

    @classmethod
    def _intern(cls, elems: tuple[int, ...]) -> "SystemShape":
        """The instance for ``elems``, which must already be stripped and valid."""
        shape = cls._interned.get(elems)
        if shape is None:
            shape = object.__new__(cls)
            set_field = object.__setattr__
            set_field(shape, "elems", elems)
            # Dimension of the simplex of states: ``2**(p-1) * prod(n_i)``.
            set_field(shape, "global_dim", 2 ** (len(elems) - 1) * prod(elems) if elems else 1)
            # Dimension of the classical space the ontological model assigns.
            set_field(shape, "ontic_dim", prod(2 * n for n in elems))
            shape = cls._interned.setdefault(elems, shape)
        return shape

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a SystemShape")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a SystemShape")

    def __reduce__(self):
        return SystemShape, (self.elems,)

    def __repr__(self) -> str:
        return f"SystemShape(elems={self.elems!r})"

    @property
    def is_trivial(self) -> bool:
        return not self.elems

    @property
    def num_factors(self) -> int:
        return len(self.elems)

    def compose(self, other: "SystemShape") -> "SystemShape":
        return SystemShape._intern(self.elems + other.elems)

    def fused(self) -> "SystemShape":
        """The single system of the same global dimension."""
        if self.is_trivial:
            return self
        return SystemShape._intern((self.global_dim,))

    def __str__(self) -> str:
        if self.is_trivial:
            return "I"
        return "(" + ",".join(str(n) for n in self.elems) + ")"


TRIVIAL = SystemShape(())


def bct_dim(shape: SystemShape) -> int:
    """Global dimension of a shape under the bilocal composition rule."""
    return shape.global_dim


def q_encode(n1: int, n2: int, i: int, j: int, s: int) -> int:
    """Pair codec: ``(i, j, s) -> 2*n2*(i-1) + 2*j + s - 1`` in ``[1..2*n1*n2]``."""
    if not 1 <= i <= n1:
        raise ValueError(f"index i={i} out of range [1..{n1}]")
    if not 1 <= j <= n2:
        raise ValueError(f"index j={j} out of range [1..{n2}]")
    if s not in (0, 1):
        raise ValueError(f"section bit s={s} must be 0 or 1")
    return 2 * n2 * (i - 1) + 2 * j + s - 1


def q_decode(n1: int, n2: int, q: int) -> tuple[int, int, int]:
    """Exact inverse of :func:`q_encode`."""
    if not 1 <= q <= 2 * n1 * n2:
        raise ValueError(f"label q={q} out of range [1..{2 * n1 * n2}]")
    r = q - 1
    i = r // (2 * n2) + 1
    rem = r % (2 * n2)
    j = rem // 2 + 1
    s = rem % 2
    return i, j, s


class _LabelFields(NamedTuple):
    """The fields of :class:`PureLabel`, which subclasses this to check them:
    a ``NamedTuple`` body may not define ``__new__``."""

    indices: tuple[int, ...]
    sections: tuple[int, ...] = ()


class PureLabel(_LabelFields):
    """A pure-state/effect label: per-factor indices plus section bits.

    The record is read left-nested: ``(...((i1 i2)_{s1} i3)_{s2}... ip)_{s_{p-1}}``.
    It is a named tuple whose constructor checks the two fields, so ``hash``
    and ``==`` are the tuple's, and a label equals the plain tuple
    ``(indices, sections)``.  ``_make`` and ``_replace`` build without the
    check.
    """

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...], sections: tuple[int, ...] = ()):
        if len(indices) == 0:
            raise ValueError("a pure label needs at least one index")
        if len(sections) != len(indices) - 1:
            raise ValueError(
                f"label with {len(indices)} indices needs "
                f"{len(indices) - 1} section bits, got {len(sections)}"
            )
        if any(s not in (0, 1) for s in sections):
            raise ValueError("section bits must be 0 or 1")
        return tuple.__new__(cls, (indices, sections))


def _check_label(shape: SystemShape, label: PureLabel) -> None:
    if len(label.indices) != len(shape.elems):
        raise ValueError(f"label {label} does not fit shape {shape}")
    for i, n in zip(label.indices, shape.elems):
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range [1..{n}] in label for {shape}")


def as_label(label) -> PureLabel:
    """Accept a bare index (single systems) or a PureLabel."""
    if isinstance(label, PureLabel):
        return label
    if isinstance(label, int):
        return PureLabel((label,))
    return PureLabel(tuple(label[0]), tuple(label[1]))


@lru_cache(maxsize=None, typed=True)
def label_text(label: PureLabel) -> str:
    """DSL syntax of a pure label, e.g. ``((1,2);0)``.  Cached by label and
    type, so a plain tuple equal to a label does not read its entry."""
    core = str(label.indices[0])
    for idx, bit in zip(label.indices[1:], label.sections):
        core = f"({core},{idx});{bit}"
    return f"({core})"


def flatten_label(shape: SystemShape, label) -> int:
    """Global index in ``[1..N]`` of a pure label, by left-nested pair folding."""
    if type(label) is not PureLabel:
        label = as_label(label)
    return _flatten_cached(shape, label)


@lru_cache(maxsize=None)
def _flatten_cached(shape: SystemShape, lab: PureLabel) -> int:
    _check_label(shape, lab)
    acc = lab.indices[0]
    acc_dim = shape.elems[0]
    for k in range(1, len(shape.elems)):
        acc = q_encode(acc_dim, shape.elems[k], acc, lab.indices[k], lab.sections[k - 1])
        acc_dim = 2 * acc_dim * shape.elems[k]
    return acc


@lru_cache(maxsize=None)
def unflatten_label(shape: SystemShape, q: int) -> PureLabel:
    """Inverse of :func:`flatten_label`."""
    if shape.is_trivial:
        raise ValueError("the trivial system has no pure labels")
    dims = [shape.elems[0]]
    for n in shape.elems[1:]:
        dims.append(2 * dims[-1] * n)
    if not 1 <= q <= dims[-1]:
        raise ValueError(f"label q={q} out of range [1..{dims[-1]}] for {shape}")
    indices: list[int] = []
    sections: list[int] = []
    for k in range(len(shape.elems) - 1, 0, -1):
        q, idx, s = q_decode(dims[k - 1], shape.elems[k], q)
        indices.append(idx)
        sections.append(s)
    indices.append(q)
    return PureLabel(tuple(reversed(indices)), tuple(reversed(sections)))


def all_labels(shape: SystemShape) -> Iterator[PureLabel]:
    """Every pure label of a shape, in global-index order."""
    for q in range(1, shape.global_dim + 1):
        yield unflatten_label(shape, q)


def pair_points(n: int, m: int) -> Iterator[tuple[int, int, int]]:
    """``[1..n] x [1..m] x {0,1}``: the groupings ``(q1 q2)_s`` and the atomic
    keys ``(src, dst, flip)``, in :func:`pair_label`'s global-index order when
    the right factor is a single system."""
    return product(range(1, n + 1), range(1, m + 1), (0, 1))


@lru_cache(maxsize=None)
def pair_offsets(right: SystemShape) -> tuple[int, ...]:
    """``pair_offsets(right)[2*(q2-1) + s]`` is the global index of ``(1 q2)_s``
    on ``left + right`` for every non-trivial ``left``: ``right``'s label
    folded from ``acc = 1``, its section bits shifted by ``s``."""
    out = []
    for q2 in range(1, right.global_dim + 1):
        b = unflatten_label(right, q2)
        for s in (0, 1):
            acc, acc_dim = 1, 1
            for idx, n, bit in zip(b.indices, right.elems,
                                   (s, *(s ^ u for u in b.sections))):
                acc = q_encode(acc_dim, n, acc, idx, bit)
                acc_dim = 2 * acc_dim * n
            out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def pair_label(left: SystemShape, right: SystemShape, q1: int, q2: int, s: int) -> int:
    """Global index on ``left + right`` of the grouping ``(q1 q2)_s``.

    Re-associating the grouping into canonical left-nested form appends the
    pairing bit and shifts every section bit of the right factor by it:
    ``(x (y z)_u)_s = ((x y)_s z)_{s^u}``; the result is the closed form
    ``2*G_R*(q1 - 1) + pair_offsets(right)[2*(q2 - 1) + s]``.
    """
    if left.is_trivial or right.is_trivial:
        raise ValueError("pair_label needs two non-trivial shapes")
    for shape, q in ((left, q1), (right, q2)):
        if not 1 <= q <= shape.global_dim:
            raise ValueError(f"label q={q} out of range [1..{shape.global_dim}] for {shape}")
    if s not in (0, 1):
        raise ValueError("pairing bit must be 0 or 1")
    return 2 * right.global_dim * (q1 - 1) + pair_offsets(right)[2 * (q2 - 1) + s]


def split_label(left: SystemShape, right: SystemShape, q: int) -> tuple[int, int, int]:
    """Inverse of :func:`pair_label`: recover ``(q1, q2, s)``."""
    lab = unflatten_label(left.compose(right), q)
    p = len(left.elems)
    a = PureLabel(lab.indices[:p], lab.sections[: p - 1])
    s = lab.sections[p - 1]
    b = PureLabel(lab.indices[p:], tuple(s ^ u for u in lab.sections[p:]))
    return flatten_label(left, a), flatten_label(right, b), s


@dataclass(frozen=True)
class RightNestedLabel:
    """Tripartite label grouped as ``(i (j k)_inner)_outer``."""

    i: int
    j: int
    k: int
    inner: int
    outer: int


def reassoc_label(n1: int, n2: int, n3: int, label: PureLabel) -> RightNestedLabel:
    """Regroup ``((i j)_s k)_t`` as ``(i (j k)_{s^t})_s``."""
    shape = SystemShape((n1, n2, n3))
    _check_label(shape, label)
    i, j, k = label.indices
    s, t = label.sections
    return RightNestedLabel(i, j, k, inner=s ^ t, outer=s)


def reassoc_inverse(n1: int, n2: int, n3: int, label: RightNestedLabel) -> PureLabel:
    """Regroup ``(i (j k)_c)_a`` back to the canonical ``((i j)_a k)_{a^c}``."""
    out = PureLabel((label.i, label.j, label.k), (label.outer, label.outer ^ label.inner))
    _check_label(SystemShape((n1, n2, n3)), out)
    return out


def flatten_right_nested(n1: int, n2: int, n3: int, label: RightNestedLabel) -> int:
    """Global index induced by the right-nested grouping ``(i (j k)_c)_a``."""
    inner = q_encode(n2, n3, label.j, label.k, label.inner)
    return q_encode(n1, 2 * n2 * n3, label.i, inner, label.outer)
