"""Finite classical probability theory as a process theory.

Systems are positive integers, maps are nonnegative matrices with exact
``Fraction``/``int`` entries (there is no float path and no tolerance),
states are column vectors (``in_dim == 1``), effects are row vectors
(``out_dim == 1``) and scalars are 1x1 maps.  Sequential composition is
matrix product, parallel composition is the Kronecker product with the left
factor as the outer (row-major) index.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import number_from_json, number_json


class ClassicalMap:
    """A nonnegative ``out_dim x in_dim`` matrix between classical systems."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=object)
        if arr.ndim != 2:
            raise ValueError("a classical map needs a 2-d entry array")
        self.entries = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, out_dim: int, in_dim: int) -> "ClassicalMap":
        return cls(np.full((out_dim, in_dim), 0, dtype=object))

    @classmethod
    def identity(cls, dim: int) -> "ClassicalMap":
        m = np.full((dim, dim), 0, dtype=object)
        for i in range(dim):
            m[i, i] = 1
        return cls(m)

    @classmethod
    def state(cls, weights) -> "ClassicalMap":
        return cls(np.array([[w] for w in weights], dtype=object))

    @classmethod
    def effect(cls, weights) -> "ClassicalMap":
        return cls(np.array([list(weights)], dtype=object))

    @classmethod
    def scalar(cls, value) -> "ClassicalMap":
        return cls(np.array([[value]], dtype=object))

    @classmethod
    def point_state(cls, dim: int, index: int) -> "ClassicalMap":
        """The pure state ``|index)`` (1-based)."""
        return cls.state([1 if i == index - 1 else 0 for i in range(dim)])

    @classmethod
    def point_effect(cls, dim: int, index: int) -> "ClassicalMap":
        return cls.effect([1 if i == index - 1 else 0 for i in range(dim)])

    @classmethod
    def uniform_state(cls, dim: int) -> "ClassicalMap":
        return cls.state([Fraction(1, dim)] * dim)

    # -- basic structure ----------------------------------------------

    @property
    def out_dim(self) -> int:
        return self.entries.shape[0]

    @property
    def in_dim(self) -> int:
        return self.entries.shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.entries.shape == (1, 1)

    def scalar_value(self):
        if not self.is_scalar:
            raise ValueError(f"map of shape {self.entries.shape} is not a scalar")
        return self.entries[0, 0]

    def __getitem__(self, rc):
        return self.entries[rc]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalMap):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self):
        return hash((self.entries.shape, tuple(self.entries.flat)))

    def __repr__(self) -> str:
        return f"ClassicalMap({self.entries.tolist()!r})"

    def transpose(self) -> "ClassicalMap":
        return ClassicalMap(self.entries.T.copy())

    def scale(self, factor) -> "ClassicalMap":
        out = self.entries.copy()
        out *= factor
        return ClassicalMap(out)

    def add(self, other: "ClassicalMap") -> "ClassicalMap":
        if self.entries.shape != other.entries.shape:
            raise ValueError("shape mismatch in map addition")
        return ClassicalMap(self.entries + other.entries)

    def nonzero(self):
        """Iterate ``(row, col, value)`` over nonzero entries."""
        rows, cols = np.nonzero(self.entries != 0)
        for r, c in zip(rows.tolist(), cols.tolist()):
            yield r, c, self.entries[r, c]

    # -- predicates ----------------------------------------------------

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.entries.flat)

    def column_sums(self):
        return [sum(self.entries[:, c], 0) for c in range(self.in_dim)]

    def is_substochastic(self) -> bool:
        return self.is_nonnegative() and all(s <= 1 for s in self.column_sums())

    def is_stochastic(self) -> bool:
        return self.is_nonnegative() and all(s == 1 for s in self.column_sums())

    def is_permutation(self) -> bool:
        if self.in_dim != self.out_dim:
            return False
        row_hits = [0] * self.out_dim
        col_hits = [0] * self.in_dim
        for r, c, v in self.nonzero():
            if v != 1:
                return False
            row_hits[r] += 1
            col_hits[c] += 1
        return all(h == 1 for h in row_hits) and all(h == 1 for h in col_hits)

    # -- serialisation --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "in": self.in_dim,
            "out": self.out_dim,
            "entries": [number_json(v) for v in self.entries.flat],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClassicalMap":
        out_dim, in_dim = data["out"], data["in"]
        flat = [number_from_json(v) for v in data["entries"]]
        if len(flat) != out_dim * in_dim:
            raise ValueError("entry count does not match declared dimensions")
        arr = np.array(flat, dtype=object).reshape(out_dim, in_dim)
        return cls(arr)


def compose_seq(f: ClassicalMap, g: ClassicalMap) -> ClassicalMap:
    """``f`` then ``g``: the matrix product ``g @ f``.

    Iterates over nonzero entries only; the maps this package produces are
    sparse (permutations, atomic images), so this beats dense object-dtype
    products at the dimensions we care about.
    """
    if f.out_dim != g.in_dim:
        raise ValueError(f"cannot compose: intermediate dims {f.out_dim} != {g.in_dim}")
    out = np.full((g.out_dim, f.in_dim), 0, dtype=object)
    g_by_col: dict[int, list[tuple[int, object]]] = {}
    for r, c, v in g.nonzero():
        g_by_col.setdefault(c, []).append((r, v))
    for k, j, fv in f.nonzero():
        for r, gv in g_by_col.get(k, ()):
            out[r, j] += gv * fv
    return ClassicalMap(out)


def compose_par(f: ClassicalMap, g: ClassicalMap) -> ClassicalMap:
    """Kronecker product, left factor outer."""
    return ClassicalMap(np.kron(f.entries, g.entries))


def permutation_map(perm) -> ClassicalMap:
    """The stochastic 0/1 map sending ``|i)`` to ``|perm[i-1])`` (1-based)."""
    targets = tuple(perm)
    n = len(targets)
    if sorted(targets) != list(range(1, n + 1)):
        raise ValueError(f"{targets} is not a bijection on [1..{n}]")
    m = np.full((n, n), 0, dtype=object)
    for i, t in enumerate(targets):
        m[t - 1, i] = 1
    return ClassicalMap(m)


def choi_pair(dim: int) -> tuple[ClassicalMap, ClassicalMap]:
    """The Choi vector ``sum_i |ii)`` and covector ``sum_j (jj|`` on ``dim**2``."""
    vec = [0] * dim * dim
    for i in range(dim):
        vec[i * dim + i] = 1
    return ClassicalMap.state(vec), ClassicalMap.effect(vec)


def choi_close(m: ClassicalMap):
    """Close both wires of a square map with the Choi pair: the trace."""
    if m.in_dim != m.out_dim:
        raise ValueError("choi_close needs a square map")
    return sum((m.entries[i, i] for i in range(m.in_dim)), 0)


def snake_check(dim: int) -> bool:
    """Verify ``(id (x) g) . (gamma (x) id) == id`` on a ``dim`` wire."""
    gamma, g = choi_pair(dim)
    ident = ClassicalMap.identity(dim)
    bent = compose_seq(compose_par(gamma, ident), compose_par(ident, g))
    return bent == ident
