"""Finite classical probability theory as a process theory.

Systems are positive integers, maps are nonnegative matrices with exact
``Fraction``/``int`` entries (there is no float path and no tolerance),
states are column vectors (``in_dim == 1``), effects are row vectors
(``out_dim == 1``) and scalars are 1x1 maps.  Sequential composition is
matrix product, parallel composition is the Kronecker product with the left
factor as the outer (row-major) index.

A map is stored sparsely: ``cells`` maps ``(row, col)`` to a nonzero value and
a zero is never stored, so equality is dict equality.  The images of the
ontological model are relabellings, almost all zeros, and every product here
runs over the nonzero cells only.  :meth:`ClassicalMap.nonzero` yields cells in
row-major order; :meth:`ClassicalMap.to_json` still writes the dense
row-major entry list, converting only the nonzero cells;
:attr:`ClassicalMap.entries` builds a dense numpy object array on demand, and
is the only place numpy is imported.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import number_from_json, number_json


class ClassicalMap:
    """A nonnegative ``out_dim x in_dim`` matrix between classical systems."""

    __slots__ = ("out_dim", "in_dim", "cells")

    def __init__(self, rows):
        """Build a map from a dense 2-d array or nested list of exact entries."""
        if hasattr(rows, "tolist"):  # a numpy array
            rows = rows.tolist()
        if (
            not isinstance(rows, (list, tuple))
            or not rows
            or not all(isinstance(row, (list, tuple)) for row in rows)
            or len({len(row) for row in rows}) != 1
            or any(isinstance(v, (list, tuple)) for row in rows for v in row)
        ):
            raise ValueError("a classical map needs a 2-d entry array")
        self.out_dim = len(rows)
        self.in_dim = len(rows[0])
        self.cells = {
            (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v != 0
        }

    @classmethod
    def _from_cells(cls, out_dim: int, in_dim: int, cells: dict) -> "ClassicalMap":
        """Kernel constructor: ``cells`` holds only nonzero values, keys in range."""
        m = object.__new__(cls)
        m.out_dim, m.in_dim, m.cells = out_dim, in_dim, cells
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, out_dim: int, in_dim: int) -> "ClassicalMap":
        return cls._from_cells(out_dim, in_dim, {})

    @classmethod
    def identity(cls, dim: int) -> "ClassicalMap":
        return cls._from_cells(dim, dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def state(cls, weights) -> "ClassicalMap":
        column = list(weights)
        return cls._from_cells(
            len(column), 1, {(i, 0): w for i, w in enumerate(column) if w != 0})

    @classmethod
    def effect(cls, weights) -> "ClassicalMap":
        row = list(weights)
        return cls._from_cells(1, len(row), {(0, i): w for i, w in enumerate(row) if w != 0})

    @classmethod
    def scalar(cls, value) -> "ClassicalMap":
        return cls._from_cells(1, 1, {(0, 0): value} if value != 0 else {})

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
    def shape(self) -> tuple[int, int]:
        return (self.out_dim, self.in_dim)

    @property
    def entries(self):
        """A dense, read-only numpy object array of the entries, built on demand."""
        import numpy as np

        arr = np.full(self.shape, 0, dtype=object)
        for (r, c), v in self.cells.items():
            arr[r, c] = v
        arr.flags.writeable = False
        return arr

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    def scalar_value(self):
        if not self.is_scalar:
            raise ValueError(f"map of shape {self.shape} is not a scalar")
        return self.cells.get((0, 0), 0)

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.out_dim and 0 <= c < self.in_dim):
            raise IndexError(f"entry {rc} out of range for shape {self.shape}")
        return self.cells.get(rc, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalMap):
            return NotImplemented
        return self.shape == other.shape and self.cells == other.cells

    def __hash__(self):
        return hash((self.shape, frozenset(self.cells.items())))

    def __repr__(self) -> str:
        rows = [[self.cells.get((r, c), 0) for c in range(self.in_dim)]
                for r in range(self.out_dim)]
        return f"ClassicalMap({rows!r})"

    def transpose(self) -> "ClassicalMap":
        return ClassicalMap._from_cells(
            self.in_dim, self.out_dim, {(c, r): v for (r, c), v in self.cells.items()})

    def scale(self, factor) -> "ClassicalMap":
        cells = {rc: v * factor for rc, v in self.cells.items()} if factor != 0 else {}
        return ClassicalMap._from_cells(self.out_dim, self.in_dim, cells)

    def add(self, other: "ClassicalMap") -> "ClassicalMap":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in map addition")
        cells = dict(self.cells)
        for rc, v in other.cells.items():
            total = cells.get(rc, 0) + v
            if total != 0:
                cells[rc] = total
            else:
                del cells[rc]
        return ClassicalMap._from_cells(self.out_dim, self.in_dim, cells)

    def nonzero(self):
        """Iterate ``(row, col, value)`` over nonzero entries in row-major order."""
        cells = self.cells
        for r, c in sorted(cells):
            yield r, c, cells[r, c]

    def differences(self, other: "ClassicalMap"):
        """Iterate ``(row, col, mine, theirs)`` over the cells where two maps
        of one shape differ, in row-major order."""
        mine, theirs = self.cells, other.cells
        for r, c in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get((r, c), 0), theirs.get((r, c), 0)
            if a != b:
                yield r, c, a, b

    # -- predicates ----------------------------------------------------

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.cells.values())

    def column_sums(self):
        sums = [0] * self.in_dim
        for (_, c), v in self.cells.items():
            sums[c] += v
        return sums

    def is_substochastic(self) -> bool:
        return self.is_nonnegative() and all(s <= 1 for s in self.column_sums())

    def is_stochastic(self) -> bool:
        return self.is_nonnegative() and all(s == 1 for s in self.column_sums())

    def is_permutation(self) -> bool:
        n = self.in_dim
        cells = self.cells
        return (
            self.out_dim == n
            and len(cells) == n
            and all(v == 1 for v in cells.values())
            and len({r for r, _ in cells}) == n
            and len({c for _, c in cells}) == n
        )

    # -- serialisation --------------------------------------------------

    def to_json(self) -> dict:
        """``{"in", "out", "entries"}`` with the dense row-major entry list:
        ``[0, 1]`` for every absent cell, ``number_json`` of the nonzero ones.
        Each entry is a list of its own."""
        in_dim = self.in_dim
        entries = [[0, 1] for _ in range(self.out_dim * in_dim)]
        for (r, c), v in self.cells.items():
            entries[r * in_dim + c] = number_json(v)
        return {"in": in_dim, "out": self.out_dim, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "ClassicalMap":
        out_dim, in_dim = data["out"], data["in"]
        if not all(type(d) is int and d >= 0 for d in (out_dim, in_dim)):
            raise ValueError("declared dimensions must be nonnegative integers")
        flat = [number_from_json(v) for v in data["entries"]]
        if len(flat) != out_dim * in_dim:
            raise ValueError("entry count does not match declared dimensions")
        return cls._from_cells(
            out_dim, in_dim, {divmod(i, in_dim): v for i, v in enumerate(flat) if v != 0})


def compose_seq(f: ClassicalMap, g: ClassicalMap) -> ClassicalMap:
    """``f`` then ``g``: the matrix product ``g @ f``, over nonzero cells only."""
    if f.out_dim != g.in_dim:
        raise ValueError(f"cannot compose: intermediate dims {f.out_dim} != {g.in_dim}")
    g_by_col: dict[int, list[tuple[int, object]]] = {}
    for (r, k), v in g.cells.items():
        g_by_col.setdefault(k, []).append((r, v))
    out: dict = {}
    for (k, j), fv in f.cells.items():
        for r, gv in g_by_col.get(k, ()):
            out[r, j] = out.get((r, j), 0) + gv * fv
    return ClassicalMap._from_cells(
        g.out_dim, f.in_dim, {rc: v for rc, v in out.items() if v != 0})


def compose_par(f: ClassicalMap, g: ClassicalMap) -> ClassicalMap:
    """Kronecker product, left factor outer: products of pairs of nonzero cells."""
    g_out, g_in = g.out_dim, g.in_dim
    g_cells = g.cells.items()
    return ClassicalMap._from_cells(
        f.out_dim * g_out, f.in_dim * g_in,
        {(r1 * g_out + r2, c1 * g_in + c2): v1 * v2
         for (r1, c1), v1 in f.cells.items() for (r2, c2), v2 in g_cells})


def choi_close(m: ClassicalMap):
    """Close both wires of a square map with the Choi pair: the trace."""
    if m.in_dim != m.out_dim:
        raise ValueError("choi_close needs a square map")
    return sum((v for (r, c), v in m.cells.items() if r == c), 0)
