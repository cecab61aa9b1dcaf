"""Finite classical probability theory as a process theory.

Systems are positive integers, maps are nonnegative matrices with exact
entries (there is no float path and no tolerance), states are column vectors
(``in_dim == 1``), effects are row vectors (``out_dim == 1``) and scalars
are 1x1 maps.  Sequential composition is matrix product, parallel
composition is the Kronecker product with the left factor as the outer
(row-major) index.

A map is stored sparsely on an integer lattice: ``nums`` maps ``(row, col)``
to a nonzero ``int`` over one denominator ``den >= 1``, with
``gcd(den, *nums) == 1`` (an empty map has ``den == 1``).  A zero is never
stored, so equality is a comparison of plain fields.  The images of the
ontological model are relabellings, almost all zeros, and every product here
runs over the nonzero cells only; products multiply denominators, sums add
numerators, and each result is reduced once by
:func:`~bctk.scalars.reduce_dict`.

Exact ``int``/``Fraction`` values enter through ``ClassicalMap(rows)``,
:meth:`ClassicalMap.from_json`, ``state``/``effect``/``scalar``/``scale``
and the trusted ``_from_cells``, each converting once through
:func:`~bctk.scalars.lattice`.  They leave through ``cells``, ``m[r, c]``,
:meth:`~ClassicalMap.nonzero`, ``scalar_value``, :func:`choi_close` and
:meth:`~ClassicalMap.to_json`, as an ``int`` when integral and a ``Fraction``
otherwise; no kernel operation reads them.
:meth:`ClassicalMap.nonzero` yields cells in row-major order.
:meth:`ClassicalMap.to_json_text` is the one dense writer: it prints the
row-major entry list as JSON text, one shared ``[0, 1]`` string for every
absent cell and one formatted string per nonzero cell, joined once;
:meth:`ClassicalMap.to_json` is its parse.

numpy is not a runtime dependency: only :attr:`ClassicalMap.entries`, a
dense object array that the benchmark tracer counts cells through, imports
it, and the ``test`` extra installs it.
"""

from __future__ import annotations

import json
from math import lcm

from .scalars import exact, lattice, number_from_json, ratio_json, reduce_dict


def _cell_nums(cells: dict) -> tuple[dict, int]:
    """Nonzero exact cell values as lattice numerators in lowest terms."""
    values, den = lattice(cells.values())
    return reduce_dict(dict(zip(cells, values)), den)


class ClassicalMap:
    """A nonnegative ``out_dim x in_dim`` matrix between classical systems."""

    __slots__ = ("out_dim", "in_dim", "nums", "den")

    def __init__(self, rows):
        """Build a map from a dense 2-d list or tuple of exact entries."""
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
        self.nums, self.den = _cell_nums(
            {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v != 0})

    @classmethod
    def _from_nums(cls, out_dim: int, in_dim: int, nums: dict, den: int) -> "ClassicalMap":
        """Kernel constructor: ``nums`` holds only nonzero numerators with keys
        in range, in lowest terms over ``den``."""
        m = object.__new__(cls)
        m.out_dim, m.in_dim, m.nums, m.den = out_dim, in_dim, nums, den
        return m

    @classmethod
    def _from_cells(cls, out_dim: int, in_dim: int, cells: dict) -> "ClassicalMap":
        """Trusted constructor: ``cells`` holds only nonzero exact values with
        keys in range."""
        return cls._from_nums(out_dim, in_dim, *_cell_nums(cells))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, out_dim: int, in_dim: int) -> "ClassicalMap":
        return cls._from_nums(out_dim, in_dim, {}, 1)

    @classmethod
    def identity(cls, dim: int) -> "ClassicalMap":
        return cls._from_nums(dim, dim, {(i, i): 1 for i in range(dim)}, 1)

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

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.out_dim, self.in_dim)

    @property
    def cells(self) -> dict:
        """``(row, col)`` to each nonzero value."""
        den = self.den
        if den == 1:
            return dict(self.nums)
        return {rc: exact(n, den) for rc, n in self.nums.items()}

    @property
    def entries(self):
        """A dense, read-only numpy object array of the entries, built on demand.

        It needs numpy, which only the ``test`` extra installs: the benchmark
        tracer counts cells through it, and no command reads it.
        """
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
        return exact(self.nums.get((0, 0), 0), self.den)

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.out_dim and 0 <= c < self.in_dim):
            raise IndexError(f"entry {rc} out of range for shape {self.shape}")
        return exact(self.nums.get(rc, 0), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalMap):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.shape, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        cells = self.cells
        rows = [[cells.get((r, c), 0) for c in range(self.in_dim)]
                for r in range(self.out_dim)]
        return f"ClassicalMap({rows!r})"

    def scale(self, factor) -> "ClassicalMap":
        (fn,), fd = lattice((factor,))
        if fn == 0:
            return ClassicalMap.zero(self.out_dim, self.in_dim)
        return ClassicalMap._from_nums(
            self.out_dim, self.in_dim,
            *reduce_dict({rc: n * fn for rc, n in self.nums.items()}, self.den * fd))

    def add(self, other: "ClassicalMap") -> "ClassicalMap":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in map addition")
        den = lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        nums = {rc: k1 * n for rc, n in self.nums.items()}
        for rc, n in other.nums.items():
            total = nums.get(rc, 0) + k2 * n
            if total != 0:
                nums[rc] = total
            else:
                del nums[rc]
        return ClassicalMap._from_nums(self.out_dim, self.in_dim, *reduce_dict(nums, den))

    def nonzero(self):
        """Iterate ``(row, col, value)`` over nonzero entries in row-major order."""
        nums, den = self.nums, self.den
        for r, c in sorted(nums):
            yield r, c, exact(nums[r, c], den)

    def differences(self, other: "ClassicalMap"):
        """Iterate ``(row, col, mine, theirs)`` over the cells where two maps
        of one shape differ, in row-major order."""
        mine, theirs = self.nums, other.nums
        d1, d2 = self.den, other.den
        for r, c in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get((r, c), 0), theirs.get((r, c), 0)
            if a * d2 != b * d1:
                yield r, c, exact(a, d1), exact(b, d2)

    # -- predicates ----------------------------------------------------

    def is_nonnegative(self) -> bool:
        return all(n >= 0 for n in self.nums.values())

    def _column_nums(self) -> list:
        sums = [0] * self.in_dim
        for (_, c), n in self.nums.items():
            sums[c] += n
        return sums

    def is_substochastic(self) -> bool:
        den = self.den
        return self.is_nonnegative() and all(s <= den for s in self._column_nums())

    def is_stochastic(self) -> bool:
        den = self.den
        return self.is_nonnegative() and all(s == den for s in self._column_nums())

    def is_permutation(self) -> bool:
        n = self.in_dim
        nums = self.nums
        return (
            self.out_dim == n
            and self.den == 1
            and len(nums) == n
            and all(v == 1 for v in nums.values())
            and len({r for r, _ in nums}) == n
            and len({c for _, c in nums}) == n
        )

    # -- serialisation --------------------------------------------------

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True)``, written directly:
        one preformatted ``[0, 1]`` string shared by every absent cell, one
        ``"[num, den]"`` string for each nonzero cell, joined once."""
        in_dim, den = self.in_dim, self.den
        parts = ["[0, 1]"] * (self.out_dim * in_dim)
        for (r, c), n in self.nums.items():
            a, b = ratio_json(n, den)
            parts[r * in_dim + c] = f"[{a}, {b}]"
        return f'{{"entries": [{", ".join(parts)}], "in": {in_dim}, "out": {self.out_dim}}}'

    def to_json(self) -> dict:
        """``{"in", "out", "entries"}`` with the dense row-major entry list:
        ``[0, 1]`` for every absent cell, ``number_json`` of the nonzero ones.
        Each entry is a list of its own.  It is the parse of
        :meth:`to_json_text`, the one dense writer."""
        return json.loads(self.to_json_text())

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
    g_by_col: dict[int, list[tuple[int, int]]] = {}
    for (r, k), v in g.nums.items():
        g_by_col.setdefault(k, []).append((r, v))
    out: dict = {}
    for (k, j), fv in f.nums.items():
        for r, gv in g_by_col.get(k, ()):
            out[r, j] = out.get((r, j), 0) + gv * fv
    return ClassicalMap._from_nums(
        g.out_dim, f.in_dim, *reduce_dict({rc: v for rc, v in out.items() if v != 0},
                                          f.den * g.den))


def compose_par(f: ClassicalMap, g: ClassicalMap) -> ClassicalMap:
    """Kronecker product, left factor outer: products of pairs of nonzero cells."""
    g_out, g_in = g.out_dim, g.in_dim
    g_cells = g.nums.items()
    return ClassicalMap._from_nums(
        f.out_dim * g_out, f.in_dim * g_in,
        *reduce_dict({(r1 * g_out + r2, c1 * g_in + c2): v1 * v2
                      for (r1, c1), v1 in f.nums.items() for (r2, c2), v2 in g_cells},
                     f.den * g.den))


def choi_close(m: ClassicalMap):
    """Close both wires of a square map with the Choi pair: the trace."""
    if m.in_dim != m.out_dim:
        raise ValueError("choi_close needs a square map")
    return exact(sum(v for (r, c), v in m.nums.items() if r == c), m.den)
