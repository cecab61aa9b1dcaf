"""Small constructions that only the tests need, kept out of the kernel."""

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bctk.bct import (Effect, Instrument, State, Transformation, apply, atomic, coarse_grain,
                      pair, par_with_identity, pure_effect, pure_state)
from bctk.classical import ClassicalMap
from bctk.lct import CandidateModel
from bctk.scalars import exact, lattice, number_text, reduce_tuple
from bctk.systems import (PureLabel, SystemShape, all_labels, flatten_label, pair_points,
                          unflatten_label)
from bctk.verify import _vector_terms


def point_state(dim: int, index: int) -> ClassicalMap:
    """The classical pure state ``|index)`` (1-based)."""
    return ClassicalMap._from_nums(dim, 1, {(index - 1, 0): 1}, 1)


def point_effect(dim: int, index: int) -> ClassicalMap:
    """The classical point effect ``(index|`` (1-based)."""
    return ClassicalMap._from_nums(1, dim, {(0, index - 1): 1}, 1)


def classical_map(out_dim: int, in_dim: int, cells: dict) -> ClassicalMap:
    """The ``out_dim x in_dim`` classical map with the exact ``cells``
    ``{(row, col): value}``, built through the dense constructor."""
    return ClassicalMap([[cells.get((r, c), 0) for c in range(in_dim)]
                         for r in range(out_dim)])


def classical_state(weights) -> ClassicalMap:
    """The classical state with the exact ``weights`` as its column."""
    return ClassicalMap([[w] for w in weights])


def classical_effect(weights) -> ClassicalMap:
    """The classical effect with the exact ``weights`` as its row."""
    return ClassicalMap([list(weights)])


def classical_scalar(value) -> ClassicalMap:
    """The 1x1 classical map ``value``."""
    return ClassicalMap([[value]])


def classical_uniform_state(dim: int) -> ClassicalMap:
    """The classical state with ``dim`` entries ``1/dim``."""
    return ClassicalMap._from_nums(dim, 1, {(i, 0): 1 for i in range(dim)}, dim)


def uniform_state(shape: SystemShape) -> State:
    """The BCT state with weight ``1/n`` on each of the ``n`` labels of ``shape``."""
    n = shape.global_dim
    # n entries 1/n: nonnegative, summing to 1, and gcd(n, 1) == 1.
    return State._from_nums(shape, (1,) * n, n)


def column_sums(m: ClassicalMap) -> list:
    """The exact column sums of ``m``."""
    return [exact(s, m.den) for s in m._column_nums()]


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


def reached_names(module, start: str) -> tuple[set, set]:
    """Every name used on ``start``'s path down the helpers of ``module`` that
    it calls, methods such as ``Class._from_nums`` included, and the helpers
    reached."""
    tree = ast.parse(Path(module.__file__).read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            funcs.update({f"{cls.name}.{f.name}": f for f in cls.body
                          if isinstance(f, ast.FunctionDef)})
    reached, todo, names = set(), [start], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(funcs[name]):
            callee = None
            if isinstance(node, ast.Name):
                names.add(node.id)
                callee = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                callee = f"{node.value.id}.{node.attr}"
            if callee in funcs and callee not in reached:
                todo.append(callee)
    return reached, names


# ---------------------------------------------------------------------------
# earlier forms of the kernel's records and of ``scalars.lattice``: oracles
# ---------------------------------------------------------------------------


def lattice_oracle(values, den: int = 1) -> tuple[list, int]:
    """``scalars.lattice`` as it was before it read each ratio once: each
    ``Fraction``'s denominator twice and its numerator once."""
    if type(den) is not int or den < 1:
        raise ValueError(f"a denominator must be a positive integer, got {den!r}")
    values = list(values)
    scale = 1
    all_int = True
    for v in values:
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"not an exact number: {v!r}")
            all_int = False
            scale = math.lcm(scale, v.denominator)
    if all_int:
        return values, den
    return [v.numerator * (scale // v.denominator) for v in values], den * scale


def scale_oracle(v, p):
    """``_Vector.scale`` without its exits: ``p`` read by ``scalars.lattice``
    and the result built through the checked constructor."""
    (pn,), pd = lattice((p,))
    return type(v)(v.shape, [pn * n for n in v.nums], den=v.den * pd)


def label_text_oracle(label: PureLabel) -> str:
    """``systems.label_text`` without its cache."""
    core = str(label.indices[0])
    for idx, bit in zip(label.indices[1:], label.sections):
        core = f"({core},{idx});{bit}"
    return f"({core})"


def rank_oracle(rows) -> int:
    """``scalars.rank`` as ``verify`` took it before, over the rationals: each
    nonzero row, taken in turn, clears its leading column from the rows still
    pending."""
    pending, rank = [[Fraction(x) for x in row] for row in rows], 0
    while pending:
        row = pending.pop()
        col = next((c for c, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        rank += 1
        pending = [r if r[col] == 0 else [a - r[col] / row[col] * b for a, b in zip(r, row)]
                   for r in pending]
    return rank


def probe_rows_oracle(n: int, m: int) -> list[list[int]]:
    """The rows ``verify._probe_rank`` ranks, by the dense probe pairing it
    used before it read the action tables: each atomic ``(n) -> (m)``, lifted
    by a binary ancilla, moves every pure state, and every pure effect reads
    every moved state."""
    n_shape, m_shape, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((2,))
    n_big, m_big = n_shape.compose(anc), m_shape.compose(anc)
    probes_in = [pure_state(n_big, lab) for lab in all_labels(n_big)]
    probes_out = [pure_effect(m_big, lab) for lab in all_labels(m_big)]
    rows = []
    for src, dst, flip in pair_points(n, m):
        gen = par_with_identity(atomic(n_shape, m_shape, src, dst, flip), anc)
        moved = [apply(gen, rho) for rho in probes_in]
        rows.append(lattice(pair(eff, v) for v in moved for eff in probes_out)[0])
    return rows


@dataclass(frozen=True)
class DataclassPureLabel:
    """``systems.PureLabel`` as a frozen dataclass, as it was."""

    indices: tuple[int, ...]
    sections: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("a pure label needs at least one index")
        if len(self.sections) != len(self.indices) - 1:
            raise ValueError(
                f"label with {len(self.indices)} indices needs "
                f"{len(self.indices) - 1} section bits, got {len(self.sections)}"
            )
        if any(s not in (0, 1) for s in self.sections):
            raise ValueError("section bits must be 0 or 1")


@dataclass(frozen=True)
class DataclassAtomicTerm:
    """``bct.AtomicTerm`` as a frozen dataclass, as it was."""

    src: int
    dst: int
    flip: int
    weight: object = 1


# ---------------------------------------------------------------------------
# randint-based generators: oracles for the draws of ``verify`` and ``lct``
# ---------------------------------------------------------------------------

_GRID = 16  # verify.WEIGHT_GRID; lct's candidate weights are over 16 too


def _grid_counts_oracle(rng, n, normalised):
    total = _GRID if normalised else rng.randint(0, _GRID)
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def rand_distribution_oracle(rng, n, normalised=True):
    return tuple(Fraction(c, _GRID) for c in _grid_counts_oracle(rng, n, normalised))


def rand_shape_oracle(rng, max_dim, max_factors=2, max_ontic=64):
    while True:
        p = rng.randint(1, max_factors)
        shape = SystemShape(tuple(rng.randint(2, max_dim) for _ in range(p)))
        if shape.ontic_dim <= max_ontic:
            return shape


def rand_state_oracle(rng, shape):
    return State(shape, _grid_counts_oracle(rng, shape.global_dim, False), den=_GRID)


def rand_effect_oracle(rng, shape):
    return Effect(shape, [rng.randint(0, _GRID) for _ in range(shape.global_dim)], den=_GRID)


def _rand_terms_oracle(rng, n_in, n_out, k_min, k_max, normalised):
    for src in range(1, n_in + 1):
        k = rng.randint(k_min, k_max)
        if k == 0:
            continue
        targets = set()
        while len(targets) < k:
            targets.add((rng.randint(1, n_out), rng.randint(0, 1)))
        for (dst, flip), c in zip(sorted(targets), _grid_counts_oracle(rng, k, normalised)):
            if c != 0:
                yield (src, dst, flip), c


def rand_tensor_oracle(rng, in_shape, out_shape, channel=False):
    terms = _rand_terms_oracle(rng, in_shape.global_dim, out_shape.global_dim,
                               1 if channel else 0, 3, channel)
    return Transformation(in_shape, out_shape, dict(terms), den=_GRID)


def rand_instrument_oracle(rng, in_shape, out_shape):
    channel = rand_tensor_oracle(rng, in_shape, out_shape, channel=True)
    # Through the public constructor, not ``Transformation.scale``.
    return Instrument(tuple(
        Transformation(in_shape, out_shape, {k: p * w for k, w in channel.coeffs.items()})
        for p in rand_distribution_oracle(rng, 3)))


def random_circuit_source_oracle(rng, max_dim=3):
    n = rng.randint(2, max_dim)
    m = rng.randint(2, max_dim)
    shape = SystemShape((n, m))
    rho = _vector_terms(shape, rand_distribution_oracle(rng, shape.global_dim))
    lines = [
        f"system a = elem {n}",
        f"system b = elem {m}",
        "system ab = a * b",
        f"state rho : ab = {rho}",
    ]
    n_gates = rng.randint(1, 2)
    for g in range(n_gates):
        choice = rng.random()
        if choice < 0.4:
            parts = [f"atomic {src} -> {dst} tau {flip} w {number_text(Fraction(c, _GRID))}"
                     for (src, dst, flip), c
                     in _rand_terms_oracle(rng, 2 * n * m, 2 * n * m, 0, 2, False)]
            body = " + ".join(parts) if parts else "atomic 1 -> 1 tau 0 w 1"
            lines.append(f"gate g{g} : ab -> ab = {body}")
        elif choice < 0.6:
            perm = list(range(1, 2 * n * m + 1))
            rng.shuffle(perm)
            bits = [rng.randint(0, 1) for _ in perm]
            lines.append(f"gate g{g} : ab -> ab = rev {','.join(map(str, perm))} "
                         f"{','.join(map(str, bits))}")
        else:
            lines.append(f"gate g{g} : ab -> ab = id")
    if rng.random() < 0.3:
        effect = "discard"
    else:
        effect = _vector_terms(shape, rand_effect_oracle(rng, shape).weights) or "discard"
    lines.append(f"effect e : ab = {effect}")
    stages = " ; ".join(["rho", *(f"g{g}" for g in range(n_gates)), "e"])
    lines.append(f"circuit main = {stages}")
    lines.append("eval main")
    return "\n".join(lines) + "\n"


def random_candidate_oracle(rng, inst):
    L1 = rng.randint(2, 6)
    L2 = rng.randint(2, 6)
    dim = L1 * L2
    cuts = sorted(rng.randint(0, 16) for _ in range(dim - 1))
    counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [16]))
    b_counts = tuple(rng.randint(0, 16) for _ in range(dim))
    return CandidateModel._from_nums(L1, L2, reduce_tuple(counts, 16), reduce_tuple(b_counts, 16))
