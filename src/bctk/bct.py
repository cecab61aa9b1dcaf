"""Bilocal classical theory: states, effects and transformations.

A transformation from a non-trivial system to a non-trivial system is a
unique conical combination of normalised atomic generators.  A generator
``(src, dst, flip)`` maps the pure state ``src`` to ``dst`` and, when acting
next to an ancilla, shifts the pairing section bit by ``flip``.  The
coefficient map is stored sparsely; validity means nonnegative weights with
per-input sums at most one (exactly one for channels), which is precisely
substochasticity of the image under the ontological model.

Validation happens once, at the edge.  The public constructors
(``Transformation(...)``, ``Transformation.from_json``, ``State(...)``,
``Effect(...)``) and the operations that take arbitrary weights (``scale``,
``add``, ``atomic``, ``recompose``) check every weight.  Kernel operations
build their results through ``Transformation._from_coeffs`` and
``_Vector._from_weights``, which check nothing: each such result is valid by
construction, for the reason given at its call site.

Composite systems are handled through canonical left-nested labels; partial
application, swaps and parallel composition are all label arithmetic via
:func:`bctk.systems.pair_label`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import HALF, number_from_json, number_json
from .systems import (
    SystemShape,
    TRIVIAL,
    as_label,
    flatten_label,
    pair_label,
)

# ---------------------------------------------------------------------------
# states and effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Vector:
    """A weight vector over the pure labels of a shape (state or effect)."""

    shape: SystemShape
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.shape.global_dim:
            raise ValueError(
                f"{self._kind} on {self.shape} needs {self.shape.global_dim} weights, "
                f"got {len(self.weights)}"
            )

    @classmethod
    def _from_weights(cls, shape: SystemShape, weights: tuple):
        """Kernel constructor: ``weights`` is a valid tuple of the right length."""
        v = object.__new__(cls)
        object.__setattr__(v, "shape", shape)
        object.__setattr__(v, "weights", weights)
        return v

    def scale(self, p):
        return type(self)(self.shape, tuple(p * w for w in self.weights))

    def nonzero(self):
        for q, w in enumerate(self.weights, start=1):
            if w != 0:
                yield q, w

    def to_json(self) -> dict:
        return {"shape": list(self.shape.elems),
                "weights": [number_json(w) for w in self.weights]}


class State(_Vector):
    """A subnormalised weight vector over the pure states of a shape."""

    _kind = "state"

    def __post_init__(self):
        super().__post_init__()
        if any(w < 0 for w in self.weights):
            raise ValueError("state weights must be nonnegative")
        if sum(self.weights, 0) > 1:
            raise ValueError("state weights must sum to at most 1")

    @property
    def total(self):
        return sum(self.weights, 0)


class Effect(_Vector):
    """A response covector: entries in [0, 1] over the pure effects of a shape."""

    _kind = "effect"

    def __post_init__(self):
        super().__post_init__()
        if any(w < 0 or w > 1 for w in self.weights):
            raise ValueError("effect weights must lie in [0, 1]")


def _pure(cls, shape: SystemShape, label):
    q = flatten_label(shape, as_label(label))
    out = [0] * shape.global_dim
    out[q - 1] = 1
    # One weight 1, the rest 0: a deterministic state and an effect in [0, 1].
    return cls._from_weights(shape, tuple(out))


def pure_state(shape: SystemShape, label) -> State:
    return _pure(State, shape, label)


def pure_effect(shape: SystemShape, label) -> Effect:
    return _pure(Effect, shape, label)


def deterministic_effect(shape: SystemShape) -> Effect:
    """The unique deterministic effect: the all-ones covector."""
    # Every entry 1 lies in [0, 1].
    return Effect._from_weights(shape, (1,) * shape.global_dim)


def uniform_state(shape: SystemShape) -> State:
    n = shape.global_dim
    # n entries 1/n: nonnegative, summing to 1.
    return State._from_weights(shape, (Fraction(1, n),) * n)


def pair(e: Effect, rho: State):
    """The probability ``(e|rho)``."""
    if e.shape != rho.shape:
        raise ValueError(f"effect on {e.shape} cannot meet state on {rho.shape}")
    return sum((a * b for a, b in zip(e.weights, rho.weights)), 0)


def _par(a, b, factor):
    """Parallel composition of two vectors of one kind: pure x pure spreads
    over both section bits, each with ``factor`` times the product weight."""
    if a.shape.is_trivial:
        return b.scale(a.weights[0])
    if b.shape.is_trivial:
        return a.scale(b.weights[0])
    shape = a.shape.compose(b.shape)
    out = [0] * shape.global_dim
    for q1, w1 in a.nonzero():
        for q2, w2 in b.nonzero():
            w = factor * w1 * w2
            for s in (0, 1):
                out[pair_label(a.shape, b.shape, q1, q2, s) - 1] += w
    # pair_label is injective, so entry (q1 q2)_s is factor*w1*w2 <= w1*w2 <= 1
    # and the entries sum to 2*factor*total1*total2, at most 1 for states.
    return type(a)._from_weights(shape, tuple(out))


def par_states(r1: State, r2: State) -> State:
    """Parallel composition: pure x pure spreads over both section bits with 1/2."""
    return _par(r1, r2, HALF)


def par_effects(a: Effect, b: Effect) -> Effect:
    """Parallel composition of effects: no 1/2, forced by pairing consistency."""
    return _par(a, b, 1)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicTerm:
    """One normalised atomic generator with its conical weight."""

    src: int
    dst: int
    flip: int
    weight: object = 1


class Transformation:
    """A conical combination of normalised atomic generators.

    ``coeffs`` maps ``(src, dst, flip)`` to a nonnegative weight; zero weights
    are pruned so two transformations are equal exactly when their coefficient
    maps are (the uniqueness of the conical decomposition).
    """

    __slots__ = ("in_shape", "out_shape", "coeffs")

    def __init__(self, in_shape: SystemShape, out_shape: SystemShape, coeffs: dict):
        _require_nontrivial(in_shape, out_shape)
        n_in, n_out = in_shape.global_dim, out_shape.global_dim
        pruned: dict = {}
        row: dict = {}
        for (src, dst, flip), w in coeffs.items():
            if not 1 <= src <= n_in:
                raise ValueError(f"input label {src} out of range [1..{n_in}]")
            if not 1 <= dst <= n_out:
                raise ValueError(f"output label {dst} out of range [1..{n_out}]")
            if flip not in (0, 1):
                raise ValueError("section-bit shift must be 0 or 1")
            if w < 0:
                raise ValueError("conical coefficients must be nonnegative")
            if w != 0:
                pruned[(src, dst, flip)] = w
                row[src] = row.get(src, 0) + w
        for src, total in row.items():
            if total > 1:
                raise ValueError(
                    f"coefficients for input {src} sum to {total} > 1 (not substochastic)"
                )
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.coeffs = pruned

    @classmethod
    def _from_coeffs(cls, in_shape: SystemShape, out_shape: SystemShape,
                     coeffs: dict) -> "Transformation":
        """Kernel constructor: non-trivial shapes, ``coeffs`` holds only positive
        weights with keys in range and per-input sums at most one."""
        t = object.__new__(cls)
        t.in_shape, t.out_shape, t.coeffs = in_shape, out_shape, coeffs
        return t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transformation):
            return NotImplemented
        return (
            self.in_shape == other.in_shape
            and self.out_shape == other.out_shape
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.in_shape, self.out_shape, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        return (
            f"Transformation({self.in_shape} -> {self.out_shape}, "
            f"{len(self.coeffs)} terms)"
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_channel(self) -> bool:
        """Deterministic iff every input's coefficients sum to exactly one."""
        rows: dict = {}
        for (src, _, _), w in self.coeffs.items():
            rows[src] = rows.get(src, 0) + w
        return len(rows) == self.in_shape.global_dim and all(s == 1 for s in rows.values())

    def scale(self, p) -> "Transformation":
        return Transformation(
            self.in_shape, self.out_shape, {k: p * w for k, w in self.coeffs.items()}
        )

    def add(self, other: "Transformation") -> "Transformation":
        if self.in_shape != other.in_shape or self.out_shape != other.out_shape:
            raise ValueError("can only add transformations of equal shape")
        merged = dict(self.coeffs)
        for k, w in other.coeffs.items():
            merged[k] = merged.get(k, 0) + w
        return Transformation(self.in_shape, self.out_shape, merged)

    def to_json(self) -> dict:
        return {
            "in": list(self.in_shape.elems),
            "out": list(self.out_shape.elems),
            "terms": [
                {"i0": src, "l": dst, "tau": flip, "w": number_json(w)}
                for (src, dst, flip), w in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Transformation":
        coeffs = {
            (t["i0"], t["l"], t["tau"]): number_from_json(t["w"]) for t in data["terms"]
        }
        return cls(SystemShape(tuple(data["in"])), SystemShape(tuple(data["out"])), coeffs)


def _require_nontrivial(in_shape: SystemShape, out_shape: SystemShape) -> None:
    if in_shape.is_trivial or out_shape.is_trivial:
        raise ValueError("transformations need non-trivial input and output systems")


def zero(in_shape: SystemShape, out_shape: SystemShape) -> Transformation:
    _require_nontrivial(in_shape, out_shape)
    # No terms.
    return Transformation._from_coeffs(in_shape, out_shape, {})


def atomic(in_shape: SystemShape, out_shape: SystemShape, src, dst, flip: int,
           weight=1) -> Transformation:
    """A single atomic term; ``src``/``dst`` may be labels or global indices."""
    s = src if isinstance(src, int) else flatten_label(in_shape, as_label(src))
    d = dst if isinstance(dst, int) else flatten_label(out_shape, as_label(dst))
    return Transformation(in_shape, out_shape, {(s, d, flip): weight})


def identity(shape: SystemShape) -> Transformation:
    _require_nontrivial(shape, shape)
    # One weight-1 term per input.
    return Transformation._from_coeffs(
        shape, shape, {(q, q, 0): 1 for q in range(1, shape.global_dim + 1)}
    )


def decompose(t: Transformation) -> list[AtomicTerm]:
    """The unique conical decomposition, sorted by (src, dst, flip)."""
    return [AtomicTerm(src, dst, flip, w) for (src, dst, flip), w in sorted(t.coeffs.items())]


def recompose(in_shape: SystemShape, out_shape: SystemShape,
              terms) -> Transformation:
    coeffs: dict = {}
    for term in terms:
        key = (term.src, term.dst, term.flip)
        coeffs[key] = coeffs.get(key, 0) + term.weight
    return Transformation(in_shape, out_shape, coeffs)


def compose_seq(t1: Transformation, t2: Transformation) -> Transformation:
    """``t1`` then ``t2``; weights multiply, section shifts add mod two."""
    if t1.out_shape != t2.in_shape:
        raise ValueError(
            f"cannot compose {t1.out_shape} -> into -> {t2.in_shape} transformation"
        )
    by_src: dict[int, list] = {}
    for (src, dst, flip), w in t2.coeffs.items():
        by_src.setdefault(src, []).append((dst, flip, w))
    out: dict = {}
    for (src, mid, flip1), w1 in t1.coeffs.items():
        for dst, flip2, w2 in by_src.get(mid, ()):
            key = (src, dst, flip1 ^ flip2)
            out[key] = out.get(key, 0) + w1 * w2
    # Sums of products of positive weights; input src sums to
    # sum_mid w1(src, mid) * row2(mid) <= row1(src) <= 1.
    return Transformation._from_coeffs(t1.in_shape, t2.out_shape, out)


def par_with_identity(t: Transformation, right: SystemShape) -> Transformation:
    """``t (x) id``: the ancilla keeps its label and its pairing bit picks up
    the term's section shift (:func:`compose_par` with an identity)."""
    return t if right.is_trivial else compose_par(t, identity(right))


def swap(left: SystemShape, right: SystemShape) -> Transformation:
    """The symmetric swap; its section shift equals the pairing bit."""
    if left.is_trivial or right.is_trivial:
        raise ValueError("swap needs two non-trivial systems")
    coeffs = {}
    for q1 in range(1, left.global_dim + 1):
        for q2 in range(1, right.global_dim + 1):
            for s in (0, 1):
                coeffs[
                    (
                        pair_label(left, right, q1, q2, s),
                        pair_label(right, left, q2, q1, s),
                        s,
                    )
                ] = 1
    # A relabelling: one weight-1 term per input.
    return Transformation._from_coeffs(left.compose(right), right.compose(left), coeffs)


def compose_par(t1: Transformation, t2: Transformation) -> Transformation:
    """``t1 (x) t2`` by label arithmetic: ``(q1 q2)_s -> (d1 d2)_{s^f1^f2}``
    with section shift ``f1`` and weight ``w1*w2``.  The swap sandwich
    (``t1 (x) id`` after ``swap . (t2 (x) id) . swap``) is its test oracle."""
    in1, in2, out1, out2 = t1.in_shape, t2.in_shape, t1.out_shape, t2.out_shape
    out: dict = {}
    for (s1, d1, f1), w1 in t1.coeffs.items():
        for (s2, d2, f2), w2 in t2.coeffs.items():
            w = w1 * w2
            for s in (0, 1):
                # pair_label is injective in (s1, s2, s) and in (d1, d2, s^f1^f2),
                # so each key is written once.
                out[(
                    pair_label(in1, in2, s1, s2, s),
                    pair_label(out1, out2, d1, d2, s ^ f1 ^ f2),
                    f1,
                )] = w
    # Positive weights; input (s1 s2)_s sums to row1(s1) * row2(s2) <= 1.
    return Transformation._from_coeffs(in1.compose(in2), out1.compose(out2), out)


def apply(t: Transformation, rho: State) -> State:
    if t.in_shape != rho.shape:
        raise ValueError(f"transformation expects {t.in_shape}, state is on {rho.shape}")
    out = [0] * t.out_shape.global_dim
    for (src, dst, _), w in t.coeffs.items():
        v = rho.weights[src - 1]
        if v != 0:
            out[dst - 1] += w * v
    # A substochastic map on a substate: nonnegative, total <= rho's total <= 1.
    return State._from_weights(t.out_shape, tuple(out))


def pull(e: Effect, t: Transformation) -> Effect:
    """Pre-compose an effect with a transformation: ``(e| . t``."""
    if t.out_shape != e.shape:
        raise ValueError(f"transformation outputs {t.out_shape}, effect is on {e.shape}")
    out = [0] * t.in_shape.global_dim
    for (src, dst, _), w in t.coeffs.items():
        v = e.weights[dst - 1]
        if v != 0:
            out[src - 1] += w * v
    # Nonnegative, and entry src <= (sum of src's weights) * max(e) <= 1.
    return Effect._from_weights(t.in_shape, tuple(out))


def fuse_map(left: SystemShape, right: SystemShape) -> Transformation:
    """The merging channel onto the single system of equal global dimension.

    Canonical labels are untouched; only the typing changes.  On a pair of
    elementary systems this is the bipartite-to-single merger sending
    ``|(i j)_s)`` to ``|q_encode(i, j, s))``.
    """
    if left.is_trivial or right.is_trivial:
        raise ValueError("fuse_map needs two non-trivial systems")
    composite = left.compose(right)
    # A relabelling: one weight-1 term per input.
    return Transformation._from_coeffs(
        composite,
        composite.fused(),
        {(q, q, 0): 1 for q in range(1, composite.global_dim + 1)},
    )


def unfuse_map(left: SystemShape, right: SystemShape) -> Transformation:
    if left.is_trivial or right.is_trivial:
        raise ValueError("unfuse_map needs two non-trivial systems")
    composite = left.compose(right)
    # A relabelling: one weight-1 term per input.
    return Transformation._from_coeffs(
        composite.fused(),
        composite,
        {(q, q, 0): 1 for q in range(1, composite.global_dim + 1)},
    )


def boxed_effect_left(e: Effect, right: SystemShape) -> Transformation:
    """``e (x) id`` as a transformation from ``e.shape + right`` to ``right``."""
    if e.shape.is_trivial or right.is_trivial:
        raise ValueError("boxed_effect_left needs non-trivial systems")
    out: dict = {}
    for q1, w in e.nonzero():
        for q2 in range(1, right.global_dim + 1):
            for s in (0, 1):
                key = (pair_label(e.shape, right, q1, q2, s), q2, s)
                out[key] = out.get(key, 0) + w
    # Input (q1 q2)_s has the one term e[q1], a nonzero weight in [0, 1].
    return Transformation._from_coeffs(e.shape.compose(right), right, out)


def boxed_state_left(rho: State, right: SystemShape) -> Transformation:
    """``rho (x) id`` as a transformation from ``right`` to ``rho.shape + right``."""
    if rho.shape.is_trivial or right.is_trivial:
        raise ValueError("boxed_state_left needs non-trivial systems")
    out: dict = {}
    for q1, w in rho.nonzero():
        for q2 in range(1, right.global_dim + 1):
            for s in (0, 1):
                key = (q2, pair_label(rho.shape, right, q1, q2, s), s)
                out[key] = out.get(key, 0) + HALF * w
    # Positive weights; input q2 sums to rho's total <= 1.
    return Transformation._from_coeffs(right, rho.shape.compose(right), out)


# ---------------------------------------------------------------------------
# reversible transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReversibleSpec:
    """A permutation of pure labels with one section-shift bit per label."""

    perm: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "bits", tuple(self.bits))
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"{self.perm} is not a bijection on [1..{n}]")
        if len(self.bits) != n or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a 0/1 vector matching the permutation")

    def inverse(self) -> "ReversibleSpec":
        n = len(self.perm)
        inv = [0] * n
        bits = [0] * n
        for i, target in enumerate(self.perm, start=1):
            inv[target - 1] = i
            bits[target - 1] = self.bits[i - 1]
        return ReversibleSpec(tuple(inv), tuple(bits))


def reversible(shape: SystemShape, spec: ReversibleSpec) -> Transformation:
    n = shape.global_dim
    if len(spec.perm) != n:
        raise ValueError(f"spec permutes {len(spec.perm)} labels, shape has {n}")
    _require_nontrivial(shape, shape)
    # A relabelling: one weight-1 term per input.
    return Transformation._from_coeffs(
        shape,
        shape,
        {(i, spec.perm[i - 1], spec.bits[i - 1]): 1 for i in range(1, n + 1)},
    )


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instrument:
    """An outcome-indexed family whose full coarse-graining is a channel."""

    members: tuple
    outcomes: tuple = field(default=())

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("an instrument needs at least one member")
        shapes = {(t.in_shape, t.out_shape) for t in members}
        if len(shapes) > 1:
            raise ValueError("instrument members must share input and output shapes")
        outcomes = tuple(self.outcomes) or tuple(range(len(members)))
        if len(outcomes) != len(members):
            raise ValueError("one outcome label per member required")
        object.__setattr__(self, "outcomes", outcomes)

    def is_valid(self) -> bool:
        return coarse_grain(self, self.outcomes).is_channel()


def coarse_grain(instr: Instrument, subset) -> Transformation:
    """Sum the members at the selected outcomes."""
    wanted = set(subset)
    unknown = wanted - set(instr.outcomes)
    if unknown:
        raise ValueError(f"unknown outcomes {sorted(unknown)!r}")
    first = instr.members[0]
    total = zero(first.in_shape, first.out_shape)
    for outcome, member in zip(instr.outcomes, instr.members):
        if outcome in wanted:
            total = total.add(member)
    return total
