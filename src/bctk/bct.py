"""Bilocal classical theory: states, effects and transformations.

A transformation from a non-trivial system to a non-trivial system is a
unique conical combination of normalised atomic generators.  A generator
``(src, dst, flip)`` maps the pure state ``src`` to ``dst`` and, when acting
next to an ancilla, shifts the pairing section bit by ``flip``.  The
coefficient map is stored sparsely; validity means nonnegative weights with
per-input sums at most one (exactly one for channels), which is precisely
substochasticity of the image under the ontological model.

Weights live on an integer lattice.  A :class:`Transformation` stores
``nums``, a mapping from ``(src, dst, flip)`` to a positive ``int``, and a
:class:`State`/:class:`Effect` stores ``nums``, a tuple of ``int``; each
object has one denominator ``den >= 1`` with ``gcd(den, *nums) == 1`` (an
empty object has ``den == 1``), so ``==`` and ``hash`` compare plain fields.
Products multiply denominators; every kernel result is reduced once, by
:func:`~bctk.scalars.reduce_dict` or :func:`~bctk.scalars.reduce_tuple`,
which cost nothing when ``den == 1``.

Values enter and leave the lattice only at the edges.  The public
constructors (``Transformation(...)``, ``Transformation.from_json``,
``State(...)``, ``Effect(...)``), ``atomic``, ``recompose`` and
``_Vector.scale`` take exact ``int``/``Fraction`` values, convert them once
through :func:`~bctk.scalars.lattice` and check every weight in integers.
An optional ``den`` gives the values as numerators over ``den``.
``Transformation.scale`` and ``add`` compute with :mod:`~bctk.scalars`'
sparse arithmetic, then pass the result through that same check.  Kernel
operations build their results through ``Transformation._from_nums`` and
``_Vector._from_nums``, which check nothing: each such result is valid by
construction, for the reason given at its call site.  ``_Vector.scale``
by a weight in ``[0, 1]`` builds its result the same way, and by ``0`` it
returns the zero vector over ``den == 1`` directly.

The per-shape constants ``identity``, ``swap`` and the pure states and
effects are built once and cached, keyed by the interned shape (one
:class:`~bctk.systems.SystemShape` object per shape, so a lookup is an
identity check).  They are shared, so a cached
transformation's ``nums`` is a read-only ``MappingProxyType``.  ``t.coeffs``,
``v.weights``, ``nonzero()``, ``pair`` and ``to_json`` read values back out,
as an ``int`` when integral and a ``Fraction`` otherwise, and no kernel
operation reads them.

Composite systems are handled through canonical left-nested labels; partial
application, swaps and parallel composition are all label arithmetic via
:func:`bctk.systems.pair_label`, whose closed form ``compose_par`` inlines
with the per-shape offsets :func:`bctk.systems.pair_offsets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .scalars import (
    exact,
    lattice,
    number_from_json,
    ratio_json,
    reduce_dict,
    reduce_tuple,
    sparse_add,
    sparse_scale,
)
from .systems import (
    SystemShape,
    TRIVIAL,
    as_label,
    flatten_label,
    pair_label,
    pair_offsets,
)

# ---------------------------------------------------------------------------
# states and effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, slots=True)
class _Vector:
    """A weight vector over the pure labels of a shape (state or effect):
    the weights are ``nums[q - 1] / den``."""

    shape: SystemShape
    nums: tuple
    den: int

    def __init__(self, shape: SystemShape, weights, den: int = 1):
        nums, den = lattice(weights, den)
        if len(nums) != shape.global_dim:
            raise ValueError(
                f"{self._kind} on {shape} needs {shape.global_dim} weights, "
                f"got {len(nums)}"
            )
        self._check(nums, den)
        nums, den = reduce_tuple(tuple(nums), den)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_nums(cls, shape: SystemShape, nums: tuple, den: int):
        """Kernel constructor: ``nums`` is a valid tuple of the right length,
        in lowest terms over ``den``."""
        v = object.__new__(cls)
        object.__setattr__(v, "shape", shape)
        object.__setattr__(v, "nums", nums)
        object.__setattr__(v, "den", den)
        return v

    @property
    def weights(self) -> tuple:
        den = self.den
        return self.nums if den == 1 else tuple(exact(n, den) for n in self.nums)

    def scale(self, p):
        (pn,), pd = lattice((p,))
        if pn == pd:
            return self
        if pn == 0:
            # The zero vector is a substate and an effect in [0, 1].
            return type(self)._from_nums(self.shape, (0,) * len(self.nums), 1)
        if 0 < pn < pd:
            return _scaled(self, pn, pd)
        return type(self)(self.shape, [pn * n for n in self.nums], den=self.den * pd)

    def nonzero(self):
        den = self.den
        for q, n in enumerate(self.nums, start=1):
            if n != 0:
                yield q, exact(n, den)

    def to_json(self) -> dict:
        den = self.den
        return {"shape": list(self.shape.elems),
                "weights": [ratio_json(n, den) for n in self.nums]}


class State(_Vector):
    """A subnormalised weight vector over the pure states of a shape."""

    __slots__ = ()
    _kind = "state"

    @staticmethod
    def _check(nums, den) -> None:
        if any(n < 0 for n in nums):
            raise ValueError("state weights must be nonnegative")
        if sum(nums) > den:
            raise ValueError("state weights must sum to at most 1")

    @property
    def total(self):
        return exact(sum(self.nums), self.den)


class Effect(_Vector):
    """A response covector: entries in [0, 1] over the pure effects of a shape."""

    __slots__ = ()
    _kind = "effect"

    @staticmethod
    def _check(nums, den) -> None:
        if any(n < 0 or n > den for n in nums):
            raise ValueError("effect weights must lie in [0, 1]")


def _pure(cls, shape: SystemShape, label):
    return _pure_vector(cls, shape, flatten_label(shape, as_label(label)))


@lru_cache(maxsize=None)
def _pure_vector(cls, shape: SystemShape, q: int):
    out = [0] * shape.global_dim
    out[q - 1] = 1
    # One weight 1, the rest 0: a deterministic state and an effect in [0, 1].
    return cls._from_nums(shape, tuple(out), 1)


def pure_state(shape: SystemShape, label) -> State:
    return _pure(State, shape, label)


def pure_effect(shape: SystemShape, label) -> Effect:
    return _pure(Effect, shape, label)


def deterministic_effect(shape: SystemShape) -> Effect:
    """The unique deterministic effect: the all-ones covector."""
    # Every entry 1 lies in [0, 1].
    return Effect._from_nums(shape, (1,) * shape.global_dim, 1)


def pair(e: Effect, rho: State):
    """The probability ``(e|rho)``."""
    if e.shape != rho.shape:
        raise ValueError(f"effect on {e.shape} cannot meet state on {rho.shape}")
    return exact(sum(a * b for a, b in zip(e.nums, rho.nums)), e.den * rho.den)


def _par(a, b, spread: int):
    """Parallel composition of two vectors of one kind: pure x pure spreads
    over both section bits, each with ``1/spread`` times the product weight."""
    if a.shape.is_trivial:
        return _scaled(b, a.nums[0], a.den)
    if b.shape.is_trivial:
        return _scaled(a, b.nums[0], b.den)
    sa, sb = a.shape, b.shape
    shape = sa.compose(sb)
    out = [0] * shape.global_dim
    nonzero_b = [(q2, n2) for q2, n2 in enumerate(b.nums, start=1) if n2 != 0]
    for q1, n1 in enumerate(a.nums, start=1):
        if n1 != 0:
            for q2, n2 in nonzero_b:
                n = n1 * n2
                for s in (0, 1):
                    out[pair_label(sa, sb, q1, q2, s) - 1] = n
    # pair_label is injective, so entry (q1 q2)_s is w1*w2/spread <= w1*w2 <= 1
    # and the entries sum to 2*total1*total2/spread, at most 1 for states.
    return type(a)._from_nums(shape, *reduce_tuple(tuple(out), spread * a.den * b.den))


def _scaled(v, num: int, den: int):
    """``v`` times the scalar ``num / den``, a weight in [0, 1]."""
    # Scaling by a weight in [0, 1] keeps a state a substate and an effect in [0, 1].
    return type(v)._from_nums(v.shape, *reduce_tuple(tuple(num * n for n in v.nums),
                                                     den * v.den))


def par_states(r1: State, r2: State) -> State:
    """Parallel composition: pure x pure spreads over both section bits with 1/2."""
    return _par(r1, r2, 2)


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

    ``nums`` maps ``(src, dst, flip)`` to a positive numerator over ``den``;
    zero weights are pruned and the pair is in lowest terms, so two
    transformations are equal exactly when their fields are (the uniqueness
    of the conical decomposition).  ``coeffs`` reads the weights out.
    """

    __slots__ = ("in_shape", "out_shape", "nums", "den")

    def __init__(self, in_shape: SystemShape, out_shape: SystemShape, coeffs: dict,
                 den: int = 1):
        _require_nontrivial(in_shape, out_shape)
        n_in, n_out = in_shape.global_dim, out_shape.global_dim
        values, den = lattice(coeffs.values(), den)
        pruned: dict = {}
        row: dict = {}
        for (src, dst, flip), n in zip(coeffs, values):
            if not 1 <= src <= n_in:
                raise ValueError(f"input label {src} out of range [1..{n_in}]")
            if not 1 <= dst <= n_out:
                raise ValueError(f"output label {dst} out of range [1..{n_out}]")
            if flip not in (0, 1):
                raise ValueError("section-bit shift must be 0 or 1")
            if n < 0:
                raise ValueError("conical coefficients must be nonnegative")
            if n != 0:
                pruned[(src, dst, flip)] = n
                row[src] = row.get(src, 0) + n
        for src, total in row.items():
            if total > den:
                raise ValueError(
                    f"coefficients for input {src} sum to {exact(total, den)} > 1 "
                    "(not substochastic)"
                )
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.nums, self.den = reduce_dict(pruned, den)

    @classmethod
    def _from_nums(cls, in_shape: SystemShape, out_shape: SystemShape,
                   nums: dict, den: int) -> "Transformation":
        """Kernel constructor: non-trivial shapes, ``nums`` holds only positive
        numerators with keys in range and per-input sums at most ``den``, in
        lowest terms over ``den``."""
        t = object.__new__(cls)
        t.in_shape, t.out_shape, t.nums, t.den = in_shape, out_shape, nums, den
        return t

    @property
    def coeffs(self) -> dict:
        den = self.den
        if den == 1:
            return dict(self.nums)
        return {k: exact(n, den) for k, n in self.nums.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transformation):
            return NotImplemented
        return ((self.in_shape, self.out_shape, self.den, self.nums)
                == (other.in_shape, other.out_shape, other.den, other.nums))

    def __hash__(self):
        return hash((self.in_shape, self.out_shape, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        return (
            f"Transformation({self.in_shape} -> {self.out_shape}, "
            f"{len(self.nums)} terms)"
        )

    def is_channel(self) -> bool:
        """Deterministic iff every input's coefficients sum to exactly one."""
        rows: dict = {}
        for (src, _, _), n in self.nums.items():
            rows[src] = rows.get(src, 0) + n
        den = self.den
        return len(rows) == self.in_shape.global_dim and all(s == den for s in rows.values())

    def scale(self, p) -> "Transformation":
        return Transformation(self.in_shape, self.out_shape,
                              *sparse_scale(self.nums, self.den, p))

    def add(self, other: "Transformation") -> "Transformation":
        if self.in_shape != other.in_shape or self.out_shape != other.out_shape:
            raise ValueError("can only add transformations of equal shape")
        return Transformation(self.in_shape, self.out_shape,
                              *sparse_add(self.nums, self.den, other.nums, other.den))

    def to_json(self) -> dict:
        den = self.den
        return {
            "in": list(self.in_shape.elems),
            "out": list(self.out_shape.elems),
            "terms": [
                {"i0": src, "l": dst, "tau": flip, "w": ratio_json(n, den)}
                for (src, dst, flip), n in sorted(self.nums.items())
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
    return Transformation._from_nums(in_shape, out_shape, {}, 1)


def atomic(in_shape: SystemShape, out_shape: SystemShape, src, dst, flip: int,
           weight=1) -> Transformation:
    """A single atomic term; ``src``/``dst`` may be labels or global indices."""
    s = src if isinstance(src, int) else flatten_label(in_shape, as_label(src))
    d = dst if isinstance(dst, int) else flatten_label(out_shape, as_label(dst))
    return Transformation(in_shape, out_shape, {(s, d, flip): weight})


@lru_cache(maxsize=None)
def identity(shape: SystemShape) -> Transformation:
    _require_nontrivial(shape, shape)
    # One weight-1 term per input; cached, so its terms are read-only.
    return Transformation._from_nums(
        shape, shape,
        MappingProxyType({(q, q, 0): 1 for q in range(1, shape.global_dim + 1)}), 1
    )


def decompose(t: Transformation) -> list[AtomicTerm]:
    """The unique conical decomposition, sorted by (src, dst, flip)."""
    den = t.den
    return [AtomicTerm(src, dst, flip, exact(n, den))
            for (src, dst, flip), n in sorted(t.nums.items())]


def recompose(in_shape: SystemShape, out_shape: SystemShape,
              terms) -> Transformation:
    terms = list(terms)
    values, den = lattice(term.weight for term in terms)
    coeffs: dict = {}
    for term, n in zip(terms, values):
        key = (term.src, term.dst, term.flip)
        coeffs[key] = coeffs.get(key, 0) + n
    return Transformation(in_shape, out_shape, coeffs, den=den)


def compose_seq(t1: Transformation, t2: Transformation) -> Transformation:
    """``t1`` then ``t2``; weights multiply, section shifts add mod two."""
    if t1.out_shape != t2.in_shape:
        raise ValueError(f"cannot compose a transformation into {t1.out_shape} "
                         f"with one from {t2.in_shape}")
    by_src: dict[int, list] = {}
    for (src, dst, flip), n in t2.nums.items():
        by_src.setdefault(src, []).append((dst, flip, n))
    out: dict = {}
    for (src, mid, flip1), n1 in t1.nums.items():
        for dst, flip2, n2 in by_src.get(mid, ()):
            key = (src, dst, flip1 ^ flip2)
            out[key] = out.get(key, 0) + n1 * n2
    # Sums of products of positive weights; input src sums to
    # sum_mid w1(src, mid) * row2(mid) <= row1(src) <= 1.
    return Transformation._from_nums(t1.in_shape, t2.out_shape,
                                     *reduce_dict(out, t1.den * t2.den))


def par_with_identity(t: Transformation, right: SystemShape) -> Transformation:
    """``t (x) id``: the ancilla keeps its label and its pairing bit picks up
    the term's section shift (:func:`compose_par` with an identity)."""
    return t if right.is_trivial else compose_par(t, identity(right))


@lru_cache(maxsize=None)
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
    # A relabelling: one weight-1 term per input; cached, so its terms are read-only.
    return Transformation._from_nums(left.compose(right), right.compose(left),
                                     MappingProxyType(coeffs), 1)


def compose_par(t1: Transformation, t2: Transformation) -> Transformation:
    """``t1 (x) t2`` by label arithmetic: ``(q1 q2)_s -> (d1 d2)_{s^f1^f2}``
    with section shift ``f1`` and weight ``w1*w2``.  The swap sandwich
    (``t1 (x) id`` after ``swap . (t2 (x) id) . swap``) is its test oracle."""
    in1, in2, out1, out2 = t1.in_shape, t2.in_shape, t1.out_shape, t2.out_shape
    # pair_label(L, R, q1, q2, s) = 2*G_R*(q1-1) + pair_offsets(R)[2*(q2-1)+s]:
    # per t2 term, the input offsets for s = 0, 1 and the output offsets for
    # the bits s^f2 (taken when f1 = 0) and their swap (when f1 = 1).
    off_in, off_out = pair_offsets(in2), pair_offsets(out2)
    step_in, step_out = 2 * in2.global_dim, 2 * out2.global_dim
    by_f1 = ([], [])
    for (s2, d2, f2), n2 in t2.nums.items():
        qi, qo = 2 * s2 - 2, 2 * d2 - 2 + f2
        by_f1[0].append((off_in[qi], off_in[qi + 1], off_out[qo], off_out[qo ^ 1], n2))
        by_f1[1].append((off_in[qi], off_in[qi + 1], off_out[qo ^ 1], off_out[qo], n2))
    out: dict = {}
    for (s1, d1, f1), n1 in t1.nums.items():
        a, b = step_in * (s1 - 1), step_out * (d1 - 1)
        for i0, i1, o0, o1, n2 in by_f1[f1]:
            # pair_label is injective in (s1, s2, s) and in (d1, d2, s^f1^f2),
            # so each key is written once.
            n = n1 * n2
            out[(a + i0, b + o0, f1)] = n
            out[(a + i1, b + o1, f1)] = n
    # Positive weights; input (s1 s2)_s sums to row1(s1) * row2(s2) <= 1.
    return Transformation._from_nums(in1.compose(in2), out1.compose(out2),
                                     *reduce_dict(out, t1.den * t2.den))


def apply(t: Transformation, rho: State) -> State:
    if t.in_shape != rho.shape:
        raise ValueError(f"transformation expects {t.in_shape}, state is on {rho.shape}")
    out = [0] * t.out_shape.global_dim
    weights = rho.nums
    for (src, dst, _), n in t.nums.items():
        v = weights[src - 1]
        if v != 0:
            out[dst - 1] += n * v
    # A substochastic map on a substate: nonnegative, total <= rho's total <= 1.
    return State._from_nums(t.out_shape, *reduce_tuple(tuple(out), t.den * rho.den))


def pull(e: Effect, t: Transformation) -> Effect:
    """Pre-compose an effect with a transformation: ``(e| . t``."""
    if t.out_shape != e.shape:
        raise ValueError(f"transformation outputs {t.out_shape}, effect is on {e.shape}")
    out = [0] * t.in_shape.global_dim
    weights = e.nums
    for (src, dst, _), n in t.nums.items():
        v = weights[dst - 1]
        if v != 0:
            out[src - 1] += n * v
    # Nonnegative, and entry src <= (sum of src's weights) * max(e) <= 1.
    return Effect._from_nums(t.in_shape, *reduce_tuple(tuple(out), t.den * e.den))


def fuse_map(left: SystemShape, right: SystemShape) -> Transformation:
    """The merging channel onto the single system of equal global dimension.

    Canonical labels are untouched; only the typing changes.  On a pair of
    elementary systems this is the bipartite-to-single merger sending
    ``|(i j)_s)`` to ``|q_encode(i, j, s))``.
    """
    return _fusion(left, right, "fuse_map", inverse=False)


def unfuse_map(left: SystemShape, right: SystemShape) -> Transformation:
    """The inverse of :func:`fuse_map`: the fused system back to the composite."""
    return _fusion(left, right, "unfuse_map", inverse=True)


def _fusion(left: SystemShape, right: SystemShape, name: str, inverse: bool) -> Transformation:
    """The relabelling from ``left (x) right`` to its fused single system, or
    back when ``inverse``; ``name`` is the public function, for the error."""
    if left.is_trivial or right.is_trivial:
        raise ValueError(f"{name} needs two non-trivial systems")
    composite = left.compose(right)
    ends = (composite.fused(), composite) if inverse else (composite, composite.fused())
    # A relabelling: one weight-1 term per input.
    nums = {(q, q, 0): 1 for q in range(1, composite.global_dim + 1)}
    return Transformation._from_nums(*ends, nums, 1)


def boxed_effect_left(e: Effect, right: SystemShape) -> Transformation:
    """``e (x) id`` as a transformation from ``e.shape + right`` to ``right``."""
    if e.shape.is_trivial or right.is_trivial:
        raise ValueError("boxed_effect_left needs non-trivial systems")
    out: dict = {}
    for q1, n in enumerate(e.nums, start=1):
        if n != 0:
            for q2 in range(1, right.global_dim + 1):
                for s in (0, 1):
                    out[(pair_label(e.shape, right, q1, q2, s), q2, s)] = n
    # Input (q1 q2)_s has the one term e[q1], a nonzero weight in [0, 1]; the
    # nonzero numerators are e's, so e's denominator keeps them in lowest terms.
    return Transformation._from_nums(e.shape.compose(right), right, out, e.den)


def boxed_state_left(rho: State, right: SystemShape) -> Transformation:
    """``rho (x) id`` as a transformation from ``right`` to ``rho.shape + right``."""
    if rho.shape.is_trivial or right.is_trivial:
        raise ValueError("boxed_state_left needs non-trivial systems")
    out: dict = {}
    for q1, n in enumerate(rho.nums, start=1):
        if n != 0:
            for q2 in range(1, right.global_dim + 1):
                for s in (0, 1):
                    out[(q2, pair_label(rho.shape, right, q1, q2, s), s)] = n
    # Weights rho[q1]/2, positive; input q2 sums to rho's total <= 1.
    return Transformation._from_nums(right, rho.shape.compose(right),
                                     *reduce_dict(out, 2 * rho.den))


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
    return Transformation._from_nums(
        shape,
        shape,
        {(i, spec.perm[i - 1], spec.bits[i - 1]): 1 for i in range(1, n + 1)},
        1,
    )


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instrument:
    """A nonempty outcome-indexed family of transformations of one shape, one
    outcome label per member.  The members need not sum to a channel."""

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
