"""Latent classical bipartite systems and the no-go falsifier.

A latent classical composite of two classical systems ``d1`` and ``d2``
carries an extra latent factor of dimension ``dL`` whose state ``kappa`` is
fixed: product states are ``kappa (x) sigma (x) tau``.  When ``kappa`` has a
zero entry, the effect ``b = kappa_perp (x) discard (x) discard`` is non-null
yet annihilates every product state.  Closing the jellyfish map built from
``b`` and any composite state with the classical Choi pair ties the model's
pairing to the trace of that map, which kills every candidate classical
embedding: either the jellyfish image fails to vanish (diagram preservation
broken) or the model pairing is zero while the theory's is not (probability
preservation broken).  :func:`falsify` names the first broken axiom in one
:class:`ViolationCertificate`, whose ``fatal`` flag is derived from its
``violation``; :func:`annihilation_table` checks the premise on every pure
product.

:func:`falsify` builds no map.  It reads the trace off the diagonal in
closed form -- it is the model pairing ``xi_b . xi_beta`` -- and finds the
map's first nonzero cell from the candidate's supports.
:func:`jellyfish_matrix` builds the whole map and
:func:`~bctk.classical.choi_close` closes it; they are the oracles the
closed forms are tested against.

A :class:`CandidateModel` stores each of its vectors on the integer lattice
of :mod:`bctk.scalars`: integer numerators over one positive denominator, in
lowest terms.  Values enter once, through :func:`~bctk.scalars.lattice`, in
the public constructor; ``xi_beta``, ``xi_b``, ``xi_sigma``, ``xi_tau`` and
``to_json`` read them back out, as an ``int`` when integral and a
``Fraction`` otherwise.  Validation, :func:`jellyfish_matrix`,
:func:`model_pairing` and :func:`falsify` run on the integers.  A
:class:`ViolationCertificate` stores its three values on the lattice too,
each ``(num, den)`` in lowest terms, so :func:`falsify` stays on the integers
from the candidate's numerators to the verdict: the trace and the witness
value are each reduced once, and exact values leave the lattice only through
the certificate's ``lhs``, ``rhs`` and ``trace_identity`` and its
``to_json``.  The theory pairing ``(b|beta)`` depends only on the instance,
so :attr:`LctInstance.theory_pairing` computes it once per instance, through
the module-level :func:`pairing_value`; :func:`falsify` converts and reads it
only for a candidate whose jellyfish map is null.

:func:`random_candidate` draws every integer from one local
``rng.getrandbits``, written out as ``randint`` draws it, so a candidate is
drawn in one frame on the stdlib's stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from .classical import ClassicalMap
from .scalars import (
    exact,
    frozen_record,
    lattice,
    number_from_json,
    number_json,
    ratio_json,
    reduce_dict,
    reduce_ratio,
    reduce_tuple,
)


# Input caps.  ``falsify`` is linear in ``L1*L2``, but its oracle
# ``jellyfish_matrix`` can fill all ``L2 x L2`` cells, and ``lct demo`` is
# quadratic in ``dL*d1*d2``.  The builtin candidate's ``L2 = 2*d2`` fits both.
MAX_L2 = 512
MAX_COMPOSITE_DIM = 1024

_ZERO = 0, 1  # the right-hand side 0, as (num, den)


def _kron(*vectors):
    out = [1]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return tuple(out)


@dataclass(frozen=True)
class LctInstance:
    """A bipartite latent classical system with a rank-deficient latent state."""

    d1: int
    d2: int
    dL: int
    kappa: tuple
    kappa_perp: tuple
    kappa_bar: tuple

    @property
    def composite_dim(self) -> int:
        return self.dL * self.d1 * self.d2

    @cached_property
    def theory_pairing(self):
        """``(b|beta)`` for the annihilator and :func:`beta_state`, computed
        once per instance."""
        return pairing_value(self, beta_state(self))

    def to_json(self) -> dict:
        return {
            "d1": self.d1,
            "d2": self.d2,
            "dL": self.dL,
            "kappa": [number_json(v) for v in self.kappa],
            "kappa_perp": [number_json(v) for v in self.kappa_perp],
            "kappa_bar": [number_json(v) for v in self.kappa_bar],
        }


def make_instance(d1: int = 2, d2: int = 2, dL: int = 2, kappa=None) -> LctInstance:
    """Build an instance; ``kappa`` defaults to ``(1, 0, ..., 0)``.

    The orthogonal effect and the pairing state are both supported on the
    first zero entry of ``kappa``, so the default pairing value is exactly 1.
    """
    if min(d1, d2, dL) < 2:
        raise ValueError("all dimensions must be at least 2")
    if dL * d1 * d2 > MAX_COMPOSITE_DIM:
        raise ValueError(f"dL*d1*d2 = {dL * d1 * d2} exceeds {MAX_COMPOSITE_DIM}")
    if kappa is None:
        kappa = (1,) + (0,) * (dL - 1)
    kappa = tuple(kappa)
    if len(kappa) != dL:
        raise ValueError(f"kappa needs {dL} entries, got {len(kappa)}")
    if any(v < 0 for v in kappa) or sum(kappa, 0) != 1:
        raise ValueError("kappa must be a normalised distribution")
    zeros = [i for i, v in enumerate(kappa) if v == 0]
    if not zeros:
        raise ValueError("kappa must have at least one zero entry (not full-rank)")
    hole = zeros[0]
    indicator = tuple(1 if i == hole else 0 for i in range(dL))
    return LctInstance(d1, d2, dL, kappa, kappa_perp=indicator, kappa_bar=indicator)


def annihilator(inst: LctInstance) -> tuple:
    """The non-null effect that kills every product state."""
    return _kron(inst.kappa_perp, (1,) * inst.d1, (1,) * inst.d2)


def product_state(inst: LctInstance, sigma, tau) -> tuple:
    """The composite state of the parallel composition ``sigma (x) tau``."""
    if len(sigma) != inst.d1 or len(tau) != inst.d2:
        raise ValueError("marginal states do not fit the instance dimensions")
    return _kron(inst.kappa, sigma, tau)


def beta_state(inst: LctInstance) -> tuple:
    """A composite state with non-zero pairing against the annihilator: the
    complementary latent state with both marginals uniform."""
    return _kron(inst.kappa_bar, (Fraction(1, inst.d1),) * inst.d1,
                 (Fraction(1, inst.d2),) * inst.d2)


def pairing_value(inst: LctInstance, beta):
    """``(b | beta)`` for the annihilating effect ``b``."""
    if len(beta) != inst.composite_dim:
        raise ValueError(f"beta needs {inst.composite_dim} entries")
    return sum((a * v for a, v in zip(annihilator(inst), beta)), 0)


def annihilation_table(inst: LctInstance) -> tuple[list, object]:
    """The no-go premise on every pure product: ``(i, j, (b | sigma_i (x)
    tau_j))`` for the unit marginals ``sigma_i`` and ``tau_j`` (1-based), and
    the largest absolute value, which the premise says is 0."""
    rows = []
    for i in range(inst.d1):
        sigma = tuple(int(k == i) for k in range(inst.d1))
        for j in range(inst.d2):
            tau = tuple(int(k == j) for k in range(inst.d2))
            rows.append((i + 1, j + 1, pairing_value(inst, product_state(inst, sigma, tau))))
    return rows, max(abs(value) for _, _, value in rows)


# ---------------------------------------------------------------------------
# candidate ontological models
# ---------------------------------------------------------------------------


def _lattice_vector(values) -> tuple:
    """Exact values as ``(nums, den)``: a tuple of integer numerators over one
    positive denominator, in lowest terms -- over the lcm of the reduced
    values' denominators, no prime divides ``den`` and every numerator."""
    nums, den = lattice(values)
    return tuple(nums), den


def _check_substate(vec, what: str) -> None:
    nums, den = vec
    if any(n < 0 for n in nums) or sum(nums) > den:
        raise ValueError(f"{what} must be a subnormalised distribution")


# Stores one slot of a frozen dataclass; only constructors call it.
_set = object.__setattr__


def _view(vec):
    if vec is None:
        return None
    nums, den = vec
    return nums if den == 1 else tuple(exact(n, den) for n in nums)


@frozen_record
@dataclass(frozen=True, init=False, slots=True)
class CandidateModel:
    """The minimal data the no-go argument touches.

    A candidate must commit to a factorised ontic space ``L1 * L2`` (strict
    parallel-composition preservation forces this), the image of one
    composite state with non-zero theory pairing, and the image of the
    annihilating effect.  ``theory_pairing`` is the scalar the theory assigns
    to that state/effect pair; when omitted, :func:`falsify` takes the
    instance's.  ``xi_sigma``/``xi_tau`` optionally give the images of the
    two marginals of a product state, both or neither.

    Each vector is stored as ``(nums, den)`` -- ``beta``, ``b``, ``sigma``
    and ``tau`` -- in lowest terms, and ``theory_pairing`` as an exact
    scalar, so ``==`` and ``hash`` compare the canonical form:
    ``xi_b=(Fraction(4, 4), Fraction(2, 4))`` and ``xi_b=(1, Fraction(1,
    2))`` give equal candidates.  ``xi_beta``, ``xi_b``, ``xi_sigma`` and
    ``xi_tau`` are read-only views of the exact values.  Entries must be
    ``int`` or ``Fraction``; anything else raises ``TypeError``.  The theory
    pairing is a probability, so a value outside [0, 1] raises ``ValueError``.
    """

    L1: int
    L2: int
    beta: tuple
    b: tuple
    theory_pairing: object
    sigma: tuple | None
    tau: tuple | None

    def __init__(self, L1: int, L2: int, xi_beta, xi_b, theory_pairing=None,
                 xi_sigma=None, xi_tau=None):
        if any(type(d) is not int or d < 1 for d in (L1, L2)):
            raise ValueError("L1 and L2 must be positive integers")
        if L2 > MAX_L2:
            raise ValueError(f"L2 = {L2} exceeds {MAX_L2}")
        beta, b = _lattice_vector(xi_beta), _lattice_vector(xi_b)
        if len(beta[0]) != L1 * L2:
            raise ValueError("xi_beta must live on the product ontic space L1*L2")
        if len(b[0]) != L1 * L2:
            raise ValueError("xi_b must live on the product ontic space L1*L2")
        _check_substate(beta, "xi_beta")
        if any(n < 0 or n > b[1] for n in b[0]):
            raise ValueError("xi_b entries must lie in [0, 1]")
        if theory_pairing is not None:
            (num,), den = lattice((theory_pairing,))
            if not 0 <= num <= den:
                raise ValueError("theory_pairing must lie in [0, 1]")
            theory_pairing = exact(num, den)
        if (xi_sigma is None) != (xi_tau is None):
            raise ValueError("xi_sigma and xi_tau come together or not at all")
        sigma = tau = None
        if xi_sigma is not None:
            sigma, tau = _lattice_vector(xi_sigma), _lattice_vector(xi_tau)
            if len(sigma[0]) != L1:
                raise ValueError("xi_sigma must live on the first ontic factor")
            if len(tau[0]) != L2:
                raise ValueError("xi_tau must live on the second ontic factor")
            _check_substate(sigma, "xi_sigma")
            _check_substate(tau, "xi_tau")
        _set(self, "L1", L1)
        _set(self, "L2", L2)
        _set(self, "beta", beta)
        _set(self, "b", b)
        _set(self, "theory_pairing", theory_pairing)
        _set(self, "sigma", sigma)
        _set(self, "tau", tau)

    @classmethod
    def _from_nums(cls, L1: int, L2: int, beta: tuple, b: tuple,
                   theory_pairing=None) -> "CandidateModel":
        """Kernel constructor: ``L1 >= 1``, ``1 <= L2 <= MAX_L2``, ``beta`` a
        subnormalised and ``b`` a ``[0, 1]`` vector of ``L1 * L2``
        numerators, each ``(nums, den)`` in lowest terms, and an exact
        ``theory_pairing``."""
        c = object.__new__(cls)
        _set(c, "L1", L1)
        _set(c, "L2", L2)
        _set(c, "beta", beta)
        _set(c, "b", b)
        _set(c, "theory_pairing", theory_pairing)
        _set(c, "sigma", None)
        _set(c, "tau", None)
        return c

    @property
    def xi_beta(self) -> tuple:
        return _view(self.beta)

    @property
    def xi_b(self) -> tuple:
        return _view(self.b)

    @property
    def xi_sigma(self) -> tuple | None:
        return _view(self.sigma)

    @property
    def xi_tau(self) -> tuple | None:
        return _view(self.tau)

    def to_json(self) -> dict:
        def vector(vec):
            nums, den = vec
            return [ratio_json(n, den) for n in nums]

        data = {"L1": self.L1, "L2": self.L2,
                "xi_beta": vector(self.beta), "xi_b": vector(self.b)}
        if self.theory_pairing is not None:
            data["theory_pairing"] = number_json(self.theory_pairing)
        if self.sigma is not None:
            data["xi_sigma"] = vector(self.sigma)
            data["xi_tau"] = vector(self.tau)
        return data

    @classmethod
    def from_json(cls, data) -> "CandidateModel":
        """Read a candidate exactly; malformed data raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a candidate must be a JSON object")
        for key in ("L1", "L2", "xi_beta", "xi_b"):
            if key not in data:
                raise ValueError(f"candidate lacks {key!r}")
        values = {}
        for key in ("xi_beta", "xi_b", "xi_sigma", "xi_tau"):
            if key in data:
                if not isinstance(data[key], list):
                    raise ValueError(f"{key} must be a list of numbers")
                values[key] = tuple(number_from_json(v) for v in data[key])
        if "theory_pairing" in data:
            values["theory_pairing"] = number_from_json(data["theory_pairing"])
        return cls(L1=data["L1"], L2=data["L2"], **values)


def jellyfish_matrix(cand: CandidateModel) -> ClassicalMap:
    """Model image of the second-wire map built from the state and the effect.

    The state's first wire feeds the effect's first wire; the effect's second
    wire is the open input and the state's second wire the open output:
    ``M[y, x] = sum_a xi_beta[a, y] * xi_b[a, x]``.

    This is the construction, kept as the oracle: :func:`falsify` reads the
    first nonzero cell and the trace off the candidate in closed form.
    """
    L2 = cand.L2
    b_nums, b_den = cand.b
    beta_nums, beta_den = cand.beta
    cells: dict = {}
    for base in range(0, cand.L1 * L2, L2):
        xs = [(x, v) for x, v in enumerate(b_nums[base:base + L2]) if v != 0]
        for y, w in enumerate(beta_nums[base:base + L2]):
            if w != 0:
                for x, v in xs:
                    cells[y, x] = cells.get((y, x), 0) + w * v
    # Candidate data is nonnegative, so no sum of nonzero products cancels.
    return ClassicalMap._from_nums(L2, L2, *reduce_dict(cells, b_den * beta_den))


def _pairing_ratio(cand: CandidateModel) -> tuple[int, int]:
    """``xi_b . xi_beta`` on the lattice, as ``(num, den)`` in lowest terms."""
    (b_nums, b_den), (beta_nums, beta_den) = cand.b, cand.beta
    return reduce_ratio(sum(map(mul, b_nums, beta_nums)), b_den * beta_den)


def model_pairing(cand: CandidateModel):
    """``xi_b . xi_beta``, the pairing the model assigns to the theory's pair."""
    return exact(*_pairing_ratio(cand))


@frozen_record
@dataclass(frozen=True, init=False, slots=True)
class ViolationCertificate:
    """Which axiom a candidate breaks, with a concrete witness.

    ``violation`` is one of ``jellyfish-nullity``, ``probability-preservation``
    or ``product-annihilation``; ``None`` flags the impossible case where a
    candidate survives every check (a fatal inconsistency of the run itself),
    and :attr:`fatal` is derived from it.  A ``jellyfish-nullity`` witness is
    the ``[y, x]`` of the map's first nonzero cell in row-major order and
    ``lhs`` its value.  ``trace_identity`` is the trace of the jellyfish map,
    read off its diagonal in closed form: the model pairing ``xi_b .
    xi_beta``.

    The constructor takes ``lhs``, ``rhs`` and ``trace_identity`` as exact
    values and converts them once, through :func:`~bctk.scalars.lattice`.
    Each is stored as ``(num, den)`` in lowest terms -- ``lhs_ratio``,
    ``rhs_ratio`` and ``trace_ratio`` -- so ``==`` compares values, and each
    leaves the lattice only through its read-only property, as an ``int``
    when integral and a ``Fraction`` otherwise, or through :meth:`to_json`.
    """

    violation: str | None
    witness: object
    lhs_ratio: tuple
    rhs_ratio: tuple
    trace_ratio: tuple

    def __init__(self, violation: str | None, witness, lhs, rhs, trace_identity):
        nums, den = lattice((lhs, rhs, trace_identity))
        _set(self, "violation", violation)
        _set(self, "witness", witness)
        _set(self, "lhs_ratio", reduce_ratio(nums[0], den))
        _set(self, "rhs_ratio", reduce_ratio(nums[1], den))
        _set(self, "trace_ratio", reduce_ratio(nums[2], den))

    @classmethod
    def _from_nums(cls, violation: str | None, witness, lhs: tuple, rhs: tuple,
                   trace: tuple) -> "ViolationCertificate":
        """Kernel constructor: ``lhs``, ``rhs`` and ``trace`` each ``(num,
        den)`` in lowest terms."""
        c = object.__new__(cls)
        _set(c, "violation", violation)
        _set(c, "witness", witness)
        _set(c, "lhs_ratio", lhs)
        _set(c, "rhs_ratio", rhs)
        _set(c, "trace_ratio", trace)
        return c

    @property
    def lhs(self):
        return exact(*self.lhs_ratio)

    @property
    def rhs(self):
        return exact(*self.rhs_ratio)

    @property
    def trace_identity(self):
        return exact(*self.trace_ratio)

    @property
    def fatal(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        return {
            "violation": self.violation,
            "witness": self.witness,
            "lhs": ratio_json(*self.lhs_ratio),
            "rhs": ratio_json(*self.rhs_ratio),
            "trace_identity": ratio_json(*self.trace_ratio),
            "fatal": self.fatal,
        }


def _first_jellyfish_cell(cand: CandidateModel):
    """The jellyfish map's first nonzero cell in row-major order, as ``(y,
    x)``, or ``None`` when the map is null; read off the candidate's
    numerators without building the map.

    Every entry is nonnegative, so ``M[y, x] != 0`` exactly when some block
    ``a`` has ``beta[a, y] != 0`` and ``b[a, x] != 0``.  Block ``a``'s first
    such cell pairs its first nonzero ``beta`` row with its first nonzero
    ``b`` column, and the map's first cell is the least of these."""
    L2 = cand.L2
    b_nums, beta_nums = cand.b[0], cand.beta[0]
    first = None
    for base in range(0, cand.L1 * L2, L2):
        # A block's first nonzero entry ``v`` also sits at ``block.index(v)``.
        b_block = b_nums[base:base + L2]
        v = next(filter(None, b_block), 0)
        if v:
            beta_block = beta_nums[base:base + L2]
            w = next(filter(None, beta_block), 0)
            if w:
                cell = beta_block.index(w), b_block.index(v)
                if first is None or cell < first:
                    first = cell
                    if cell == (0, 0):  # no cell comes before it
                        break
    return first


def falsify(cand: CandidateModel, inst: LctInstance) -> ViolationCertificate:
    """Refute a candidate model by the annihilating-effect contradiction.

    The trace identity ``choi_close(M) == xi_b . xi_beta`` holds for every
    candidate by pure algebra: the trace of the jellyfish map ``M`` is its
    diagonal sum ``sum_{a,y} xi_beta[a, y] * xi_b[a, y]``, the model pairing.
    The theory demands both ``M == 0`` (the jellyfish map is null) and
    ``xi_b . xi_beta == (b|beta)``; with a non-zero theory pairing the two
    cannot hold together.  The certificate names the first axiom broken, in
    the order product-annihilation, jellyfish-nullity,
    probability-preservation.

    The verdict is read off the candidate's numerators in closed form, in
    ``O(L1 * L2)``, and stays on the lattice: the trace is
    :func:`model_pairing`'s ``(num, den)``, computed once, the jellyfish
    witness is the map's first nonzero cell, each value is reduced once, and
    the theory pairing is converted and read only when the map is null.
    :func:`jellyfish_matrix` and :func:`~bctk.classical.choi_close` build the
    map and close it, as oracles.
    """
    trace = _pairing_ratio(cand)
    L2 = cand.L2
    (b_nums, b_den), (beta_nums, beta_den) = cand.b, cand.beta
    product = 0
    if cand.sigma is not None:
        (s_nums, s_den), (t_nums, t_den) = cand.sigma, cand.tau
        # xi_b . (xi_sigma (x) xi_tau) = sum_i sigma_i * sum_j b[i*L2 + j] * tau_j
        product = sum(s * sum(map(mul, b_nums[i * L2:(i + 1) * L2], t_nums))
                      for i, s in enumerate(s_nums))
    if product != 0:
        verdict = ("product-annihilation", "xi_b . (xi_sigma (x) xi_tau)",
                   reduce_ratio(product, b_den * s_den * t_den), _ZERO)
    elif (first := _first_jellyfish_cell(cand)) is not None:
        y, x = first
        value = sum(map(mul, beta_nums[y::L2], b_nums[x::L2]))
        verdict = "jellyfish-nullity", [y, x], reduce_ratio(value, b_den * beta_den), _ZERO
    else:
        theory = inst.theory_pairing if cand.theory_pairing is None else cand.theory_pairing
        nums, den = lattice((theory,))  # one exact value: already in lowest terms
        theory = nums[0], den
        verdict = (("probability-preservation", "model pairing vs theory pairing", trace, theory)
                   if trace != theory else (None, "no axiom violated", trace, theory))
    return ViolationCertificate._from_nums(*verdict, trace)


def bct_style_candidate(inst: LctInstance) -> CandidateModel:
    """The parity-bit construction transplanted from the bilocal model.

    Each classical factor gets a doubled ontic space; the state image is the
    product of two half-mixed bit pairs and the effect image is the discard
    covector, so the model pairing is exactly 1 -- the trace identity then
    forces a non-zero jellyfish image.
    """
    L1, L2 = 2 * inst.d1, 2 * inst.d2
    bits1 = (1, 1) + (0,) * (L1 - 2)
    bits2 = (1, 1) + (0,) * (L2 - 2)
    # Four entries 1/4: a normalised state; all-ones lies in [0, 1].  L2 = 2*d2
    # is within MAX_L2 because the instance's composite dimension is capped.
    return CandidateModel._from_nums(L1, L2, (_kron(bits1, bits2), 4),
                                     ((1,) * (L1 * L2), 1), inst.theory_pairing)


def random_candidate(rng: random.Random, inst: LctInstance) -> CandidateModel:
    """A seeded random candidate: ``L1, L2`` in 2..6, weights multiples of 1/16.

    The draws are, in order, ``L1`` and ``L2``, each ``randint(2, 6)``, the
    ``dim - 1`` cut points of :func:`~bctk.scalars.cut_counts` and the ``dim``
    effect counts, each ``randint(0, 16)``.  Every one is drawn here as
    ``randint`` draws it: ``getrandbits`` of the range's bit width until the
    value is below the range's size.
    """
    getrandbits = rng.getrandbits
    # randint(2, 6) has 5 values, 3 bits wide; randint(0, 16) 17 values, 5 bits.
    L1 = getrandbits(3)
    while L1 >= 5:
        L1 = getrandbits(3)
    L2 = getrandbits(3)
    while L2 >= 5:
        L2 = getrandbits(3)
    L1 += 2
    L2 += 2
    dim = L1 * L2
    draws = []
    for _ in range(2 * dim - 1):
        r = getrandbits(5)
        while r >= 17:
            r = getrandbits(5)
        draws.append(r)
    cuts = draws[:dim - 1]
    cuts.sort()
    counts = tuple(map(sub, cuts + [16], [0] + cuts))
    # Counts over 16: nonnegative and summing to 16, and each in [0, 16].
    return CandidateModel._from_nums(L1, L2, reduce_tuple(counts, 16),
                                     reduce_tuple(tuple(draws[dim - 1:]), 16))
