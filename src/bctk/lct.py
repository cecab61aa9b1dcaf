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

A :class:`CandidateModel` stores each of its vectors on the integer lattice
of :mod:`bctk.scalars`: integer numerators over one positive denominator, in
lowest terms.  Values enter once, through :func:`~bctk.scalars.lattice`, in
the public constructor; ``xi_beta``, ``xi_b``, ``xi_sigma``, ``xi_tau`` and
``to_json`` read them back out, as an ``int`` when integral and a
``Fraction`` otherwise.  Validation, :func:`jellyfish_matrix`,
:func:`model_pairing` and the product-annihilation check of :func:`falsify`
run on the integers.  The theory pairing ``(b|beta)`` depends only on the
instance, so :attr:`LctInstance.theory_pairing` computes it once per
instance, through the module-level :func:`pairing_value`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .classical import ClassicalMap, choi_close
from .scalars import (
    cut_counts,
    exact,
    lattice,
    number_from_json,
    number_json,
    randint,
    randints,
    ratio_json,
    reduce_dict,
    reduce_tuple,
)


# Input caps: the jellyfish matrix can fill all ``L2 x L2`` cells and
# ``lct demo`` is quadratic in ``dL*d1*d2``.  The builtin candidate's
# ``L2 = 2*d2`` fits both.
MAX_L2 = 512
MAX_COMPOSITE_DIM = 1024


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


def _view(vec):
    if vec is None:
        return None
    nums, den = vec
    return nums if den == 1 else tuple(exact(n, den) for n in nums)


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
        self._fill(L1, L2, beta, b, theory_pairing, sigma, tau)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):  # in field order
            object.__setattr__(self, name, value)

    @classmethod
    def _from_nums(cls, L1: int, L2: int, beta: tuple, b: tuple,
                   theory_pairing=None) -> "CandidateModel":
        """Kernel constructor: ``L1 >= 1``, ``1 <= L2 <= MAX_L2``, ``beta`` a
        subnormalised and ``b`` a ``[0, 1]`` vector of ``L1 * L2``
        numerators, each ``(nums, den)`` in lowest terms, and an exact
        ``theory_pairing``."""
        c = object.__new__(cls)
        c._fill(L1, L2, beta, b, theory_pairing, None, None)
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


def model_pairing(cand: CandidateModel):
    """``xi_b . xi_beta``, the pairing the model assigns to the theory's pair."""
    (b_nums, b_den), (beta_nums, beta_den) = cand.b, cand.beta
    return exact(sum(map(mul, b_nums, beta_nums)), b_den * beta_den)


@dataclass(frozen=True)
class ViolationCertificate:
    """Which axiom a candidate breaks, with a concrete witness.

    ``violation`` is one of ``jellyfish-nullity``, ``probability-preservation``
    or ``product-annihilation``; ``None`` flags the impossible case where a
    candidate survives every check (a fatal inconsistency of the run itself),
    and :attr:`fatal` is derived from it.
    """

    violation: str | None
    witness: object
    lhs: object
    rhs: object
    trace_identity: object

    @property
    def fatal(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        return {
            "violation": self.violation,
            "witness": self.witness,
            "lhs": number_json(self.lhs),
            "rhs": number_json(self.rhs),
            "trace_identity": number_json(self.trace_identity),
            "fatal": self.fatal,
        }


def falsify(cand: CandidateModel, inst: LctInstance) -> ViolationCertificate:
    """Refute a candidate model by the annihilating-effect contradiction.

    The trace identity ``choi_close(M) == xi_b . xi_beta`` holds for every
    candidate by pure algebra.  The theory demands both ``M == 0`` (the
    jellyfish map is null) and ``xi_b . xi_beta == (b|beta)``; with a
    non-zero theory pairing the two cannot hold together.  The certificate
    names the first axiom broken, in the order product-annihilation,
    jellyfish-nullity, probability-preservation.
    """
    theory = inst.theory_pairing if cand.theory_pairing is None else cand.theory_pairing
    m = jellyfish_matrix(cand)
    first = next(m.nonzero(), None)
    product = 0
    if cand.sigma is not None:
        (b_nums, b_den), (s_nums, s_den), (t_nums, t_den) = cand.b, cand.sigma, cand.tau
        product = exact(sum(map(mul, b_nums, _kron(s_nums, t_nums))), b_den * s_den * t_den)
    if product != 0:
        verdict = "product-annihilation", "xi_b . (xi_sigma (x) xi_tau)", product, 0
    elif first is not None:
        r, c, v = first
        verdict = "jellyfish-nullity", [r, c], v, 0
    else:
        model = model_pairing(cand)
        verdict = (("probability-preservation", "model pairing vs theory pairing", model, theory)
                   if model != theory else (None, "no axiom violated", model, theory))
    return ViolationCertificate(*verdict, trace_identity=choi_close(m))


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
    """A seeded random candidate: ``L1, L2`` in 2..6, weights multiples of 1/16."""
    L1 = randint(rng, 2, 6)
    L2 = randint(rng, 2, 6)
    dim = L1 * L2
    counts = tuple(cut_counts(rng, dim, 16))
    b_counts = tuple(randints(rng, 0, 16, dim))
    # Counts over 16: nonnegative and summing to 16, and each in [0, 16].
    return CandidateModel._from_nums(L1, L2, reduce_tuple(counts, 16),
                                     reduce_tuple(b_counts, 16))
