"""Named verification suites with reproducible, counter-based seeding.

Every suite draws its randomness from per-trial generators derived by
hashing ``(seed, suite, index)``, so identical configurations produce
identical reports byte for byte, independent of execution order.  Integer
draws go through ``scalars.randint``/``randints``/``cut_counts``, which read
``getrandbits`` as ``random.Random.randint`` does, so the stream is the
stdlib's without its Python frames; ``tests/test_draws.py`` holds every
generator to that stream.  ``choice``, ``shuffle`` and ``random`` stay on
the stdlib.

Every check goes through one call, :meth:`Report.check`: it counts one trial
and, on a mismatch, records a flat witness that ends at the first differing
label, cell or term.

A law is a module-level function ``law_*``: it takes built values, returns
the two sides ``(lhs, rhs)`` of one equation and is written once for two
drivers; :data:`LAWS` names the checks that it backs.  A random loop draws
the arguments, always in the same order, and checks one call per trial.  A
fixed loop checks a whole family through :func:`_check_family`: one check
over the dicts of both sides, keyed by the family's arguments.  Fixed
families enumerate generator keys and probes through ``systems.pair_points``.
The codec checks stay inline, as does a check of one value against a closed
form, an oracle, a predicate or a round trip that only one suite makes.

Laws and suites reach the kernel only through module globals, such as the
aliases ``compose_seq`` and ``ontic_map`` and the modules ``bct``,
``classical`` and ``ontic``, never through a function kept in a closure or a
tuple: the benchmark tracer counts calls by patching exactly those names.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import bct, classical, ontic
from .bct import (
    Effect,
    Instrument,
    ReversibleSpec,
    State,
    Transformation,
    atomic,
    coarse_grain,
    compose_par,
    compose_seq,
    par_with_identity,
)
from .classical import ClassicalMap
from .ontic import ontic_effect, ontic_map, ontic_state
from .scalars import (
    cut_counts,
    number_json,
    number_text,
    randint,
    randints,
    rank,
    reduce_dict,
    reduce_tuple,
    sparse_differences,
)
from .systems import (
    PureLabel,
    SystemShape,
    TRIVIAL,
    all_labels,
    flatten_label,
    flatten_right_nested,
    label_text,
    pair_label,
    pair_points,
    q_decode,
    q_encode,
    reassoc_inverse,
    reassoc_label,
    split_label,
    unflatten_label,
)

# Cap on ``--max-dim``: ``rand_shape`` keeps ontic dimensions <= 64, so an
# elementary dimension above 32 only lengthens its rejection loop and the
# suites that draw dimensions directly.
MAX_DIM = 32

# Every random weight is a multiple of 1/WEIGHT_GRID, so the suites' values
# are dyadic with small denominators.  The generators draw integer counts
# that are valid by construction and build their objects from them through
# ``_from_nums``, reduced once over this denominator, with no second check.
WEIGHT_GRID = 16


@dataclass
class RunConfig:
    """Reproducible run parameters."""

    seed: int = 0
    trials: int = 200
    max_dim: int = 4
    corrupt: str | None = None

    def to_json(self) -> dict:
        data = {
            "seed": self.seed,
            "trials": self.trials,
            "max_dim": self.max_dim,
            # Arithmetic is always exact; the key is kept so that reports stay
            # byte-identical for equal configs across versions.
            "backend": "rational",
        }
        if self.corrupt:
            data["corrupt"] = self.corrupt
        return data


def derive_seed(seed: int, suite: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{suite}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def trial_rng(cfg: RunConfig, suite: str, index: int) -> random.Random:
    return random.Random(derive_seed(cfg.seed, suite, index))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def rand_distribution(rng: random.Random, n: int) -> tuple:
    """An exact random distribution on the weight grid via integer cut points."""
    return tuple(Fraction(c, WEIGHT_GRID) for c in cut_counts(rng, n, WEIGHT_GRID))


def rand_shape(rng: random.Random, max_dim: int, max_factors: int = 2,
               max_ontic: int = 64) -> SystemShape:
    while True:
        p = randint(rng, 1, max_factors)
        # Dimensions in 2..max_dim are valid and none is stripped.
        shape = SystemShape._intern(tuple(randints(rng, 2, max_dim, p)))
        if shape.ontic_dim <= max_ontic:
            return shape


def rand_state(rng: random.Random, shape: SystemShape) -> State:
    # Nonnegative counts summing to at most WEIGHT_GRID: a substate.
    counts = cut_counts(rng, shape.global_dim, randint(rng, 0, WEIGHT_GRID))
    return State._from_nums(shape, *reduce_tuple(tuple(counts), WEIGHT_GRID))


def rand_effect(rng: random.Random, shape: SystemShape) -> Effect:
    # Every count lies in 0..WEIGHT_GRID: an effect in [0, 1].
    counts = randints(rng, 0, WEIGHT_GRID, shape.global_dim)
    return Effect._from_nums(shape, *reduce_tuple(tuple(counts), WEIGHT_GRID))


def _rand_terms(rng: random.Random, n_in: int, n_out: int, k_max: int, channel: bool) -> dict:
    """Random counts ``{(src, dst, flip): count}`` over WEIGHT_GRID: each input
    spreads a random distribution over ``k`` targets, zeros dropped.  For a
    ``channel`` ``k`` is in ``1..k_max`` and the counts total WEIGHT_GRID;
    otherwise ``k`` is in ``0..k_max`` and the total is drawn.

    The draws are, in order, ``k``, each target's ``dst`` then ``flip``, the
    grid total unless ``channel``, and the ``k - 1`` cut points.
    """
    k_min = 1 if channel else 0
    terms = {}
    for src in range(1, n_in + 1):
        k = randint(rng, k_min, k_max)
        if k == 0:
            continue
        targets = set()
        while len(targets) < k:
            targets.add((randint(rng, 1, n_out), randint(rng, 0, 1)))
        total = WEIGHT_GRID if channel else randint(rng, 0, WEIGHT_GRID)
        cuts = sorted(randints(rng, 0, total, k - 1)) + [total]
        prev = 0
        for (dst, flip), cut in zip(sorted(targets), cuts):
            if cut != prev:
                terms[src, dst, flip] = cut - prev
                prev = cut
    return terms


def rand_tensor(rng: random.Random, in_shape: SystemShape, out_shape: SystemShape,
                channel: bool = False) -> Transformation:
    """A random valid transformation with at most three terms per input."""
    terms = _rand_terms(rng, in_shape.global_dim, out_shape.global_dim, 3, channel)
    # Positive counts with keys in range, each input's summing to at most
    # WEIGHT_GRID (exactly, for a channel): a valid transformation.
    return Transformation._from_nums(in_shape, out_shape, *reduce_dict(terms, WEIGHT_GRID))


def rand_instrument(rng: random.Random, in_shape: SystemShape,
                    out_shape: SystemShape) -> Instrument:
    """Split a random channel into three members by scaling with a random simplex."""
    channel = rand_tensor(rng, in_shape, out_shape, channel=True)
    return Instrument(tuple(channel.scale(p) for p in rand_distribution(rng, 3)))


def rand_reversible(rng: random.Random, n: int) -> ReversibleSpec:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    bits = tuple(randints(rng, 0, 1, n))
    return ReversibleSpec(tuple(perm), bits)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_MAX_WITNESSES = 10


@dataclass
class Report:
    """Outcome of a verification run; failures carry explicit witnesses."""

    suite: str
    seed: int = 0
    trials: int = 0
    failures: list = field(default_factory=list)
    max_abs_dev: object = 0

    def check(self, witness: list, lhs, rhs) -> None:
        """Count one trial of ``lhs == rhs``.  On a mismatch, extend the
        witness with the path to the first differing leaf and keep the two
        leaves; ``max_abs_dev`` rises to their distance, or to 1 when a leaf
        is not a number (a boolean, a shape, a missing key, a denominator)."""
        self.trials += 1
        if lhs == rhs:
            return
        path, a, b = _first_difference(lhs, rhs)
        dev = abs(a - b) if _is_number(a) and _is_number(b) else 1
        if dev > self.max_abs_dev:
            self.max_abs_dev = dev
        if len(self.failures) < _MAX_WITNESSES:
            self.failures.append({"witness": [*witness, *path],
                                  "lhs": _leaf_json(a), "rhs": _leaf_json(b)})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failures,
            "max_abs_dev": float(self.max_abs_dev),
        }


def _is_number(x) -> bool:
    return type(x) is int or type(x) is Fraction


def _leaf_json(x):
    return number_json(x) if _is_number(x) else x


def _first_difference(a, b):
    """``(path, leaf_a, leaf_b)`` at the first place two unequal values differ.

    Dicts are walked by key (a tuple key adds all its parts to the path),
    sequences by index, maps by cell, states and effects by flattened label
    and transformations by ``(src, dst, flip)`` term; a differing shape or
    length is itself the leaf.  Two such values that agree on every leaf
    differ in representation only, as when a kernel result is not in lowest
    terms: the path then ends at ``"den"``, with both denominators as text."""
    path: list = []
    while True:
        if isinstance(a, (State, Effect)) and type(a) is type(b):
            if a.shape != b.shape:
                return path + ["shape"], str(a.shape), str(b.shape)
            leaves = (([q], x, y) for q, (x, y) in enumerate(zip(a.weights, b.weights), 1)
                      if x != y)
        elif isinstance(a, ClassicalMap) and isinstance(b, ClassicalMap):
            if a.shape != b.shape:
                return path + ["shape"], list(a.shape), list(b.shape)
            leaves = sparse_differences(a.nums, a.den, b.nums, b.den)
        elif isinstance(a, Transformation) and isinstance(b, Transformation):
            if (a.in_shape, a.out_shape) != (b.in_shape, b.out_shape):
                return (path + ["shape"], f"{a.in_shape}->{a.out_shape}",
                        f"{b.in_shape}->{b.out_shape}")
            leaves = sparse_differences(a.nums, a.den, b.nums, b.den)
        elif isinstance(a, dict) and isinstance(b, dict):
            key = next(k for k in {**a, **b} if a.get(k) != b.get(k))
            path.extend(key if type(key) is tuple else (key,))
            a, b = a.get(key), b.get(key)
            continue
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            path.append(i)
            a, b = a[i], b[i]
            continue
        else:
            return path, a, b
        steps, x, y = next(leaves, (["den"], str(a.den), str(b.den)))
        return path + list(steps), x, y


def _corrupt_swap(sw: Transformation) -> Transformation:
    """Test fixture: clear the section shift of one swap term."""
    coeffs = dict(sw.coeffs)
    key = min(k for k in coeffs if k[2] == 1)
    src, dst, _ = key
    coeffs[(src, dst, 0)] = coeffs.get((src, dst, 0), 0) + coeffs.pop(key)
    return Transformation(sw.in_shape, sw.out_shape, coeffs)


def _swap_under_test(cfg: RunConfig, left: SystemShape, right: SystemShape):
    sw = bct.swap(left, right)
    return _corrupt_swap(sw) if cfg.corrupt == "swap" else sw


# ---------------------------------------------------------------------------
# the laws and the suites
# ---------------------------------------------------------------------------


def _state_image(rho: State, image: ClassicalMap) -> ClassicalMap:
    """The model's image of ``rho`` moved on by the classical map ``image``."""
    return classical.compose_seq(ontic_state(rho), image)


def law_probe(t: Transformation, rho: State, target: State, weight=1):
    """``t`` sends the pure probe ``rho`` to ``weight`` times ``target``."""
    return bct.apply(t, rho), target.scale(weight)


def law_swap_states(rho: State, sigma: State):
    """Swap exchanges the factors of a product state."""
    return (bct.apply(bct.swap(rho.shape, sigma.shape), bct.par_states(rho, sigma)),
            bct.par_states(sigma, rho))


def law_swap_sliding(t1: Transformation, t2: Transformation):
    """``t1 (x) t2`` then a swap equals a swap then ``t2 (x) t1``."""
    return (compose_seq(compose_par(t1, t2), bct.swap(t1.out_shape, t2.out_shape)),
            compose_seq(bct.swap(t1.in_shape, t2.in_shape), compose_par(t2, t1)))


def law_merge_pinning(fuse: Transformation, mu: ClassicalMap, rho: State):
    """The image of a merged state is the image of the state, merged by ``mu``."""
    return ontic_state(bct.apply(fuse, rho)), _state_image(rho, mu)


def law_seq(t1: Transformation, t2: Transformation):
    """The model preserves sequential composition."""
    return ontic_map(compose_seq(t1, t2)), classical.compose_seq(ontic_map(t1), ontic_map(t2))


def law_par(t1: Transformation, t2: Transformation, both: Transformation):
    """The model preserves parallel composition: ``both`` is ``t1 (x) t2``."""
    return ontic_map(both), classical.compose_par(ontic_map(t1), ontic_map(t2))


def law_bifunctorial(t1: Transformation, t2: Transformation, both: Transformation):
    """``both = t1 (x) t2`` equals ``t1 (x) id``, a swap, ``t2 (x) id``, a swap."""
    first = _explicit_lift(t1, t2.in_shape)
    second = compose_seq(bct.swap(t1.out_shape, t2.in_shape), _explicit_lift(t2, t1.out_shape))
    return both, compose_seq(first, compose_seq(second, bct.swap(t2.out_shape, t1.out_shape)))


def law_pairing(t: Transformation, rho: State, eff: Effect):
    """Empirical adequacy: ``eff(t(rho))`` equals its pairing in the model."""
    image = _state_image(rho, ontic_map(t))
    return (bct.pair(eff, bct.apply(t, rho)),
            classical.compose_seq(image, ontic_effect(eff)).scalar_value())


# The checks that each law backs, under the names the reports give them.
LAWS = {
    law_probe: ("atomic-law", "composite-atomic-law", "atomic-law-weighted",
                "swap-defining-relation", "local-effect"),
    law_swap_states: ("swap-product", "swap-mixed-product"),
    law_swap_sliding: ("swap-sliding",),
    law_merge_pinning: ("merge-pinning",),
    law_seq: ("seq",),
    law_par: ("par",),
    law_bifunctorial: ("bifunctorial",),
    law_pairing: ("pairing",),
}


def _check_family(report: Report, witness: list, law, family: dict) -> None:
    """One check of ``law`` on a fixed family: ``family`` maps a key to the
    law's arguments, and each side is the dict of that side by key."""
    lhs, rhs = {}, {}
    for key, args in family.items():
        lhs[key], rhs[key] = law(*args)
    report.check(witness, lhs, rhs)


def _check_codec(report: Report, code: str, where: list, keys: list, decoded: list,
                 codes: list) -> None:
    """Each key decodes back to itself, and the codes are exactly ``1..len(codes)``."""
    report.check([f"{code}-roundtrip", *where], dict(zip(keys, decoded)), dict(zip(keys, keys)))
    report.check([f"{code}-bijective", *where], sorted(codes), list(range(1, len(codes) + 1)))


def suite_codec(cfg: RunConfig) -> Report:
    """Label codec: bijectivity, round trips, regrouping invariance."""
    report = Report(suite="codec", seed=cfg.seed)
    top = min(cfg.max_dim, 4)
    for n1, n2 in product(range(2, top + 1), repeat=2):
        points = list(pair_points(n1, n2))
        codes = [q_encode(n1, n2, *p) for p in points]
        _check_codec(report, "q", [n1, n2], points, [q_decode(n1, n2, q) for q in codes], codes)
    shapes = (
        [SystemShape((n,)) for n in range(2, top + 1)]
        + [SystemShape((a, b)) for a in range(2, top + 1) for b in range(2, top + 1)]
        + [SystemShape((a, b, c)) for a in (2, 3) for b in (2, 3) for c in (2, 3)]
    )
    for shape in shapes:
        labels = list(all_labels(shape))
        codes = [flatten_label(shape, lab) for lab in labels]
        _check_codec(report, "flatten", [str(shape)], [label_text(lab) for lab in labels],
                     [label_text(unflatten_label(shape, q)) for q in codes], codes)
    for n1, n2, n3 in product((2, 3), repeat=3):
        labels = list(all_labels(SystemShape((n1, n2, n3))))
        regrouped = [reassoc_label(n1, n2, n3, lab) for lab in labels]
        _check_codec(report, "reassoc", [n1, n2, n3], [label_text(lab) for lab in labels],
                     [label_text(reassoc_inverse(n1, n2, n3, r)) for r in regrouped],
                     [flatten_right_nested(n1, n2, n3, r) for r in regrouped])
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "codec", idx)
        left = rand_shape(rng, cfg.max_dim)
        right = rand_shape(rng, cfg.max_dim)
        q1 = randint(rng, 1, left.global_dim)
        q2 = randint(rng, 1, right.global_dim)
        s = randint(rng, 0, 1)
        q = pair_label(left, right, q1, q2, s)
        report.check(["pair-split", str(left), str(right), q1, q2, s],
                     split_label(left, right, q), (q1, q2, s))
    return report


def suite_linearity(cfg: RunConfig) -> Report:
    """Unique conical decomposition: round trips and probe separation."""
    report = Report(suite="linearity", seed=cfg.seed)
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "linearity", idx)
        in_shape = rand_shape(rng, cfg.max_dim)
        out_shape = rand_shape(rng, cfg.max_dim)
        t = rand_tensor(rng, in_shape, out_shape)
        back = bct.recompose(in_shape, out_shape, bct.decompose(t))
        report.check(["decompose-recompose", idx], back, t)
        report.check(["json-roundtrip", idx], Transformation.from_json(t.to_json()), t)
        recovered = _coefficients_from_image(ontic_map(t), t.in_shape, t.out_shape)
        report.check(["image-faithful", idx], recovered, t.coeffs)
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        report.check(["probe-rank", n, m], _probe_rank(n, m), 2 * n * m)
    return report


def _coefficients_from_image(image: classical.ClassicalMap, in_shape: SystemShape,
                             out_shape: SystemShape) -> dict:
    """Invert the model on fused wires: ``C(i, l, tau) = M[(l, tau), (i, 0)]``.

    Only the image's nonzero cells are read; cells outside the ``b0 = 0``
    columns carry no further coefficients and are ignored."""
    # fused_index is a bijection onto the ontic indices, so every row inverts.
    rows = {r: divmod(k, 2) for k, r in enumerate(ontic.fused_index(out_shape))}
    cols = {c: k // 2 for k, c in enumerate(ontic.fused_index(in_shape)) if k % 2 == 0}
    coeffs: dict = {}
    for (r, c), v in image.cells.items():
        if c in cols:
            dst, flip = rows[r]
            coeffs[(cols[c] + 1, dst + 1, flip)] = v
    return coeffs


def _probe_rank(n: int, m: int) -> int:
    """Rank of the probe-response matrix of all atomics, read off the action
    tables of their lifts by a binary ancilla: entry ``(s - 1) * N_out + d - 1``
    sums the weights of the terms ``(s, d, *)``, which the pure effect ``d``
    reads off the pure state ``s`` moved.  Full rank means no two distinct
    coefficient maps agree on every such probe: an exhaustive collision search.
    ``atomicity`` and ``probability`` keep the probe reading as laws.
    """
    n_shape, m_shape, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((2,))
    rows = []
    for src, dst, flip in pair_points(n, m):
        gen = par_with_identity(atomic(n_shape, m_shape, src, dst, flip), anc)
        # A weight-1 atomic lifted by the identity has den == 1: integer rows.
        n_out = gen.out_shape.global_dim
        row = [0] * (gen.in_shape.global_dim * n_out)
        for (s, d, _), w in gen.nums.items():
            row[(s - 1) * n_out + d - 1] += w
        rows.append(row)
    return rank(rows)


def _explicit_lift(t: Transformation, right: SystemShape) -> Transformation:
    """Oracle for ``t (x) id``, term by term: the ancilla keeps its label, its
    pairing bit picks up the term's section shift."""
    # The input label fixes (src, q2, s) and the output label then fixes dst
    # and flip, so no two terms share a key; each weight is one of t's.
    nums = {
        (pair_label(t.in_shape, right, src, q2, s),
         pair_label(t.out_shape, right, dst, q2, s ^ flip), flip): n
        for (src, dst, flip), n in t.nums.items()
        for q2 in range(1, right.global_dim + 1)
        for s in (0, 1)
    }
    return Transformation._from_nums(t.in_shape.compose(right),
                                     t.out_shape.compose(right), nums, t.den)


def suite_diagram(cfg: RunConfig) -> Report:
    """Sequential/parallel functoriality plus identity, swap and merge pinning."""
    report = Report(suite="diagram", seed=cfg.seed)
    top = min(cfg.max_dim, 4)
    for n in range(2, top + 1):
        shape = SystemShape((n,))
        report.check(["identity-image", n], ontic_map(bct.identity(shape)),
                     ClassicalMap.identity(shape.ontic_dim))
    for n, m in product(range(2, top + 1), repeat=2):
        left, right = SystemShape((n,)), SystemShape((m,))
        sw = _swap_under_test(cfg, left, right)
        report.check(["swap-image", n, m], ontic_map(sw), ontic.wire_swap_matrix(left, right))
    for n1, n2 in product((2, 3), repeat=2):
        left, right = SystemShape((n1,)), SystemShape((n2,))
        fuse = bct.fuse_map(left, right)
        mu = ontic.merge_perm(n1, n2)
        report.check(["merge-image", n1, n2], ontic_map(fuse), mu)
        composite = left.compose(right)
        _check_family(report, ["merge-pinning", n1, n2], law_merge_pinning,
                      {label_text(lab): (fuse, mu, bct.pure_state(composite, lab))
                       for lab in all_labels(composite)})
        report.check(["merge-invertible", n1, n2],
                     compose_seq(fuse, bct.unfuse_map(left, right)), bct.identity(composite))
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "diagram", idx)
        a, b, c = [rand_shape(rng, cfg.max_dim) for _ in range(3)]
        t1 = rand_tensor(rng, a, b)
        t2 = rand_tensor(rng, b, c)
        report.check(["seq", idx], *law_seq(t1, t2))
        pa, pb, pc, pd = [rand_shape(rng, cfg.max_dim, max_ontic=16) for _ in range(4)]
        t1 = rand_tensor(rng, pa, pb, channel=True)
        t2 = rand_tensor(rng, pc, pd, channel=True)
        both = compose_par(t1, t2)
        report.check(["par", idx], *law_par(t1, t2, both))
        report.check(["bifunctorial", idx], *law_bifunctorial(t1, t2, both))
    return report


def suite_probability(cfg: RunConfig) -> Report:
    """Empirical adequacy: theory pairings equal model pairings, exactly."""
    report = Report(suite="probability", seed=cfg.seed)
    for n, m in product((2, 3), repeat=2):
        shape = SystemShape((n, m))
        labels = list(all_labels(shape))
        table, expected = {}, {}
        for lab_e in labels:
            eff = bct.pure_effect(shape, lab_e)
            img_e = ontic_effect(eff)
            for lab_s in labels:
                rho = bct.pure_state(shape, lab_s)
                key = (label_text(lab_e), label_text(lab_s))
                table[key] = (bct.pair(eff, rho), _state_image(rho, img_e).scalar_value())
                expected[key] = (1, 1) if lab_e == lab_s else (0, 0)
        report.check(["delta-table", n, m], table, expected)
        n_shape, m_shape = SystemShape((n,)), SystemShape((m,))
        for i_prime in range(1, n + 1):
            boxed = bct.boxed_effect_left(bct.pure_effect(n_shape, i_prime), m_shape)
            boxed_img = ontic_map(boxed)
            boxed_state = bct.boxed_state_left(bct.pure_state(n_shape, i_prime), m_shape)
            boxed_state_img = ontic_map(boxed_state)
            for lab in labels:
                i, j = lab.indices
                where = [n, m, i_prime, label_text(lab)]
                rho = bct.pure_state(shape, lab)
                want = bct.pure_state(m_shape, j).scale(1 if i == i_prime else 0)
                report.check(["local-effect", *where], *law_probe(boxed, rho, want))
                report.check(["local-effect-image", *where], _state_image(rho, boxed_img),
                             ontic_state(want))
                eff = bct.pure_effect(shape, lab)
                half = Fraction(1, 2) if i == i_prime else 0
                want_e = bct.pure_effect(m_shape, j).scale(half)
                report.check(["half-law", *where], bct.pull(eff, boxed_state), want_e)
                report.check(["half-law-image", *where],
                             classical.compose_seq(boxed_state_img, ontic_effect(eff)),
                             ontic_effect(want_e))
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "probability", idx)
        a = rand_shape(rng, cfg.max_dim, max_ontic=16)
        b = rand_shape(rng, cfg.max_dim, max_ontic=16)
        anc_dim = rng.choice((1, 2, 3))
        anc = SystemShape((anc_dim,)) if anc_dim > 1 else TRIVIAL
        t = rand_tensor(rng, a, b)
        lifted = par_with_identity(t, anc) if not anc.is_trivial else t
        rho = rand_state(rng, a.compose(anc))
        eff = rand_effect(rng, b.compose(anc))
        report.check(["pairing", idx], *law_pairing(lifted, rho, eff))
    return report


def suite_determinacy(cfg: RunConfig) -> Report:
    """Channels map to stochastic matrices; instruments stay valid."""
    report = Report(suite="determinacy", seed=cfg.seed)
    for n in range(2, min(cfg.max_dim, 4) + 1):
        shape = SystemShape((n,))
        null = bct.zero(shape, shape)
        report.check(["null-image", n], ontic_map(null).is_substochastic(), True)
        report.check(["null-not-stochastic", n], ontic_map(null).is_stochastic(), False)
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "determinacy", idx)
        a = rand_shape(rng, cfg.max_dim)
        b = rand_shape(rng, cfg.max_dim)
        channel = rand_tensor(rng, a, b, channel=True)
        loose = rand_tensor(rng, a, b)
        for kind, t in (("channel", channel), ("loose", loose)):
            # Valid maps have substochastic images; channels exactly the stochastic ones.
            image = ontic_map(t)
            report.check([f"{kind}-image", idx],
                         {"substochastic": image.is_substochastic(),
                          "channel-iff-stochastic": t.is_channel()},
                         {"substochastic": True,
                          "channel-iff-stochastic": image.is_stochastic()})
        pulled = bct.pull(bct.deterministic_effect(b), channel)
        det = bct.deterministic_effect(a)
        report.check(["causality", idx], pulled == det, channel.is_channel())
        n = randint(rng, 2, 6)
        spec = rand_reversible(rng, n)
        shape = SystemShape((n,))
        rev = bct.reversible(shape, spec)
        inverse = bct.reversible(shape, spec.inverse())
        ident = bct.identity(shape)
        report.check(["reversible-inverse", idx],
                     (compose_seq(rev, inverse), compose_seq(inverse, rev)), (ident, ident))
        image = ontic_map(rev)
        report.check(["reversible-permutation", idx], image.is_permutation(), True)
        cells = {(i, bit): ((spec.perm[i - 1] - 1) * 2 + (bit ^ spec.bits[i - 1]),
                            (i - 1) * 2 + bit)
                 for i in range(1, n + 1) for bit in (0, 1)}
        report.check(["reversible-closed-form", idx],
                     {point: image[cell] for point, cell in cells.items()},
                     dict.fromkeys(cells, 1))
        instr = rand_instrument(rng, a, b)
        total = ontic_map(instr.members[0])
        for member in instr.members[1:]:
            total = total.add(ontic_map(member))
        report.check(["instrument-stochastic", idx], total.is_stochastic(), True)
        report.check(["sum-vs-coarse-grain", idx], total,
                     ontic_map(coarse_grain(instr, instr.outcomes)))
    return report


def suite_atomicity(cfg: RunConfig) -> Report:
    """The ancilla law of atomic generators, elementary and composite."""
    report = Report(suite="atomicity", seed=cfg.seed)
    comp = SystemShape((2, 2))
    families = [(SystemShape((n,)), SystemShape((m,)), k, ["atomic-law", n, m, k])
            for n, m, k in product((2, 3), repeat=3)]
    families += [(comp, comp, k, ["composite-atomic-law", k]) for k in (2, 3)]
    for in_shape, out_shape, k, prefix in families:
        anc = SystemShape((k,))
        in_big, out_big = in_shape.compose(anc), out_shape.compose(anc)
        n, m = in_shape.global_dim, out_shape.global_dim
        # The ancilla is one system, so pair order is the global-index order.
        probes = [(q, j, s, label_text(lab), bct.pure_state(in_big, lab))
                  for (q, j, s), lab in zip(pair_points(n, k), all_labels(in_big))]
        targets = {key: bct.pure_state(out_big, lab)
                   for key, lab in zip(pair_points(m, k), all_labels(out_big))}
        for src, dst, flip in pair_points(n, m):
            lifted = par_with_identity(atomic(in_shape, out_shape, src, dst, flip), anc)
            _check_family(report, [*prefix, src, dst, flip], law_probe,
                          {text: (lifted, rho, targets[dst, j, s ^ flip], 1 if q == src else 0)
                           for q, j, s, text, rho in probes})
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "atomicity", idx)
        n = randint(rng, 2, cfg.max_dim)
        m = randint(rng, 2, cfg.max_dim)
        k = randint(rng, 2, 3)
        n_shape, m_shape, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((k,))
        src, dst, flip = randint(rng, 1, n), randint(rng, 1, m), randint(rng, 0, 1)
        weight = Fraction(randint(rng, 1, WEIGHT_GRID), WEIGHT_GRID)
        lifted = par_with_identity(atomic(n_shape, m_shape, src, dst, flip, weight), anc)
        i, j, s = randint(rng, 1, n), randint(rng, 1, k), randint(rng, 0, 1)
        rho = bct.pure_state(n_shape.compose(anc), PureLabel((i, j), (s,)))
        target = bct.pure_state(m_shape.compose(anc), PureLabel((dst, j), (s ^ flip,)))
        report.check(["atomic-law-weighted", idx],
                     *law_probe(lifted, rho, target, weight if i == src else 0))
    return report


def suite_swap(cfg: RunConfig) -> Report:
    """The defining relation of swap, its involution and the sliding law."""
    report = Report(suite="swap", seed=cfg.seed)
    for n, m, k in product((2, 3), repeat=3):
        left, right, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((k,))
        lifted = par_with_identity(_swap_under_test(cfg, left, right), anc)
        in_big, out_big = left.compose(right).compose(anc), right.compose(left).compose(anc)
        family = {}
        for i, j, kk, s, t in product(range(1, n + 1), range(1, m + 1), range(1, k + 1),
                                      (0, 1), (0, 1)):
            lab = PureLabel((i, j, kk), (s, t))
            want = bct.pure_state(out_big, PureLabel((j, i, kk), (s, s ^ t)))
            family[label_text(lab)] = (lifted, bct.pure_state(in_big, lab), want)
        _check_family(report, ["swap-defining-relation", n, m, k], law_probe, family)
    for n, m in product((2, 3, 4), repeat=2):
        left, right = SystemShape((n,)), SystemShape((m,))
        report.check(["swap-involution", n, m],
                     compose_seq(bct.swap(left, right), bct.swap(right, left)),
                     bct.identity(left.compose(right)))
        _check_family(report, ["swap-product", n, m], law_swap_states,
                      {(i, j): (bct.pure_state(left, i), bct.pure_state(right, j))
                       for i, j in product(range(1, n + 1), range(1, m + 1))})
    for idx in range(cfg.trials):
        rng = trial_rng(cfg, "swap", idx)
        a, b, c, d = [rand_shape(rng, cfg.max_dim, max_factors=1) for _ in range(4)]
        t1 = rand_tensor(rng, a, b)
        t2 = rand_tensor(rng, c, d)
        report.check(["swap-sliding", idx], *law_swap_sliding(t1, t2))
        rho = rand_state(rng, a)
        sigma = rand_state(rng, c)
        report.check(["swap-mixed-product", idx], *law_swap_states(rho, sigma))
    return report


SUITES = {
    "linearity": suite_linearity,
    "diagram": suite_diagram,
    "probability": suite_probability,
    "determinacy": suite_determinacy,
    "atomicity": suite_atomicity,
    "swap": suite_swap,
    "codec": suite_codec,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names, cfg: RunConfig) -> list[Report]:
    """Run the named suites (or ``"all"``) in order.  Every name is checked
    before any suite runs, so ``ValueError`` from a suite is never a name's."""
    if isinstance(names, str):
        names = SUITE_NAMES if names == "all" else (names,)
    names = tuple(names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](cfg) for name in names]


# ---------------------------------------------------------------------------
# random circuit corpus for the differential oracle
# ---------------------------------------------------------------------------


def random_circuit_source(rng: random.Random, max_dim: int = 3) -> str:
    """A random closed circuit as DSL text: a state, channel stages, an effect."""
    n = randint(rng, 2, max_dim)
    m = randint(rng, 2, max_dim)
    shape = SystemShape((n, m))
    lines = [
        f"system a = elem {n}",
        f"system b = elem {m}",
        "system ab = a * b",
        f"state rho : ab = {_dist_terms(rng, shape)}",
    ]
    n_gates = randint(rng, 1, 2)
    for g in range(n_gates):
        choice = rng.random()
        if choice < 0.4:
            lines.append(f"gate g{g} : ab -> ab = {_atomic_body(rng, 2 * n * m)}")
        elif choice < 0.6:
            spec = rand_reversible(rng, 2 * n * m)
            perm, bits = ",".join(map(str, spec.perm)), ",".join(map(str, spec.bits))
            lines.append(f"gate g{g} : ab -> ab = rev {perm} {bits}")
        else:
            lines.append(f"gate g{g} : ab -> ab = id")
    lines.append(f"effect e : ab = {_effect_terms(rng, shape)}")
    stages = " ; ".join(["rho", *(f"g{g}" for g in range(n_gates)), "e"])
    lines.append(f"circuit main = {stages}")
    lines.append("eval main")
    return "\n".join(lines) + "\n"


def _vector_terms(shape: SystemShape, weights) -> str:
    """``w label + ...`` over the nonzero weights, or ``""`` when there are none."""
    return " + ".join(f"{number_text(w)} {label_text(unflatten_label(shape, q))}"
                      for q, w in enumerate(weights, start=1) if w != 0)


def _dist_terms(rng: random.Random, shape: SystemShape) -> str:
    # A normalised distribution has a nonzero weight, so the text is never empty.
    return _vector_terms(shape, rand_distribution(rng, shape.global_dim))


def _effect_terms(rng: random.Random, shape: SystemShape) -> str:
    if rng.random() < 0.3:
        return "discard"
    return _vector_terms(shape, rand_effect(rng, shape).weights) or "discard"


def _atomic_body(rng: random.Random, dim: int) -> str:
    terms = _rand_terms(rng, dim, dim, 2, channel=False)
    parts = [f"atomic {src} -> {dst} tau {flip} w {number_text(Fraction(c, WEIGHT_GRID))}"
             for (src, dst, flip), c in terms.items()]
    return " + ".join(parts) if parts else "atomic 1 -> 1 tau 0 w 1"
