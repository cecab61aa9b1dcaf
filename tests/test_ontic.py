"""The ontological model: images, functoriality, determinacy, faithfulness."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bctk import bct, classical, verify
from bctk.bct import (
    State,
    apply,
    atomic,
    compose_par,
    compose_seq,
    deterministic_effect,
    fuse_map,
    identity,
    pair,
    par_effects,
    par_states,
    par_with_identity,
    pure_effect,
    pure_state,
    reversible,
    swap,
    zero,
)
from bctk.classical import ClassicalMap
from bctk.ontic import (
    fused_index,
    merge_chain,
    merge_perm,
    ontic_effect,
    ontic_map,
    ontic_state,
    wire_points,
    wire_swap_matrix,
)
from bctk.systems import PureLabel, SystemShape, TRIVIAL, all_labels

from kernel_helpers import classical_effect, column_sums, transpose

S2 = SystemShape((2,))
S3 = SystemShape((3,))
S22 = SystemShape((2, 2))
S23 = SystemShape((2, 3))
HALF = Fraction(1, 2)


def _points(column: ClassicalMap, shape: SystemShape):
    points = wire_points(shape)
    return {points[r]: v for r, c, v in column.nonzero()}


def test_ontic_space_dimensions():
    assert len(wire_points(S3)) == 6
    assert wire_points(TRIVIAL) == [()]
    assert len(wire_points(S23)) == 24
    assert wire_points(S23)[0] == (1, 0, 1, 0)
    assert wire_points(S23)[-1] == (2, 1, 3, 1)


def _mixed_radix_point(shape: SystemShape, index: int) -> tuple:
    """Decode ``index`` over the wires ``(n1, 2, n2, 2, ...)``, last wire
    fastest, as a 1-based value or a 0-based bit per wire."""
    vals = []
    for dim in reversed([w for n in shape.elems for w in (n, 2)]):
        index, v0 = divmod(index, dim)
        vals.append(v0)
    vals.reverse()
    return tuple(v0 + 1 if pos % 2 == 0 else v0 for pos, v0 in enumerate(vals))


def test_wire_points_match_mixed_radix_decoding():
    shapes = [TRIVIAL] + [SystemShape(elems) for k in (1, 2, 3)
                          for elems in product((2, 3), repeat=k)]
    for shape in shapes:
        points = wire_points(shape)
        assert len(points) == shape.ontic_dim
        assert points == [_mixed_radix_point(shape, i) for i in range(shape.ontic_dim)]


def test_ontic_dim_exceeds_bct_dim_on_composites():
    for shape in (S22, S23, SystemShape((2, 2, 2))):
        assert shape.ontic_dim == 2 ** shape.num_factors * (
            shape.global_dim // 2 ** (shape.num_factors - 1)
        )
        assert shape.ontic_dim > shape.global_dim


def test_state_image_single_system():
    img = ontic_state(pure_state(S2, 2))
    assert _points(img, S2) == {(2, 0): HALF, (2, 1): HALF}


def test_state_image_bipartite_parity():
    img = ontic_state(pure_state(S22, PureLabel((1, 1), (0,))))
    assert set(_points(img, S22)) == {(1, 0, 1, 0), (1, 1, 1, 1)}
    img1 = ontic_state(pure_state(S22, PureLabel((1, 1), (1,))))
    assert set(_points(img1, S22)) == {(1, 0, 1, 1), (1, 1, 1, 0)}


def test_state_image_respects_products():
    rng = random.Random(2)
    for _ in range(10):
        rho = _rand_state(rng, S2)
        sig = _rand_state(rng, S3)
        lhs = ontic_state(par_states(rho, sig))
        rhs = classical.compose_par(ontic_state(rho), ontic_state(sig))
        assert lhs == rhs


def test_effect_image_pairings():
    for n in (2, 3):
        shape = SystemShape((n,))
        for i in range(1, n + 1):
            prob = classical.compose_seq(
                ontic_state(pure_state(shape, i)), ontic_effect(pure_effect(shape, i))
            ).scalar_value()
            assert prob == 1
    # the section-bit sector: invisible to products, carried by bit parities
    for s, s_prime in product((0, 1), repeat=2):
        e = ontic_effect(pure_effect(S22, PureLabel((1, 1), (s,))))
        r = ontic_state(pure_state(S22, PureLabel((1, 1), (s_prime,))))
        assert classical.compose_seq(r, e).scalar_value() == (1 if s == s_prime else 0)


@pytest.mark.parametrize("n, m", list(product((2, 3), repeat=2)))
def test_ontic_bit_carries_what_no_product_effect_sees(n, m):
    # BCT is not locally tomographic, yet it has this model: two pure states
    # of a composite agree on every product effect, a global effect tells
    # them apart, and so do their ontic images.
    left, right, shape = SystemShape((n,)), SystemShape((m,)), SystemShape((n, m))
    even, odd = PureLabel((1, 1), (0,)), PureLabel((1, 1), (1,))
    rho, sigma = pure_state(shape, even), pure_state(shape, odd)
    for a, b in product(all_labels(left), all_labels(right)):
        probe = par_effects(pure_effect(left, a), pure_effect(right, b))
        assert pair(probe, rho) == pair(probe, sigma)
    witness = pure_effect(shape, even)
    assert (pair(witness, rho), pair(witness, sigma)) == (1, 0)
    assert ontic_state(rho) != ontic_state(sigma)


def test_deterministic_effect_image_is_discard():
    for shape in (S2, S3, S22, S23):
        img = ontic_effect(deterministic_effect(shape))
        assert img == classical_effect([1] * shape.ontic_dim)


def test_scalar_images():
    assert ontic_state(State(TRIVIAL, (HALF,))).scalar_value() == HALF
    assert ontic_effect(bct.Effect(TRIVIAL, (HALF,))) == ClassicalMap([[HALF]])


def test_atomic_image_matrix():
    img = ontic_map(atomic(S2, S2, 1, 2, 1))
    # ontic (1, b) -> (2, b^1): entries at rows (2,1),(2,0) columns (1,0),(1,1)
    nz = sorted((r, c) for r, c, v in img.nonzero())
    assert nz == [(2, 1), (3, 0)]


def test_identity_and_swap_images():
    assert ontic_map(identity(S23)) == ClassicalMap.identity(24)
    for n, m in product((2, 3), repeat=2):
        left, right = SystemShape((n,)), SystemShape((m,))
        assert ontic_map(swap(left, right)) == wire_swap_matrix(left, right)


def test_swap_image_is_wire_permutation_pointwise():
    sw = ontic_map(swap(S2, S2))
    points = wire_points(S22)
    for col in range(16):
        i, b1, j, b2 = points[col]
        rows = [r for r, c, v in sw.nonzero() if c == col]
        assert len(rows) == 1
        assert points[rows[0]] == (j, b2, i, b1)


def test_merge_perm_closed_form():
    mu = merge_perm(2, 2)
    in_points = wire_points(S22)
    out_points = wire_points(SystemShape((8,)))
    from bctk.systems import q_encode

    for col in range(16):
        x, b1, y, b2 = in_points[col]
        rows = [r for r, c, v in mu.nonzero() if c == col]
        assert len(rows) == 1
        assert out_points[rows[0]] == (q_encode(2, 2, x, y, b1 ^ b2), b1)
    assert classical.compose_seq(mu, transpose(mu)) == ClassicalMap.identity(16)


def test_merge_pins_the_fused_state_rule():
    for n1, n2 in product((2, 3), repeat=2):
        left, right = SystemShape((n1,)), SystemShape((n2,))
        composite = left.compose(right)
        fuse = fuse_map(left, right)
        mu = merge_perm(n1, n2)
        assert ontic_map(fuse) == mu
        for lab in all_labels(composite):
            rho = pure_state(composite, lab)
            assert ontic_state(apply(fuse, rho)) == classical.compose_seq(
                ontic_state(rho), mu
            )


def test_merge_chain_on_three_factors():
    shape = SystemShape((2, 2, 2))
    chain = merge_chain(shape)
    assert chain.is_permutation()
    # fusing pairwise from the left agrees with the chain
    for lab in all_labels(shape):
        rho = pure_state(shape, lab)
        fused_state = State(shape.fused(), rho.weights)
        assert classical.compose_seq(ontic_state(rho), chain) == ontic_state(fused_state)


def test_merge_chain_sends_fused_index_home():
    for p in (1, 2, 3):
        for elems in product((2, 3), repeat=p):
            shape = SystemShape(elems)
            chain = merge_chain(shape)
            index = fused_index(shape)
            assert chain.is_permutation()
            assert len(index) == shape.ontic_dim
            for k, col in enumerate(index):
                assert chain[k, col] == 1


def _fused_matrix(t):
    """The atomic rule ``(i, b) -> (l, b ^ flip)`` on the fused single system."""
    n_in, n_out = t.in_shape.global_dim, t.out_shape.global_dim
    m = [[0] * (2 * n_in) for _ in range(2 * n_out)]
    for (src, dst, flip), w in t.coeffs.items():
        for b in (0, 1):
            m[(dst - 1) * 2 + (b ^ flip)][(src - 1) * 2 + b] += w
    return ClassicalMap(m)


def test_ontic_map_matches_merge_chain_sandwich():
    rng = random.Random(22)
    S222 = SystemShape((2, 2, 2))
    pairs = ((S2, S3), (S22, S2), (S2, S23), (S23, S22), (S222, S2), (S3, S222))
    for in_shape, out_shape in pairs:
        for channel in (False, True):
            t = _rand_tensor(rng, in_shape, out_shape, channel=channel)
            oracle = classical.compose_seq(
                classical.compose_seq(merge_chain(in_shape), _fused_matrix(t)),
                transpose(merge_chain(out_shape)),
            )
            assert ontic_map(t) == oracle


def _dense_coefficient_probe(image, in_shape, out_shape):
    """Read ``C(i, l, tau) = M[(l, tau), (i, 0)]`` by probing every cell."""
    rows, cols = fused_index(out_shape), fused_index(in_shape)
    coeffs = {}
    for src in range(1, in_shape.global_dim + 1):
        for dst in range(1, out_shape.global_dim + 1):
            for flip in (0, 1):
                v = image[rows[2 * (dst - 1) + flip], cols[2 * (src - 1)]]
                if v != 0:
                    coeffs[(src, dst, flip)] = v
    return coeffs


def test_coefficient_gather_matches_dense_probe():
    rng = random.Random(23)
    S222 = SystemShape((2, 2, 2))
    shapes = (S2, S3, S22, S23, S222)
    for _ in range(40):
        in_shape, out_shape = rng.choice(shapes), rng.choice(shapes)
        t = _rand_tensor(rng, in_shape, out_shape, channel=rng.random() < 0.5)
        image = ontic_map(t)
        gathered = verify._coefficients_from_image(image, in_shape, out_shape)
        assert gathered == _dense_coefficient_probe(image, in_shape, out_shape) == t.coeffs
        # an arbitrary map: cells outside the b0 = 0 columns stay ignored
        rows, cols = out_shape.ontic_dim, in_shape.ontic_dim
        noise = ClassicalMap([[Fraction(rng.randint(0, 3), 4) if rng.random() < 0.2 else 0
                               for _ in range(cols)] for _ in range(rows)])
        assert (verify._coefficients_from_image(noise, in_shape, out_shape)
                == _dense_coefficient_probe(noise, in_shape, out_shape))


def _seq_preserved(t1, t2) -> bool:
    return ontic_map(compose_seq(t1, t2)) == classical.compose_seq(ontic_map(t1), ontic_map(t2))


def _par_preserved(t1, t2) -> bool:
    return ontic_map(compose_par(t1, t2)) == classical.compose_par(ontic_map(t1), ontic_map(t2))


def test_sequential_functoriality_on_atomics():
    for src1, dst1, f1, src2, dst2, f2 in product((1, 2), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1)):
        t1 = atomic(S2, S2, src1, dst1, f1)
        t2 = atomic(S2, S2, src2, dst2, f2)
        assert _seq_preserved(t1, t2)


def test_parallel_functoriality_on_random_channels():
    rng = random.Random(6)
    for _ in range(25):
        t1 = _rand_tensor(rng, S2, S3, channel=True)
        t2 = _rand_tensor(rng, S3, S2, channel=True)
        assert _par_preserved(t1, t2)
        assert _seq_preserved(t1, t2)


def test_parallel_functoriality_with_composite_factor():
    rng = random.Random(7)
    t1 = _rand_tensor(rng, S22, S2, channel=True)
    t2 = _rand_tensor(rng, S2, S2, channel=True)
    assert _par_preserved(t1, t2)


def test_probability_preservation_with_ancilla():
    rng = random.Random(10)
    for anc in (TRIVIAL, S2, S3):
        for _ in range(10):
            t = _rand_tensor(rng, S2, S3)
            lifted = par_with_identity(t, anc) if not anc.is_trivial else t
            rho = _rand_state(rng, S2.compose(anc))
            eff = _rand_effect(rng, S3.compose(anc))
            image = classical.compose_seq(ontic_state(rho), ontic_map(lifted))
            model = classical.compose_seq(image, ontic_effect(eff)).scalar_value()
            assert pair(eff, apply(lifted, rho)) == model


def _determinacy_holds(t) -> bool:
    image = ontic_map(t)
    return image.is_substochastic() and t.is_channel() == image.is_stochastic()


def test_determinacy_verification():
    rng = random.Random(12)
    for _ in range(10):
        ch = _rand_tensor(rng, S2, S3, channel=True)
        assert _determinacy_holds(ch)
        sub = _rand_tensor(rng, S2, S3)
        assert _determinacy_holds(sub)
    assert _determinacy_holds(zero(S2, S2))
    assert ontic_map(zero(S2, S2)) == ClassicalMap.zero(4, 4)


def test_reversible_images_are_permutations():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 6)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        spec = bct.ReversibleSpec(tuple(perm), tuple(rng.randint(0, 1) for _ in range(n)))
        image = ontic_map(reversible(SystemShape((n,)), spec))
        assert image.is_permutation()
        for i in range(1, n + 1):
            for b in (0, 1):
                row = (spec.perm[i - 1] - 1) * 2 + (b ^ spec.bits[i - 1])
                assert image[row, (i - 1) * 2 + b] == 1


def test_instrument_images_are_valid():
    rng = random.Random(16)
    ch = _rand_tensor(rng, S2, S3, channel=True)
    instr = bct.Instrument(tuple(ch.scale(Fraction(1, 4)) for _ in range(4)))
    total = ontic_map(instr.members[0])
    for member in instr.members[1:]:
        total = total.add(ontic_map(member))
    assert total.is_stochastic()
    assert total == ontic_map(bct.coarse_grain(instr, instr.outcomes))


def test_image_faithfulness():
    rng = random.Random(18)
    for in_shape, out_shape in ((S2, S3), (S22, S2), (S2, S22)):
        t = _rand_tensor(rng, in_shape, out_shape)
        image = ontic_map(t)
        fused = image
        if in_shape.num_factors > 1 or out_shape.num_factors > 1:
            fused = classical.compose_seq(
                classical.compose_seq(transpose(merge_chain(in_shape)), image),
                merge_chain(out_shape),
            )
        recovered = {}
        for src in range(1, in_shape.global_dim + 1):
            for dst in range(1, out_shape.global_dim + 1):
                for flip in (0, 1):
                    v = fused[(dst - 1) * 2 + flip, (src - 1) * 2]
                    if v != 0:
                        recovered[(src, dst, flip)] = v
        assert recovered == t.coeffs


def test_substochasticity_equivalence():
    # column sums of the image equal the coefficient row sums, for either bit
    rng = random.Random(20)
    t = _rand_tensor(rng, S2, S3)
    image = ontic_map(t)
    sums = column_sums(image)
    for src in range(1, 3):
        expected = sum((w for (s, _, _), w in t.coeffs.items() if s == src), 0)
        assert sums[(src - 1) * 2] == expected
        assert sums[(src - 1) * 2 + 1] == expected


def _rand_state(rng, shape):
    den = 8
    cuts = sorted(rng.randint(0, den) for _ in range(shape.global_dim - 1))
    return State(shape, tuple(
        Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])
    ))


def _rand_effect(rng, shape):
    return bct.Effect(shape, tuple(
        Fraction(rng.randint(0, 8), 8) for _ in range(shape.global_dim)
    ))


def _rand_tensor(rng, in_shape, out_shape, channel=False):
    n_out = out_shape.global_dim
    coeffs = {}
    for src in range(1, in_shape.global_dim + 1):
        k = rng.randint(1, 2) if channel else rng.randint(0, 2)
        if not k:
            continue
        targets = set()
        while len(targets) < k:
            targets.add((rng.randint(1, n_out), rng.randint(0, 1)))
        if channel:
            den = 8
            cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
            weights = [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
        else:
            weights = [Fraction(rng.randint(0, 8), 16) for _ in range(k)]
        for (dst, flip), w in zip(sorted(targets), weights):
            if w:
                coeffs[(src, dst, flip)] = w
    return bct.Transformation(in_shape, out_shape, coeffs)
