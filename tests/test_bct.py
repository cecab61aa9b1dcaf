"""Bilocal core: states, effects, atomic generators, and their algebra."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bctk import bct
from bctk.bct import (
    Instrument,
    ReversibleSpec,
    State,
    Transformation,
    apply,
    atomic,
    boxed_effect_left,
    boxed_state_left,
    coarse_grain,
    compose_par,
    compose_seq,
    decompose,
    deterministic_effect,
    fuse_map,
    identity,
    pair,
    par_effects,
    par_states,
    par_with_identity,
    pull,
    pure_effect,
    pure_state,
    recompose,
    reversible,
    swap,
    unfuse_map,
    zero,
)
from bctk.systems import (
    TRIVIAL, PureLabel, SystemShape, all_labels, q_decode, q_encode)
from bctk.verify import _explicit_lift

from kernel_helpers import instrument_is_valid, is_zero, uniform_state

S2 = SystemShape((2,))
S3 = SystemShape((3,))
S22 = SystemShape((2, 2))
HALF = Fraction(1, 2)


# -- states, effects, pairing -------------------------------------------------


def test_pure_state_basis_vectors():
    assert pure_state(S3, 2).weights == (0, 1, 0)
    # (1,2)_1 sits at index Q(1,2,1) = 4 of the 8-dimensional composite
    assert pure_state(S22, PureLabel((1, 2), (1,))).weights.index(1) == 3


def test_pure_pairing_is_delta_table():
    for n, m in product((2, 3), repeat=2):
        shape = SystemShape((n, m))
        labels = list(all_labels(shape))
        for le in labels:
            e = pure_effect(shape, le)
            for ls in labels:
                assert pair(e, pure_state(shape, ls)) == (1 if le == ls else 0)


def test_pairing_with_mixed_section_state():
    e = pure_effect(S22, PureLabel((1, 1), (0,)))
    rho = State(S22, tuple(
        HALF if q in (q_encode(2, 2, 1, 1, 0), q_encode(2, 2, 1, 1, 1)) else 0
        for q in range(1, 9)
    ))
    assert pair(e, rho) == HALF


def test_deterministic_pairing():
    rho = State(S3, (Fraction(1, 3),) * 3)
    assert pair(deterministic_effect(S3), rho) == 1


def test_pair_shape_mismatch():
    with pytest.raises(ValueError):
        pair(deterministic_effect(S2), pure_state(S3, 1))


def test_state_validation():
    with pytest.raises(ValueError):
        State(S2, (1, 1))
    with pytest.raises(ValueError):
        State(S2, (-1, 0))
    with pytest.raises(ValueError):
        bct.Effect(S2, (2, 0))
    with pytest.raises(ValueError):
        bct.Effect(S2, (-HALF, 0))
    with pytest.raises(ValueError):
        State(S2, (HALF,))
    with pytest.raises(ValueError):
        pure_state(S2, 1).scale(2)


# -- parallel composition of states and effects -------------------------------


def test_product_of_pure_states_spreads_over_section_bit():
    p = par_states(pure_state(S2, 1), pure_state(S2, 1))
    assert p.shape == S22
    assert p.weights == (HALF, HALF, 0, 0, 0, 0, 0, 0)


def test_product_effect_on_product_state():
    e = par_effects(pure_effect(S2, 1), pure_effect(S2, 1))
    rho = par_states(pure_state(S2, 1), pure_state(S2, 1))
    assert pair(e, rho) == 1


def test_product_of_deterministic_effects_is_deterministic():
    for n, m in product((2, 3), repeat=2):
        left, right = SystemShape((n,)), SystemShape((m,))
        both = par_effects(deterministic_effect(left), deterministic_effect(right))
        assert both == deterministic_effect(left.compose(right))


def test_pairing_factorises_over_products():
    rng = random.Random(5)
    for _ in range(20):
        rho = State(S2, _dist(rng, 2))
        sig = State(S3, _dist(rng, 3))
        a = bct.Effect(S2, tuple(Fraction(rng.randint(0, 8), 8) for _ in range(2)))
        b = bct.Effect(S3, tuple(Fraction(rng.randint(0, 8), 8) for _ in range(3)))
        assert pair(par_effects(a, b), par_states(rho, sig)) == pair(a, rho) * pair(b, sig)


def test_par_states_is_associative():
    rng = random.Random(9)
    shapes = (S2, S2, S3)
    states = [State(sh, _dist(rng, sh.global_dim)) for sh in shapes]
    left = par_states(par_states(states[0], states[1]), states[2])
    right = par_states(states[0], par_states(states[1], states[2]))
    assert left == right
    effs = [bct.Effect(sh, tuple(Fraction(rng.randint(0, 4), 4) for _ in range(sh.global_dim)))
            for sh in shapes]
    l_e = par_effects(par_effects(effs[0], effs[1]), effs[2])
    r_e = par_effects(effs[0], par_effects(effs[1], effs[2]))
    assert l_e == r_e


def test_par_with_trivial_state_scales():
    scalar = State(TRIVIAL, (HALF,))
    rho = pure_state(S2, 1)
    assert par_states(scalar, rho).weights == (HALF, 0)
    assert par_states(rho, scalar).weights == (HALF, 0)


def _dist(rng, n, den=8):
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    return tuple(Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den]))


# -- transformations -----------------------------------------------------------


def test_atomic_sequencing_matches_delta_rule():
    t1 = atomic(S2, S2, 1, 2, 1)
    t2 = atomic(S2, S2, 2, 1, 1)
    assert compose_seq(t1, t2).coeffs == {(1, 1, 0): 1}
    blocked = atomic(S2, S2, 1, 1, 0)
    assert is_zero(compose_seq(t1, blocked))


def test_identity_expansion_and_neutrality():
    ident = identity(S2)
    assert ident.coeffs == {(1, 1, 0): 1, (2, 2, 0): 1}
    assert compose_seq(ident, ident) == ident
    rng = random.Random(1)
    t = _rand_tensor(rng, S2, S3)
    assert compose_seq(identity(S2), t) == t
    assert compose_seq(t, identity(S3)) == t


def test_apply_atomic_ignores_flip_without_ancilla():
    for flip in (0, 1):
        moved = apply(atomic(S2, S2, 1, 2, flip), pure_state(S2, 1))
        assert moved == pure_state(S2, 2)


def test_channel_preserves_normalisation():
    rng = random.Random(3)
    ch = _rand_tensor(rng, S3, S2, channel=True)
    rho = State(S3, _dist(rng, 3))
    assert apply(ch, rho).total == rho.total


def test_causality_pull_discard():
    rng = random.Random(4)
    ch = _rand_tensor(rng, S3, S2, channel=True)
    assert pull(deterministic_effect(S2), ch) == deterministic_effect(S3)
    sub = _rand_tensor(rng, S3, S2, channel=False)
    assert (pull(deterministic_effect(S2), sub) == deterministic_effect(S3)) == sub.is_channel()


def test_validity_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        Transformation(S2, S2, {(1, 1, 0): Fraction(3, 4), (1, 2, 0): HALF})
    with pytest.raises(ValueError):
        Transformation(S2, S2, {(1, 1, 0): -1})
    with pytest.raises(ValueError):
        Transformation(S2, S2, {(1, 3, 0): 1})
    with pytest.raises(ValueError):
        Transformation(S2, S2, {(0, 1, 0): 1})
    with pytest.raises(ValueError):
        Transformation(S2, S2, {(1, 1, 2): 1})
    with pytest.raises(ValueError):
        Transformation(SystemShape(()), S2, {})
    over = {"in": [2], "out": [2], "terms": [{"i0": 1, "l": 1, "tau": 0, "w": [3, 4]},
                                              {"i0": 1, "l": 2, "tau": 1, "w": [1, 2]}]}
    with pytest.raises(ValueError):
        Transformation.from_json(over)
    with pytest.raises(ValueError,
                       match=r"^coefficients for input 1 sum to 2 > 1 \(not substochastic\)$"):
        identity(S2).scale(2)
    with pytest.raises(ValueError, match="^conical coefficients must be nonnegative$"):
        identity(S2).scale(-1)
    with pytest.raises(TypeError, match=r"^not an exact number: 2\.0$"):
        identity(S2).scale(2.0)
    with pytest.raises(ValueError, match=r"^coefficients for input 1 sum to 5/4 > 1 "):
        atomic(S2, S2, 1, 1, 0, HALF).add(atomic(S2, S2, 1, 2, 0, Fraction(3, 4)))
    with pytest.raises(ValueError, match="^can only add transformations of equal shape$"):
        identity(S2).add(identity(S3))
    for build in (lambda: identity(TRIVIAL), lambda: zero(TRIVIAL, S2),
                  lambda: zero(S2, TRIVIAL),
                  lambda: reversible(TRIVIAL, ReversibleSpec((1,), (0,)))):
        with pytest.raises(ValueError, match="non-trivial"):
            build()


def test_lifted_atomic_four_terms():
    # a flip-1 generator on a 2-system, next to a 2-dimensional wire
    lifted = par_with_identity(atomic(S2, S2, 1, 1, 1), S2)
    expected = {}
    for l2 in (1, 2):
        for s in (0, 1):
            expected[(q_encode(2, 2, 1, l2, s), q_encode(2, 2, 1, l2, s ^ 1), 1)] = 1
    assert lifted.coeffs == expected


def test_lifted_identity_is_composite_identity():
    assert par_with_identity(identity(S2), S3) == identity(S2.compose(S3))


def test_atomicity_law_with_ancilla():
    for n, m, k in product((2, 3), repeat=3):
        ns, ms, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((k,))
        for src, dst, flip in product(range(1, n + 1), range(1, m + 1), (0, 1)):
            lifted = par_with_identity(atomic(ns, ms, src, dst, flip, HALF), anc)
            for i, j, s in product(range(1, n + 1), range(1, k + 1), (0, 1)):
                got = apply(lifted, pure_state(ns.compose(anc), PureLabel((i, j), (s,))))
                want = pure_state(ms.compose(anc), PureLabel((dst, j), (s ^ flip,))).scale(
                    HALF if i == src else 0
                )
                assert got == want


def test_par_with_identity_composite_right_factor():
    rng = random.Random(8)
    t = _rand_tensor(rng, S2, S3)
    assert par_with_identity(t, S22) == compose_par(t, identity(S22))


# -- swap ----------------------------------------------------------------------


def test_swap_moves_product_states():
    moved = apply(swap(S2, S3), par_states(pure_state(S2, 1), pure_state(S3, 2)))
    assert moved == par_states(pure_state(S3, 2), pure_state(S2, 1))


@pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)])
def test_swap_is_an_involution(n, m):
    left, right = SystemShape((n,)), SystemShape((m,))
    assert compose_seq(swap(left, right), swap(right, left)) == identity(left.compose(right))


def test_swap_defining_relation_with_ancilla():
    # ((i j)_s k)_t maps to ((j i)_s k)_{s xor t}, exhaustively
    for n, m, k in product((2, 3), repeat=3):
        left, right, anc = SystemShape((n,)), SystemShape((m,)), SystemShape((k,))
        lifted = par_with_identity(swap(left, right), anc)
        for i, j, kk, s, t in product(
            range(1, n + 1), range(1, m + 1), range(1, k + 1), (0, 1), (0, 1)
        ):
            got = apply(lifted, pure_state(left.compose(right).compose(anc),
                                           PureLabel((i, j, kk), (s, t))))
            want = pure_state(right.compose(left).compose(anc),
                              PureLabel((j, i, kk), (s, s ^ t)))
            assert got == want


def test_swap_sliding():
    rng = random.Random(11)
    for _ in range(10):
        t1 = _rand_tensor(rng, S2, S3)
        t2 = _rand_tensor(rng, S3, S2)
        lhs = compose_seq(compose_par(t1, t2), swap(S3, S2))
        rhs = compose_seq(swap(S2, S3), compose_par(t2, t1))
        assert lhs == rhs


# -- parallel composition of transformations ------------------------------------


def test_parallel_identities_compose():
    assert compose_par(identity(S2), identity(S3)) == identity(S2.compose(S3))


def test_parallel_atomics_on_product_state():
    t = compose_par(atomic(S2, S2, 1, 1, 0), atomic(S2, S2, 1, 1, 0))
    rho = par_states(pure_state(S2, 1), pure_state(S2, 1))
    assert apply(t, rho) == rho


def test_parallel_interleaving_orders_agree():
    rng = random.Random(13)
    for _ in range(10):
        t1 = _rand_tensor(rng, S2, S2, channel=True)
        t2 = _rand_tensor(rng, S3, S2, channel=True)
        lhs = compose_par(t1, t2)
        rhs = compose_seq(
            par_with_identity(t1, t2.in_shape),
            compose_seq(
                compose_seq(swap(t1.out_shape, t2.in_shape),
                            par_with_identity(t2, t1.out_shape)),
                swap(t2.out_shape, t1.out_shape),
            ),
        )
        assert lhs == rhs


def test_parallel_composition_is_associative():
    rng = random.Random(17)
    t1 = _rand_tensor(rng, S2, S2)
    t2 = _rand_tensor(rng, S2, S2)
    t3 = _rand_tensor(rng, S2, S2)
    assert compose_par(compose_par(t1, t2), t3) == compose_par(t1, compose_par(t2, t3))


def test_parallel_action_factorises():
    rng = random.Random(19)
    for _ in range(10):
        t1 = _rand_tensor(rng, S2, S3)
        t2 = _rand_tensor(rng, S3, S2)
        rho = State(S2, _dist(rng, 2))
        sig = State(S3, _dist(rng, 3))
        lhs = apply(compose_par(t1, t2), par_states(rho, sig))
        rhs = par_states(apply(t1, rho), apply(t2, sig))
        assert lhs == rhs


# -- merging -------------------------------------------------------------------


def test_fuse_relabels_pure_states():
    fuse = fuse_map(S2, S3)
    fused_shape = SystemShape((12,))
    for i, j, s in product(range(1, 3), range(1, 4), (0, 1)):
        got = apply(fuse, pure_state(S2.compose(S3), PureLabel((i, j), (s,))))
        assert got == pure_state(fused_shape, q_encode(2, 3, i, j, s))


def test_fuse_round_trip():
    for n, m in product((2, 3, 4), repeat=2):
        left, right = SystemShape((n,)), SystemShape((m,))
        composite = left.compose(right)
        assert compose_seq(fuse_map(left, right), unfuse_map(left, right)) == identity(composite)
        assert compose_seq(unfuse_map(left, right), fuse_map(left, right)) == identity(
            composite.fused()
        )


@pytest.mark.parametrize("build, message", [
    (lambda: apply(identity(S2), pure_state(S3, 1)),
     "transformation expects (2), state is on (3)"),
    (lambda: pull(pure_effect(S3, 1), identity(S2)),
     "transformation outputs (2), effect is on (3)"),
    (lambda: swap(TRIVIAL, S2), "swap needs two non-trivial systems"),
    (lambda: boxed_effect_left(bct.Effect(TRIVIAL, (HALF,)), S2),
     "boxed_effect_left needs non-trivial systems"),
    (lambda: boxed_state_left(State(TRIVIAL, (HALF,)), S2),
     "boxed_state_left needs non-trivial systems"),
    (lambda: reversible(S2, ReversibleSpec((1, 2, 3), (0, 0, 0))),
     "spec permutes 3 labels, shape has 2"),
    (lambda: Instrument(()), "an instrument needs at least one member"),
    (lambda: Instrument((identity(S2), identity(S3))),
     "instrument members must share input and output shapes"),
    (lambda: Instrument((identity(S2), identity(S2)), ("a",)),
     "one outcome label per member required"),
    (lambda: compose_seq(identity(S2), identity(S3)),
     "cannot compose a transformation into (2) with one from (3)"),
])
def test_kernel_refusals_name_their_cause(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_fuse_and_unfuse_name_themselves_on_a_trivial_factor():
    for build in (fuse_map, unfuse_map):
        for left, right in ((S2, TRIVIAL), (TRIVIAL, S3)):
            with pytest.raises(ValueError, match=f"^{build.__name__} needs two non-trivial"):
                build(left, right)


def test_fuse_keeps_mixed_weights():
    rng = random.Random(23)
    rho = State(S2.compose(S3), _dist(rng, 12))
    assert apply(fuse_map(S2, S3), rho).weights == rho.weights


# -- reversible transformations --------------------------------------------------


def test_reversible_identity_spec():
    spec = ReversibleSpec((1, 2), (0, 0))
    assert reversible(S2, spec) == identity(S2)


def test_reversible_flip_example():
    spec = ReversibleSpec((2, 1), (1, 0))
    rev = reversible(S2, spec)
    assert rev.coeffs == {(1, 2, 1): 1, (2, 1, 0): 1}
    assert apply(rev, pure_state(S2, 1)) == pure_state(S2, 2)


def test_reversible_two_sided_inverse():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 6)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        spec = ReversibleSpec(tuple(perm), tuple(rng.randint(0, 1) for _ in range(n)))
        shape = SystemShape((n,))
        rev, inv = reversible(shape, spec), reversible(shape, spec.inverse())
        assert compose_seq(rev, inv) == identity(shape)
        assert compose_seq(inv, rev) == identity(shape)
        assert rev.is_channel()


def reversible_bipartite_view(spec: ReversibleSpec, n: int, m: int) -> dict:
    """Decode a permutation of ``[1..2nm]`` through the pair codec: map each
    ``(i, j, s)`` to its image ``(i', j', s')`` and flip bit ``sigma``."""
    assert len(spec.perm) == 2 * n * m
    view = {}
    for i, j, s in product(range(1, n + 1), range(1, m + 1), (0, 1)):
        q = q_encode(n, m, i, j, s)
        view[(i, j, s)] = (q_decode(n, m, spec.perm[q - 1]), spec.bits[q - 1])
    return view


def test_reversible_bipartite_view_round_trips():
    rng = random.Random(31)
    n, m = 2, 3
    perm = list(range(1, 2 * n * m + 1))
    rng.shuffle(perm)
    spec = ReversibleSpec(tuple(perm), tuple(rng.randint(0, 1) for _ in perm))
    view = reversible_bipartite_view(spec, n, m)
    for i, j, s in product(range(1, n + 1), range(1, m + 1), (0, 1)):
        q = q_encode(n, m, i, j, s)
        (i2, j2, s2), sigma = view[(i, j, s)]
        assert spec.perm[q - 1] == q_encode(n, m, i2, j2, s2)
        assert sigma == spec.bits[q - 1]


def test_reversible_spec_validation():
    with pytest.raises(ValueError):
        ReversibleSpec((1, 1), (0, 0))
    with pytest.raises(ValueError):
        ReversibleSpec((2, 1), (0,))


# -- decomposition, instruments ---------------------------------------------------


def test_decompose_identity():
    terms = decompose(identity(S2))
    assert [(t.src, t.dst, t.flip, t.weight) for t in terms] == [
        (1, 1, 0, 1), (2, 2, 0, 1),
    ]


def test_decompose_zero_is_empty():
    assert decompose(zero(S2, S3)) == []


def test_recompose_round_trip_on_random_tensors():
    rng = random.Random(37)
    for _ in range(50):
        t = _rand_tensor(rng, S22, S3)
        assert recompose(t.in_shape, t.out_shape, decompose(t)) == t


def test_transformation_json_schema():
    t = atomic(S2, S3, 1, 2, 1, HALF)
    data = t.to_json()
    assert data == {
        "in": [2],
        "out": [3],
        "terms": [{"i0": 1, "l": 2, "tau": 1, "w": [1, 2]}],
    }
    assert Transformation.from_json(data) == t


def test_coarse_graining():
    half_id = identity(S2).scale(HALF)
    instr = Instrument((half_id, half_id))
    assert coarse_grain(instr, instr.outcomes) == identity(S2)
    assert instrument_is_valid(instr)
    rng = random.Random(41)
    parts = [
        _rand_tensor(rng, S2, S3).scale(Fraction(1, 4)) for _ in range(3)
    ]
    instr3 = Instrument(tuple(parts), outcomes=("a", "b", "c"))
    manual = parts[0].add(parts[2])
    assert coarse_grain(instr3, ("a", "c")) == manual
    with pytest.raises(ValueError):
        coarse_grain(instr3, ("nope",))


def test_zero_annihilates():
    rng = random.Random(43)
    t = _rand_tensor(rng, S2, S2)
    eps = zero(S2, S2)
    assert is_zero(compose_seq(eps, t))
    assert is_zero(compose_seq(t, eps))
    assert is_zero(compose_par(eps, t))


# -- partial application helpers ---------------------------------------------------


def test_local_effect_action():
    # (i'| on the left factor of |(i j)_s) leaves delta_{i,i'} |j)
    for n, m in product((2, 3), repeat=2):
        ns, ms = SystemShape((n,)), SystemShape((m,))
        for i_prime in range(1, n + 1):
            boxed = boxed_effect_left(pure_effect(ns, i_prime), ms)
            for lab in all_labels(ns.compose(ms)):
                i, j = lab.indices
                got = apply(boxed, pure_state(ns.compose(ms), lab))
                want = pure_state(ms, j).scale(1 if i == i_prime else 0)
                assert got == want


def test_local_state_half_law():
    # |i') fed into the left wire of ((i j)_s| leaves (1/2) delta_{i,i'} (j|
    for n, m in product((2, 3), repeat=2):
        ns, ms = SystemShape((n,)), SystemShape((m,))
        for i_prime in range(1, n + 1):
            boxed = boxed_state_left(pure_state(ns, i_prime), ms)
            for lab in all_labels(ns.compose(ms)):
                i, j = lab.indices
                got = pull(pure_effect(ns.compose(ms), lab), boxed)
                want = pure_effect(ms, j).scale(HALF if i == i_prime else 0)
                assert got.weights == want.weights


def test_boxed_discard_is_a_channel():
    boxed = boxed_effect_left(deterministic_effect(S3), S2)
    assert boxed.is_channel()
    rho = par_states(State(S3, _dist(random.Random(47), 3)), pure_state(S2, 2))
    assert apply(boxed, rho).total == rho.total


# -- law-style property tests -------------------------------------------------------


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
        weights = _dist(rng, k) if channel else [
            Fraction(rng.randint(0, 8), 16) for _ in range(k)
        ]
        for (dst, flip), w in zip(sorted(targets), weights):
            if w:
                coeffs[(src, dst, flip)] = w
    return Transformation(in_shape, out_shape, coeffs)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sequencing_preserves_validity(seed):
    rng = random.Random(seed)
    t1 = _rand_tensor(rng, S2, S3)
    t2 = _rand_tensor(rng, S3, S2)
    t = compose_seq(t1, t2)
    # The validating constructor refuses a row sum above one.
    assert Transformation(t.in_shape, t.out_shape, t.coeffs) == t


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_channels_closed_under_both_compositions(seed):
    rng = random.Random(seed)
    c1 = _rand_tensor(rng, S2, S3, channel=True)
    c2 = _rand_tensor(rng, S3, S2, channel=True)
    assert compose_seq(c1, c2).is_channel()
    assert compose_par(c1, c2).is_channel()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sequencing_is_associative(seed):
    rng = random.Random(seed)
    t1 = _rand_tensor(rng, S2, S3)
    t2 = _rand_tensor(rng, S3, S3)
    t3 = _rand_tensor(rng, S3, S2)
    assert compose_seq(compose_seq(t1, t2), t3) == compose_seq(t1, compose_seq(t2, t3))


# -- closed forms against their categorical oracles ----------------------------


def _swap_sandwich(t1, t2):
    """``t1 (x) t2`` as ``(t1 (x) id)`` after ``swap . (t2 (x) id) . swap``."""
    right_first = compose_seq(
        compose_seq(swap(t1.in_shape, t2.in_shape), _explicit_lift(t2, t1.in_shape)),
        swap(t2.out_shape, t1.in_shape),
    )
    return compose_seq(right_first, _explicit_lift(t1, t2.out_shape))


def _rand_shape(rng, max_factors=2, min_factors=1):
    return SystemShape(tuple(rng.choice((2, 3))
                             for _ in range(rng.randint(min_factors, max_factors))))


def _check_compose_par_against_sandwich(rng, c, d):
    a, b, anc = (_rand_shape(rng) for _ in range(3))
    t1 = _rand_tensor(rng, a, b, channel=rng.random() < 0.5)
    t2 = _rand_tensor(rng, c, d, channel=rng.random() < 0.5)
    assert compose_par(t1, t2) == _swap_sandwich(t1, t2)
    lift = _explicit_lift(t1, anc)
    assert par_with_identity(t1, anc) == lift
    # the oracle skips validation; its result must pass it
    assert Transformation(lift.in_shape, lift.out_shape, lift.coeffs) == lift


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_compose_par_matches_swap_sandwich(seed):
    # t2's shapes carry up to three factors: only for two or more are the
    # pair offsets that compose_par inlines not the identity.
    rng = random.Random(seed)
    c, d = _rand_shape(rng, max_factors=3), _rand_shape(rng, max_factors=3)
    _check_compose_par_against_sandwich(rng, c, d)


@pytest.mark.parametrize("seed", range(16))
def test_compose_par_matches_swap_sandwich_on_composite_right_factors(seed):
    rng = random.Random(seed)
    c, d = (_rand_shape(rng, max_factors=3, min_factors=2) for _ in range(2))
    _check_compose_par_against_sandwich(rng, c, d)


# -- kernel results built without re-validation --------------------------------


def _rand_substate(rng, shape):
    return State(shape, tuple(w * Fraction(rng.randint(0, 4), 4)
                              for w in _dist(rng, shape.global_dim)))


def _rand_effect(rng, shape):
    return bct.Effect(shape, tuple(Fraction(rng.randint(0, 4), 4)
                                   for _ in range(shape.global_dim)))


def _rand_map(rng, in_shape, out_shape):
    return _rand_tensor(rng, in_shape, out_shape, channel=rng.random() < 0.5)


def _rand_label(rng, shape):
    return rng.choice(list(all_labels(shape)))


TRUSTED_PATHS = {
    "compose_seq": lambda rng, a, b, c: compose_seq(_rand_map(rng, a, b), _rand_map(rng, b, c)),
    "compose_par": lambda rng, a, b, c: compose_par(_rand_map(rng, a, b), _rand_map(rng, c, a)),
    "par_with_identity": lambda rng, a, b, c: par_with_identity(_rand_map(rng, a, b), c),
    "swap": lambda rng, a, b, c: swap(a, b),
    "identity": lambda rng, a, b, c: identity(a),
    "zero": lambda rng, a, b, c: zero(a, b),
    "reversible": lambda rng, a, b, c: reversible(
        a, ReversibleSpec(tuple(rng.sample(range(1, a.global_dim + 1), a.global_dim)),
                          tuple(rng.randint(0, 1) for _ in range(a.global_dim)))),
    "fuse_map": lambda rng, a, b, c: fuse_map(a, b),
    "unfuse_map": lambda rng, a, b, c: unfuse_map(a, b),
    "boxed_effect_left": lambda rng, a, b, c: boxed_effect_left(_rand_effect(rng, a), b),
    "boxed_state_left": lambda rng, a, b, c: boxed_state_left(_rand_substate(rng, a), b),
    "apply": lambda rng, a, b, c: apply(_rand_map(rng, a, b), _rand_substate(rng, a)),
    "pull": lambda rng, a, b, c: pull(_rand_effect(rng, b), _rand_map(rng, a, b)),
    "par_states": lambda rng, a, b, c: par_states(_rand_substate(rng, a), _rand_substate(rng, b)),
    "par_effects": lambda rng, a, b, c: par_effects(_rand_effect(rng, a), _rand_effect(rng, b)),
    "pure_state": lambda rng, a, b, c: pure_state(a, _rand_label(rng, a)),
    "pure_effect": lambda rng, a, b, c: pure_effect(a, _rand_label(rng, a)),
    "deterministic_effect": lambda rng, a, b, c: deterministic_effect(a),
    "uniform_state": lambda rng, a, b, c: uniform_state(a),
}


@pytest.mark.parametrize("path", sorted(TRUSTED_PATHS))
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_trusted_results_equal_their_validated_rebuild(path, seed):
    rng = random.Random(seed)
    a, b, c = (_rand_shape(rng) for _ in range(3))
    built = TRUSTED_PATHS[path](rng, a, b, c)
    if isinstance(built, Transformation):
        rows = {}
        for (src, _, _), w in built.coeffs.items():
            rows[src] = rows.get(src, 0) + w
        n_in = built.in_shape.global_dim
        assert built.is_channel() == all(rows.get(q, 0) == 1 for q in range(1, n_in + 1))
        rebuilt = Transformation(built.in_shape, built.out_shape, built.coeffs)
    else:
        assert type(built.weights) is tuple
        rebuilt = type(built)(built.shape, built.weights)
    assert rebuilt == built


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pull_is_adjoint_to_apply(seed):
    rng = random.Random(seed)
    a, b = _rand_shape(rng), _rand_shape(rng)
    t, rho, e = _rand_map(rng, a, b), _rand_substate(rng, a), _rand_effect(rng, b)
    assert pair(pull(e, t), rho) == pair(e, apply(t, rho))
