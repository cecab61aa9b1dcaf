"""The integer lattice against a ``Fraction`` oracle, and its canonical form.

Every kernel object stores integer numerators over one denominator in lowest
terms.  The oracle below is the kernel as it was before that: the same
operations written on ``Fraction``/``int`` values, one per weight.  Random
objects draw their weights with denominators from 1 to 97, so coprime
denominators meet in every product and sum.
"""

import math
import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from bctk import bct, classical, ontic
from bctk.bct import Effect, State, Transformation
from bctk.classical import ClassicalMap
from bctk.systems import SystemShape, all_labels, pair_label

from kernel_helpers import column_sums, transpose

SHAPES = [SystemShape(e) for e in ((2,), (3,), (4,), (2, 2), (2, 3), (3, 2))]


def _den(v) -> int:
    return Fraction(v).denominator


def _assert_lowest(obj, values) -> None:
    """``den`` is the lcm of the reduced values' denominators: no common
    factor is left between it and the numerators, and an empty object has 1."""
    assert obj.den >= 1
    assert obj.den == math.lcm(*(_den(v) for v in values))
    numerators = obj.nums.values() if isinstance(obj.nums, Mapping) else obj.nums
    assert math.gcd(obj.den, *numerators) == 1
    assert all(type(n) is int for n in numerators)


def _check_transformation(t: Transformation, coeffs: dict) -> None:
    assert t.coeffs == coeffs
    assert all(type(v) is int or v.denominator > 1 for v in t.coeffs.values())
    _assert_lowest(t, coeffs.values())


def _check_vector(v, weights) -> None:
    assert v.weights == tuple(weights)
    _assert_lowest(v, weights)


def _check_map(m: ClassicalMap, cells: dict) -> None:
    assert m.cells == cells
    _assert_lowest(m, cells.values())


# ---------------------------------------------------------------------------
# random exact values on mixed denominators
# ---------------------------------------------------------------------------


def _weight(rng: random.Random, budget) -> Fraction:
    """A random weight in ``[0, budget]`` with a denominator in 1..97."""
    d = rng.randint(1, 97)
    return Fraction(rng.randint(0, math.floor(budget * d)), d)


def _rand_coeffs(rng, in_shape, out_shape, channel=False) -> dict:
    coeffs = {}
    for src in range(1, in_shape.global_dim + 1):
        budget = Fraction(1)
        for _ in range(rng.randint(0, 3)):
            key = (src, rng.randint(1, out_shape.global_dim), rng.randint(0, 1))
            w = _weight(rng, budget)
            if w and key not in coeffs:
                coeffs[key] = w
                budget -= w
        if channel and budget:
            key = (src, rng.randint(1, out_shape.global_dim), rng.randint(0, 1))
            coeffs[key] = coeffs.get(key, 0) + budget
    return coeffs


def _rand_state_weights(rng, shape) -> tuple:
    budget, out = Fraction(1), []
    for _ in range(shape.global_dim):
        w = _weight(rng, budget) if rng.random() < 0.7 else Fraction(0)
        out.append(w)
        budget -= w
    return tuple(out)


def _rand_effect_weights(rng, shape) -> tuple:
    return tuple(_weight(rng, 1) if rng.random() < 0.7 else Fraction(0)
                 for _ in range(shape.global_dim))


def _rand_cells(rng, out_dim, in_dim) -> dict:
    cells = {}
    for r in range(out_dim):
        for c in range(in_dim):
            if rng.random() < 0.4:
                d = rng.randint(1, 97)
                v = Fraction(rng.randint(-d, d), d)
                if v:
                    cells[r, c] = v
    return cells


# ---------------------------------------------------------------------------
# the Fraction oracle
# ---------------------------------------------------------------------------


def o_compose_seq(c1: dict, c2: dict) -> dict:
    by_src: dict = {}
    for (src, dst, flip), w in c2.items():
        by_src.setdefault(src, []).append((dst, flip, w))
    out: dict = {}
    for (src, mid, flip1), w1 in c1.items():
        for dst, flip2, w2 in by_src.get(mid, ()):
            key = (src, dst, flip1 ^ flip2)
            out[key] = out.get(key, 0) + w1 * w2
    return out


def o_compose_par(t1, c1: dict, t2, c2: dict) -> dict:
    in1, in2, out1, out2 = t1.in_shape, t2.in_shape, t1.out_shape, t2.out_shape
    out: dict = {}
    for (s1, d1, f1), w1 in c1.items():
        for (s2, d2, f2), w2 in c2.items():
            for s in (0, 1):
                out[(pair_label(in1, in2, s1, s2, s),
                     pair_label(out1, out2, d1, d2, s ^ f1 ^ f2), f1)] = w1 * w2
    return out


def o_apply(coeffs: dict, out_dim: int, weights: tuple) -> tuple:
    out = [0] * out_dim
    for (src, dst, _), w in coeffs.items():
        out[dst - 1] += w * weights[src - 1]
    return tuple(out)


def o_pull(coeffs: dict, in_dim: int, weights: tuple) -> tuple:
    out = [0] * in_dim
    for (src, dst, _), w in coeffs.items():
        out[src - 1] += w * weights[dst - 1]
    return tuple(out)


def o_par(sa, wa: tuple, sb, wb: tuple, factor) -> tuple:
    if sa.is_trivial:
        return tuple(wa[0] * w for w in wb)
    if sb.is_trivial:
        return tuple(wb[0] * w for w in wa)
    out = [0] * sa.compose(sb).global_dim
    for q1, w1 in enumerate(wa, 1):
        for q2, w2 in enumerate(wb, 1):
            for s in (0, 1):
                out[pair_label(sa, sb, q1, q2, s) - 1] += factor * w1 * w2
    return tuple(out)


def o_boxed_effect_left(shape, weights: tuple, right) -> dict:
    return {(pair_label(shape, right, q1, q2, s), q2, s): w
            for q1, w in enumerate(weights, 1) if w
            for q2 in range(1, right.global_dim + 1) for s in (0, 1)}


def o_boxed_state_left(shape, weights: tuple, right) -> dict:
    return {(q2, pair_label(shape, right, q1, q2, s), s): Fraction(1, 2) * w
            for q1, w in enumerate(weights, 1) if w
            for q2 in range(1, right.global_dim + 1) for s in (0, 1)}


def o_ontic_map(t, coeffs: dict) -> dict:
    rows, cols = ontic.fused_index(t.out_shape), ontic.fused_index(t.in_shape)
    return {(rows[2 * (dst - 1) + (b ^ flip)], cols[2 * (src - 1) + b]): w
            for (src, dst, flip), w in coeffs.items() for b in (0, 1)}


def o_vector_image(shape, weights: tuple, factor, column: bool) -> dict:
    if shape.is_trivial:
        return {(0, 0): weights[0]} if weights[0] else {}
    index = ontic.fused_index(shape)
    out = [0] * shape.ontic_dim
    for q, w in enumerate(weights):
        out[index[2 * q]] += factor * w
        out[index[2 * q + 1]] += factor * w
    return {((i, 0) if column else (0, i)): v for i, v in enumerate(out) if v}


def o_map_seq(f: dict, g: dict) -> dict:
    out: dict = {}
    for (k, j), fv in f.items():
        for (r, k2), gv in g.items():
            if k == k2:
                out[r, j] = out.get((r, j), 0) + gv * fv
    return {rc: v for rc, v in out.items() if v}


def o_map_par(f: dict, g: dict, g_out: int, g_in: int) -> dict:
    return {(r1 * g_out + r2, c1 * g_in + c2): v1 * v2
            for (r1, c1), v1 in f.items() for (r2, c2), v2 in g.items()}


def o_map_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for rc, v in b.items():
        out[rc] = out.get(rc, 0) + v
    return {rc: v for rc, v in out.items() if v}


def o_column_sums(cells: dict, in_dim: int) -> list:
    sums = [0] * in_dim
    for (_, c), v in cells.items():
        sums[c] += v
    return sums


# ---------------------------------------------------------------------------
# differential properties
# ---------------------------------------------------------------------------


@seed(20261101)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bct_kernel_matches_the_fraction_oracle(s):
    rng = random.Random(s)
    a, b, c, d = (rng.choice(SHAPES) for _ in range(4))
    c1, c2 = _rand_coeffs(rng, a, b, rng.random() < 0.5), _rand_coeffs(rng, b, c)
    c3 = _rand_coeffs(rng, c, d)
    t1, t2, t3 = Transformation(a, b, c1), Transformation(b, c, c2), Transformation(c, d, c3)
    _check_transformation(t1, c1)

    _check_transformation(bct.compose_seq(t1, t2), o_compose_seq(c1, c2))
    _check_transformation(bct.compose_par(t1, t3), o_compose_par(t1, c1, t3, c3))
    ident = bct.identity(c)
    _check_transformation(bct.par_with_identity(t1, c),
                          o_compose_par(t1, c1, ident, ident.coeffs))
    sw = bct.swap(a, c)
    _check_transformation(sw, sw.coeffs)

    p = _weight(rng, 1)
    _check_transformation(t1.scale(p), {k: p * w for k, w in c1.items() if p * w})
    half = Transformation(a, b, {k: w / 2 for k, w in c1.items()})
    other = Transformation(a, b, {k: w / 2 for k, w in _rand_coeffs(rng, a, b).items()})
    merged = dict(half.coeffs)
    for k, w in other.coeffs.items():
        merged[k] = merged.get(k, 0) + w
    _check_transformation(half.add(other), merged)
    assert t1.is_channel() == all(
        sum((w for (src, _, _), w in c1.items() if src == q), 0) == 1
        for q in range(1, a.global_dim + 1))

    rho_w, e_w = _rand_state_weights(rng, a), _rand_effect_weights(rng, b)
    rho, e = State(a, rho_w), Effect(b, e_w)
    _check_vector(rho, rho_w)
    _check_vector(e, e_w)
    moved = bct.apply(t1, rho)
    _check_vector(moved, o_apply(c1, b.global_dim, rho_w))
    _check_vector(bct.pull(e, t1), o_pull(c1, a.global_dim, e_w))
    assert bct.pair(e, moved) == sum(x * y for x, y in zip(e_w, moved.weights))
    assert rho.scale(p).weights == tuple(p * w for w in rho_w)
    _assert_lowest(rho.scale(p), rho.scale(p).weights)

    sigma_w, f_w = _rand_state_weights(rng, c), _rand_effect_weights(rng, c)
    _check_vector(bct.par_states(rho, State(c, sigma_w)),
                  o_par(a, rho_w, c, sigma_w, Fraction(1, 2)))
    _check_vector(bct.par_effects(Effect(b, e_w), Effect(c, f_w)), o_par(b, e_w, c, f_w, 1))
    scalar_w = (_weight(rng, 1),)
    trivial = SystemShape(())
    _check_vector(bct.par_states(State(trivial, scalar_w), rho),
                  o_par(trivial, scalar_w, a, rho_w, Fraction(1, 2)))
    _check_transformation(bct.boxed_effect_left(e, c), o_boxed_effect_left(b, e_w, c))
    _check_transformation(bct.boxed_state_left(rho, c), o_boxed_state_left(a, rho_w, c))

    _check_map(ontic.ontic_map(t1), o_ontic_map(t1, c1))
    _check_map(ontic.ontic_state(rho), o_vector_image(a, rho_w, Fraction(1, 2), True))
    _check_map(ontic.ontic_effect(e), o_vector_image(b, e_w, 1, False))
    _check_map(ontic.ontic_state(State(trivial, scalar_w)),
               o_vector_image(trivial, scalar_w, Fraction(1, 2), True))


@seed(20261102)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_classical_kernel_matches_the_fraction_oracle(s):
    rng = random.Random(s)
    n, k, m, p, q = (rng.randint(1, 5) for _ in range(5))
    fc, gc, hc = _rand_cells(rng, k, n), _rand_cells(rng, m, k), _rand_cells(rng, p, q)
    f = ClassicalMap._from_cells(k, n, fc)
    g = ClassicalMap._from_cells(m, k, gc)
    h = ClassicalMap._from_cells(p, q, hc)
    _check_map(f, fc)
    _check_map(classical.compose_seq(f, g), o_map_seq(fc, gc))
    _check_map(classical.compose_par(f, h), o_map_par(fc, hc, p, q))
    other = _rand_cells(rng, k, n)
    _check_map(f.add(ClassicalMap._from_cells(k, n, other)), o_map_add(fc, other))
    _check_map(f.add(f.scale(-1)), {})
    factor = Fraction(rng.randint(-97, 97), rng.randint(1, 97))
    _check_map(f.scale(factor), {rc: v * factor for rc, v in fc.items() if v * factor})
    _check_map(transpose(f), {(c, r): v for (r, c), v in fc.items()})
    theirs = ClassicalMap._from_cells(k, n, other)
    assert list(f.differences(theirs)) == [
        (r, c, fc.get((r, c), 0), other.get((r, c), 0))
        for r, c in sorted(fc.keys() | other.keys())
        if fc.get((r, c), 0) != other.get((r, c), 0)]

    sums = o_column_sums(fc, n)
    assert column_sums(f) == sums
    nonneg = all(v >= 0 for v in fc.values())
    assert f.is_nonnegative() == nonneg
    assert f.is_substochastic() == (nonneg and all(x <= 1 for x in sums))
    assert f.is_stochastic() == (nonneg and all(x == 1 for x in sums))
    square = ClassicalMap._from_cells(k, k, _rand_cells(rng, k, k))
    assert classical.choi_close(square) == sum(
        (v for (r, c), v in square.cells.items() if r == c), 0)
    assert ClassicalMap.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_equal_values_give_equal_objects_and_hashes():
    s2 = SystemShape((2,))
    states = [State(s2, (Fraction(2, 4), Fraction(1, 2))),
              State(s2, (Fraction(1, 2), Fraction(1, 2))),
              State(s2, (2, 2), den=4)]
    assert len(set(states)) == 1 and states[0] == states[1] == states[2]
    assert states[0].nums == (1, 1) and states[0].den == 2

    ones = [State(s2, (1, 0)), State(s2, (Fraction(1), 0)), State(s2, (3, 0), den=3)]
    assert len(set(ones)) == 1 and ones[0].den == 1
    assert State(s2, (1, 0)) != Effect(s2, (1, 0))

    maps = [bct.atomic(s2, s2, 1, 2, 0, 1), bct.atomic(s2, s2, 1, 2, 0, Fraction(1)),
            Transformation(s2, s2, {(1, 2, 0): 5}, den=5)]
    assert len(set(maps)) == 1 and maps[0].den == 1
    assert len({ClassicalMap([[1, Fraction(2, 4)]]),
                ClassicalMap([[Fraction(1), Fraction(1, 2)]])}) == 1


def test_zero_objects_have_denominator_one():
    s2 = SystemShape((2,))
    assert State(s2, (0, 0), den=7).den == 1
    assert bct.atomic(s2, s2, 1, 1, 0, Fraction(1, 3)).scale(0).den == 1
    assert ClassicalMap([[Fraction(1, 3), 0]]).scale(0).den == 1
    m = ClassicalMap([[Fraction(1, 3), 0]])
    assert m.add(m.scale(-1)) == ClassicalMap.zero(1, 2)
    assert m.add(m.scale(-1)).den == 1


def test_scale_by_zero_is_the_zero_vector_over_one():
    s3 = SystemShape((3,))
    for v in (State(s3, (1, 2, 0), den=5), Effect(s3, (1, 4, 3), den=7)):
        assert v.den > 1
        zero = type(v)(s3, [0] * 3)
        for p in (0, Fraction(0)):
            scaled = v.scale(p)
            assert type(scaled) is type(v) and scaled.den == 1
            assert scaled.nums == (0, 0, 0)
            assert scaled == zero and hash(scaled) == hash(zero)


def test_coprime_chain_grows_only_with_its_true_value():
    # Fifty channels on one elementary system, step k with denominator p_k in
    # a cycle of coprime values; every step is reduced, so the denominator is
    # always the lcm of the reduced weights' denominators.
    s3 = SystemShape((3,))
    dens = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
            73, 79, 83, 89, 97]
    rng = random.Random(50)
    acc = bct.identity(s3)
    for step in range(50):
        p = dens[step % len(dens)]
        coeffs = {}
        for src in (1, 2, 3):
            a = rng.randint(1, p - 1)
            coeffs[(src, rng.randint(1, 3), 0)] = Fraction(a, p)
            coeffs[(src, rng.randint(1, 3), 1)] = Fraction(p - a, p)
        acc = bct.compose_seq(acc, Transformation(s3, s3, coeffs))
        _assert_lowest(acc, acc.coeffs.values())
        assert acc.is_channel()
    # A reversible step and its inverse leave the denominator where it was.
    spec = bct.ReversibleSpec((2, 3, 1), (1, 0, 1))
    back = bct.compose_seq(bct.compose_seq(acc, bct.reversible(s3, spec)),
                           bct.reversible(s3, spec.inverse()))
    assert back == acc and back.den == acc.den


def test_constructors_check_in_integers_with_unchanged_messages():
    s2 = SystemShape((2,))
    with pytest.raises(ValueError, match=r"sum to 3/2 > 1"):
        Transformation(s2, s2, {(1, 1, 0): Fraction(3, 4), (1, 2, 0): Fraction(3, 4)})
    with pytest.raises(ValueError, match=r"sum to 2 > 1"):
        Transformation(s2, s2, {(2, 1, 0): 3, (2, 2, 0): 1}, den=2)
    with pytest.raises(ValueError, match="nonnegative"):
        Transformation(s2, s2, {(1, 1, 0): Fraction(-1, 3)})
    with pytest.raises(ValueError, match="at most 1"):
        State(s2, (2, 2), den=3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Effect(s2, (4, 0), den=3)
    with pytest.raises(ValueError, match="positive integer"):
        State(s2, (0, 0), den=0)
    with pytest.raises(TypeError, match="exact number"):
        State(s2, (0.5, 0))


# ---------------------------------------------------------------------------
# cached per-shape constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_cached_identity_is_its_construction(shape):
    cached = bct.identity(shape)
    assert bct.identity(shape) is cached
    assert cached == bct.identity.__wrapped__(shape)
    _check_transformation(cached, {(q, q, 0): 1 for q in range(1, shape.global_dim + 1)})


@pytest.mark.parametrize("left, right", list(product(SHAPES, repeat=2)), ids=str)
def test_cached_swap_is_its_construction(left, right):
    cached = bct.swap(left, right)
    assert bct.swap(left, right) is cached
    assert cached == bct.swap.__wrapped__(left, right)
    _check_transformation(cached, {
        (pair_label(left, right, q1, q2, s), pair_label(right, left, q2, q1, s), s): 1
        for q1 in range(1, left.global_dim + 1)
        for q2 in range(1, right.global_dim + 1)
        for s in (0, 1)})


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_cached_pure_vectors_equal_fresh_ones(shape):
    for q, lab in enumerate(all_labels(shape), start=1):
        weights = tuple(int(k == q) for k in range(1, shape.global_dim + 1))
        forms = [lab, (list(lab.indices), list(lab.sections))]
        if shape.num_factors == 1:
            forms.append(lab.indices[0])
        for cls, pure in ((State, bct.pure_state), (Effect, bct.pure_effect)):
            cached = pure(shape, lab)
            assert type(cached) is cls
            _check_vector(cached, weights)
            assert cached == cls(shape, weights)
            # Every form of one label is one cache entry.
            assert all(pure(shape, form) is cached for form in forms)


def test_cached_values_are_read_only():
    s2, s3 = SystemShape((2,)), SystemShape((3,))
    with pytest.raises(TypeError):
        bct.identity(s2).nums[(1, 2, 0)] = 1
    with pytest.raises(TypeError):
        del bct.swap(s2, s3).nums[min(bct.swap(s2, s3).nums)]
    with pytest.raises(AttributeError):
        bct.pure_state(s2, 1).nums = (0, 1)
    assert bct.identity(s2).coeffs == {(1, 1, 0): 1, (2, 2, 0): 1}
    assert bct.pure_state(s2, 1).weights == (1, 0)


@given(st.integers(0, 2**32 - 1), st.fractions(0, 1, max_denominator=97))
@settings(max_examples=60, deadline=None)
def test_closed_form_scale_equals_the_validating_path(case, p):
    rng = random.Random(case)
    shape = rng.choice(SHAPES)
    for v in (State(shape, _rand_state_weights(rng, shape)),
              Effect(shape, _rand_effect_weights(rng, shape)),
              bct.pure_state(shape, rng.choice(list(all_labels(shape))))):
        scaled = v.scale(p)
        assert scaled == type(v)(shape, [p * w for w in v.weights])
        _check_vector(scaled, [p * w for w in v.weights])
    assert v.scale(1) is v and v.scale(Fraction(1)) is v


def test_scale_outside_the_unit_interval_still_validates():
    s2 = SystemShape((2,))
    half = State(s2, (Fraction(1, 4), Fraction(1, 4)))
    assert half.scale(2) == State(s2, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="at most 1"):
        half.scale(Fraction(5, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        half.scale(-1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bct.pure_effect(s2, 1).scale(2)
    for p in (1.0, 0.5, 0.0):
        with pytest.raises(TypeError, match="exact number"):
            half.scale(p)
