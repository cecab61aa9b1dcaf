"""The seeded draws of ``scalars`` against ``random.Random.randint``, and the
generators of ``verify`` and ``lct`` against their randint-based oracles."""

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from bctk import bct, lct, verify
from bctk.scalars import cut_counts, randint, randints
from bctk.verify import RunConfig

import kernel_helpers as kh


def _twins(s):
    return random.Random(s), random.Random(s)


def _ranges():
    """``(a, b)`` for every bit width 1..65 of ``b - a + 1``: the smallest,
    the largest and a middle count of that width, at three offsets."""
    for k in range(1, 66):
        for n in sorted({1 << (k - 1), (1 << k) - 1, (3 << k) // 4}):
            for a in (0, 2, -(1 << k)):
                yield a, a + n - 1


def test_randint_is_the_stdlib_randint_at_every_width():
    ranges = [(0, 0), (0, 1), *_ranges()]
    for s in range(20):
        mine, ref = _twins(s)
        for a, b in ranges:
            assert randint(mine, a, b) == ref.randint(a, b), (s, a, b)
        assert mine.getstate() == ref.getstate()


def test_randints_is_repeated_randint_at_every_width():
    for s in range(5):
        mine, ref = _twins(s)
        for a, b in [(0, 0), (0, 1), *_ranges()]:
            assert randints(mine, a, b, 7) == [ref.randint(a, b) for _ in range(7)]
        assert randints(mine, 3, 9, 0) == []
        assert mine.getstate() == ref.getstate()


class _Recording(random.Random):
    """Records the width of every ``getrandbits`` call."""

    def __init__(self, s):
        self.widths = []
        super().__init__(s)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_randint_uses_up_a_draw_on_a_single_value():
    for s in range(10):
        mine, ref = _Recording(s), _Recording(s)
        assert randint(mine, 0, 0) == ref.randint(0, 0) == 0
        assert randints(mine, 5, 5, 3) == [ref.randint(5, 5) for _ in range(3)] == [5] * 3
        assert mine.widths == ref.widths and set(mine.widths) == {1}
        assert len(mine.widths) >= 4


@pytest.mark.parametrize("draw", [lambda rng: randint(rng, 3, 2),
                                  lambda rng: randints(rng, 0, -1, 1)])
def test_an_empty_range_raises(draw):
    with pytest.raises(ValueError, match="empty range"):
        draw(random.Random(0))


@seed(20261119)
@given(st.integers(0, 2**32 - 1), st.integers(-2**70, 2**70), st.integers(0, 2**70),
       st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_draws_match_the_stdlib_on_any_range(s, a, span, count):
    mine, ref = _twins(s)
    assert randint(mine, a, a + span) == ref.randint(a, a + span)
    assert randints(mine, a, a + span, count) == [ref.randint(a, a + span)
                                                  for _ in range(count)]
    cuts = sorted(ref.randint(0, span) for _ in range(count))
    assert cut_counts(mine, count + 1, span) == [
        b - a for a, b in zip([0] + cuts, cuts + [span])]
    assert mine.getstate() == ref.getstate()


def _generators(rng):
    """Every generator of ``verify`` and ``lct``, each called as its oracle is."""
    inst = lct.make_instance()
    a = verify.rand_shape(rng, 4)
    b = verify.rand_shape(rng, 4, max_ontic=16)
    return [
        a, b, verify.rand_shape(rng, 3, max_factors=1),
        verify.rand_state(rng, a),
        verify.rand_effect(rng, b),
        verify.rand_tensor(rng, a, b, channel=True),
        verify.rand_tensor(rng, b, a),
        verify.rand_instrument(rng, a, b),
        verify.rand_distribution(rng, 5),
        verify.random_circuit_source(rng, max_dim=4),
        lct.random_candidate(rng, inst),
    ]


def _oracles(rng):
    inst = lct.make_instance()
    a = kh.rand_shape_oracle(rng, 4)
    b = kh.rand_shape_oracle(rng, 4, max_ontic=16)
    return [
        a, b, kh.rand_shape_oracle(rng, 3, max_factors=1),
        kh.rand_state_oracle(rng, a),
        kh.rand_effect_oracle(rng, b),
        kh.rand_tensor_oracle(rng, a, b, channel=True),
        kh.rand_tensor_oracle(rng, b, a),
        kh.rand_instrument_oracle(rng, a, b),
        kh.rand_distribution_oracle(rng, 5),
        kh.random_circuit_source_oracle(rng, max_dim=4),
        kh.random_candidate_oracle(rng, inst),
    ]


def test_generators_draw_what_their_randint_oracles_draw():
    for s in range(200):
        mine, ref = _twins(verify.derive_seed(s, "draws", 0))
        assert _generators(mine) == _oracles(ref), s
        assert mine.getstate() == ref.getstate(), s


def test_rand_shape_returns_the_interned_shape_the_validating_path_returns():
    for s in range(1000):
        max_dim = 2 + s % 3
        mine, ref = _twins(verify.derive_seed(s, "shapes", 0))
        # The oracle returns SystemShape(tuple(dims)) of the same draws.
        assert verify.rand_shape(mine, max_dim) is kh.rand_shape_oracle(ref, max_dim), s
        assert mine.getstate() == ref.getstate(), s


def test_circuit_corpus_and_candidates_match_their_oracles_alone():
    # Each on a fresh generator, so a draw that one of them leaves over is not
    # hidden by the draws of the generators called after it.
    for s in range(200):
        mine, ref = _twins(s)
        assert verify.random_circuit_source(mine, 4) == kh.random_circuit_source_oracle(ref, 4)
        assert mine.getstate() == ref.getstate()
        mine, ref = _twins(s)
        inst = lct.make_instance()
        assert lct.random_candidate(mine, inst) == kh.random_candidate_oracle(ref, inst)
        assert mine.getstate() == ref.getstate()


def _refuse(*args, **kwargs):
    raise AssertionError("a hot path drew through random.Random.randint/randrange")


def test_hot_paths_never_call_randint_or_randrange(monkeypatch):
    monkeypatch.setattr(random.Random, "randint", _refuse)
    monkeypatch.setattr(random.Random, "randrange", _refuse)
    reports = verify.run_suites("all", RunConfig(trials=5))
    assert len(reports) == len(verify.SUITE_NAMES)
    assert all(not r.failures for r in reports)
    inst = lct.make_instance()
    for i in range(50):
        lct.random_candidate(random.Random(verify.derive_seed(0, "lct", i)), inst)


def _rebuilt(value):
    """``value`` built again through its public constructor."""
    if isinstance(value, bct.Transformation):
        return bct.Transformation(value.in_shape, value.out_shape, value.coeffs)
    if isinstance(value, (bct.State, bct.Effect)):
        return type(value)(value.shape, value.weights)
    if isinstance(value, bct.Instrument):
        return bct.Instrument(tuple(map(_rebuilt, value.members)), value.outcomes)
    return value


def test_generators_build_valid_lowest_terms_objects_without_the_checks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator built through a validating constructor")

    monkeypatch.setattr(bct.Transformation, "__init__", refuse)
    monkeypatch.setattr(bct._Vector, "__init__", refuse)
    drawn = [_generators(random.Random(verify.derive_seed(s, "trusted", 0)))
             for s in range(50)]
    monkeypatch.undo()
    kinds = set()
    for values in drawn:
        for value in values:
            kinds.add(type(value).__name__)
            assert _rebuilt(value) == value
    assert {"Transformation", "State", "Effect", "Instrument"} <= kinds
