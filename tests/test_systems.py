"""Shapes, the dimension rule, and the label codec."""

import ast
import copy
import pickle
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import bctk
from bctk import bct, ontic, systems
from bctk.bct import Transformation
from bctk.ontic import ontic_map
from bctk.systems import (
    PureLabel,
    RightNestedLabel,
    SystemShape,
    TRIVIAL,
    all_labels,
    bct_dim,
    flatten_label,
    flatten_right_nested,
    label_text,
    pair_label,
    pair_offsets,
    pair_points,
    q_decode,
    q_encode,
    reassoc_inverse,
    reassoc_label,
    split_label,
    unflatten_label,
)

from kernel_helpers import DataclassPureLabel, label_text_oracle, pair_label_fold


def test_dimension_rule_examples():
    assert bct_dim(SystemShape((2, 3))) == 12
    assert bct_dim(SystemShape((5,))) == 5
    assert bct_dim(SystemShape((2, 2, 2))) == 32
    assert bct_dim(TRIVIAL) == 1


def test_dimension_rule_case_split():
    # D(n, m) = 2nm for n, m >= 2 and D(n, 1) = n, for all n, m <= 6
    for n in range(1, 7):
        for m in range(1, 7):
            shape = SystemShape((n, m))
            if n == 1 and m == 1:
                expected = 1
            elif n == 1:
                expected = m
            elif m == 1:
                expected = n
            else:
                expected = 2 * n * m
            assert bct_dim(shape) == expected


def test_trivial_factors_are_stripped():
    assert SystemShape((1, 3, 1)).elems == (3,)
    assert SystemShape((1, 1)).is_trivial


def test_shape_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        SystemShape((0,))
    with pytest.raises(ValueError):
        SystemShape((-2,))


def test_shapes_are_interned_by_their_stripped_dimensions():
    assert SystemShape((1, 3, 1)) is SystemShape((3,))
    assert SystemShape([2, 3]) is SystemShape(elems=(2, 3)) is SystemShape((2, 1, 3))
    assert SystemShape(()) is SystemShape((1, 1)) is SystemShape() is TRIVIAL
    assert SystemShape((2,)).compose(SystemShape((3, 4))) is SystemShape((2, 3, 4))
    assert TRIVIAL.compose(SystemShape((2,))) is SystemShape((2,))
    assert SystemShape((2, 3)).fused() is SystemShape((12,))
    assert TRIVIAL.fused() is TRIVIAL
    assert SystemShape((2, 3)) is not SystemShape((3, 2))
    assert SystemShape((6,)) is not SystemShape((2, 3))


# ``2.0`` and ``Fraction(2)`` hash and compare like ``2``: a lookup by the raw
# tuple would return the interned ``(2,)`` without the type check.
@pytest.mark.parametrize("bad", [0, -2, 2.0, Fraction(2), "2", None])
def test_bad_dimensions_raise_before_and_after_the_good_shape_is_interned(bad):
    text = f"elementary dimension must be a positive int, got {bad!r}"
    with pytest.raises(ValueError) as error:
        SystemShape((bad,))
    assert str(error.value) == text
    SystemShape((2,))
    for elems in ((bad,), (2, bad), (bad, 2)):
        with pytest.raises(ValueError) as error:
            SystemShape(elems)
        assert str(error.value) == text


def test_shape_is_frozen():
    shape = SystemShape((2, 3))
    with pytest.raises(AttributeError):
        shape.elems = (2,)
    with pytest.raises(AttributeError):
        shape.global_dim = 5
    with pytest.raises(AttributeError):
        del shape.elems
    with pytest.raises(AttributeError):
        shape.extra = 1
    assert shape.elems == (2, 3) and shape.global_dim == 12


def test_pickle_and_copy_return_the_interned_shape():
    for shape in (TRIVIAL, SystemShape((2,)), SystemShape((2, 3, 4))):
        assert pickle.loads(pickle.dumps(shape)) is shape
        assert copy.copy(shape) is shape
        assert copy.deepcopy(shape) is shape
        assert copy.deepcopy([shape, shape]) == [shape, shape]


def test_shape_repr_and_str():
    assert repr(SystemShape((2, 3))) == "SystemShape(elems=(2, 3))"
    assert repr(TRIVIAL) == "SystemShape(elems=())"
    assert str(SystemShape((1, 2, 3))) == "(2,3)"
    assert str(TRIVIAL) == "I"


def test_dimensions_of_every_small_shape():
    for p in (1, 2, 3):
        for elems in product(range(1, 5), repeat=p):
            shape = SystemShape(elems)
            kept = [n for n in elems if n > 1]
            assert shape.global_dim == (2 ** (len(kept) - 1) * prod(kept) if kept else 1)
            assert shape.ontic_dim == prod(2 * n for n in kept)
            assert shape.num_factors == len(kept)


def test_shape_equality_and_hash_are_object_identity():
    # The speed of every shape-keyed cache and shape comparison rests on this.
    assert SystemShape.__eq__ is object.__eq__
    assert SystemShape.__hash__ is object.__hash__


def test_a_rebuilt_shape_hits_the_kernel_caches():
    left, right = SystemShape((2, 3)), SystemShape((3,))
    again_left, again_right = SystemShape(tuple(left.elems)), SystemShape(list(right.elems))
    assert bct.identity(again_left) is bct.identity(left)
    assert bct.swap(again_left, again_right) is bct.swap(left, right)
    assert systems.pair_offsets(again_left) is systems.pair_offsets(left)
    assert ontic.fused_index(again_left) is ontic.fused_index(left)


def test_values_on_separately_built_shapes_compare_and_hash_equal():
    t = bct.atomic(SystemShape((2, 3)), SystemShape((2,)), 4, 2, 1).add(
        bct.atomic(SystemShape((2, 3)), SystemShape((2,)), 5, 1, 0).scale(Fraction(1, 3)))
    back = Transformation.from_json(t.to_json())
    assert back == t and hash(back) == hash(t)
    u = bct.atomic(SystemShape([2, 1, 3]), SystemShape((1, 2)), 4, 2, 1).add(
        bct.atomic(SystemShape((2, 3)), SystemShape((2,)), 5, 1, 0).scale(Fraction(1, 3)))
    assert u == t and hash(u) == hash(t)
    assert ontic_map(u) == ontic_map(t) and hash(ontic_map(u)) == hash(ontic_map(t))


def test_q_encode_printed_examples():
    assert q_encode(2, 2, 2, 1, 0) == 5
    assert q_encode(2, 3, 2, 3, 1) == 12


def test_q_matches_printed_formula_on_square_pairs():
    # the published stride 2*n1 agrees with ours whenever n1 == n2
    for n in range(2, 6):
        for i, j, s in product(range(1, n + 1), range(1, n + 1), (0, 1)):
            assert q_encode(n, n, i, j, s) == 2 * n * (i - 1) + (2 * j + s - 1)


def test_printed_stride_is_not_injective_for_rectangular_pairs():
    # the motivation for the corrected stride: 2*n1*(i-1) + 2j + s - 1 collides
    printed = {}
    collision = False
    for i, j, s in product(range(1, 3), range(1, 4), (0, 1)):
        key = 2 * 2 * (i - 1) + 2 * j + s - 1
        if key in printed:
            collision = True
        printed[key] = (i, j, s)
    assert collision


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)])
def test_q_codec_bijective(n1, n2):
    seen = set()
    for i, j, s in product(range(1, n1 + 1), range(1, n2 + 1), (0, 1)):
        q = q_encode(n1, n2, i, j, s)
        assert q_decode(n1, n2, q) == (i, j, s)
        seen.add(q)
    assert seen == set(range(1, 2 * n1 * n2 + 1))


@pytest.mark.parametrize("build, message", [
    (lambda: q_encode(2, 2, 1, 3, 0), "index j=3 out of range [1..2]"),
    (lambda: PureLabel(()), "a pure label needs at least one index"),
])
def test_label_refusals_name_their_cause(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_q_encode_range_errors():
    with pytest.raises(ValueError):
        q_encode(2, 2, 3, 1, 0)
    with pytest.raises(ValueError):
        q_encode(2, 2, 1, 1, 2)
    with pytest.raises(ValueError):
        q_decode(2, 2, 9)


def test_flatten_single_system_is_identity():
    shape = SystemShape((5,))
    for i in range(1, 6):
        assert flatten_label(shape, i) == i


def test_flatten_examples():
    assert flatten_label(SystemShape((2, 2)), PureLabel((1, 2), (1,))) == 4
    # nested fold: Q(Q(1,1,0), 1, 0) with Q(1,1,0) = 1
    assert flatten_label(SystemShape((2, 2, 2)), PureLabel((1, 1, 1), (0, 0))) == 1


def test_flatten_bijective_exhaustively():
    shapes = [
        SystemShape(dims)
        for p in (1, 2, 3, 4)
        for dims in product((2, 3), repeat=p)
    ]
    for shape in shapes:
        seen = set()
        for lab in all_labels(shape):
            q = flatten_label(shape, lab)
            assert unflatten_label(shape, q) == lab
            seen.add(q)
        assert seen == set(range(1, shape.global_dim + 1))


def test_label_validation():
    with pytest.raises(ValueError):
        PureLabel((1, 2), ())  # missing section bit
    with pytest.raises(ValueError):
        PureLabel((1, 2), (2,))  # bad bit
    with pytest.raises(ValueError):
        flatten_label(SystemShape((2, 2)), PureLabel((1, 3), (0,)))
    with pytest.raises(ValueError):
        unflatten_label(SystemShape((2,)), 3)
    with pytest.raises(ValueError):
        unflatten_label(TRIVIAL, 1)


def _label_or_error(cls, indices, sections):
    try:
        return cls(indices, sections)
    except ValueError as exc:
        return str(exc)


_SMALL_TUPLES = st.lists(st.integers(-1, 2), max_size=3).map(tuple)


@seed(20261107)
@given(_SMALL_TUPLES, _SMALL_TUPLES, _SMALL_TUPLES, _SMALL_TUPLES)
@settings(max_examples=400, deadline=None)
def test_pure_label_matches_its_dataclass_form(i1, s1, i2, s2):
    """The named tuple refuses what the dataclass refused, with the same
    text, and otherwise has its ``repr``, ``hash`` and ``==``."""
    new = [_label_or_error(PureLabel, i1, s1), _label_or_error(PureLabel, i2, s2)]
    old = [_label_or_error(DataclassPureLabel, i1, s1),
           _label_or_error(DataclassPureLabel, i2, s2)]
    for a, b in zip(new, old):
        if isinstance(b, str):
            assert a == b
        else:
            assert type(a) is PureLabel
            assert repr(a) == repr(b).replace("DataclassPureLabel", "PureLabel")
            assert hash(a) == hash(b)
            assert (a.indices, a.sections) == (b.indices, b.sections)
    if not any(isinstance(b, str) for b in old):
        assert (new[0] == new[1]) == (old[0] == old[1])


def test_pure_label_is_an_immutable_named_tuple():
    lab = PureLabel((1, 2), (0,))
    assert PureLabel(indices=(1, 2), sections=(0,)) == lab
    assert PureLabel((3,)) == PureLabel((3,), ())
    # a named tuple equals the plain tuple of its fields
    assert lab == ((1, 2), (0,)) and hash(lab) == hash(((1, 2), (0,)))
    for name in ("indices", "sections", "nosuch"):
        with pytest.raises(AttributeError):
            setattr(lab, name, ())
        with pytest.raises(AttributeError):
            delattr(lab, name)
    assert lab == PureLabel((1, 2), (0,))
    assert pickle.loads(pickle.dumps(lab)) == lab and copy.deepcopy(lab) == lab
    assert type(pickle.loads(pickle.dumps(lab))) is PureLabel


def test_label_text_matches_the_uncached_oracle_cold_and_warm():
    label_text.cache_clear()
    shapes = [SystemShape(dims) for p in (1, 2, 3) for dims in product((2, 3), repeat=p)]
    for _ in range(2):
        for shape in shapes:
            for lab in all_labels(shape):
                assert label_text(lab) == label_text_oracle(lab), lab
    assert label_text(PureLabel((1, 2, 3), (0, 1))) == "(((1,2);0,3);1)"


def test_a_plain_tuple_never_reads_a_labels_cached_text():
    lab = PureLabel((1, 2), (1,))
    assert label_text(lab) == "((1,2);1)"
    assert lab == ((1, 2), (1,))
    with pytest.raises(AttributeError, match="indices"):
        label_text(((1, 2), (1,)))


def test_pair_label_on_elementary_factors_is_q():
    left, right = SystemShape((3,)), SystemShape((4,))
    for i, j, s in product(range(1, 4), range(1, 5), (0, 1)):
        assert pair_label(left, right, i, j, s) == q_encode(3, 4, i, j, s)


# Every shape with one to three factors in {2, 3, 4}.
SMALL_SHAPES = [SystemShape(e) for p in (1, 2, 3) for e in product((2, 3, 4), repeat=p)]


def test_pair_label_closed_form_matches_the_label_fold():
    # Every shape pair whose composite has global dimension <= 512: 46,186 points.
    for left, right in product(SMALL_SHAPES, repeat=2):
        if 2 * left.global_dim * right.global_dim > 512:
            continue
        points = list(product(range(1, left.global_dim + 1),
                              range(1, right.global_dim + 1), (0, 1)))
        # the uncached body, so the test leaves pair_label's cache as it was
        assert ([pair_label.__wrapped__(left, right, *p) for p in points]
                == [pair_label_fold(left, right, *p) for p in points]), (left, right)


def test_pair_points_run_in_pair_label_order_on_a_single_right_system():
    for left, right in product(SMALL_SHAPES, repeat=2):
        n, m = left.global_dim, right.global_dim
        if right.num_factors > 1 or 2 * n * m > 512:
            continue
        assert ([pair_label.__wrapped__(left, right, *p) for p in pair_points(n, m)]
                == list(range(1, 2 * n * m + 1))), (left, right)


def test_swap_relabels_each_grouping_by_exchanging_its_factors():
    # (q1 q2)_s -> (q2 q1)_s with section shift s, on multi-factor shapes too
    for left, right in product(SMALL_SHAPES, repeat=2):
        n, m = left.global_dim, right.global_dim
        if 2 * n * m > 512:
            continue
        want = {(pair_label_fold(left, right, q1, q2, s),
                 pair_label_fold(right, left, q2, q1, s), s): 1
                for q1 in range(1, n + 1) for q2 in range(1, m + 1) for s in (0, 1)}
        swapped = bct.swap(left, right)
        assert (dict(swapped.nums), swapped.den) == (want, 1), (left, right)


def _enclosing_functions(tree: ast.AST):
    """Yield ``(qualified name of the enclosing function, node)`` for every
    node, with ``"<module>"`` for module-level code."""
    def walk(node, names):
        for child in ast.iter_child_nodes(node):
            inner = names
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = names + (child.name,)
            yield ".".join(inner) or "<module>", child
            yield from walk(child, inner)
    yield from walk(tree, ())


def _is_pair_points_call(node: ast.AST) -> bool:
    """``product(range(...), range(...), (0, 1))``, however ``product`` is reached."""
    if not (isinstance(node, ast.Call) and len(node.args) == 3):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    *ranges, bits = node.args
    return (name == "product"
            and all(isinstance(r, ast.Call) and isinstance(r.func, ast.Name)
                    and r.func.id == "range" for r in ranges)
            and isinstance(bits, ast.Tuple)
            and [getattr(e, "value", None) for e in bits.elts] == [0, 1])


def test_only_pair_points_enumerates_the_pair_triples():
    """Generator keys, probes and groupings come from :func:`systems.pair_points`."""
    users = set()
    for path in sorted(Path(bctk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        users |= {(path.stem, name) for name, node in _enclosing_functions(tree)
                  if _is_pair_points_call(node)}
    assert users == {("systems", "pair_points")}


# The constructions that stay only as test and ``verify`` oracles.
_ORACLES = {"merge_perm", "merge_chain", "wire_swap_matrix", "jellyfish_matrix",
            "model_pairing", "choi_close", "_explicit_lift", "entries"}


def test_no_kernel_function_names_an_oracle():
    """The kernel reads closed forms: outside ``verify``, only an oracle may
    name an oracle, by a plain name or as an attribute."""
    defined, users = set(), set()
    for stem in ("systems", "scalars", "bct", "classical", "ontic", "lct", "dsl", "cli",
                 "verify"):
        tree = ast.parse(Path(bctk.__file__).with_name(f"{stem}.py").read_text())
        for scope, node in _enclosing_functions(tree):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if stem != "verify" and name in _ORACLES and scope.split(".")[-1] not in _ORACLES:
                users.add(f"{stem}.{scope} names {name}")
    assert defined >= _ORACLES
    assert users == set()


def test_pair_offsets_is_a_permutation_and_the_identity_on_elementary_shapes():
    for right in SMALL_SHAPES:
        offsets = pair_offsets(right)
        # the offsets are the labels (1 q2)_s, whatever the left shape
        assert offsets == tuple(pair_label_fold(SystemShape((2,)), right, 1, q2, s)
                                for q2 in range(1, right.global_dim + 1) for s in (0, 1))
        assert sorted(offsets) == list(range(1, 2 * right.global_dim + 1)), right
        if right.num_factors == 1:
            assert offsets == tuple(range(1, 2 * right.global_dim + 1))


@pytest.mark.parametrize("args", [
    (TRIVIAL, SystemShape((2,)), 1, 1, 0),
    (SystemShape((2,)), TRIVIAL, 1, 1, 0),
    (SystemShape((2, 3)), SystemShape((2,)), 13, 1, 0),
    (SystemShape((2, 3)), SystemShape((2,)), 0, 1, 0),
    (SystemShape((2,)), SystemShape((3, 2)), 1, 13, 0),
    (SystemShape((2,)), SystemShape((3,)), 1, 0, 1),
    (SystemShape((2,)), SystemShape((3,)), 3, 4, 2),
    (SystemShape((2,)), SystemShape((3,)), 1, 1, 2),
])
def test_pair_label_rejects_what_the_label_fold_rejects(args):
    with pytest.raises(ValueError) as fold_error:
        pair_label_fold(*args)
    with pytest.raises(ValueError) as error:
        pair_label(*args)
    assert str(error.value) == str(fold_error.value)


def test_pair_split_round_trip():
    cases = [
        (SystemShape((2,)), SystemShape((3,))),
        (SystemShape((2, 2)), SystemShape((3,))),
        (SystemShape((2,)), SystemShape((2, 3))),
        (SystemShape((2, 2)), SystemShape((2, 2))),
    ]
    for left, right in cases:
        composite = left.compose(right)
        seen = set()
        for q1 in range(1, left.global_dim + 1):
            for q2 in range(1, right.global_dim + 1):
                for s in (0, 1):
                    q = pair_label(left, right, q1, q2, s)
                    assert split_label(left, right, q) == (q1, q2, s)
                    seen.add(q)
        assert seen == set(range(1, composite.global_dim + 1))


def test_reassoc_examples():
    assert reassoc_label(2, 2, 2, PureLabel((1, 1, 1), (0, 0))) == RightNestedLabel(
        1, 1, 1, inner=0, outer=0
    )
    # s = t = 1 gives inner bit 0, outer bit 1
    for i, j, k in product((1, 2), repeat=3):
        r = reassoc_label(2, 2, 2, PureLabel((i, j, k), (1, 1)))
        assert (r.inner, r.outer) == (0, 1)
        assert (r.i, r.j, r.k) == (i, j, k)


def test_reassoc_round_trip_and_bijection():
    for n1, n2, n3 in product((2, 3), repeat=3):
        shape = SystemShape((n1, n2, n3))
        images = set()
        for lab in all_labels(shape):
            r = reassoc_label(n1, n2, n3, lab)
            assert reassoc_inverse(n1, n2, n3, r) == lab
            images.add(flatten_right_nested(n1, n2, n3, r))
        assert images == set(range(1, shape.global_dim + 1))


def test_reassoc_preserves_pairing_table():
    # the delta-table of pure states against pure effects is unchanged when
    # both sides are relabelled, because the relabelling is one bijection
    n1 = n2 = n3 = 2
    shape = SystemShape((n1, n2, n3))
    labels = list(all_labels(shape))
    relabelled = {
        lab: flatten_right_nested(n1, n2, n3, reassoc_label(n1, n2, n3, lab))
        for lab in labels
    }
    for le in labels:
        for ls in labels:
            before = 1 if le == ls else 0
            after = 1 if relabelled[le] == relabelled[ls] else 0
            assert before == after
