"""Classical process theory: composition, Choi pair, snake identity."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from bctk.classical import ClassicalMap, choi_close, compose_par, compose_seq
from bctk.scalars import number_json

from kernel_helpers import (
    classical_effect, classical_map, classical_scalar, classical_state, classical_uniform_state,
    column_sums, point_effect, point_state, transpose,
)


def permutation_map(perm) -> ClassicalMap:
    """The stochastic 0/1 map sending ``|i)`` to ``|perm[i-1])`` (1-based)."""
    targets = tuple(perm)
    n = len(targets)
    if sorted(targets) != list(range(1, n + 1)):
        raise ValueError(f"{targets} is not a bijection on [1..{n}]")
    return classical_map(n, n, {(t - 1, i): 1 for i, t in enumerate(targets)})


def choi_pair(dim: int) -> tuple[ClassicalMap, ClassicalMap]:
    """The Choi vector ``sum_i |ii)`` and covector ``sum_j (jj|`` on ``dim**2``."""
    vec = [0] * dim * dim
    for i in range(dim):
        vec[i * dim + i] = 1
    return classical_state(vec), classical_effect(vec)


def snake_check(dim: int) -> bool:
    """Verify ``(id (x) g) . (gamma (x) id) == id`` on a ``dim`` wire."""
    gamma, g = choi_pair(dim)
    ident = ClassicalMap.identity(dim)
    bent = compose_seq(compose_par(gamma, ident), compose_par(ident, g))
    return bent == ident


def test_identity_composition():
    ident = ClassicalMap.identity(3)
    assert compose_seq(ident, ident) == ident


def test_point_state_meets_point_effect():
    state = point_state(3, 2)
    effect = point_effect(3, 2)
    assert compose_seq(state, effect).scalar_value() == 1
    other = point_effect(3, 1)
    assert compose_seq(state, other).scalar_value() == 0


def test_sequential_composition_hand_product():
    # M = [[1/2, 0], [0, 1]] then N = [[1, 1]] gives [1/2, 1]
    m = ClassicalMap([[Fraction(1, 2), 0], [0, 1]])
    n = ClassicalMap([[1, 1]])
    out = compose_seq(m, n)
    assert out == ClassicalMap([[Fraction(1, 2), 1]])


def test_parallel_identities():
    assert compose_par(ClassicalMap.identity(2), ClassicalMap.identity(3)) == ClassicalMap.identity(6)


def test_parallel_point_states():
    left = point_state(2, 1)
    right = point_state(2, 2)
    both = compose_par(left, right)
    # row-major, left factor outer: index (1, 2) -> 0*2 + 1
    assert both == ClassicalMap([[0], [1], [0], [0]])


def test_parallel_uniform_states():
    u = classical_uniform_state(2)
    both = compose_par(u, u)
    assert both == ClassicalMap([[Fraction(1, 4)]] * 4)


def test_permutation_map_identity_and_transposition():
    assert permutation_map((1, 2)) == ClassicalMap.identity(2)
    assert permutation_map((2, 1)) == ClassicalMap([[0, 1], [1, 0]])


def test_permutation_three_cycle_moves_point_state():
    cycle = permutation_map((2, 3, 1))
    moved = compose_seq(point_state(3, 1), cycle)
    assert moved == point_state(3, 2)


def test_permutation_inverse():
    perm = permutation_map((3, 1, 4, 2))
    inv = permutation_map((2, 4, 1, 3))
    assert compose_seq(perm, inv) == ClassicalMap.identity(4)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        permutation_map((1, 1, 3))


def test_choi_close_identity_and_zero():
    assert choi_close(ClassicalMap.identity(2)) == 2
    assert choi_close(ClassicalMap.zero(4, 4)) == 0


def test_choi_close_rank_one():
    # M[y, x] = v[x] * u[y] has trace sum_w v[w] u[w]
    v = [1, 2, 3]
    u = [4, 5, 6]
    m = ClassicalMap([[v[x] * u[y] for x in range(3)] for y in range(3)])
    assert choi_close(m) == 4 + 10 + 18


def test_choi_close_requires_square():
    with pytest.raises(ValueError):
        choi_close(ClassicalMap.zero(2, 3))


def test_choi_pair_entries():
    gamma, g = choi_pair(2)
    assert gamma == ClassicalMap([[1], [0], [0], [1]])
    assert g == ClassicalMap([[1, 0, 0, 1]])


@pytest.mark.parametrize("dim", list(range(1, 17)))
def test_snake_identity(dim):
    assert snake_check(dim)


def test_json_round_trip():
    m = ClassicalMap([[Fraction(1, 3), 0], [Fraction(2, 3), 1]])
    data = m.to_json()
    assert data["in"] == 2 and data["out"] == 2
    assert data["entries"][0] == [1, 3]


def test_predicates():
    sub = ClassicalMap([[Fraction(1, 2)], [Fraction(1, 4)]])
    assert sub.is_substochastic() and not sub.is_stochastic()
    stoch = ClassicalMap([[Fraction(1, 2)], [Fraction(1, 2)]])
    assert stoch.is_stochastic()
    assert permutation_map((2, 3, 1)).is_permutation()
    assert not stoch.is_permutation()
    assert not ClassicalMap([[1, 0], [1, 0]]).is_permutation()
    assert not ClassicalMap([[1, 1], [0, 0]]).is_permutation()


# -- algebraic laws ---------------------------------------------------------


@st.composite
def substochastic(draw, max_dim=3, stochastic=False, dims=None):
    if dims is None:
        n = draw(st.integers(1, max_dim))
        m = draw(st.integers(1, max_dim))
    else:
        m, n = dims
    den = 12
    cols = []
    for _ in range(n):
        total = den if stochastic else draw(st.integers(0, den))
        cuts = sorted(draw(st.integers(0, total)) for _ in range(m - 1))
        col = [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [total])]
        cols.append(col)
    entries = [[cols[c][r] for c in range(n)] for r in range(m)]
    return ClassicalMap(entries)


@given(substochastic(), substochastic())
@settings(max_examples=40, deadline=None)
def test_parallel_composition_preserves_substochasticity(f, g):
    assert compose_par(f, g).is_substochastic()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sequential_composition_preserves_substochasticity(data):
    f = data.draw(substochastic())
    g = data.draw(substochastic())
    # re-dimension g so the composition is defined
    if g.in_dim != f.out_dim:
        entries = [[g[r % g.out_dim, c % g.in_dim] for c in range(f.out_dim)]
                   for r in range(g.out_dim)]
        g = ClassicalMap(entries)
        if not g.is_substochastic():
            return
    assert compose_seq(f, g).is_substochastic()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stochastic_closed_under_sequencing(data):
    f = data.draw(substochastic(stochastic=True))
    cols = []
    den = 12
    for _ in range(f.out_dim):
        cuts = sorted(data.draw(st.integers(0, den)) for _ in range(2))
        cols.append([Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])])
    g = ClassicalMap([[cols[c][r] for c in range(f.out_dim)] for r in range(3)])
    assert compose_seq(f, g).is_stochastic()


@given(substochastic(max_dim=2), substochastic(max_dim=2),
       substochastic(max_dim=2), substochastic(max_dim=2))
@settings(max_examples=25, deadline=None)
def test_bifunctoriality(f1, f2, g1, g2):
    # (f2 . f1) (x) (g2 . g1) == (f2 (x) g2) . (f1 (x) g1), after re-dimensioning
    def fit(second, first):
        if second.in_dim == first.out_dim:
            return second
        entries = [[second[r % second.out_dim, c % second.in_dim]
                    for c in range(first.out_dim)] for r in range(second.out_dim)]
        fitted = ClassicalMap(entries)
        return fitted if fitted.is_substochastic() else None

    f2 = fit(f2, f1)
    g2 = fit(g2, g1)
    if f2 is None or g2 is None:
        return
    lhs = compose_par(compose_seq(f1, f2), compose_seq(g1, g2))
    rhs = compose_seq(compose_par(f1, g1), compose_par(f2, g2))
    assert lhs == rhs


# -- the sparse map against a dense object-array oracle ---------------------
#
# The reference is a plain numpy object array with exact entries: matrix
# product, ``np.kron``, elementwise sum and scaling, and row-major
# ``np.nonzero``, which is what the map stored before it went sparse.

_VALUES = st.sampled_from(
    [0, 0, 0, 0, 1, Fraction(1), 2, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)])


@st.composite
def _signed_rows(draw, out_dim, in_dim):
    return [[draw(_VALUES) for _ in range(in_dim)] for _ in range(out_dim)]


@st.composite
def _binary_rows(draw, out_dim, in_dim):
    return [[draw(st.sampled_from([0, 1])) for _ in range(in_dim)] for _ in range(out_dim)]


@st.composite
def _permutation_rows(draw, dim):
    perm = draw(st.permutations(range(dim)))
    return [[1 if perm[c] == r else 0 for c in range(dim)] for r in range(dim)]


@st.composite
def dense(draw, out_dim=None, in_dim=None, max_dim=4):
    """A dense object array: signed or 0/1 entries, a stochastic map or a permutation."""
    out_dim = out_dim or draw(st.integers(1, max_dim))
    in_dim = in_dim or draw(st.integers(1, max_dim))
    kinds = [_signed_rows(out_dim, in_dim), _binary_rows(out_dim, in_dim),
             substochastic(stochastic=draw(st.booleans()), dims=(out_dim, in_dim))]
    if out_dim == in_dim:
        kinds.append(_permutation_rows(out_dim))
    rows = draw(st.one_of(kinds))
    if isinstance(rows, ClassicalMap):
        rows = [[rows[r, c] for c in range(in_dim)] for r in range(out_dim)]
    return np.array(rows, dtype=object).reshape(out_dim, in_dim)


def _assert_matches(m: ClassicalMap, arr) -> None:
    assert m.shape == arr.shape
    assert [[m[r, c] for c in range(m.in_dim)] for r in range(m.out_dim)] == arr.tolist()
    assert all(v != 0 for v in m.cells.values())


def _dense_stochastic(arr, strict: bool) -> bool:
    if not all(v >= 0 for v in arr.flat):
        return False
    sums = [sum(arr[:, c], 0) for c in range(arr.shape[1])]
    return all(s == 1 if strict else s <= 1 for s in sums)


def _dense_permutation(arr) -> bool:
    n, m = arr.shape
    return (n == m and all(v in (0, 1) for v in arr.flat)
            and all(sum(arr[r, :], 0) == 1 for r in range(n))
            and all(sum(arr[:, c], 0) == 1 for c in range(m)))


@seed(20261018)
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_products_match_dense_oracle(data):
    f = data.draw(dense())
    g = data.draw(dense(in_dim=f.shape[0]))
    h = data.draw(dense())
    _assert_matches(compose_seq(ClassicalMap(f.tolist()), ClassicalMap(g.tolist())), g.dot(f))
    _assert_matches(compose_par(ClassicalMap(f.tolist()), ClassicalMap(h.tolist())),
                    np.kron(f, h))


@seed(20261019)
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_structure_matches_dense_oracle(data):
    a = data.draw(dense())
    b = data.draw(dense(*a.shape))
    m = ClassicalMap(a.tolist())
    _assert_matches(m, a)
    _assert_matches(m.add(ClassicalMap(b.tolist())), a + b)
    _assert_matches(m.add(ClassicalMap((-a).tolist())), a - a)
    _assert_matches(transpose(m), a.T)
    assert column_sums(m) == [sum(a[:, c], 0) for c in range(a.shape[1])]
    rows, cols = np.nonzero(a != b)
    assert list(m.differences(ClassicalMap(b.tolist()))) == [
        (r, c, a[r, c], b[r, c]) for r, c in zip(rows.tolist(), cols.tolist())]


@seed(20261020)
@given(dense())
@settings(max_examples=120, deadline=None)
def test_predicates_match_dense_oracle(a):
    m = ClassicalMap(a.tolist())
    assert m.is_substochastic() == _dense_stochastic(a, strict=False)
    assert m.is_stochastic() == _dense_stochastic(a, strict=True)
    assert m.is_permutation() == _dense_permutation(a)


@seed(20261021)
@given(dense())
@settings(max_examples=80, deadline=None)
def test_nonzero_order_and_json_match_dense_oracle(a):
    m = ClassicalMap(a.tolist())
    for sparse, arr in ((m, a), (transpose(m), a.T)):
        rows, cols = np.nonzero(arr != 0)
        assert list(sparse.nonzero()) == [
            (r, c, arr[r, c]) for r, c in zip(rows.tolist(), cols.tolist())]
    data = m.to_json()
    assert data == {"in": a.shape[1], "out": a.shape[0],
                    "entries": [number_json(v) for v in a.flat]}


def _per_cell_number_json(x) -> list:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def _per_cell_to_json(m: ClassicalMap) -> dict:
    """The writer that ``ClassicalMap.to_json`` replaced: one scalar
    conversion for each of the ``out_dim * in_dim`` cells."""
    get = m.cells.get
    return {"in": m.in_dim, "out": m.out_dim,
            "entries": [_per_cell_number_json(get((r, c), 0)) for r in range(m.out_dim)
                        for c in range(m.in_dim)]}


_CELL_VALUES = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(4, 2), Fraction(1, 3)]),
).filter(lambda v: v != 0)


@st.composite
def _sparse_maps(draw):
    out_dim, in_dim = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    keys = st.tuples(st.integers(0, out_dim - 1), st.integers(0, in_dim - 1))
    cells = draw(st.dictionaries(keys, _CELL_VALUES, max_size=out_dim * in_dim))
    return classical_map(out_dim, in_dim, cells)


@seed(20261022)
@given(_sparse_maps())
@settings(max_examples=150, deadline=None)
def test_dense_json_writer_matches_per_cell_writer(m):
    data = m.to_json()
    assert data == _per_cell_to_json(m)
    assert json.dumps(data, sort_keys=True) == json.dumps(_per_cell_to_json(m), sort_keys=True)
    assert len({id(entry) for entry in data["entries"]}) == len(data["entries"])
    for v in list(m.cells.values()) + [0, Fraction(0)]:
        assert number_json(v) == _per_cell_number_json(v)
        assert [type(part) for part in number_json(v)] == [int, int]


@seed(20261019)
@given(_sparse_maps())
@example(ClassicalMap.zero(0, 0))
@example(ClassicalMap.zero(0, 3))
@example(ClassicalMap.zero(3, 0))
@example(ClassicalMap.zero(2, 3))
@example(classical_scalar(-10**19 - 7))
@example(classical_scalar(Fraction(-3, 10**20 + 1)))
@example(ClassicalMap([[Fraction(1, 3), -2, 0], [0, 10**20, Fraction(-7, 2)]]))
@settings(max_examples=150, deadline=None)
def test_dense_text_writer_matches_json_dumps(m):
    text = m.to_json_text()
    assert text == json.dumps(m.to_json(), sort_keys=True)
    assert text == json.dumps(_per_cell_to_json(m), sort_keys=True)


def test_equal_maps_hash_alike_across_int_and_fraction():
    ints = ClassicalMap([[1, 2], [3, 0]])
    # built column by column, so its cells are stored in another order
    fracs = transpose(ClassicalMap([[Fraction(1), Fraction(3)], [Fraction(2), 0]]))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert len({ints, fracs}) == 1


def test_map_equality_against_other_values():
    m = ClassicalMap([[1]])
    assert m.__eq__(1) is NotImplemented
    assert (m == 1) is False and (m != 1) is True
    assert (m == [[1]]) is False


def test_cancelling_add_stores_no_zero():
    m = ClassicalMap([[Fraction(1, 2), 1], [0, -1]])
    total = m.add(ClassicalMap([[Fraction(-1, 2), -1], [0, 1]]))
    assert total.cells == {}
    assert total == ClassicalMap.zero(2, 2)
    with pytest.raises(ValueError, match="^shape mismatch in map addition$"):
        m.add(ClassicalMap.identity(3))


def test_cancelling_product_stores_no_zero_and_is_the_dense_product():
    f = np.array([[1, Fraction(1, 2)], [1, Fraction(1, 2)], [2, 0]], dtype=object)
    g = np.array([[1, -1, 0], [Fraction(1, 3), 1, Fraction(-1, 3)]], dtype=object)
    for f_rows, g_rows in ((f, g), (f[:2], g[:, :2])):
        product = compose_seq(ClassicalMap(f_rows.tolist()), ClassicalMap(g_rows.tolist()))
        assert 0 not in product.nums.values()
        assert product == ClassicalMap(g_rows.dot(f_rows).tolist())
    assert compose_seq(ClassicalMap(f[:2].tolist()), ClassicalMap([[1, -1]])).nums == {}


@pytest.mark.parametrize("build, error, message", [
    (lambda: ClassicalMap.identity(2).scalar_value(), ValueError,
     "map of shape (2, 2) is not a scalar"),
    (lambda: ClassicalMap.identity(2)[2, 0], IndexError,
     "entry (2, 0) out of range for shape (2, 2)"),
    (lambda: compose_seq(ClassicalMap.zero(2, 2), ClassicalMap.zero(2, 3)), ValueError,
     "cannot compose: intermediate dims 2 != 3"),
])
def test_map_refusals_name_their_cause(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_constructor_rejects_non_2d_input():
    for bad in ([], [1, 2], [[1, 2], [3]], [[[1]]], np.array([1, 2], dtype=object), 3):
        with pytest.raises(ValueError, match="2-d"):
            ClassicalMap(bad)
