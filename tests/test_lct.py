"""Latent classical composites and the no-go falsifier.

The last part checks the lattice-backed candidates against a ``Fraction``
oracle: the falsifier as it was when every candidate entry was its own
``Fraction``, written out in this file.
"""

import ast
import dataclasses
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import bctk
from bctk.classical import ClassicalMap, choi_close
from bctk.lct import (
    MAX_COMPOSITE_DIM,
    MAX_L2,
    CandidateModel,
    LctInstance,
    ViolationCertificate,
    annihilation_table,
    annihilator,
    bct_style_candidate,
    beta_state,
    falsify,
    jellyfish_matrix,
    make_instance,
    model_pairing,
    pairing_value,
    product_state,
    random_candidate,
)
from bctk.scalars import number_json

HALF = Fraction(1, 2)


def test_default_instance():
    inst = make_instance()
    assert (inst.d1, inst.d2, inst.dL) == (2, 2, 2)
    assert inst.composite_dim == 8
    assert inst.kappa == (1, 0)
    assert inst.kappa_perp == (0, 1)
    assert inst.kappa_bar == (0, 1)


def test_full_rank_latent_state_rejected():
    with pytest.raises(ValueError):
        make_instance(kappa=(HALF, HALF))
    with pytest.raises(ValueError):
        make_instance(kappa=(HALF, Fraction(1, 4)))  # not normalised
    with pytest.raises(ValueError):
        make_instance(d1=1)


def test_orthogonal_support_constructed_on_a_zero_slot():
    inst = make_instance(dL=3, kappa=(HALF, HALF, 0))
    assert inst.kappa_perp == (0, 0, 1)
    assert sum(a * b for a, b in zip(inst.kappa_perp, inst.kappa)) == 0


def test_annihilator_is_non_null():
    b = annihilator(make_instance())
    assert any(v == 1 for v in b)


def test_annihilation_of_all_pure_products():
    for d1, d2, dl in product((2, 3), repeat=3):
        inst = make_instance(d1, d2, dl)
        for i in range(d1):
            sigma = tuple(1 if k == i else 0 for k in range(d1))
            for j in range(d2):
                tau = tuple(1 if k == j else 0 for k in range(d2))
                assert pairing_value(inst, product_state(inst, sigma, tau)) == 0
        assert annihilation_table(inst) == (
            [(i, j, 0) for i in range(1, d1 + 1) for j in range(1, d2 + 1)], 0)


def test_annihilation_table_reports_its_largest_value():
    # An effect that is not orthogonal to kappa: every pure product pairs to 1.
    inst = LctInstance(2, 3, 2, kappa=(1, 0), kappa_perp=(1, 1), kappa_bar=(0, 1))
    rows, worst = annihilation_table(inst)
    assert [value for _, _, value in rows] == [1] * 6 and worst == 1


def test_annihilation_of_uniform_product():
    inst = make_instance()
    uniform = (HALF, HALF)
    assert pairing_value(inst, product_state(inst, uniform, uniform)) == 0


def test_pairing_with_beta():
    inst = make_instance()
    assert pairing_value(inst, beta_state(inst)) == 1 == inst.theory_pairing
    # kappa (x) anything pairs to zero
    assert pairing_value(inst, product_state(inst, (1, 0), (0, 1))) == 0
    # subnormalised beta scales linearly
    scaled = tuple(HALF * v for v in beta_state(inst))
    assert pairing_value(inst, scaled) == HALF


def test_jellyfish_disjoint_supports_vanish():
    cand = CandidateModel(
        L1=2, L2=2,
        xi_beta=(1, 0, 0, 0),      # e1 (x) e1
        xi_b=(0, 0, 1, 1),         # supported on the other ontic slice
    )
    m = jellyfish_matrix(cand)
    assert list(m.nonzero()) == []


def test_jellyfish_rank_one():
    cand = CandidateModel(L1=2, L2=2, xi_beta=(1, 0, 0, 0), xi_b=(1, 1, 1, 1))
    m = jellyfish_matrix(cand)
    assert m == ClassicalMap([[1, 1], [0, 0]])
    assert choi_close(m) == 1


def test_trace_identity_holds_for_every_candidate():
    inst = make_instance()
    rng = random.Random(0)
    for _ in range(300):
        cand = random_candidate(rng, inst)
        assert choi_close(jellyfish_matrix(cand)) == model_pairing(cand)


def test_bct_style_candidate_violates_jellyfish_nullity():
    inst = make_instance()
    cand = bct_style_candidate(inst)
    assert model_pairing(cand) == 1 == pairing_value(inst, beta_state(inst))
    cert = falsify(cand, inst)
    assert cert.violation == "jellyfish-nullity"
    assert cert.lhs != 0
    assert not cert.fatal


def test_candidate_with_null_jellyfish_breaks_probability_preservation():
    cand = CandidateModel(L1=2, L2=2, xi_beta=(HALF, HALF, 0, 0), xi_b=(0, 0, 1, 1))
    cert = falsify(cand, make_instance())
    assert cert.violation == "probability-preservation"
    assert cert.lhs == 0 and cert.rhs == 1


def test_product_annihilation_violation_detected():
    cand = CandidateModel(
        L1=2, L2=2,
        xi_beta=(HALF, HALF, 0, 0),
        xi_b=(1, 1, 1, 1),
        xi_sigma=(HALF, HALF),
        xi_tau=(HALF, HALF),
    )
    cert = falsify(cand, make_instance())
    assert cert.violation == "product-annihilation"


def test_every_random_candidate_is_refuted():
    inst = make_instance()
    rng = random.Random(99)
    axes = set()
    for _ in range(300):
        cert = falsify(random_candidate(rng, inst), inst)
        assert not cert.fatal
        axes.add(cert.violation)
    assert "jellyfish-nullity" in axes


def test_fabricated_no_violation_candidate_is_flagged_fatal():
    cand = CandidateModel(
        L1=2, L2=2, xi_beta=(HALF, HALF, 0, 0), xi_b=(0, 0, 1, 1), theory_pairing=0
    )
    cert = falsify(cand, make_instance())
    assert cert.fatal and cert.violation is None


@pytest.mark.parametrize("build, message", [
    (lambda: make_instance(2, 2, 3, (1, 0)), "kappa needs 3 entries, got 2"),
    (lambda: product_state(make_instance(), (1, 0, 0), (1, 0)),
     "marginal states do not fit the instance dimensions"),
    (lambda: pairing_value(make_instance(), (1,)), "beta needs 8 entries"),
    (lambda: CandidateModel(L1=0, L2=2, xi_beta=(), xi_b=()),
     "L1 and L2 must be positive integers"),
    (lambda: CandidateModel(L1=2, L2=2, xi_beta=(1, 0, 0, 0), xi_b=(0, 0, 0)),
     "xi_b must live on the product ontic space L1*L2"),
    (lambda: CandidateModel.from_json([]), "a candidate must be a JSON object"),
    (lambda: CandidateModel.from_json({"L1": 2}), "candidate lacks 'L2'"),
])
def test_lct_refusals_name_their_cause(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_falsify_alone_builds_a_certificate():
    builders = []
    for path in sorted(Path(bctk.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee == "ViolationCertificate":
                        builders.append(f"{path.stem}.{func.name}")
    assert builders == ["lct.falsify"]


def test_fatal_is_derived_from_the_violation():
    assert "fatal" not in {f.name for f in dataclasses.fields(ViolationCertificate)}
    assert ViolationCertificate(None, "no axiom violated", 0, 0, 0).fatal
    assert not ViolationCertificate("jellyfish-nullity", [0, 0], 1, 0, 1).fatal
    with pytest.raises(TypeError):
        ViolationCertificate(None, "no axiom violated", 0, 0, 0, fatal=True)


def test_candidate_validation():
    with pytest.raises(ValueError):
        CandidateModel(L1=2, L2=2, xi_beta=(1, 0, 0), xi_b=(0,) * 4)
    with pytest.raises(ValueError):
        CandidateModel(L1=2, L2=2, xi_beta=(1, 1, 0, 0), xi_b=(0,) * 4)
    with pytest.raises(ValueError):
        CandidateModel(L1=2, L2=2, xi_beta=(1, 0, 0, 0), xi_b=(2, 0, 0, 0))


def test_candidate_json_round_trip():
    cand = CandidateModel(
        L1=2, L2=3, xi_beta=(HALF, 0, 0, HALF, 0, 0), xi_b=(1,) * 6,
        theory_pairing=Fraction(1, 1),
    )
    data = cand.to_json()
    assert data["L1"] == 2 and data["xi_beta"][0] == [1, 2]
    back = CandidateModel.from_json(data)
    assert back.xi_beta == cand.xi_beta and back.theory_pairing == 1


def test_certificate_json():
    cert = falsify(bct_style_candidate(make_instance()), make_instance())
    data = cert.to_json()
    assert data["violation"] == "jellyfish-nullity"
    assert data["fatal"] is False
    assert data["trace_identity"] == [1, 1]


def test_size_caps_admit_their_boundary_and_the_builtin_candidate():
    with pytest.raises(ValueError, match="exceeds"):
        make_instance(2, 2, MAX_COMPOSITE_DIM // 4 + 1)
    with pytest.raises(ValueError, match="exceeds"):
        CandidateModel(L1=1, L2=MAX_L2 + 1, xi_beta=(0,) * (MAX_L2 + 1),
                       xi_b=(0,) * (MAX_L2 + 1))
    CandidateModel(L1=1, L2=MAX_L2, xi_beta=(0,) * MAX_L2, xi_b=(0,) * MAX_L2)
    for d1 in (2, MAX_COMPOSITE_DIM // 4):
        inst = make_instance(d1, MAX_COMPOSITE_DIM // (2 * d1), 2)
        assert inst.composite_dim == MAX_COMPOSITE_DIM
        assert bct_style_candidate(inst).L2 <= MAX_L2


def test_product_images_survive_the_json_round_trip():
    cand = CandidateModel(L1=2, L2=2, xi_beta=(HALF, HALF, 0, 0), xi_b=(0, 0, 1, 1),
                          xi_sigma=(HALF, HALF), xi_tau=(HALF, HALF))
    data = cand.to_json()
    assert data["xi_sigma"] == data["xi_tau"] == [[1, 2], [1, 2]]
    back = CandidateModel.from_json(data)
    assert back == cand and back.xi_sigma == (HALF, HALF)
    cert = falsify(back, make_instance())
    assert cert.violation == "product-annihilation"
    assert cert.to_json()["lhs"] == [1, 2]
    assert "xi_sigma" not in CandidateModel(L1=1, L2=1, xi_beta=(1,), xi_b=(1,)).to_json()


@pytest.mark.parametrize("extra, message", [
    ({"xi_sigma": [1, 0]}, "together"),
    ({"xi_tau": [1, 0]}, "together"),
    ({"xi_sigma": [1, 1], "xi_tau": [1, 0]}, "xi_sigma must be a subnormalised"),
    ({"xi_sigma": [1, 0], "xi_tau": [-1, 0]}, "xi_tau must be a subnormalised"),
    ({"xi_sigma": [1], "xi_tau": [1, 0]}, "first ontic factor"),
    ({"xi_sigma": [1, 0], "xi_tau": [1, 0, 0]}, "second ontic factor"),
    ({"xi_sigma": "1,0", "xi_tau": [1, 0]}, "xi_sigma must be a list"),
])
def test_malformed_product_images_are_refused(extra, message):
    data = {"L1": 2, "L2": 2, "xi_beta": [1, 0, 0, 0], "xi_b": [0, 0, 1, 1], **extra}
    with pytest.raises(ValueError, match=message):
        CandidateModel.from_json(data)


@pytest.mark.parametrize("field", ["xi_beta", "xi_b", "xi_sigma", "theory_pairing"])
def test_inexact_entries_fail_at_construction(field):
    args = {"L1": 2, "L2": 2, "xi_beta": (HALF, HALF, 0, 0), "xi_b": (0, 0, 1, 1),
            "xi_sigma": (1, 0), "xi_tau": (1, 0), "theory_pairing": 1}
    args[field] = 0.5 if field == "theory_pairing" else (0.5,) + args[field][1:]
    with pytest.raises(TypeError, match="not an exact number: 0.5"):
        CandidateModel(**args)


# ---------------------------------------------------------------------------
# the Fraction oracle
# ---------------------------------------------------------------------------


def o_kron(*vectors):
    out = [Fraction(1)]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return tuple(out)


def o_random_candidate(rng):
    L1 = rng.randint(2, 6)
    L2 = rng.randint(2, 6)
    dim = L1 * L2
    cuts = sorted(rng.randint(0, 16) for _ in range(dim - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [16])]
    xi_beta = tuple(Fraction(c, 16) for c in counts)
    xi_b = tuple(Fraction(rng.randint(0, 16), 16) for _ in range(dim))
    return L1, L2, xi_beta, xi_b


def o_jellyfish(L1, L2, xi_beta, xi_b) -> dict:
    cells = {}
    for y, x in product(range(L2), repeat=2):
        v = sum((xi_beta[a * L2 + y] * xi_b[a * L2 + x] for a in range(L1)), Fraction(0))
        if v:
            cells[y, x] = v
    return cells


def o_theory_pairing(inst):
    b = o_kron(inst.kappa_perp, (1,) * inst.d1, (1,) * inst.d2)
    beta = o_kron(inst.kappa_bar, (Fraction(1, inst.d1),) * inst.d1,
                  (Fraction(1, inst.d2),) * inst.d2)
    return sum((x * y for x, y in zip(b, beta)), Fraction(0))


def o_falsify(inst, L1, L2, xi_beta, xi_b, theory_pairing=None, xi_sigma=None,
              xi_tau=None):
    """The certificate JSON the falsifier gives, on one Fraction per entry."""
    theory = theory_pairing
    if theory is None:
        theory = o_theory_pairing(inst)
    cells = o_jellyfish(L1, L2, xi_beta, xi_b)
    model = sum((b * v for b, v in zip(xi_b, xi_beta)), Fraction(0))
    trace = sum((v for (r, c), v in cells.items() if r == c), Fraction(0))

    def cert(violation, witness, lhs, rhs, fatal=False):
        return {"violation": violation, "witness": witness, "lhs": number_json(lhs),
                "rhs": number_json(rhs), "trace_identity": number_json(trace),
                "fatal": fatal}

    if xi_sigma is not None:
        image = o_kron(xi_sigma, xi_tau)
        value = sum((b * v for b, v in zip(xi_b, image)), Fraction(0))
        if value:
            return cert("product-annihilation", "xi_b . (xi_sigma (x) xi_tau)", value, 0)
    if cells:
        r, c = min(cells)
        return cert("jellyfish-nullity", [r, c], cells[r, c], 0)
    if model != theory:
        return cert("probability-preservation", "model pairing vs theory pairing",
                    model, theory)
    return cert(None, "no axiom violated", model, theory, fatal=True)


def _weight(rng, budget) -> Fraction:
    """A random weight in ``[0, budget]`` with a denominator in 1..97."""
    d = rng.randint(1, 97)
    return Fraction(rng.randint(0, math.floor(budget * d)), d)


def _substate(rng, n) -> tuple:
    budget, out = Fraction(1), []
    for _ in range(n):
        w = _weight(rng, budget) if rng.random() < 0.7 else Fraction(0)
        out.append(w)
        budget -= w
    return tuple(out)


def _rand_candidate_data(rng) -> dict:
    """Candidate arguments on coprime denominators; a third of them have a
    null jellyfish map, so every branch of the falsifier is reached."""
    L1, L2 = rng.randint(1, 4), rng.randint(1, 4)
    xi_beta = list(_substate(rng, L1 * L2))
    xi_b = [_weight(rng, 1) if rng.random() < 0.7 else Fraction(0) for _ in range(L1 * L2)]
    if rng.random() < 0.35:
        for a in range(L1):
            zeroed = xi_beta if rng.random() < 0.5 else xi_b
            zeroed[a * L2:(a + 1) * L2] = [Fraction(0)] * L2
    data = {"L1": L1, "L2": L2, "xi_beta": tuple(xi_beta), "xi_b": tuple(xi_b)}
    roll = rng.random()
    if roll < 0.25:
        data["theory_pairing"] = sum((b * v for b, v in zip(xi_b, xi_beta)), Fraction(0))
    elif roll < 0.5:
        data["theory_pairing"] = _weight(rng, 1)
    if rng.random() < 0.4:
        data["xi_sigma"], data["xi_tau"] = _substate(rng, L1), _substate(rng, L2)
    return data


def _assert_lowest(vec, values) -> None:
    nums, den = vec
    assert all(type(n) is int for n in nums)
    assert den == math.lcm(1, *(Fraction(v).denominator for v in values))
    assert math.gcd(den, *nums) == 1


def _assert_matches(cand: CandidateModel, data: dict) -> None:
    assert (cand.L1, cand.L2) == (data["L1"], data["L2"])
    for key, vec in (("xi_beta", cand.beta), ("xi_b", cand.b),
                     ("xi_sigma", cand.sigma), ("xi_tau", cand.tau)):
        assert getattr(cand, key) == data.get(key)
        if vec is not None:
            _assert_lowest(vec, data[key])
    assert cand.theory_pairing == data.get("theory_pairing")
    assert jellyfish_matrix(cand).cells == o_jellyfish(
        data["L1"], data["L2"], data["xi_beta"], data["xi_b"])
    assert model_pairing(cand) == sum(
        (b * v for b, v in zip(data["xi_b"], data["xi_beta"])), Fraction(0))
    # The JSON round trip, and for the trusted builders the validating
    # constructor, give back one canonical form.
    for same in (CandidateModel.from_json(cand.to_json()), CandidateModel(**data)):
        assert same == cand and hash(same) == hash(cand)


@pytest.mark.parametrize("inst", [make_instance(), make_instance(3, 2, 3, (HALF, HALF, 0))])
def test_seeded_random_candidates_match_the_fraction_oracle(inst):
    for s in range(400):
        rng, oracle_rng = random.Random(s), random.Random(s)
        cand = random_candidate(rng, inst)
        L1, L2, xi_beta, xi_b = o_random_candidate(oracle_rng)
        # The same draws in the same order: both generators end in one state.
        assert rng.getstate() == oracle_rng.getstate()
        _assert_matches(cand, {"L1": L1, "L2": L2, "xi_beta": xi_beta, "xi_b": xi_b})
        assert falsify(cand, inst).to_json() == o_falsify(inst, L1, L2, xi_beta, xi_b)


class _EvenDraws(random.Random):
    """Draws only even integers, so every count over 16 has a common factor.

    The draws come straight from ``getrandbits``; clearing its low bit makes
    every accepted value even, since each range here starts at 0 or 2."""

    def getrandbits(self, k):
        return super().getrandbits(k) & ~1


def test_random_candidate_reduces_counts_with_a_common_factor():
    inst = make_instance()
    for s in range(20):
        cand = random_candidate(_EvenDraws(s), inst)
        for nums, den in (cand.beta, cand.b):
            assert den < 16 and math.gcd(den, *nums) == 1
        same = CandidateModel(L1=cand.L1, L2=cand.L2, xi_beta=cand.xi_beta, xi_b=cand.xi_b)
        assert same == cand and hash(same) == hash(cand)


@seed(20261201)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_candidates_on_coprime_denominators_match_the_fraction_oracle(s):
    rng = random.Random(s)
    data = _rand_candidate_data(rng)
    cand = CandidateModel(**data)
    _assert_matches(cand, data)
    inst = make_instance()
    assert falsify(cand, inst).to_json() == o_falsify(inst, **data)


def test_oracle_run_reaches_every_falsifier_branch():
    rng = random.Random(3)
    seen = set()
    for _ in range(300):
        seen.add(o_falsify(make_instance(), **_rand_candidate_data(rng))["violation"])
    assert seen == {"product-annihilation", "jellyfish-nullity",
                    "probability-preservation", None}


def test_equal_candidates_are_equal_and_hash_alike():
    quarter = Fraction(1, 4)
    a = CandidateModel(L1=1, L2=2, xi_beta=(HALF, Fraction(2, 4)),
                       xi_b=(Fraction(4, 4), HALF), theory_pairing=Fraction(3, 3))
    b = CandidateModel.from_json({"L1": 1, "L2": 2, "xi_beta": [[2, 4], [1, 2]],
                                  "xi_b": [1, 0.5], "theory_pairing": [1, 1]})
    assert a == b and hash(a) == hash(b)
    assert a.beta == ((1, 1), 2) and a.b == ((2, 1), 2) and a.theory_pairing == 1
    assert type(a.xi_b[0]) is int and type(a.theory_pairing) is int
    assert a != CandidateModel(L1=1, L2=2, xi_beta=(HALF, quarter), xi_b=(1, HALF))
