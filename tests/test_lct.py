"""Latent classical composites and the no-go falsifier."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bctk.classical import ClassicalMap, choi_close
from bctk.lct import (
    MAX_COMPOSITE_DIM,
    MAX_L2,
    CandidateModel,
    LctInstance,
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


def test_annihilation_of_uniform_product():
    inst = make_instance()
    uniform = (HALF, HALF)
    assert pairing_value(inst, product_state(inst, uniform, uniform)) == 0


def test_pairing_with_beta():
    inst = make_instance()
    assert pairing_value(inst, beta_state(inst)) == 1
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
