"""``Report.check``: one trial per call and a flat witness down to a leaf."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import bctk
from bctk import bct, ontic, verify
from bctk.classical import ClassicalMap
from bctk.scalars import reduce_dict
from bctk.systems import SystemShape, pair_label
from bctk.bct import Transformation
from bctk.verify import Report, RunConfig

S2 = SystemShape((2,))


def test_each_check_counts_one_trial():
    report = Report(suite="t")
    report.check(["eq"], {"a": [1, 2]}, {"a": [1, 2]})
    report.check(["ne"], 1, 2)
    assert report.trials == 2
    assert report.failures == [{"witness": ["ne"], "lhs": [1, 1], "rhs": [2, 1]}]


def test_witnesses_are_capped_at_ten():
    report = Report(suite="t")
    for k in range(12):
        report.check(["k", k], k, k + Fraction(k + 1, 2))
    assert report.trials == 12 and len(report.failures) == 10
    assert report.max_abs_dev == 6  # the eleventh and twelfth still count


def test_a_map_mismatch_names_its_first_cell():
    report = Report(suite="t")
    lhs = ClassicalMap([[1, 0], [0, 1]])
    rhs = ClassicalMap([[1, 0], [Fraction(1, 3), 0]])
    report.check(["m"], lhs, rhs)
    assert report.failures == [{"witness": ["m", 1, 0], "lhs": [0, 1], "rhs": [1, 3]}]
    assert report.max_abs_dev == Fraction(1, 3)
    report.check(["shape"], lhs, ClassicalMap.zero(2, 3))
    assert report.failures[1] == {"witness": ["shape", "shape"], "lhs": [2, 2], "rhs": [2, 3]}
    assert report.max_abs_dev == 1


def test_a_state_mismatch_names_its_label():
    report = Report(suite="t")
    report.check(["s"], bct.pure_state(S2, 1), bct.State(S2, (Fraction(1, 2), 0)))
    assert report.failures == [{"witness": ["s", 1], "lhs": [1, 1], "rhs": [1, 2]}]
    assert report.max_abs_dev == Fraction(1, 2)


def test_a_dict_of_maps_names_key_then_cell():
    report = Report(suite="t")
    same = ClassicalMap.identity(2)
    report.check(["d"], {"x": same, (3, 1): same},
                 {"x": same, (3, 1): ClassicalMap([[1, 0], [0, 2]])})
    # a tuple key adds its parts to the path, so the witness stays flat
    assert report.failures == [{"witness": ["d", 3, 1, 1, 1], "lhs": [1, 1], "rhs": [2, 1]}]


def test_a_boolean_mismatch_deviates_by_one():
    report = Report(suite="t")
    report.check(["b"], {"ok": False}, {"ok": True})
    assert report.failures == [{"witness": ["b", "ok"], "lhs": False, "rhs": True}]
    assert report.max_abs_dev == 1
    assert report.to_json()["max_abs_dev"] == 1.0
    # a key on one side only is a non-numeric leaf too; the number beside it
    # is still written as [num, den]
    report.check(["missing"], {(1, 2, 0): Fraction(1, 2)}, {})
    assert report.failures[1] == {"witness": ["missing", 1, 2, 0], "lhs": [1, 2], "rhs": None}
    assert report.max_abs_dev == 1


def test_a_transformation_mismatch_names_its_term():
    report = Report(suite="t")
    t = bct.atomic(S2, S2, 1, 2, 1)
    report.check(["t"], t, bct.atomic(S2, S2, 1, 2, 0))
    assert report.failures == [{"witness": ["t", 1, 2, 0], "lhs": [0, 1], "rhs": [1, 1]}]


def test_a_map_not_in_lowest_terms_ends_at_its_denominator():
    report = Report(suite="t")
    report.check(["m"], ClassicalMap._from_nums(1, 2, {(0, 1): 2}, 4),
                 ClassicalMap._from_nums(1, 2, {(0, 1): 1}, 2))
    assert report.failures == [{"witness": ["m", "den"], "lhs": "4", "rhs": "2"}]
    assert report.max_abs_dev == 1


def test_a_transformation_not_in_lowest_terms_ends_at_its_denominator():
    report = Report(suite="t")
    half = Transformation._from_nums(S2, S2, {(1, 2, 1): 1}, 2)
    report.check(["t"], {"x": half}, {"x": Transformation._from_nums(S2, S2, {(1, 2, 1): 3}, 6)})
    assert report.failures == [{"witness": ["t", "x", "den"], "lhs": "2", "rhs": "6"}]
    assert report.max_abs_dev == 1


def test_a_state_not_in_lowest_terms_ends_at_its_denominator():
    report = Report(suite="t")
    half = bct.pure_state(S2, 1).scale(Fraction(1, 2))
    report.check(["s"], [bct.State._from_nums(S2, (2, 0), 4)], [half])
    assert report.failures == [{"witness": ["s", 0, "den"], "lhs": "4", "rhs": "2"}]
    assert report.max_abs_dev == 1


def test_package_exports_the_report_without_loading_the_suites():
    assert bctk.Report is verify.Report
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bctk; print('bctk.verify' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_report_json_keys():
    data = Report(suite="t", seed=3).to_json()
    assert data == {"suite": "t", "seed": 3, "trials": 0, "failures": [], "max_abs_dev": 0.0}


def test_corrupted_swap_failures_end_at_a_numeric_leaf():
    cfg = RunConfig(trials=2, max_dim=3, corrupt="swap")
    reports = json.loads(json.dumps([r.to_json() for r in verify.run_suites("all", cfg)]))
    failing = [r for r in reports if r["failures"]]
    assert {r["suite"] for r in failing} == {"diagram", "swap"}
    for report in failing:
        assert report["max_abs_dev"] > 0, report["suite"]
        for failure in report["failures"]:
            assert all(type(p) in (int, str) for p in failure["witness"]), failure
            for side in ("lhs", "rhs"):
                assert [type(v) for v in failure[side]] == [int, int], failure


def test_each_law_fails_exactly_its_own_checks(monkeypatch):
    # The fixed and the random loops reach a law through verify's globals, so
    # a stub law fails every check that the table gives it, in both loops,
    # and no other: a check that kept its own copy of the law, or a law that
    # no loop calls, shows here.
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
    names = [name for checks in verify.LAWS.values() for name in checks]
    assert len(names) == len(set(names))
    cfg = RunConfig(seed=3, trials=2, max_dim=3)
    for law, checks in verify.LAWS.items():
        assert getattr(verify, law.__name__) is law
        with monkeypatch.context() as patch:
            patch.setattr(verify, law.__name__, lambda *args: (0, 1))
            reports = verify.run_suites("all", cfg)
        failed = {f["witness"][0] for report in reports for f in report.failures}
        assert failed == set(checks), law.__name__


def _compose_par_dropping_f1_at_d2_2(t1, t2):
    """Kernel mutant: ``compose_par`` whose output pairing bit loses ``t1``'s
    section shift wherever ``t2``'s term lands on label 2."""
    in1, in2, out1, out2 = t1.in_shape, t2.in_shape, t1.out_shape, t2.out_shape
    out = {}
    for (s1, d1, f1), n1 in t1.nums.items():
        for (s2, d2, f2), n2 in t2.nums.items():
            shift = f2 if d2 == 2 else f1 ^ f2
            for s in (0, 1):
                out[(pair_label(in1, in2, s1, s2, s),
                     pair_label(out1, out2, d1, d2, s ^ shift), f1)] = n1 * n2
    return Transformation._from_nums(in1.compose(in2), out1.compose(out2),
                                     *reduce_dict(out, t1.den * t2.den))


_ONTIC_MAP = ontic.ontic_map


def _ontic_map_dropping_its_last_term(t):
    """Kernel mutant: ``ontic_map`` of ``t`` without its largest term key, in
    lowest terms, whenever ``t`` has two terms or more."""
    terms = sorted(t.nums.items())
    if len(terms) > 1:
        t = Transformation._from_nums(t.in_shape, t.out_shape,
                                      *reduce_dict(dict(terms[:-1]), t.den))
    return _ONTIC_MAP(t)


# Each mutant is patched into its kernel module and into verify's alias of it;
# every report it breaks is pinned as (trials, failures, sha256).
_MUTANT_PINS = (
    (bct, "compose_par", _compose_par_dropping_f1_at_d2_2, {
        "diagram": (78, 30, "883c2b9adc3a8fdf800ae47b89389fc6f723e0861e8ffb1b897f0745b3c0ab49"),
        "swap": (66, 26, "121625c2037adee3ad066c60a78988a1f8ece541b9102ebb6aacd4635401366e"),
    }),
    (ontic, "ontic_map", _ontic_map_dropping_its_last_term, {
        "linearity": (64, 17, "65fa21597a54a3b50dae5ae40db5e6542595d2fc3d6d165547c442fe2dca7401"),
        "diagram": (78, 43, "c678c7f2f997179c681bfe26e1109f6667789db52c83f35fc1db8c9019033531"),
        "probability": (544, 27,
                        "259353bb0a6dfaa2aef68dd35a35017998096eb93c0d971826362477c9000e76"),
        "determinacy": (164, 80,
                        "e7d870b60ccc132188b54ade8e0e182197ea5277fab733a076c09cd69d92ddb3"),
    }),
)


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_atomicity_failures_under_a_kernel_mutation_are_pinned(monkeypatch):
    # Every failure, not only the first ten, so the pins cover each law's
    # witnesses and their order.  A passing report carries no witness, so
    # these pins are what holds the witness paths of the laws; the atomicity
    # pin was measured before the fixed loops built their probes and targets
    # once per law, and the others before the laws became functions.
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
    cfg = RunConfig(seed=20260809, trials=20, max_dim=3)
    with monkeypatch.context() as patch:
        patch.setattr(bct, "compose_par", _compose_par_dropping_f1_at_d2_2)
        report = verify.suite_atomicity(cfg).to_json()
    assert (report["trials"], len(report["failures"]), report["max_abs_dev"]) == (376, 180, 1.0)
    assert report["failures"][0] == {"witness": ["atomic-law", 2, 2, 2, 1, 1, 1, "((1,2);0)", 3],
                                     "lhs": [1, 1], "rhs": [0, 1]}
    assert _digest(report) == "62d98b09523c0e353562588b7ca5547572f9d2b1dda67be21d58ca1c89d94c6d"
    for module, name, mutant, pins in _MUTANT_PINS:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            patch.setattr(verify, name, mutant)
            reports = {suite: verify.SUITES[suite](cfg).to_json() for suite in pins}
        got = {suite: (r["trials"], len(r["failures"]), _digest(r)) for suite, r in reports.items()}
        assert got == pins, name
