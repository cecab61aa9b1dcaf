"""``Report.check``: one trial per call and a flat witness down to a leaf."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import bctk
from bctk import bct, verify
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


def test_atomicity_failures_under_a_kernel_mutation_are_pinned(monkeypatch):
    # Every failure, not only the first ten, so the pin covers each law's
    # witnesses and their order; measured before the fixed loops built their
    # probes and targets once per law.
    monkeypatch.setattr(bct, "compose_par", _compose_par_dropping_f1_at_d2_2)
    monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
    report = verify.suite_atomicity(RunConfig(seed=20260809, trials=20, max_dim=3)).to_json()
    assert (report["trials"], len(report["failures"]), report["max_abs_dev"]) == (376, 180, 1.0)
    assert report["failures"][0] == {"witness": ["atomic-law", 2, 2, 2, 1, 1, 1, "((1,2);0)", 3],
                                     "lhs": [1, 1], "rhs": [0, 1]}
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "62d98b09523c0e353562588b7ca5547572f9d2b1dda67be21d58ca1c89d94c6d"
