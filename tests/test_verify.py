"""``Report.check``: one trial per call and a flat witness down to a leaf."""

import json
import subprocess
import sys
from fractions import Fraction

import bctk
from bctk import bct, verify
from bctk.classical import ClassicalMap
from bctk.systems import SystemShape
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
