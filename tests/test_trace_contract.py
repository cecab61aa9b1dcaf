"""The benchmark tracer's view of ``bctk`` still resolves.

``bench/tracer.py`` patches functions by ``(module, attribute)`` name, reads
``cache_info()`` from the lru-cached ones, traces classes through their own
``__init__`` and counts the cells of map results through their dense
``entries`` view.  A rename or a dropped cache in the kernel would break a traced
benchmark run, which tier-1 does not collect; this test reads the tracer's
tables (and edits nothing under ``bench/``) so the break shows here first.
"""

import ast
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from bctk import bct, classical, dsl, lct, ontic, verify
from bctk.systems import SystemShape

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attr(modname, attr):
    return getattr(importlib.import_module(f"bctk.{modname}"), attr)


def test_every_traced_target_resolves():
    for name, modname, attr in _tracer().TARGETS:
        assert callable(_attr(modname, attr)), name


def test_verify_reaches_the_kernel_through_traced_aliases():
    # The bench harness's tracer test requires these two aliases; a rewrite of
    # verify's imports must keep them for ``--trace 1`` to count the suites' calls.
    assert verify.compose_seq is bct.compose_seq
    assert verify.ontic_map is ontic.ontic_map


def test_tracer_counts_the_row_combinators_of_both_evaluators():
    # The tracer replaces module globals and module-level dict values only; a
    # combinator the evaluators held in a tuple or a closure would escape it.
    ast = dsl.parse(
        "system a = elem 2\nsystem aa = a * a\nsystem aaa = aa * a\n"
        "state x : a = (1)\ngate t : a -> a = atomic 1 -> 2 tau 1 w 1\n"
        "gate i : a -> a = id\neffect e : aaa = discard\n"
        "circuit c = x | x | x ; t | i | t ; e\n"
    )
    with _tracer().Tracer() as tracer:
        dsl.eval_bct(ast, "c")
        dsl.eval_ontic(ast, "c")
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert calls["dsl.eval_bct"] == calls["dsl.eval_ontic"] == 1
    assert calls["bct.compose_par"] == 2
    assert calls["ontic.ontic_map"] == 3
    assert calls["ontic.ontic_state"] == 3
    assert calls["ontic.ontic_effect"] == 1
    assert calls["classical.compose_par"] == 4


def test_tracer_counts_the_theory_pairing_once_per_instance():
    # The instance caches its theory pairing and falsify reads it only for a
    # null jellyfish map: two such falsifications per instance still make one
    # pairing_value call.  falsify builds no map, so jellyfish_matrix reads 0
    # until it is called directly.
    null_map = lct.CandidateModel(L1=2, L2=2, xi_beta=(Fraction(1, 2), Fraction(1, 2), 0, 0),
                                  xi_b=(0, 0, 1, 1))
    with _tracer().Tracer() as tracer:
        for _ in range(2):
            inst = lct.make_instance()
            for index in range(10):
                cand = lct.random_candidate(random.Random(index), inst)
                assert not lct.falsify(cand, inst).fatal
            for _ in range(2):
                assert lct.falsify(null_map, inst).violation == "probability-preservation"
        calls = {name: stats[0] for name, stats in tracer.stats.items()}
        lct.jellyfish_matrix(null_map)
    assert calls["lct.pairing_value"] == 2
    assert calls["lct.falsify"] == 24
    assert calls["lct.random_candidate"] == 20
    assert calls["lct.jellyfish_matrix"] == 0
    assert tracer.stats["lct.jellyfish_matrix"][0] == 1


def test_every_cached_target_has_cache_info():
    for modname, attr in _tracer().CACHED:
        assert callable(getattr(_attr(modname, attr), "cache_info", None)), (modname, attr)


def test_every_class_target_has_its_own_init():
    for name, modname, attr in _tracer().TARGETS:
        target = _attr(modname, attr)
        if isinstance(target, type):
            assert "__init__" in target.__dict__, name


def test_every_counted_map_result_has_a_dense_view():
    # ``Tracer`` counts ``entries.size`` and ``np.count_nonzero(entries)``.
    f = classical.ClassicalMap([[1, 0, 2], [0, 0, 3]])
    g = classical.ClassicalMap([[0, 1], [4, 0]])
    t = bct.atomic(SystemShape((2, 3)), SystemShape((2,)), 4, 2, 1)
    calls = {
        "classical.compose_seq": lambda: classical.compose_seq(f, g),
        "classical.compose_par": lambda: classical.compose_par(f, g),
        "ontic.ontic_map": lambda: ontic.ontic_map(t),
    }
    assert set(_tracer().MAP_RESULTS) == set(calls)
    for name, call in calls.items():
        result = call()
        assert result.entries.size == result.out_dim * result.in_dim, name
        assert np.count_nonzero(result.entries) == len(list(result.nonzero())), name


def test_the_benchmark_cold_start_runs():
    # ``setup_s`` times ``python -c COLD_START BENCH``, which imports the
    # CLI and calls ``build_parser()``; a change to either breaks it here.
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    cold_start = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets] == ["COLD_START"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", cold_start, str(ROOT / "bench")],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    numbers = json.loads(proc.stdout.splitlines()[-1])
    assert len(numbers) == 3 and all(isinstance(x, (int, float)) for x in numbers), numbers
