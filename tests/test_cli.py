"""End-to-end CLI behaviour: exit codes, JSON output, reproducibility."""

import argparse
import ast
import codecs
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from bctk import bct, cli, dsl, lct, ontic, systems, verify
from bctk.classical import ClassicalMap
from bctk.systems import PureLabel, SystemShape, unflatten_label

PRODUCT_CIRCUIT = """\
system a = elem 2
system b = elem 2
system ab = a * b
state x : a = (1)
state y : b = (1)
effect probe : ab = ((1,1);0)
gate ident : a -> a = id
gate shift : a -> a = atomic 1 -> 2 tau 1 w 1
circuit p = x | y ; probe
eval p
"""


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bctk", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "product.bct"
    path.write_text(PRODUCT_CIRCUIT)
    return path


def test_eval_product_circuit(circuit_file):
    proc = run_cli("eval", str(circuit_file))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["bct"] == [1, 2]
    assert payload["ontic"] == [1, 2]
    assert payload["diff"] == [0, 1]


def test_eval_empty_file(tmp_path):
    path = tmp_path / "empty.bct"
    path.write_text("\n")
    proc = run_cli("eval", str(path))
    assert proc.returncode == 1
    assert "empty" in proc.stderr


def test_eval_parse_error_diagnostics(tmp_path):
    path = tmp_path / "bad.bct"
    path.write_text("system a = elem 2\ncircuit p = ghost\n")
    proc = run_cli("eval", str(path))
    assert proc.returncode == 1
    assert "ghost" in proc.stderr


def test_verify_small_run_passes(tmp_path):
    report = tmp_path / "report.json"
    proc = run_cli(
        "verify", "--suite", "codec", "--trials", "5", "--max-dim", "3",
        "--seed", "7", "--report", str(report),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["reports"][0]["suite"] == "codec"
    assert payload["reports"][0]["failures"] == []
    assert json.loads(report.read_text()) == payload


def test_verify_reports_are_byte_identical_for_equal_configs():
    args = ("verify", "--suite", "swap", "--trials", "4", "--max-dim", "3", "--seed", "21")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    third = run_cli("verify", "--suite", "swap", "--trials", "4", "--max-dim", "3",
                    "--seed", "22")
    assert third.stdout != first.stdout


def _kernel_fault(cfg):
    raise ValueError("kernel fault inside a suite")


def test_verify_lets_a_kernel_fault_in_a_suite_propagate(monkeypatch, capsys):
    # A ValueError from inside a suite is a fault of the program, not bad
    # input: it must not become exit 1 with the message as a diagnostic.
    monkeypatch.setitem(verify.SUITES, "codec", _kernel_fault)
    with pytest.raises(ValueError, match="kernel fault inside a suite"):
        cli.main(["verify", "--suite", "codec", "--trials", "1"])
    assert capsys.readouterr().err == ""


def test_run_suites_checks_every_name_before_running_one(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "codec", lambda cfg: ran.append(cfg))
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suites(["codec", "bogus"], verify.RunConfig(trials=1))
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suites("bogus", verify.RunConfig(trials=1))
    assert ran == []


def _corrupted_swap_report(suite):
    proc = run_cli("verify", "--suite", suite, "--trials", "2", "--max-dim", "3",
                   "--corrupt", "swap")
    assert proc.returncode == 3
    (report,) = json.loads(proc.stdout)["reports"]
    return report


def test_verify_corrupted_swap_exits_three():
    diagram = _corrupted_swap_report("diagram")
    swap = _corrupted_swap_report("swap")
    # ``_corrupt_swap`` clears the section shift of the first flip-1 term
    s2 = SystemShape((2,))
    src, dst, flip = min(k for k in bct.swap(s2, s2).coeffs if k[2] == 1)
    index = ontic.fused_index(s2.compose(s2))
    moved = [(index[2 * (dst - 1) + (b ^ f)], index[2 * (src - 1) + b])
             for f in (flip, 0) for b in (0, 1)]
    r, c = min(moved)
    assert diagram["failures"][0]["witness"] == ["swap-image", 2, 2, r, c]
    # the swap suite names the first pure input, in its loop order, whose
    # two-system part is that term's input label
    lab = unflatten_label(s2.compose(s2), src)
    (i, j), (s,) = lab.indices, lab.sections
    first = dsl.label_text(PureLabel((i, j, 1), (s, 0)))
    assert swap["failures"][0]["witness"][:5] == ["swap-defining-relation", 2, 2, 2, first]


def test_embed_identity_gate(circuit_file):
    proc = run_cli("embed", str(circuit_file), "--gate", "ident")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["map"]["in"] == 4 and payload["map"]["out"] == 4
    entries = payload["map"]["entries"]
    assert [entries[i * 4 + i] for i in range(4)] == [[1, 1]] * 4
    assert payload["in_wires"][0] == [1, 0]


def test_embed_atomic_gate_two_entries(circuit_file):
    proc = run_cli("embed", str(circuit_file), "--gate", "shift")
    payload = json.loads(proc.stdout)
    entries = payload["map"]["entries"]
    nonzero = [i for i, v in enumerate(entries) if v != [0, 1]]
    # (1, b) -> (2, b^1): positions (row 3, col 0) and (row 2, col 1)
    assert sorted(nonzero) == [2 * 4 + 1, 3 * 4 + 0]


def test_embed_unknown_gate(circuit_file):
    proc = run_cli("embed", str(circuit_file), "--gate", "nope")
    assert proc.returncode == 1


@pytest.mark.parametrize("name", ["x", "probe", "p"])
def test_embed_refuses_a_name_that_is_not_a_gate(circuit_file, capsys, name):
    assert cli.main(["embed", str(circuit_file), "--gate", name]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"unknown gate {name!r}\n"


def test_eval_refuses_an_unknown_circuit_as_embed_refuses_a_gate(circuit_file, capsys):
    assert cli.main(["eval", str(circuit_file), "--name", "nosuch"]) == 1
    assert capsys.readouterr() == ("", "unknown circuit 'nosuch'\n")
    assert cli.main(["embed", str(circuit_file), "--gate", "nosuch"]) == 1
    assert capsys.readouterr() == ("", "unknown gate 'nosuch'\n")


@pytest.mark.parametrize("argv, ontic_value, line", [
    (["p"], Fraction(1, 4),
     '{"bct": [1, 2], "diff": [1, 4], "name": "p", "ontic": [1, 4]}'),
    # An open image of the wrong shape deviates by 1.
    (["ident"], ClassicalMap.identity(2),
     '{"bct": {"in": [2], "out": [2], "terms": [{"i0": 1, "l": 1, "tau": 0, "w": [1, 1]}, '
     '{"i0": 2, "l": 2, "tau": 0, "w": [1, 1]}]}, "diff": [1, 1], "name": "ident", '
     '"ontic": {"entries": [[1, 1], [0, 1], [0, 1], [1, 1]], "in": 2, "out": 2}}'),
])
def test_eval_exits_two_when_the_backends_disagree(circuit_file, capsys, monkeypatch,
                                                    argv, ontic_value, line):
    # Only a kernel fault makes the two semantics differ; stand one in.
    monkeypatch.setattr(dsl, "eval_ontic", lambda ast, name: ontic_value)
    assert cli.main(["eval", str(circuit_file), "--name", *argv]) == cli.EXIT_DISAGREEMENT
    assert capsys.readouterr() == (line + "\n", "")


def test_eval_without_a_directive_or_a_name_exits_one(tmp_path, capsys):
    path = tmp_path / "boxes.bct"
    path.write_text("system a = elem 2\nstate x : a = (1)\n")
    assert cli.main(["eval", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "nothing to evaluate: pass --name or add eval directives\n")


def test_an_integer_flag_beyond_the_int_digit_limit_exits_one(capsys):
    # ``int`` refuses more than 4,300 digits with ValueError; the flag reads
    # it as not an integer.
    digits = "1" * 5000
    with pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--seed", digits])
    assert stop.value.code == 1
    assert capsys.readouterr() == (
        "", f"bctk verify: error: argument --seed: not an integer: '{digits}'\n")


def test_the_cli_module_runs_as_the_package_does():
    by_module = subprocess.run([sys.executable, "-m", "bctk.cli", "lct", "demo"],
                               capture_output=True, text=True)
    by_package = run_cli("lct", "demo")
    assert by_module.returncode == by_package.returncode == 0
    assert (by_module.stdout, by_module.stderr) == (by_package.stdout, by_package.stderr)
    assert json.loads(by_module.stdout)["max_violation"] == [0, 1]


def test_eval_directive_takes_the_names_eval_name_takes(tmp_path, capsys):
    body = "system a = elem 2\nstate x : a = 1/2 (1) + 1/4 (2)\neffect e : a = (2)\n"
    path = tmp_path / "boxes.bct"
    path.write_text(body + "eval x\neval e\n")
    assert cli.main(["eval", str(path)]) == 0
    directed = capsys.readouterr().out
    path.write_text(body)
    named = ""
    for name in ("x", "e"):
        assert cli.main(["eval", str(path), "--name", name]) == 0
        named += capsys.readouterr().out
    assert directed == named
    assert [json.loads(line)["name"] for line in directed.splitlines()] == ["x", "e"]


def test_lct_demo_annihilation_table():
    proc = run_cli("lct", "demo")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pairing"] == [1, 1]
    assert payload["max_violation"] == [0, 1]
    assert all(row["value"] == [0, 1] for row in payload["annihilation_table"])


def test_lct_refute_builtin_candidate():
    proc = run_cli("lct", "refute", "--candidate", "builtin:bct-style")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["violations"] == 1
    assert payload["violations_by_axiom"] == {"jellyfish-nullity": 1}


def test_lct_refute_random_sweep():
    proc = run_cli("lct", "refute", "--random", "100", "--seed", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["candidates"] == 100
    assert payload["violations"] == 100
    assert payload["fatal_inconsistencies"] == 0


def test_lct_refute_random_streams_its_candidates(monkeypatch, capsys):
    # Each candidate is drawn, falsified and dropped before the next one is
    # drawn, so memory does not grow with --random.
    calls = []
    draw, falsify = lct.random_candidate, lct.falsify

    def logged_draw(rng, inst):
        calls.append("draw")
        return draw(rng, inst)

    def logged_falsify(cand, inst):
        calls.append("falsify")
        return falsify(cand, inst)

    monkeypatch.setattr(lct, "random_candidate", logged_draw)
    monkeypatch.setattr(lct, "falsify", logged_falsify)
    assert cli.main(["lct", "refute", "--random", "12", "--seed", "3"]) == 0
    assert calls == ["draw", "falsify"] * 12
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 12
    assert len(payload["certificates"]) == 10


def test_lct_fabricated_candidate_exits_four(tmp_path):
    path = tmp_path / "noviolation.json"
    path.write_text(json.dumps({
        "L1": 2, "L2": 2,
        "xi_beta": [[1, 2], [1, 2], [0, 1], [0, 1]],
        "xi_b": [[0, 1], [0, 1], [1, 1], [1, 1]],
        "theory_pairing": [0, 1],
    }))
    proc = run_cli("lct", "refute", "--model", str(path))
    assert proc.returncode == 4
    payload = json.loads(proc.stdout)
    assert payload["fatal_inconsistencies"] == 1


@pytest.mark.parametrize("pairing, code", [([-7, 2], 1), ([3, 2], 1), ([0, 1], 4)])
def test_lct_model_theory_pairing_must_be_a_probability(tmp_path, pairing, code):
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps({
        "L1": 2, "L2": 2, "xi_beta": [1, 0, 0, 0], "xi_b": [0, 0, 1, 1],
        "theory_pairing": pairing,
    }))
    proc = run_cli("lct", "refute", "--model", str(path))
    assert proc.returncode == code
    if code == 1:
        assert proc.stdout == ""
        assert "theory_pairing must lie in [0, 1]" in proc.stderr
    else:
        assert json.loads(proc.stdout)["fatal_inconsistencies"] == 1


def test_lct_model_with_product_images_reaches_product_annihilation(tmp_path):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "L1": 2, "L2": 2,
        "xi_beta": [[1, 2], [1, 2], [0, 1], [0, 1]],
        "xi_b": [[0, 1], [0, 1], [1, 1], [1, 1]],
        "xi_sigma": [[1, 2], [1, 2]],
        "xi_tau": [[1, 2], [1, 2]],
    }))
    proc = run_cli("lct", "refute", "--model", str(path))
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)["certificates"][0]["certificate"]
    assert cert["violation"] == "product-annihilation"
    assert cert["lhs"] == [1, 2]


def test_lct_model_that_is_not_an_object_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("[]")
    assert cli.main(["lct", "refute", "--model", "F"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "cannot load candidate F: a candidate must be a JSON object\n")


def test_lct_model_with_one_product_image_exits_one(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "L1": 2, "L2": 2, "xi_beta": [1, 0, 0, 0], "xi_b": [1, 1, 1, 1],
        "xi_sigma": [[1, 2], [1, 2]],
    }))
    _assert_clean_rejection(run_cli("lct", "refute", "--model", str(path)),
                            "xi_sigma and xi_tau come together")


def test_lct_custom_instance():
    proc = run_cli("lct", "demo", "--d1", "3", "--d2", "2", "--dl", "3",
                   "--kappa", "1/2,1/2,0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["instance"]["kappa_perp"] == [[0, 1], [0, 1], [1, 1]]
    assert len(payload["annihilation_table"]) == 6


def test_lct_rejects_full_rank_kappa():
    proc = run_cli("lct", "demo", "--kappa", "1/2,1/2")
    assert proc.returncode == 1


def test_verify_report_bytes_are_pinned():
    # Measured before the float backend was removed; guards byte-identical reports.
    proc = run_cli("verify", "--suite", "all", "--trials", "20", "--max-dim", "3",
                   "--seed", "20260809")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "5091044035997dad0eccc5a375fb28b044627d59eb54365f38c5f8c9992c4fe7"


def test_verify_report_does_not_depend_on_cache_warmth(capsys):
    # The kernel's per-shape and per-label caches only skip rebuilding
    # values: a cold process, a warm one and a cleared one print the same.
    args = ("verify", "--suite", "all", "--trials", "20", "--max-dim", "3",
            "--seed", "20260809")
    fresh = run_cli(*args)
    assert fresh.returncode == 0, fresh.stderr
    outputs = []
    for clear in (False, False, True):
        if clear:
            for cached in (bct._zero_vector, bct._pure_vector, systems.label_text,
                           bct.identity, bct.swap):
                cached.cache_clear()
        assert cli.main(list(args)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [fresh.stdout] * 3
    assert (hashlib.sha256(fresh.stdout.encode()).hexdigest()
            == "5091044035997dad0eccc5a375fb28b044627d59eb54365f38c5f8c9992c4fe7")


def test_outputs_do_not_depend_on_the_hash_seed():
    # Shapes hash by identity and strings by a per-process seed, so no output
    # may depend on hash order.
    commands = [
        ("verify", "--suite", "all", "--trials", "20", "--max-dim", "3", "--seed", "20260809"),
        ("lct", "refute", "--random", "50"),
    ]
    for args in commands:
        outputs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-m", "bctk", *args], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args
        if args[0] == "verify":
            assert (hashlib.sha256(outputs[0].encode()).hexdigest()
                    == "5091044035997dad0eccc5a375fb28b044627d59eb54365f38c5f8c9992c4fe7")


@pytest.mark.parametrize("extra, code, digest, err", [
    ((), 0, "ed325194b3605b795bd230897de1cb4e8f5fa5422f19591dc838ae55f7d0120b", ""),
    (("--corrupt", "swap"), 3,
     "f74df4e93435e63c63f4d144c308d1dbf5bec3a00f8090e6bdb308a8569d441b",
     "17 verification failure(s)\n"),
])
def test_criterion_04_report_bytes_are_pinned(extra, code, digest, err, capsys):
    # The criterion-04 config: every suite's fixed families at max-dim 4, and
    # every witness the corrupted swap leaves.
    args = ["verify", "--suite", "all", "--seed", "20260809", "--trials", "200",
            "--max-dim", "4", *extra]
    assert cli.main(args) == code
    out, got_err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert got_err == err


@pytest.fixture(params=["plain", "argparse"])
def argv_reader(request, monkeypatch):
    """Runs a test once with ``eval FILE`` and ``embed FILE --gate NAME`` read
    by ``cli._plain_args``, and once with every command line read by argparse."""
    if request.param == "argparse":
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)


def test_eval_and_embed_bytes_are_pinned(tmp_path, capsys, argv_reader):
    # Measured before kernel results stopped being re-validated; pins the
    # apply/pull/compose_seq paths that eval takes and the gate images embed prints.
    digest = hashlib.sha256()
    for i in range(20):
        rng = random.Random(verify.derive_seed(7, "dsl", i))
        path = tmp_path / f"c{i}.bct"
        path.write_text(verify.random_circuit_source(rng, max_dim=4))
        for args in (["eval", str(path)], ["embed", str(path), "--gate", "g0"]):
            code = cli.main(args)
            out, err = capsys.readouterr()
            assert err == "", args
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "128f04812d65f1c63b73be6929adfb496741e9a0271ba906e7da713c072945cf"


# Every stage transition an open or closed circuit can make: state-, gate- and
# effect-opened circuits, parallel rows of each kind, a state prepared after a
# closed circuit, and every gate body.
OPEN_CIRCUITS = """\
system a = elem 2
system b = elem 3
system ab = a * b
system ba = b * a
system aa = a * a
system fused = elem 12
state x : a = 1/2 (1) + 1/4 (2)
state y : b = 1/3 (2) + 2/3 (3)
state xy : ab = 1/2 ((1,2);0) + 1/2 ((2,3);1)
effect ea : a = 1/2 (1) + (2)
effect eb : b = discard
effect eab : ab = 1/3 ((1,1);0) + ((2,3);1)
effect eba : ba = ((3,2);0) + 1/4 ((1,1);1)
effect efused : fused = 1/2 (5) + (7)
gate t : a -> a = atomic 1 -> 2 tau 1 w 1/2 + atomic 2 -> 1 tau 0 w 1/3 + atomic 2 -> 2 tau 1 w 2/3
gate u : b -> b = rev 3,1,2 1,0,1
gate ia : a -> a = id
gate ib : b -> b = id
gate flip : ab -> ba = swap a b
gate back : ba -> ab = swap b a
gate merge : ab -> fused = nu a b
gate split : fused -> ab = nu_inv a b
circuit closed = x | y ; t | u ; flip ; eba
circuit prepared = x | y ; merge ; split
circuit rearmed = xy ; eab ; x | x ; t | ia
circuit twice = x ; ea ; y ; eb
circuit pair = x | y
circuit process = t | u ; flip ; back
circuit tested = merge ; split ; eab
circuit probe = ia | ib ; flip ; eba
circuit measure = ea | eb
circuit single = efused
eval closed
eval prepared
eval rearmed
eval twice
eval pair
eval process
eval tested
eval probe
eval measure
eval single
"""


def test_open_circuit_eval_and_embed_bytes_are_pinned(tmp_path, capsys, monkeypatch,
                                                     argv_reader):
    # Measured before the evaluators folded checked stages instead of the AST.
    path = tmp_path / "open.bct"
    path.write_text(OPEN_CIRCUITS)
    gates = re.findall(r"^gate (\w+)", OPEN_CIRCUITS, re.MULTILINE)
    runs = [["eval", str(path)]]
    runs += [["eval", str(path), "--name", name] for name in ("x", "eab", "t")]
    runs += [["embed", str(path), "--gate", gate] for gate in gates]
    digest = hashlib.sha256()
    for args in runs:
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert err == "", args
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "dc172be06374a87556289056f40088ffd138985df8204a3de21fc26f898586b1"
    # Files that cannot be read or parsed, and gates the file does not
    # declare: one stderr line, no stdout, exit 1, by the bare names given.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.bct").write_bytes(b"system a = elem 2\n# caf\xe9\n")
    (tmp_path / "bad.bct").write_text("system a = elem 2\ncircuit p = ghost\n")
    missing = "cannot read missing.bct: [Errno 2] No such file or directory: 'missing.bct'\n"
    latin1 = ("cannot read latin1.bct: 'utf-8' codec can't decode byte 0xe9 in position 23: "
              "invalid continuation byte\n")
    for args, err in (
        (["eval", "missing.bct"], missing),
        (["embed", "missing.bct", "--gate", "t"], missing),
        (["eval", "latin1.bct"], latin1),
        (["embed", "latin1.bct", "--gate", "t"], latin1),
        (["eval", "bad.bct"], "bad.bct:2:13: unknown box 'ghost'\n"),
        (["embed", "bad.bct", "--gate", "t"], "bad.bct:2:13: unknown box 'ghost'\n"),
        (["embed", "open.bct", "--gate", "nosuch"], "unknown gate 'nosuch'\n"),
        (["embed", "open.bct", "--gate", ""], "unknown gate ''\n"),
    ):
        assert cli.main(args) == 1, args
        assert capsys.readouterr() == ("", err), args


def _old_dump_text(payload) -> str:
    """What ``_dump`` printed while every map value was built as ``to_json()``
    lists and the whole payload went through one ``json.dumps``."""
    payload = {key: value.to_json() if isinstance(value, ClassicalMap) else value
               for key, value in payload.items()}
    return json.dumps(payload, sort_keys=True, check_circular=False) + "\n"


def test_dump_prints_the_old_writer_bytes(tmp_path, capsys, monkeypatch):
    seen = []
    dump = cli._dump

    def recording_dump(payload):
        dump(payload)
        seen.append((payload, capsys.readouterr().out))

    monkeypatch.setattr(cli, "_dump", recording_dump)
    runs = []
    for i in range(20):
        rng = random.Random(verify.derive_seed(7, "dsl", i))
        path = tmp_path / f"c{i}.bct"
        path.write_text(verify.random_circuit_source(rng, max_dim=4))
        runs += [["eval", str(path)], ["embed", str(path), "--gate", "g0"]]
    path = tmp_path / "open.bct"
    path.write_text(OPEN_CIRCUITS)
    runs.append(["eval", str(path)])
    runs += [["embed", str(path), "--gate", gate]
             for gate in re.findall(r"^gate (\w+)", OPEN_CIRCUITS, re.MULTILINE)]
    runs += [["lct", "demo"], ["lct", "refute"], ["lct", "refute", "--random", "50", "--seed", "3"]]
    for args in runs:
        cli.main(args)
    assert len(seen) >= len(runs)
    map_keys = [key for payload, _ in seen for key, v in payload.items()
                if isinstance(v, ClassicalMap)]
    assert map_keys.count("map") == sum(args[0] == "embed" for args in runs)
    assert "ontic" in map_keys
    for payload, out in seen:
        assert out == _old_dump_text(payload)


# The largest system a circuit may have: ontic dimension 8 ** 3 == MAX_ONTIC_DIM.
CAP_CIRCUIT = """\
system a = elem 4
system b = a * a
system c = b * a
gate g : c -> c = id
circuit m = g
"""


def test_embed_and_eval_at_the_ontic_cap_keep_the_old_bytes(tmp_path, capsys):
    path = tmp_path / "cap.bct"
    path.write_text(CAP_CIRCUIT)
    ast = dsl.parse(CAP_CIRCUIT)
    gate = ast.boxes["g"]
    image = ontic.ontic_map(gate)
    assert image.shape == (dsl.MAX_ONTIC_DIM, dsl.MAX_ONTIC_DIM)

    assert cli.main(["embed", str(path), "--gate", "g"]) == 0
    assert capsys.readouterr().out == _old_dump_text({
        "gate": "g",
        "in_wires": [list(p) for p in ontic.wire_points(gate.in_shape)],
        "out_wires": [list(p) for p in ontic.wire_points(gate.out_shape)],
        "map": image,
    })

    assert cli.main(["eval", str(path), "--name", "m"]) == 0
    value_ontic = dsl.eval_ontic(ast, "m")
    assert value_ontic == image
    assert capsys.readouterr().out == _old_dump_text({
        "name": "m",
        "bct": dsl.eval_to_json(dsl.eval_bct(ast, "m")),
        "ontic": value_ontic,
        "diff": [0, 1],
    })


def _assert_clean_rejection(proc, needle):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert needle in proc.stderr


@pytest.mark.parametrize(
    "args, needle",
    [
        (("verify", "--trials", "-3"), "--trials"),
        (("verify", "--max-dim", "1"), "--max-dim"),
        (("verify", "--suite", "bogus"), "bogus"),
        (("verify", "--backend", "float"), "--backend"),
        (("verify", "--tol", "1e-9"), "--tol"),
        (("lct", "refute", "--random", "0"), "--random"),
        (("lct", "refute", "--random", "-2"), "--random"),
        (("lct", "demo", "--kappa", "1/0,1"), "1/0"),
        (("lct", "demo", "--kappa", "1e9,0"), "1e9"),
        (("verify", "--max-dim", str(verify.MAX_DIM + 1)), "--max-dim"),
        (("lct", "refute", "--random", "2", "--model", "missing.json"),
         "argument --model: not allowed with argument --random"),
        (("lct", "refute", "--model", "x.json", "--candidate", "y.json"),
         "argument --candidate: not allowed with argument --model"),
        (("lct", "refute", "--candidate", "builtin:bct-style", "--random", "1"),
         "argument --random: not allowed with argument --candidate"),
        (("lct", "demo", "--candidate", "builtin:bct-style"), "lct demo does not take --candidate"),
        (("lct", "demo", "--model", "missing.json"), "lct demo does not take --model"),
        (("lct", "demo", "--random", "3"), "lct demo does not take --random"),
        (("lct", "demo", "--seed", "5"), "lct demo does not take --seed"),
        (("lct", "demo", "--random", "3", "--seed", "5"),
         "lct demo does not take --random or --seed"),
        (("lct", "refute", "--seed", "5"), "lct refute: --seed needs --random"),
        # Only ASCII digits: ``int`` and ``\d`` would read these as 3, 7 or 1/2.
        (("lct", "demo", "--kappa", "\u0661/\u0662,\u0661/\u0662"), "not a number"),
        (("verify", "--trials", "\u0663", "--seed", "\u0667"), "--trials: not an integer"),
        (("verify", "--seed", "\u0667"), "--seed: not an integer"),
        (("verify", "--seed", "1_0"), "--seed: not an integer"),
        (("verify", "--max-dim", "\u0663"), "--max-dim: not an integer"),
        (("lct", "demo", "--d1", "\u0663"), "--d1: not an integer"),
        (("lct", "demo", "--d2", "\u0663"), "--d2: not an integer"),
        (("lct", "demo", "--dl", "\u0663"), "--dl: not an integer"),
        (("lct", "refute", "--random", "\u0663"), "--random: not an integer"),
        (("lct", "refute", "--random", "2", "--seed", "\u0667"), "--seed: not an integer"),
        # An empty value is a value: a path, a candidate or a kappa list.
        (("lct", "refute", "--model", ""), "cannot load candidate"),
        (("lct", "refute", "--candidate", ""), "cannot load candidate"),
        (("lct", "demo", "--kappa", ""), "not a number: ''"),
    ],
)
def test_bad_flags_exit_one(args, needle):
    _assert_clean_rejection(run_cli(*args), needle)


def test_empty_name_and_report_are_values(circuit_file, tmp_path):
    _assert_clean_rejection(run_cli("eval", str(circuit_file), "--name", ""),
                            "unknown circuit ''")
    # An empty report path fails as any other unwritable path does.
    verify_args = ("verify", "--suite", "codec", "--trials", "1", "--report")
    empty = run_cli(*verify_args, "")
    missing = run_cli(*verify_args, str(tmp_path / "missing" / "report.json"))
    for proc in (empty, missing):
        assert proc.returncode == 1
        assert proc.stdout == missing.stdout != ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("cannot write report:")


@pytest.mark.parametrize(
    "source, needle",
    [
        ("system a = elem 2\nstate x : a = 1/0 (1)\n", "2:15"),
        ("system a = elem " + "9" * 5000 + "\n", "1:17"),
        ("system a = elem 3\nstate s : a = \u0661/\u0663 (1) + 2/3 (2)\n",
         "2:15: unexpected character '\u0661'"),
    ],
)
def test_dsl_bad_number_exits_one(tmp_path, source, needle):
    path = tmp_path / "bad.bct"
    path.write_text(source)
    _assert_clean_rejection(run_cli("eval", str(path)), needle)


def test_dsl_deeply_nested_label_exits_one(tmp_path):
    # The label parser reads any depth of nesting without recursing.
    path = tmp_path / "deep.bct"
    path.write_text("system a = elem 2\nstate s : a = " + "(" * 5000 + "1\n")
    _assert_clean_rejection(run_cli("eval", str(path)),
                            "deep.bct:2:5016: expected ',', got 'end of line'")


@pytest.mark.parametrize("flag", ["--candidate", "--model"])
def test_lct_deeply_nested_candidate_exits_one(tmp_path, monkeypatch, capsys, flag):
    # json.loads recurses once per bracket, wherever the nesting sits.
    monkeypatch.chdir(tmp_path)
    body = json.dumps({"L1": 2, "L2": 2, "xi_beta": [[1, 4]] * 4, "xi_b": [[1, 1]] * 4})
    depth = 100_000
    (tmp_path / "F").write_text("[" * depth)
    (tmp_path / "G").write_text(body[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}")
    (tmp_path / "H").write_text(body[:-1] + ', "extra": [[[]]]}')
    for name in ("F", "G"):
        assert cli.main(["lct", "refute", flag, name]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"cannot load candidate {name}: ") and err.count("\n") == 1
    # The same candidate with a shallow extra value loads.
    assert cli.main(["lct", "refute", flag, "H"]) == 0
    assert json.loads(capsys.readouterr().out)["candidates"] == 1


@pytest.mark.parametrize("entry", [[1, 0], {}, "1/2", None])
def test_lct_malformed_candidate_entry_exits_one(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "L1": 2, "L2": 2,
        "xi_beta": [entry, [0, 1], [0, 1], [0, 1]],
        "xi_b": [[1, 1]] * 4,
    }))
    _assert_clean_rejection(run_cli("lct", "refute", "--model", str(path)), "bad.json")


@pytest.mark.parametrize("data", [[1, 2], {"L1": 2}, {"L1": "2", "L2": 2,
                                                     "xi_beta": [], "xi_b": []}])
def test_lct_malformed_candidate_exits_one(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    _assert_clean_rejection(run_cli("lct", "refute", "--candidate", str(path)), "bad.json")


def test_lct_json_floats_are_read_as_exact_decimals(tmp_path):
    outputs = []
    for name, quarter in (("float.json", 0.25), ("exact.json", [1, 4])):
        path = tmp_path / name
        path.write_text(json.dumps({
            "L1": 2, "L2": 2, "xi_beta": [quarter] * 4, "xi_b": [[1, 1]] * 4,
        }))
        proc = run_cli("lct", "refute", "--model", str(path))
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout)["certificates"][0]["certificate"])
    assert outputs[0] == outputs[1]
    assert outputs[0]["lhs"] == [1, 2]


def test_lct_oversized_candidate_exits_one(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "L1": 1, "L2": 513, "xi_beta": [1] + [0] * 512, "xi_b": [1] * 513,
    }))
    _assert_clean_rejection(run_cli("lct", "refute", "--model", str(path)), "L2 = 513")


def test_lct_oversized_instance_exits_one():
    _assert_clean_rejection(run_cli("lct", "demo", "--d1", "1000"), "4000")


def test_verify_max_dim_cap_is_admitted():
    proc = run_cli("verify", "--suite", "codec", "--trials", "1",
                   "--max-dim", str(verify.MAX_DIM))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("source", [
    f"system a = elem {dsl.MAX_ONTIC_DIM // 2 + 1}\ngate g : a -> a = id\n",
    "system a = elem 8\nsystem b = elem 17\nsystem ab = a * b\ngate g : ab -> ab = id\n",
])
def test_dsl_oversized_system_exits_one(tmp_path, source):
    path = tmp_path / "wide.bct"
    path.write_text(source)
    for args in (("embed", str(path), "--gate", "g"), ("eval", str(path))):
        _assert_clean_rejection(run_cli(*args), f"> {dsl.MAX_ONTIC_DIM}")


def test_dsl_overfull_atomic_gate_exits_one(tmp_path):
    path = tmp_path / "over.bct"
    path.write_text("system a = elem 2\n"
                    "gate g : a -> a = atomic 1 -> 1 tau 0 w 1 + atomic 1 -> 2 tau 1 w 1/2\n")
    _assert_clean_rejection(run_cli("embed", str(path), "--gate", "g"), "3/2 > 1")


def test_refused_circuit_exits_one_with_one_diagnostic(tmp_path):
    path = tmp_path / "wide.bct"
    path.write_text("system a = elem 8\ngate g : a -> a = id\ncircuit c = g | g | g\neval c\n")
    for args in (("embed", str(path), "--gate", "g"), ("eval", str(path))):
        _assert_clean_rejection(run_cli(*args), "ontic dimension 4096")


def test_state_after_an_open_effect_exits_one(tmp_path):
    path = tmp_path / "late.bct"
    path.write_text("system a = elem 2\nstate rho : a = (1)\neffect e : a = discard\n"
                    "circuit c = e ; rho\neval c\n")
    _assert_clean_rejection(
        run_cli("eval", str(path)),
        "late.bct:4:1: stage 2 of circuit 'c' prepares a state after an open effect")


@pytest.mark.parametrize("args", [("eval",), ("embed", "--gate", "g")])
def test_dsl_file_that_is_not_utf8_exits_one(tmp_path, args):
    path = tmp_path / "latin1.bct"
    path.write_bytes("system a = elem 2\n# caf\u00e9\n".encode("latin-1"))
    proc = run_cli(args[0], str(path), *args[1:])
    _assert_clean_rejection(proc, f"cannot read {path}: 'utf-8' codec can't decode")


_C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
# The package's own folder, so that a CLI run in another directory imports it.
_SRC_PATH = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def test_dsl_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "utf8.bct"
    path.write_text(PRODUCT_CIRCUIT + "# caf\u00e9\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "bctk", "eval", str(path)],
                          capture_output=True, text=True, env={**os.environ, **_C_LOCALE})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bct"] == [1, 2]


@pytest.mark.parametrize("args", [("eval",), ("embed", "--gate", "shift")])
def test_dsl_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, args):
    outputs = []
    for name, bom in (("plain.bct", b""), ("bom.bct", codecs.BOM_UTF8)):
        path = tmp_path / name
        path.write_bytes(bom + PRODUCT_CIRCUIT.encode("utf-8"))
        assert cli.main([args[0], str(path), *args[1:]]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


_CANDIDATE = {"L1": 2, "L2": 2, "xi_beta": [[1, 4]] * 4, "xi_b": [[1, 1]] * 4}


def test_candidate_json_is_read_as_utf8_whatever_the_locale(tmp_path):
    outputs = []
    for name, data in (("plain", _CANDIDATE), ("accented", {**_CANDIDATE, "note": "caf\u00e9"})):
        # One relative spec in two folders, so the two outputs can be equal.
        (tmp_path / name).mkdir()
        (tmp_path / name / "cand.json").write_text(json.dumps(data, ensure_ascii=False),
                                                   encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "bctk", "lct", "refute", "--model",
                               "cand.json"], capture_output=True, text=True,
                              cwd=tmp_path / name, env={**os.environ, **_C_LOCALE, **_SRC_PATH})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_candidate_json_with_a_byte_order_mark_reads_as_without(tmp_path, monkeypatch,
                                                                capsys, encoding):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for codec in ("utf-8", encoding):
        Path("cand.json").write_text(json.dumps(_CANDIDATE), encoding=codec)
        assert cli.main(["lct", "refute", "--model", "cand.json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


def test_every_text_file_call_names_its_encoding():
    """``read_text``, ``write_text`` and the builtin ``open`` in ``bctk`` name
    an encoding or work on bytes, so no output or diagnostic depends on the
    locale."""
    unnamed = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            text = isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text")
            if isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                text = not (isinstance(mode, ast.Constant) and "b" in str(mode.value))
            if text and not any(k.arg == "encoding" for k in node.keywords):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == []


def test_negative_seeds_are_valid(capsys):
    assert cli.main(["verify", "--suite", "swap", "--trials", "1", "--seed", "-5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == -5
    assert cli.main(["lct", "refute", "--random", "2", "--seed", "-3"]) == 0
    assert json.loads(capsys.readouterr().out)["candidates"] == 2


def test_random_refute_alone_uses_seed_zero(capsys):
    outputs = []
    for seed in ([], ["--seed", "0"]):
        assert cli.main(["lct", "refute", "--random", "4", *seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


PARSER_CORPUS = [
    ["eval", "c.bct"],
    ["eval", "c.bct", "--name", "p"],
    ["embed", "c.bct", "--gate", "shift"],
    ["verify", "--suite", "codec", "--seed", "-5", "--trials", "1", "--max-dim", "3",
     "--report", "r.json", "--corrupt", "swap"],
    ["lct", "refute", "--d1", "3", "--kappa", "1/2,1/2", "--random", "2", "--seed", "4"],
    ["lct", "demo"],
    ["-h"], ["eval", "-h"], ["verify", "-h"], ["embed", "-h"], ["lct", "-h"],
    ["nosuch"], [], ["--"],
    ["embed", "c.bct"], ["eval"],
    ["verify", "--suite", "nosuch"], ["lct", "nosuch"],
    ["lct", "refute", "--model", "a", "--random", "3"],
    ["verify", "--trials", "-1"], ["verify", "--max-dim", str(verify.MAX_DIM + 1)],
    ["eval", "c.bct", "--bogus"], ["verify", "extra"],
    # Next to the two lines ``cli._plain_args`` reads: empty and space-led
    # words are values, dash-led ones, "--", extra words and spellings of
    # ``--gate`` other than the exact flag before the value are left to argparse.
    ["eval", ""], ["eval", " -x"], ["eval", "-"], ["eval", "-1"], ["eval", "--", "c.bct"],
    ["eval", "c.bct", "extra"],
    ["embed", "c.bct", "--gate", ""], ["embed", "c.bct", "--gate", "-g"],
    ["embed", "c.bct", "--gate=g"], ["embed", "c.bct", "--ga", "g"],
    ["embed", "--gate", "g", "c.bct"],
]

# The entries of PARSER_CORPUS that ``cli._plain_args`` reads without a parser.
PLAIN_ARGV = [["eval", "c.bct"], ["eval", ""], ["eval", " -x"],
              ["embed", "c.bct", "--gate", "shift"], ["embed", "c.bct", "--gate", ""]]


def _parse_outcome(parser, argv, capsys):
    """``(exit code, stdout, stderr, namespace)`` of one ``parse_args``."""
    code = namespace = None
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr(), namespace)


def _assert_plain_args_agree(argv, code, namespace):
    """``_plain_args(argv)`` is ``None`` or the namespace argparse returned,
    and ``None`` wherever argparse exited."""
    plain = cli._plain_args(argv)
    assert plain is None or (code is None and plain == namespace), argv
    return plain


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_plain_args_is_none_or_the_full_parsers_namespace(argv, capsys):
    code, _, _, namespace = _parse_outcome(cli.build_parser(), argv, capsys)
    plain = _assert_plain_args_agree(argv, code, namespace)
    assert (plain is not None) == (argv in PLAIN_ARGV), argv


ARGV_WORD = st.sampled_from(["eval", "embed", "verify", "c.bct", "g", "", " -x", "-", "--",
                             "-h", "--gate", "--gate=g", "--ga", "--name", "-1", "x y",
                             "\u00e9"])
# Any line of one to five words, and lines in the two plain shapes with any
# word in each slot, so that the fast path fires on a good share of draws.
ARGV_LINE = st.one_of(
    st.lists(ARGV_WORD, min_size=1, max_size=5),
    st.tuples(st.just("eval"), ARGV_WORD).map(list),
    st.tuples(st.just("embed"), ARGV_WORD, st.just("--gate"), ARGV_WORD).map(list),
)


@seed(20261120)
@settings(max_examples=300, deadline=None)
@given(ARGV_LINE)
def test_plain_args_agrees_with_argparse_on_drawn_command_lines(argv):
    code = namespace = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    _assert_plain_args_agree(argv, code, namespace)


def test_build_parser_offers_the_four_commands_in_help_order():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert [(name, p.get_default("func")) for name, p in sub.choices.items()] == [
        ("eval", cli.cmd_eval), ("verify", cli.cmd_verify),
        ("embed", cli.cmd_embed), ("lct", cli.cmd_lct)]


def test_main_builds_no_parser_or_the_full_one(circuit_file, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    path = str(circuit_file)
    # ``eval FILE`` and ``embed FILE --gate NAME`` build no parser; any other
    # line builds the top-level parser and all four subparsers.
    for argv, count in ((["eval", path], 0), (["embed", path, "--gate", "shift"], 0),
                        (["eval", path, "--name", "p"], 5),
                        (["embed", path, "--gate=shift"], 5),
                        (["embed", "--gate", "shift", path], 5),
                        (["verify", "--suite", "codec", "--trials", "1"], 5),
                        (["lct", "demo"], 5)):
        built.clear()
        assert cli.main(argv) == 0, argv
        assert len(built) == count, argv
    for argv in ([], ["nosuch"]):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert len(built) == 5, argv


def test_the_entry_point_reads_plain_command_lines_without_a_parser(circuit_file, capsys):
    # ``main()`` reads ``sys.argv``; under ``-c`` that is the script's arguments.
    script = """if True:
        import sys
        from bctk import cli
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._Parser.__init__ = counting_init
        code = cli.main()
        print(len(built), file=sys.stderr)
        sys.exit(code)
    """
    path = str(circuit_file)
    for argv in (["eval", path], ["embed", path, "--gate", "shift"]):
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), argv
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "0\n"), argv


def test_every_public_name_resolves():
    # A stale export of a deleted name fails here, not at ``from bctk import *``.
    import bctk

    for name in bctk.__all__:
        assert getattr(bctk, name) is not None, name


def test_import_does_not_load_numpy(circuit_file):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bctk, bctk.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # numpy is a test-only dependency, so no command may load it either.
    script = f"""if True:
        import sys
        from bctk import cli
        path = {str(circuit_file)!r}
        for argv in (["verify", "--suite", "all", "--trials", "2"], ["eval", path],
                     ["embed", path, "--gate", "shift"], ["lct", "demo"],
                     ["lct", "refute", "--random", "5"]):
            assert cli.main(argv) == 0, argv
        print("numpy" in sys.modules, file=sys.stderr)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def test_verify_does_not_import_dsl():
    # The suites sit below the DSL: they print labels through systems.label_text.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bctk.verify; print('bctk.dsl' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert dsl.label_text is verify.label_text


@pytest.mark.parametrize("args, digest", [
    (("lct", "refute", "--random", "50", "--seed", "3"),
     "5fa43f948db38c3eb9628646903ad6264885204c1dfd53d57db4cc3e4190e2c4"),
    (("lct", "demo"), "69dd85257fd0fedae8d373d75897388199eb75583e4f9132497754ee42865b39"),
    (("lct", "refute"), "0dba41b7a5694c1a8d3b11bd80b93df3baf95351faa8886c7e0ca249ecfb086c"),
    # Every L1, L2 in 2..6 that random candidates draw.
    (("lct", "refute", "--random", "3000", "--seed", "5"),
     "45b6926f90ff92a0565b56202b34e0185fc6484e9010b3e48a92b8a1a8438b55"),
])
def test_lct_bytes_are_pinned(args, digest, capsys):
    # Measured while the jellyfish map still held Fraction cells; the 3000
    # candidate pin while every candidate entry was its own Fraction.
    assert cli.main(list(args)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("args, digest", [
    (("eval", "coprime_denominators.bct"),
     "8c09bbc05c81c1dbf2c80d461d7dbd66a872682272a292fe4ac48c38a698707e"),
    (("embed", "coprime_denominators.bct", "--gate", "g0"),
     "c92493abced88e2c2bebe5a8598c7496bff25569f1c6f99d7683ce50a816b216"),
    (("lct", "refute", "--model", "coprime_denominators_candidate.json"),
     "8f4f73bf3adb1d7e7c3151c88763ce3a32b09a254f7b6c2367927603492fb201"),
])
def test_coprime_denominator_inputs_keep_their_bytes(args, digest, capsys, monkeypatch):
    # Eighteen distinct 30-digit prime denominators, so one shared denominator
    # is a 540-digit lcm; measured while every weight was its own Fraction.
    # The lct report names the candidate file as given, so the files are
    # given by bare name from their own directory, wherever the checkout is;
    # the lct pin was re-measured that way on integer-lattice weights.
    monkeypatch.chdir(DATA)
    assert cli.main(list(args)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _run_with_closed_stdout(args):
    # The read end is closed before the command starts, so its first write
    # fails whatever the timing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bctk", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("args", [("verify", "--trials", "5"),
                                  ("lct", "demo", "--d1", "6", "--d2", "6")])
def test_closed_stdout_ends_quietly(args):
    _run_with_closed_stdout(args)


def test_embed_at_the_ontic_cap_with_closed_stdout_ends_quietly(tmp_path):
    path = tmp_path / "cap.bct"
    path.write_text(CAP_CIRCUIT)
    _run_with_closed_stdout(("embed", str(path), "--gate", "g"))
