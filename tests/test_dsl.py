"""Netlist parsing, type checking, dual evaluation, and pretty printing."""

import contextlib
import functools
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from bctk import cli, dsl, verify
from bctk.bct import Transformation
from bctk.systems import PureLabel, SystemShape, flatten_label

from kernel_helpers import classical_state

GOLDEN = """\
system a = elem 2
system b = elem 3
system ab = a * b
system ba = b * a
system fused = elem 12
state point : a = (2)
state mixed : ab = 1/2 ((1,2);0) + 1/2 ((2,3);1)
effect last : b = (3)
effect dump : ab = discard
gate t : a -> a = atomic 1 -> 2 tau 1 w 1/2 + atomic 2 -> 2 tau 0 w 1
gate wire : b -> b = id
gate flip : ab -> ba = swap a b
gate merge : ab -> fused = nu a b
gate split : fused -> ab = nu_inv a b
gate shuffle : a -> a = rev 2,1 1,0
circuit closed = mixed ; dump
circuit staged = point ; t ; shuffle
eval closed
"""


def test_parse_system_declaration():
    ast = dsl.parse("system a = elem 2\n")
    assert ast.shapes["a"] == SystemShape((2,))


def test_parse_gate_with_fractional_weight():
    ast = dsl.parse(
        "system a = elem 2\ngate t : a -> a = atomic 1 -> 2 tau 1 w 1/2\n"
    )
    gate = ast.boxes["t"]
    assert isinstance(gate, Transformation)
    assert gate.coeffs == {(1, 2, 1): Fraction(1, 2)}


def test_parse_golden_corpus_and_build_everything():
    ast = dsl.parse(GOLDEN)
    assert ast.shapes["ab"] == SystemShape((2, 3))
    assert ast.boxes["mixed"].weights.count(Fraction(1, 2)) == 2
    assert ast.boxes["dump"].weights == (1,) * 12
    assert ast.boxes["merge"].out_shape == SystemShape((12,))
    assert len(ast.circuits) == 2


def test_pretty_round_trip_is_stable():
    ast = dsl.parse(GOLDEN)
    printed = dsl.pretty(ast)
    again = dsl.parse(printed)
    assert dsl.pretty(again) == printed
    # identity up to whitespace: token streams agree with the source
    def tokens(text):
        return re.findall(r"[^\s]+", text)

    assert tokens(printed) == tokens(GOLDEN)


def test_shape_error_reports_stage():
    bad = (
        "system a = elem 2\nsystem b = elem 3\n"
        "state s : a = (1)\ngate t : b -> b = id\neffect e : b = discard\n"
        "circuit p = s ; t ; e\n"
    )
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(bad)
    assert "stage 2" in str(err.value)


def test_mixed_stage_kinds_rejected():
    bad = (
        "system a = elem 2\nstate s : a = (1)\ngate t : a -> a = id\n"
        "circuit p = s | t\n"
    )
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(bad)
    assert "mixes" in str(err.value)


@pytest.mark.parametrize("circuit, needle", [
    ("circuit c = g | g | g", "ontic dimension 4096"),
    ("circuit c = g ; h", "shape error"),
    ("circuit c = s | g", "mixes"),
    ("circuit c = g ; nope", "unknown box"),
    ("circuit c = e ; s", "7:1: stage 2 of circuit 'c' prepares a state after an open effect"),
    ("circuit c = g ; e ; s", "7:1: stage 3 of circuit 'c' prepares a state after an open effect"),
])
def test_refused_circuit_eval_adds_no_second_diagnostic(circuit, needle):
    src = (
        "system a = elem 8\nsystem b = elem 2\nstate s : a = (1)\n"
        "gate g : a -> a = id\ngate h : b -> b = id\neffect e : a = discard\n"
        f"{circuit}\neval c\n"
    )
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(src)
    assert len(err.value.diagnostics) == 1
    assert needle in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("system a = elem 2\nsystem a = elem 3\n")
    assert "duplicate" in str(err.value)


def test_unknown_references_have_spans():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("state s : nowhere = (1)\n")
    diag = err.value.diagnostics[0]
    assert diag.span.line == 1
    assert "nowhere" in diag.message


def test_syntax_error_span():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("system a = elem 2\ngate ! : a -> a = id\n")
    assert err.value.diagnostics[0].span.line == 2


def test_empty_program_rejected():
    with pytest.raises(dsl.DslError):
        dsl.parse("# nothing but comments\n\n")


def test_label_out_of_range_rejected():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("system a = elem 2\nstate s : a = (3)\n")
    assert "label" in str(err.value)


def test_invalid_nu_typing_rejected():
    bad = (
        "system a = elem 2\nsystem b = elem 3\nsystem ab = a * b\n"
        "system wrong = elem 7\ngate m : ab -> wrong = nu a b\n"
    )
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(bad)
    assert "nu" in str(err.value)


def test_eval_point_state_pairing():
    src = (
        "system a = elem 2\nstate s : a = (1)\neffect e : a = (1)\n"
        "circuit p = s ; e\neval p\n"
    )
    ast = dsl.parse(src)
    assert dsl.eval_bct(ast, "p") == 1
    assert dsl.eval_ontic(ast, "p") == 1


def test_eval_product_pairing_is_half():
    src = (
        "system a = elem 2\nsystem b = elem 2\nsystem ab = a * b\n"
        "state x : a = (1)\nstate y : b = (1)\n"
        "effect probe : ab = ((1,1);0)\n"
        "circuit p = x | y ; probe\neval p\n"
    )
    ast = dsl.parse(src)
    assert dsl.eval_bct(ast, "p") == Fraction(1, 2)
    assert dsl.eval_ontic(ast, "p") == Fraction(1, 2)


def test_eval_open_circuit_yields_state():
    src = (
        "system a = elem 2\nstate s : a = (1)\n"
        "gate t : a -> a = atomic 1 -> 2 tau 0 w 1\n"
        "circuit p = s ; t\n"
    )
    ast = dsl.parse(src)
    out = dsl.eval_bct(ast, "p")
    assert out.weights == (0, 1)
    img = dsl.eval_ontic(ast, "p")
    assert img == classical_state([0, 0, Fraction(1, 2), Fraction(1, 2)])


def test_eval_gate_only_circuit():
    src = (
        "system a = elem 2\ngate t : a -> a = atomic 1 -> 2 tau 0 w 1\n"
        "gate u : a -> a = atomic 2 -> 1 tau 0 w 1\ncircuit p = t ; u\n"
    )
    ast = dsl.parse(src)
    out = dsl.eval_bct(ast, "p")
    assert out.coeffs == {(1, 1, 0): 1}


def test_eval_unknown_name():
    ast = dsl.parse("system a = elem 2\nstate s : a = (1)\n")
    with pytest.raises(KeyError):
        dsl.eval_bct(ast, "missing")


def test_differential_oracle_on_seeded_corpus():
    for idx in range(30):
        rng = random.Random(verify.derive_seed(2024, "dsl-corpus", idx))
        src = verify.random_circuit_source(rng, max_dim=3)
        ast = dsl.parse(src)
        assert dsl.eval_bct(ast, "main") == dsl.eval_ontic(ast, "main")


def test_swap_gate_evaluates_consistently():
    src = (
        "system a = elem 2\nsystem b = elem 3\nsystem ab = a * b\nsystem ba = b * a\n"
        "state x : a = (2)\nstate y : b = (3)\n"
        "gate flip : ab -> ba = swap a b\n"
        "effect probe : ba = ((3,2);0)\n"
        "circuit p = x | y ; flip ; probe\neval p\n"
    )
    ast = dsl.parse(src)
    assert dsl.eval_bct(ast, "p") == Fraction(1, 2)
    assert dsl.eval_ontic(ast, "p") == Fraction(1, 2)


def test_ontic_dimension_cap_admits_its_boundary_and_refuses_beyond():
    top = dsl.MAX_ONTIC_DIM // 2
    ast = dsl.parse(f"system a = elem {top}\ngate g : a -> a = id\n")
    assert ast.shapes["a"].ontic_dim == dsl.MAX_ONTIC_DIM
    for src in (
        f"system a = elem {top + 1}\ngate g : a -> a = id\n",
        "system a = elem 8\nsystem b = elem 17\nsystem ab = a * b\n",
        "system a = elem 8\ngate g : a -> a = id\ncircuit c = g | g | g\n",
    ):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(src)
        assert f"> {dsl.MAX_ONTIC_DIM}" in str(err.value)
    # the benchmark's circuits stay inside the cap
    rng = random.Random(4)
    for _ in range(20):
        dsl.parse(verify.random_circuit_source(rng, max_dim=4))


@pytest.mark.parametrize("line, diagnostic", [
    ("system a = elem 2 $", "1:19: unexpected character '$'"),
    ("system a = elem 2$", "1:18: unexpected character '$'"),
    ("gate g : a - a = id", "1:12: unexpected character '-'"),
    ("\t  @", "1:4: unexpected character '@'"),
])
def test_bad_character_is_reported_at_itself(line, diagnostic):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(line + "\n")
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


@pytest.mark.parametrize("source, diagnostic", [
    ("system a = elem 1/2", "1:17: expected an integer, got '1/2'"),
    # An integer below 2 is refused for the whole line.
    ("system a = elem 1", "1:1: elementary systems need dimension >= 2"),
    ("system a = elem 2\nsystem b = elem 2\nsystem ab = a * b\n"
     "state s : ab = ((1,1);2)", "4:23: section bit must be 0 or 1"),
])
def test_integer_errors_are_reported_at_the_number(source, diagnostic):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(source + "\n")
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


_NOT_IN_A = "index 3 out of range [1..2] in label for (2)"


@pytest.mark.parametrize("line, diagnostic", [
    ("state s : a = 1 (1) + 1 (2)", "2:1: state 's': state weights must sum to at most 1"),
    ("effect e : a = 2 (1)", "2:1: effect 'e': effect weights must lie in [0, 1]"),
    ("state s : a = discard", "2:15: expected '(', got 'discard'"),
    ("state s : a = (3)", f"2:15: state label does not fit system: {_NOT_IN_A}"),
    ("effect e : a = (3)", f"2:16: effect label does not fit system: {_NOT_IN_A}"),
    ("effect e : b = discard", "2:1: unknown system 'b'"),
    ("state s : a =", "2:14: expected a weighted label"),
    ("state s : a = (1) +", "2:20: expected a weighted label"),
    # The other line kinds, after the same declaration.
    ("eval a extra", "2:8: trailing input 'extra'"),
    ("gate g : a -> a =", "2:18: expected a gate body"),
    ("system b = elem 3\ngate g : a -> b = id",
     "3:1: gate 'g': identity gates need equal input and output systems"),
    ("system b = elem 3\ngate g : a -> b = rev 1,2 0,0",
     "3:1: gate 'g': reversible gates need equal input and output systems"),
])
def test_state_and_effect_diagnostics_name_their_kind(line, diagnostic):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(f"system a = elem 2\n{line}\n")
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


@pytest.mark.parametrize("declared, line, diagnostic", [
    (1, "system c = a * b", "2:1: unknown system 'b'"),
    (1, "system c = b * a", "2:1: unknown system 'b'"),
    (1, "gate g : a -> b = id", "2:1: unknown system 'b'"),
    (1, "gate g : b -> a = id", "2:1: unknown system 'b'"),
    (2, "gate g : aa -> aa = swap a b", "3:1: gate 'g': unknown system 'b'"),
    (2, "gate g : aa -> aa = nu b a", "3:1: gate 'g': unknown system 'b'"),
    (2, "gate g : aa -> aa = nu_inv a b", "3:1: gate 'g': unknown system 'b'"),
    # With both names unknown, the first one is named.
    (1, "system c = b * d", "2:1: unknown system 'b'"),
    (1, "gate g : b -> d = id", "2:1: unknown system 'b'"),
    (2, "gate g : aa -> aa = swap d b", "3:1: gate 'g': unknown system 'd'"),
])
def test_the_first_unknown_of_two_systems_is_named(declared, line, diagnostic):
    systems = ["system a = elem 2", "system aa = a * a"][:declared]
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("\n".join([*systems, line, ""]))
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_lines_end_at_newline_only(sep):
    # Editors and ``wc -l`` start a line only at "\n"; every other separator
    # str.splitlines knows is whitespace inside the line.
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(f"system a = elem 2{sep}$\n")
    assert [str(d) for d in err.value.diagnostics] == ["1:19: unexpected character '$'"]


def test_crlf_line_ends_keep_columns():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("system a = elem 2\r\nsystem b = elem 2 $\r\n")
    assert [str(d) for d in err.value.diagnostics] == ["2:19: unexpected character '$'"]


# The tokenizer that ``dsl._tokenize_line`` replaced: one anchored match per
# token with a leading-whitespace prefix and frozen token objects.  Kept as an
# oracle, with two intended changes: a bad character is reported at its own
# column, not at the whitespace before it, and a number is ASCII digits only,
# so ``\u0663`` is a bad character rather than the digit 3.
_ORACLE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comment>#.*)|(?P<arrow>->)|(?P<number>[0-9]+/[0-9]+|[0-9]+\.[0-9]+|[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()\[\],;:=+*|]))"
)


def _oracle_tokenize_line(line: str, lineno: int) -> list:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _ORACLE_TOKEN_RE.match(line, pos)
        if m is None:
            rest = line[pos:]
            if not rest.strip():
                break
            pos += len(rest) - len(rest.lstrip())
            raise dsl.DslError(
                [dsl.Diagnostic(dsl.SourceSpan(lineno, pos + 1, pos + 2),
                                f"unexpected character {line[pos]!r}")]
            )
        pos = m.end()
        if m.lastgroup == "comment":
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1, m.end(kind) + 1))
    return tokens


def _tokens_or_diagnostic(tokenize, line):
    try:
        return tokenize(line, 7)
    except dsl.DslError as exc:
        return [str(d) for d in exc.diagnostics]


_FRAGMENTS = st.sampled_from([
    "system", "gate", "atomic", "tau", "w", "x_1", "A9", "_", "12", "1/2", "0.25", "3.",
    "/", ".", "->", "-", ">", "(", ")", "[", "]", ",", ";", ":", "=", "+", "*", "|",
    "#", "# tail $", " ", "  ", "\t", "$", "!", "@", "~", "\u00e9", "\u0663", "\u00a0",
])
_LINES = st.one_of(
    st.lists(_FRAGMENTS, max_size=24).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c"
                          "\x1c\x1d\x1e\x85\u2028\u2029"), max_size=40),
)


@seed(20261018)
@given(_LINES)
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_the_anchored_oracle(line):
    assert _tokens_or_diagnostic(dsl._tokenize_line, line) == _tokens_or_diagnostic(
        _oracle_tokenize_line, line)


# Declared boxes for random stage sequences: states, effects and gates on
# ``a``, ``b`` and ``ab``, so rows mix kinds, shapes mismatch, wires grow past
# the ontic cap, and states follow open or closed circuits.
_BOXES_SOURCE = """\
system a = elem 2
system b = elem 3
system ab = a * b
state x : a = 1/2 (1) + 1/4 (2)
state y : b = (3)
state xy : ab = 1/3 ((1,2);0) + 2/3 ((2,3);1)
effect ea : a = 1/2 (2)
effect eb : b = discard
effect eab : ab = ((1,1);0) + 1/4 ((2,1);1)
gate t : a -> a = atomic 1 -> 2 tau 1 w 1/2 + atomic 2 -> 1 tau 0 w 1
gate u : b -> b = rev 3,1,2 1,0,1
gate w : ab -> ab = id
"""
_BOX_NAMES = ("x", "y", "xy", "ea", "eb", "eab", "t", "u", "w")


@seed(20261018)
@given(st.lists(st.lists(st.sampled_from(_BOX_NAMES), min_size=1, max_size=2),
                min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_every_stage_sequence_is_refused_once_or_agrees(stages):
    source = _BOXES_SOURCE + "circuit c = " + " ; ".join(
        " | ".join(row) for row in stages) + "\neval c\n"
    try:
        dsl.parse(source)
    except dsl.DslError as exc:
        assert len(exc.diagnostics) == 1, source
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bct"
        path.write_text(source)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", str(path)])
    assert code == 0, source
    assert json.loads(out.getvalue())["diff"] == [0, 1], source


# ---------------------------------------------------------------------------
# the fast path against the token parser
# ---------------------------------------------------------------------------


def _token_decl(line: str, lineno: int):
    """What the token parser makes of one line: a declaration, or its
    diagnostics."""
    try:
        return dsl._parse_line(dsl._tokenize_line(line, lineno), lineno)
    except dsl.DslError as exc:
        return exc.diagnostics


def _parse_or_diagnostics(source: str):
    try:
        return dsl.parse(source)
    except dsl.DslError as exc:
        return exc.diagnostics


def _token_parse(source: str):
    with mock.patch.object(dsl, "_fast_line", lambda line, lineno: None):
        return _parse_or_diagnostics(source)


def _assert_alike(result, expected, context=None):
    """``==``, and ``repr`` too: the records are named tuples, which compare
    equal across record types and to plain tuples, and a weight compares
    equal as an ``int`` and as a ``Fraction``."""
    assert result == expected, context
    if isinstance(result, dsl.CircuitAst):
        result, expected = result.decls, expected.decls
    assert repr(result) == repr(expected), context


@functools.lru_cache(maxsize=None)
def _fast_corpus() -> tuple:
    """Sources from ``random_circuit_source`` over 200 seeds at every
    ``max_dim`` from 2 to 4, each followed by its ``pretty`` form, which
    drops weights of 1."""
    sources = []
    for idx in range(200):
        for max_dim in (2, 3, 4):
            rng = random.Random(verify.derive_seed(13, "dsl-fast", idx))
            src = verify.random_circuit_source(rng, max_dim=max_dim)
            sources += [src, dsl.pretty(dsl.parse(src))]
    for src in (GOLDEN, _BOXES_SOURCE):
        sources += [src, dsl.pretty(dsl.parse(src))]
    return tuple(sources)


# Hand-written lines in the compact form that the corpus does not reach:
# decimal weights, atomic terms without the optional keyword, labels of every
# factor count up to the bound, every pair gate, a circuit with parallel rows,
# and names that are keywords.
_FAST_LINES = [
    "state s : a = 0.25 (1) + 0.75 (2)",
    "effect e : abc = (((1,2);0,3);1) + 1/3 (((2,1);1,1);0)",
    "effect e : abcd = 1 ((((1,2);0,3);1,4);0)",
    "gate t : a -> a = atomic 1 -> 2 tau 1 w 1/2 + 2 -> 2 tau 0 w 1",
    "gate t : a -> a = atomic 1 -> 2 tau 1 w 0.5 + 2 -> 1 tau 0 w 1 + atomic 2 -> 2 tau 1 w 0",
    "state discard : atomic = 07 (010) + 3/006 ((01,2);1)",
    "gate s : ab -> ba = swap a b",
    "gate n : ab -> f = nu a b",
    "gate n : f -> ab = nu_inv a b",
    "gate r : a -> a = rev 007,1 0,01",
    "circuit c = x | y ; t | w ; e",
    "system elem = elem 2",
    "system rev = a * elem",
    "gate id : a -> a = id",
    "gate swap : id -> rev = swap nu nu_inv",
    "effect discard : effect = discard",
    "eval rev",
]


def test_label_factor_bound_is_derived_from_the_ontic_cap():
    # Each factor has ontic dimension >= 4.
    bound = dsl._MAX_LABEL_FACTORS
    assert bound == 4
    assert 4 ** bound <= dsl.MAX_ONTIC_DIM < 4 ** (bound + 1)
    labels = ["(1)", "((1,2);0)", "(((1,2);0,3);1)", "((((1,2);0,3);1,4);0)",
              "(((((1,2);0,3);1,4);0,5);1)"]
    for factors, label in enumerate(labels, start=1):
        fast = dsl._fast_line(f"state s : a = {label}", 1)
        assert (fast is not None) == (factors <= bound)


def test_every_line_of_the_corpus_takes_the_fast_path():
    # The corpus holds each source and its pretty form.
    lines = [line for src in _fast_corpus() for line in src.splitlines()] + _FAST_LINES
    assert len(lines) > 10000
    for lineno, line in enumerate(lines, start=1):
        decl = dsl._fast_line(line, lineno)
        assert decl is not None, line
        # repr also compares the types of the weights, Fraction against int.
        assert repr(decl) == repr(_token_decl(line, lineno)), line


def test_the_corpus_never_reaches_the_tokenizer():
    # A change that sends a line kind back to the token parser fails here.
    with mock.patch.object(dsl, "_tokenize_line", wraps=dsl._tokenize_line) as tokenize:
        for src in _fast_corpus():
            dsl.parse(src)
    assert tokenize.call_count == 0


def test_corpus_parses_alike_on_both_paths():
    for src in _fast_corpus():
        ast = dsl.parse(src)
        _assert_alike(ast, _token_parse(src), src)
        # Vector weights summed in Fraction, as before the integer lattice.
        for decl in ast.decls:
            if isinstance(decl, dsl.VectorDecl) and decl.terms is not None:
                shape = ast.shapes[decl.system]
                weights = [Fraction(0)] * shape.global_dim
                for term in decl.terms:
                    weights[flatten_label(shape, term.label) - 1] += term.weight
                assert ast.boxes[decl.name].weights == tuple(weights)


def _replace_match(pattern: str, replacement):
    """A mutation that rewrites one match of ``pattern``, chosen by an index."""
    def mutate(line: str, pick: int):
        matches = list(re.finditer(pattern, line))
        if not matches:
            return None
        m = matches[pick % len(matches)]
        new = replacement if isinstance(replacement, str) else replacement(m.group())
        return line[:m.start()] + new + line[m.end():]
    return mutate


_NAME_RE = r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*"

_MUTATIONS = {
    "tab": _replace_match(" ", "\t"),
    "double space": _replace_match(" ", "  "),
    "nbsp": _replace_match(" ", "\u00a0"),
    "bit 2": _replace_match(r"(?<=;)[01]", "2"),
    "bit 01": _replace_match(r"(?<=;)[01]", "01"),
    "zero denominator": _replace_match(r"[0-9]+(?:/[0-9]+)?", "1/0"),
    "5000 digits": _replace_match(r"[0-9]+", "7" * 5000),
    "arabic-indic digit": _replace_match(r"[0-9]", "\u0663"),
    "dropped paren": _replace_match(r"[()]", ""),
    "5-factor label": _replace_match(r"\([0-9(][^ ]*\)", "(((((1,2);0,3);1,4);0,5);1)"),
    "trailing #": lambda line, pick: line + ("#" if pick % 2 else " # note"),
    "leading space": lambda line, pick: " " + line,
    "atomic dropped": _replace_match(r" \+ atomic ", " + "),
    **{f"name {keyword}": _replace_match(_NAME_RE, keyword)
       for keyword in ("elem", "discard", "id", "rev", "atomic")},
    "dropped *": _replace_match(r" \*", ""),
    "; and | swapped": _replace_match(r"[;|]", lambda sep: "|" if sep == ";" else ";"),
    "doubled rev comma": _replace_match(r",(?=[0-9]+(?:,[0-9]+)*(?: |$))", ",,"),
}


@seed(20261018)
@given(st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_lines_agree_with_the_token_parser(data):
    sources = _fast_corpus()
    src = sources[data.draw(st.integers(0, len(sources) - 1), label="source")]
    lines = src.split("\n")
    name = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="mutation")
    pick = data.draw(st.integers(0, 200), label="pick")
    # Any line of the source that the mutation changes.
    candidates = {i: new for i, line in enumerate(lines)
                  if (new := _MUTATIONS[name](line, pick)) not in (None, line)}
    if not candidates:
        return
    index = data.draw(st.sampled_from(sorted(candidates)), label="line")
    mutated = candidates[index]
    lineno = index + 1
    fast = dsl._fast_line(mutated, lineno)
    if fast is not None:
        _assert_alike(fast, _token_decl(mutated, lineno), (name, mutated))
    if name == "atomic dropped" and mutated.startswith("gate"):
        assert fast is not None, mutated
    lines[index] = mutated
    source = "\n".join(lines)
    _assert_alike(_parse_or_diagnostics(source), _token_parse(source), (name, mutated))


_NOT_IN_AA = "index 3 out of range [1..2] in label for (2,2)"


@pytest.mark.parametrize("line, diagnostic, end_col", [
    ("state s : a = 1/2 (1) + (3)", f"3:25: state label does not fit system: {_NOT_IN_A}", 28),
    ("state s : a = 1/2 (1) + 1/4 (2) + 3/16 (3)",
     f"3:40: state label does not fit system: {_NOT_IN_A}", 43),
    ("effect e : a = (2) + 3/16 (3)", f"3:27: effect label does not fit system: {_NOT_IN_A}", 30),
    ("effect e : a = 1/2 (1) + 1/4 (2) + (3)",
     f"3:36: effect label does not fit system: {_NOT_IN_A}", 39),
    ("state s : aa = 3/16 ((1,1);0) + 1/2 ((1,3);1)",
     f"3:37: state label does not fit system: {_NOT_IN_AA}", 46),
    ("effect e : aa = ((2,2);1) + (((1,1);0,1);1)",
     "3:29: effect label does not fit system: label PureLabel(indices=(1, 1, 1), "
     "sections=(0, 1)) does not fit shape (2,2)", 44),
])
def test_a_later_label_that_does_not_fit_is_reported_at_itself(line, diagnostic, end_col):
    # The fast path takes the line and works the columns out from its layout.
    assert dsl._fast_line(line, 3) is not None
    source = f"system a = elem 2\nsystem aa = a * a\n{line}\n"
    for result in (_parse_or_diagnostics(source), _token_parse(source)):
        assert [(str(d), d.span.end_col) for d in result] == [(diagnostic, end_col)]


def test_fast_path_diagnostics_come_from_the_token_parser():
    head = "system a = elem 2\nsystem b = elem 2\nsystem ab = a * b\n"
    for line, diagnostic in [
        ("state s : ab = 1/0 ((1,1);0)", "4:16: zero denominator in '1/0'"),
        ("state s : ab = ((1,1);2)", "4:23: section bit must be 0 or 1"),
        ("state s : ab = (((((1,2);0,1);1,2);0,1);1)",
         "4:16: state label does not fit system: label PureLabel(indices=(1, 2, 1, 2, 1), "
         "sections=(0, 1, 0, 1)) does not fit shape (2,2)"),
        ("gate g : ab -> ab = atomic 1 -> 2 tau 0 w 1/0", "4:43: zero denominator in '1/0'"),
        ("effect e : ab = 1 ((1,1);0) # comment +", None),
        # A line a looser fast path would take.
        ("system c = elem * a", "4:17: expected 'number', got '*'"),
        ("state s : ab = discard", "4:16: expected '(', got 'discard'"),
        ("gate g : ab -> ab = swap a", "4:27: expected 'ident', got 'end of line'"),
        ("gate g : a -> a = rev 2,,1 0,1", "4:25: expected 'number', got ','"),
        ("circuit c = s | ; e", "4:17: expected 'ident', got ';'"),
        ("system c = elem " + "9" * 5000,
         "4:17: Exceeds the limit (4300 digits) for integer string conversion: value has "
         "5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ]:
        result = _parse_or_diagnostics(head + line + "\n")
        if diagnostic is None:
            assert isinstance(result, dsl.CircuitAst)
        else:
            assert [str(d) for d in result] == [diagnostic]
        _assert_alike(result, _token_parse(head + line + "\n"), line)
