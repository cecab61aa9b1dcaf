"""A line-oriented netlist language for process diagrams.

Declarations introduce systems, states, effects and gates; a circuit is a
list of stages separated by ``;`` where each stage is a parallel row of
boxes separated by ``|``.  A row holds boxes of one kind, each stage takes
the system the one before it ends on, and a state stage after the first
follows only a circuit that opened with a state (and so has closed to a
scalar): ``e ; rho`` is refused, since it would leave an open effect.

The records a line parses into, and :class:`Diagnostic`, are named tuples;
only the checked program, :class:`CircuitAst`, is a mutable dataclass.  As
tuples, two records of different types with equal fields compare equal, so
code that must tell them apart tests the type.  A state and an effect are
both a weighted sum of pure labels, so both lines parse into one
:class:`VectorDecl` whose ``kind`` tells them apart.  The gates built from
two named systems are one table, ``_PAIR_GATES``.

A declaration, a circuit box and a diagnostic carry a :class:`SourceSpan`:
the line and the 1-based start and end columns.  A :class:`VectorTerm`
carries only its label's two columns, since its line is its declaration's;
the span of a label that does not fit its system is built only for that
diagnostic.

Systems, states, effects, gates and circuits share one namespace.  States,
effects and gates are built into one name table, ``CircuitAst.boxes``; an
``eval NAME`` directive and ``bctk eval --name NAME`` accept the same names,
a circuit or any box.

Checking resolves each circuit once, into ``(kind, boxes)`` stages of the
built :class:`State`/:class:`Effect`/:class:`Transformation` values kept in
``CircuitAst.circuits``.  Two evaluators fold those stages, not the AST: one
with the bilocal semantics, the other with the classical image of every box.
Closed circuits produce scalars in both, and the pair of values is the
empirical-adequacy differ used throughout the test-suite.

Grammar (one construct per line, ``#`` comments)::

    system NAME = elem INT | NAME * NAME
    state NAME : SYSTEM = [NUM] LABEL (+ [NUM] LABEL)*
    effect NAME : SYSTEM = discard | [NUM] LABEL (+ [NUM] LABEL)*
    gate NAME : SYSTEM -> SYSTEM = BODY
    BODY = atomic TERM (+ TERM)* | id | swap A B | nu A B | nu_inv A B
         | rev P1,..,Pn B1,..,Bn
    TERM = ["atomic"] INT -> INT tau BIT w NUM
    circuit NAME = BOX (| BOX)* (; BOX (| BOX)*)*
    eval NAME

Labels use 1-based indices with explicit section bits: ``(2)``,
``((1,2);0)``, ``(((1,2);0,3);1)``.

A line reaches its declaration by one of two paths.  The fast path,
:func:`_fast_line`, takes every line written in the compact single-space
form of :func:`pretty` and ``verify.random_circuit_source``: the line's
first word picks one anchored regex, one ``fullmatch`` checks the whole
line, the terms of a vector are read by splitting at `` + `` (the columns
follow from the single-space layout), one ``finditer`` reads the terms of an
atomic gate or the boxes of a circuit, and the result equals the token
parser's.  Both paths read a name and a number through the same two
patterns, ``_NAME`` and ``_NUM``; the fast path builds each distinct weight
and label text once.
Every other line goes to the token parser: a comment, other whitespace, a
label with more factors than a system within :data:`MAX_ONTIC_DIM` has, a
number that does not convert, and any line the token parser refuses.
Diagnostics come only from the token parser.  It tokenizes a
line in one ``finditer`` pass into plain ``(kind, text, col, end_col)``
tuples with 1-based columns.  A character that starts no token is refused
at its own column, e.g. ``1:19: unexpected character '$'`` for
``system a = elem 2 $``.

A system or a circuit wire whose ontic dimension exceeds
:data:`MAX_ONTIC_DIM` is refused with a diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from . import bct, classical, ontic
from .bct import Effect, State, Transformation
from .scalars import lattice, number_json, number_text, parse_number
from .systems import PureLabel, SystemShape, flatten_label, label_text

# Largest ontic dimension of a declared system or of a circuit wire.  Images
# are sparse, but ``embed`` and ``eval`` print an open map as dense D x D JSON
# through ``ClassicalMap.to_json_text`` (at the cap, 262144 cells and about
# 2 MB of text in a few milliseconds), and a state image has D entries.
# ``random_circuit_source(max_dim=4)`` reaches 64.
MAX_ONTIC_DIM = 512


class SourceSpan(NamedTuple):
    line: int
    col: int
    end_col: int


class Diagnostic(NamedTuple):
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.col}: {self.message}"


class DslError(Exception):
    """Raised when parsing or checking fails; carries every diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

# A name and a number, for the tokenizer and the fast-path regexes alike.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"[0-9]+(?:/[0-9]+|\.[0-9]+)?"

_TOKEN_RE = re.compile(
    rf"(?P<comment>#.*)|(?P<arrow>->)|(?P<number>{_NUM})"
    rf"|(?P<ident>{_NAME})|(?P<punct>[()\[\],;:=+*|])|(?P<bad>\S)"
)


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int, int]]:
    """The ``(kind, text, col, end_col)`` tokens of one line, 1-based columns.

    ``finditer`` skips only whitespace, since ``bad`` matches any other
    character that no token starts with.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        col = m.start() + 1
        if kind == "bad":
            raise DslError(
                [Diagnostic(SourceSpan(lineno, col, col + 1),
                            f"unexpected character {m.group()!r}")]
            )
        tokens.append((kind, m.group(), col, m.end() + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class SystemDecl(NamedTuple):
    name: str
    elem: int | None
    parts: tuple[str, str] | None
    span: SourceSpan


class VectorTerm(NamedTuple):
    weight: object
    label: PureLabel
    col: int  # the label's columns; its line is the declaration's
    end_col: int


class VectorDecl(NamedTuple):
    kind: str  # state | effect
    name: str
    system: str
    terms: tuple | None  # None only for ``effect NAME : SYSTEM = discard``
    span: SourceSpan


# The gates built from two named systems, by body keyword.
_PAIR_GATES = {"swap": bct.swap, "nu": bct.fuse_map, "nu_inv": bct.unfuse_map}


class GateBody(NamedTuple):
    kind: str  # atomic | id | rev | a key of _PAIR_GATES
    terms: tuple = ()
    args: tuple = ()
    perm: tuple = ()
    bits: tuple = ()


class GateDecl(NamedTuple):
    name: str
    in_system: str
    out_system: str
    body: GateBody
    span: SourceSpan


class BoxRef(NamedTuple):
    name: str
    span: SourceSpan


class CircuitDecl(NamedTuple):
    name: str
    stages: tuple  # tuple of tuples of BoxRef
    span: SourceSpan


class EvalDirective(NamedTuple):
    name: str
    span: SourceSpan


@dataclass
class CircuitAst:
    """Checked program: resolved shapes plus the declarations in file order."""

    decls: list = field(default_factory=list)
    shapes: dict = field(default_factory=dict)
    boxes: dict = field(default_factory=dict)  # name -> State | Effect | Transformation
    circuits: dict = field(default_factory=dict)  # name -> ((kind, boxes), ...)
    evals: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _LineParser:
    """Recursive descent over the ``(kind, text, col, end_col)`` tokens of one
    line.  A token's text fixes its kind, so keywords and punctuation are
    tested by text alone."""

    def __init__(self, tokens: list[tuple[str, str, int, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def span(self, tok) -> SourceSpan:
        return SourceSpan(self.lineno, tok[2], tok[3])

    def _here(self) -> SourceSpan:
        if self.pos < len(self.tokens):
            return self.span(self.tokens[self.pos])
        # ``parse`` skips empty lines, so there is always a last token.
        end_col = self.tokens[-1][3]
        return SourceSpan(self.lineno, end_col, end_col + 1)

    def fail(self, message: str, tok=None):
        """Raise at ``tok``, or at the next token when none is given."""
        span = self._here() if tok is None else self.span(tok)
        raise DslError([Diagnostic(span, message)])

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``."""
        if self.pos < len(self.tokens) and self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def take(self, kind: str, text: str | None = None):
        tok = self.peek()
        if tok is None or tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            got = tok[1] if tok else "end of line"
            self.fail(f"expected {want!r}, got {got!r}")
        self.pos += 1
        return tok

    def take_name(self) -> str:
        return self.take("ident")[1]

    def take_int(self) -> int:
        tok = self.take("number")
        text = tok[1]
        if "/" in text or "." in text:
            self.fail(f"expected an integer, got {text!r}", tok)
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() accepts
            self.fail(str(exc), tok)

    def take_number(self):
        tok = self.take("number")
        try:
            return parse_number(tok[1])
        except ValueError as exc:
            self.fail(str(exc), tok)

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            self.fail(f"trailing input {tok[1]!r}")

    # -- labels ------------------------------------------------------------

    def parse_term(self, weight) -> VectorTerm:
        start = self.take("punct", "(")
        indices, sections = self._parse_label_item()
        end = self.take("punct", ")")
        return VectorTerm(weight, PureLabel(tuple(indices), tuple(sections)), start[2], end[3])

    def _parse_label_item(self):
        if self.accept("("):
            left = self._parse_label_item()
            self.take("punct", ",")
            idx = self.take_int()
            self.take("punct", ")")
            self.take("punct", ";")
            bit_tok = self.peek()
            bit = self.take_int()
            if bit not in (0, 1):
                self.fail("section bit must be 0 or 1", bit_tok)
            indices, sections = left
            return indices + [idx], sections + [bit]
        idx = self.take_int()
        return [idx], []

    # -- vector terms --------------------------------------------------------

    def parse_vector_terms(self) -> tuple:
        terms = []
        while True:
            tok = self.peek()
            if tok is None:
                self.fail("expected a weighted label")
            weight = self.take_number() if tok[0] == "number" else Fraction(1)
            terms.append(self.parse_term(weight))
            if not self.accept("+"):
                return tuple(terms)

    def parse_int_list(self) -> tuple[int, ...]:
        vals = [self.take_int()]
        while self.accept(","):
            vals.append(self.take_int())
        return tuple(vals)


def _parse_gate_body(p: _LineParser) -> GateBody:
    tok = p.peek()
    if tok is None:
        p.fail("expected a gate body")
    text = tok[1]
    if p.accept("id"):
        return GateBody(kind="id")
    if text in _PAIR_GATES:
        kind, a, b = p.take_name(), p.take_name(), p.take_name()
        return GateBody(kind=kind, args=(a, b))
    if p.accept("rev"):
        perm = p.parse_int_list()
        bits = p.parse_int_list()
        return GateBody(kind="rev", perm=perm, bits=bits)
    if text == "atomic":
        terms = []
        while True:
            p.accept("atomic")
            src = p.take_int()
            p.take("arrow")
            dst = p.take_int()
            p.take("ident", "tau")
            flip = p.take_int()
            p.take("ident", "w")
            weight = p.take_number()
            terms.append(bct.AtomicTerm(src, dst, flip, weight))
            if not p.accept("+"):
                return GateBody(kind="atomic", terms=tuple(terms))
    p.fail(f"unknown gate body starting at {text!r}")


def _parse_line(tokens: list[tuple[str, str, int, int]], lineno: int):
    p = _LineParser(tokens, lineno)
    head = p.take("ident")
    keyword = head[1]
    span = p.span(head)
    if keyword == "system":
        name = p.take_name()
        p.take("punct", "=")
        if p.accept("elem"):
            dim = p.take_int()
            p.done()
            return SystemDecl(name, elem=dim, parts=None, span=span)
        left = p.take_name()
        p.take("punct", "*")
        right = p.take_name()
        p.done()
        return SystemDecl(name, elem=None, parts=(left, right), span=span)
    if keyword in ("state", "effect"):
        name = p.take_name()
        p.take("punct", ":")
        system = p.take_name()
        p.take("punct", "=")
        discard = keyword == "effect" and p.accept("discard")
        terms = None if discard else p.parse_vector_terms()
        p.done()
        return VectorDecl(keyword, name, system, terms, span)
    if keyword == "gate":
        name = p.take_name()
        p.take("punct", ":")
        in_system = p.take_name()
        p.take("arrow")
        out_system = p.take_name()
        p.take("punct", "=")
        body = _parse_gate_body(p)
        p.done()
        return GateDecl(name, in_system, out_system, body, span)
    if keyword == "circuit":
        name = p.take_name()
        p.take("punct", "=")

        def box() -> BoxRef:
            tok = p.take("ident")
            return BoxRef(tok[1], p.span(tok))

        stages = []
        while True:
            boxes = [box()]
            while p.accept("|"):
                boxes.append(box())
            stages.append(tuple(boxes))
            if not p.accept(";"):
                break
        p.done()
        return CircuitDecl(name, tuple(stages), span)
    if keyword == "eval":
        name = p.take_name()
        p.done()
        return EvalDirective(name, span)
    p.fail(f"unknown declaration {keyword!r}")


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------

# Every elementary factor has dimension >= 2, so ontic dimension >= 4: a
# system within MAX_ONTIC_DIM has at most this many factors, and so has a
# label that fits one.
_MAX_LABEL_FACTORS = (MAX_ONTIC_DIM.bit_length() - 1) // 2

# ``(i1)``, ``((i1,i2);s1)``, ``(((i1,i2);s1,i3);s2)``, ... as label_text
# writes them, one alternative per factor count.
_LABEL = "(?:" + "|".join(
    r"\(" * p + "[0-9]+" + r",[0-9]+\);[01]" * (p - 1) + r"\)"
    for p in range(1, _MAX_LABEL_FACTORS + 1)
) + ")"
_VECTOR_TERMS = rf"(?:{_NUM} )?{_LABEL}(?: \+ (?:{_NUM} )?{_LABEL})*"
_ATOMIC_TERM = rf"[0-9]+ -> [0-9]+ tau [0-9]+ w {_NUM}"
_INTS = "[0-9]+(?:,[0-9]+)*"
_ONE = Fraction(1)


@lru_cache(maxsize=1024)
def _fast_label(text: str) -> PureLabel:
    """The label of a ``_LABEL`` match, whose digits read ``i1, i2, s1, i3,
    s2, ...``.  Cached: a file repeats its labels across lines."""
    ints = [int(d) for d in re.findall("[0-9]+", text)]
    return PureLabel((ints[0], *ints[1::2]), tuple(ints[2::2]))


@lru_cache(maxsize=1024)
def _fast_weight(text: str) -> Fraction:
    """The weight a ``_NUM`` text reads as.  Cached: the weights of a file,
    and of every file ``random_circuit_source`` writes, come from a few
    texts."""
    return parse_number(text)


def _fast_system(m, _, lineno: int) -> SystemDecl:
    name, elem, left, right = m.groups()
    span = SourceSpan(lineno, 1, 7)
    if elem is not None:
        return SystemDecl(name, elem=int(elem), parts=None, span=span)
    return SystemDecl(name, elem=None, parts=(left, right), span=span)


def _fast_vector(m, _, lineno: int) -> VectorDecl:
    keyword, name, system, rhs = m.groups()
    terms = None
    if rhs != "discard":
        # The line matched, so its terms are ``[NUM ]LABEL`` joined by " + ".
        terms = []
        col = m.start(4) + 1
        for text in rhs.split(" + "):
            weight, _, label = text.rpartition(" ")
            end_col = col + len(text)
            terms.append(VectorTerm(_fast_weight(weight) if weight else _ONE,
                                    _fast_label(label), end_col - len(label), end_col))
            col = end_col + 3
        terms = tuple(terms)
    return VectorDecl(keyword, name, system, terms, SourceSpan(lineno, 1, len(keyword) + 1))


def _fast_gate(m, term_re, lineno: int) -> GateDecl:
    name, in_system, out_system, ident, pair, a, b, perm, bits, _ = m.groups()
    if ident is not None:
        body = GateBody(kind="id")
    elif pair is not None:
        body = GateBody(kind=pair, args=(a, b))
    elif perm is not None:
        body = GateBody(kind="rev", perm=tuple(map(int, perm.split(","))),
                        bits=tuple(map(int, bits.split(","))))
    else:
        body = GateBody(kind="atomic", terms=tuple(
            bct.AtomicTerm(int(src), int(dst), int(flip), _fast_weight(weight))
            for src, dst, flip, weight in term_re.findall(m.string, m.start(10))
        ))
    return GateDecl(name, in_system, out_system, body, SourceSpan(lineno, 1, 5))


def _fast_circuit(m, box_re, lineno: int) -> CircuitDecl:
    stages, row = [], []
    for b in box_re.finditer(m.string, m.start(2)):
        if b.group(1) == ";":
            stages.append(tuple(row))
            row = []
        row.append(BoxRef(b.group(2), SourceSpan(lineno, b.start(2) + 1, b.end(2) + 1)))
    stages.append(tuple(row))
    return CircuitDecl(m.group(1), tuple(stages), SourceSpan(lineno, 1, 8))


def _fast_eval(m, _, lineno: int) -> EvalDirective:
    return EvalDirective(m.group(1), SourceSpan(lineno, 1, 5))


@lru_cache(maxsize=None)
def _fast_patterns() -> dict:
    """Per declaration keyword: the line regex, the regex that reads the
    line's repeated part (an atomic term or a circuit box, capturing its
    parts) or None, and the builder.  Compiled on first use,
    so that a command that reads no DSL does not compile them at start-up.

    A ``system`` line's left operand is never ``elem``, and only an
    ``effect`` is ``discard``: the token parser reads those as the other
    form and refuses them.
    """
    pair_gates = "|".join(_PAIR_GATES)
    forms = {
        "system": (rf"system ({_NAME}) = (?:elem ([0-9]+)|(?!elem )({_NAME}) \* ({_NAME}))",
                   None, _fast_system),
        "state": (rf"(state) ({_NAME}) : ({_NAME}) = ({_VECTOR_TERMS})",
                  None, _fast_vector),
        "effect": (rf"(effect) ({_NAME}) : ({_NAME}) = (discard|{_VECTOR_TERMS})",
                   None, _fast_vector),
        "gate": (rf"gate ({_NAME}) : ({_NAME}) -> ({_NAME}) = (?:(id)"
                 rf"|({pair_gates}) ({_NAME}) ({_NAME})|rev ({_INTS}) ({_INTS})"
                 rf"|(atomic {_ATOMIC_TERM}(?: \+ (?:atomic )?{_ATOMIC_TERM})*))",
                 rf"([0-9]+) -> ([0-9]+) tau ([0-9]+) w ({_NUM})", _fast_gate),
        "circuit": (rf"circuit ({_NAME}) = ({_NAME}(?: [|;] {_NAME})*)",
                    rf"(?: ([|;]) )?({_NAME})", _fast_circuit),
        "eval": (rf"eval ({_NAME})", None, _fast_eval),
    }
    return {
        keyword: (re.compile(line), part and re.compile(part), build)
        for keyword, (line, part, build) in forms.items()
    }


def _fast_line(line: str, lineno: int):
    """The declaration of a line written in the compact single-space form of
    :func:`pretty`, or None.  The line's first word picks the one regex that
    must match all of it.

    The result equals ``_parse_line(_tokenize_line(line, lineno), lineno)``.
    None means the token parser takes the line: a comment, other whitespace,
    a label with more factors than ``_LABEL`` reads, an unknown keyword, any
    line the token parser refuses, and a number that does not convert.
    """
    form = _fast_patterns().get(line.partition(" ")[0])
    if form is None:
        return None
    line_re, part_re, build = form
    m = line_re.fullmatch(line)
    if m is None:
        return None
    try:
        return build(m, part_re, lineno)
    except ValueError:  # 1/0, or more digits than int() accepts
        return None


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _vector_weights(shape: SystemShape, decl: VectorDecl, diags) -> tuple[list, int]:
    """The summed term weights per pure label, as numerators over one denominator."""
    values, den = lattice(term.weight for term in decl.terms)
    nums = [0] * shape.global_dim
    for term, n in zip(decl.terms, values):
        try:
            q = flatten_label(shape, term.label)
        except ValueError as exc:
            span = SourceSpan(decl.span.line, term.col, term.end_col)
            diags.append(Diagnostic(span, f"{decl.kind} label does not fit system: {exc}"))
            continue
        nums[q - 1] += n
    return nums, den


def _unknown_system(shapes: dict, *names: str) -> str | None:
    """The diagnostic for the first of ``names`` not in ``shapes``, if any."""
    return next((f"unknown system {name!r}" for name in names if name not in shapes), None)


def _build_gate(decl: GateDecl, shapes: dict, diags) -> Transformation | None:
    in_shape = shapes[decl.in_system]
    out_shape = shapes[decl.out_system]
    body = decl.body
    try:
        if body.kind == "id":
            if in_shape != out_shape:
                raise ValueError("identity gates need equal input and output systems")
            return bct.identity(in_shape)
        if body.kind in _PAIR_GATES:
            a, b = body.args
            if unknown := _unknown_system(shapes, a, b):
                raise ValueError(unknown)
            built = _PAIR_GATES[body.kind](shapes[a], shapes[b])
            if built.in_shape != in_shape or built.out_shape != out_shape:
                raise ValueError(
                    f"{body.kind} has type {built.in_shape} -> {built.out_shape}, "
                    f"declared {in_shape} -> {out_shape}"
                )
            return built
        if body.kind == "rev":
            if in_shape != out_shape:
                raise ValueError("reversible gates need equal input and output systems")
            spec = bct.ReversibleSpec(body.perm, body.bits)
            return bct.reversible(in_shape, spec)
        return bct.recompose(in_shape, out_shape, body.terms)
    except ValueError as exc:
        diags.append(Diagnostic(decl.span, f"gate {decl.name!r}: {exc}"))
        return None


def _too_wide(where: str, shape: SystemShape) -> str:
    return f"{where} has ontic dimension {shape.ontic_dim} > {MAX_ONTIC_DIM}"


def _check_circuit(decl: CircuitDecl, ast: CircuitAst, diags) -> tuple | None:
    """The circuit's ``(kind, boxes)`` stages, or None after one diagnostic."""
    stages: list = []
    current: SystemShape | None = None
    for stage_no, stage in enumerate(decl.stages, start=1):
        kinds = set()
        boxes = []
        in_shape = SystemShape(())
        out_shape = SystemShape(())
        for box in stage:
            value = ast.boxes.get(box.name)
            if value is None:
                diags.append(Diagnostic(box.span, f"unknown box {box.name!r}"))
                return None
            if isinstance(value, State):
                kinds.add("state")
                out_shape = out_shape.compose(value.shape)
            elif isinstance(value, Effect):
                kinds.add("effect")
                in_shape = in_shape.compose(value.shape)
            else:
                kinds.add("gate")
                in_shape = in_shape.compose(value.in_shape)
                out_shape = out_shape.compose(value.out_shape)
            boxes.append(value)
        if len(kinds) > 1:
            diags.append(
                Diagnostic(
                    decl.span,
                    f"stage {stage_no} of circuit {decl.name!r} mixes "
                    f"{'/'.join(sorted(kinds))} boxes",
                )
            )
            return None
        for shape in (in_shape, out_shape):
            if shape.ontic_dim > MAX_ONTIC_DIM:
                where = f"stage {stage_no} of circuit {decl.name!r}"
                diags.append(Diagnostic(decl.span, _too_wide(where, shape)))
                return None
        if current is not None and current != in_shape:
            diags.append(
                Diagnostic(
                    decl.span,
                    f"shape error at stage {stage_no} of circuit {decl.name!r}: "
                    f"expected input {current}, stage takes {in_shape}",
                )
            )
            return None
        (kind,) = kinds
        if kind == "state" and stages and stages[0][0] != "state":
            # Only an effect stage ends on the trivial system a state stage
            # takes, and without an opening state it leaves an open effect.
            diags.append(Diagnostic(decl.span, f"stage {stage_no} of circuit {decl.name!r} "
                                    "prepares a state after an open effect"))
            return None
        stages.append((kind, tuple(boxes)))
        current = out_shape
    return tuple(stages)


def parse(text: str) -> CircuitAst:
    """Parse and check a program; raises :class:`DslError` with diagnostics."""
    diags: list[Diagnostic] = []
    decls = []
    # Lines end at "\n" only, as in editors; str.splitlines would also split
    # at form feeds, vertical tabs and Unicode separators.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        decl = _fast_line(line, lineno)
        if decl is not None:
            decls.append(decl)
            continue
        try:
            tokens = _tokenize_line(line, lineno)
            if not tokens:
                continue
            decls.append(_parse_line(tokens, lineno))
        except DslError as exc:
            diags.extend(exc.diagnostics)
    if diags:
        raise DslError(diags)
    if not decls:
        raise DslError([Diagnostic(SourceSpan(1, 1, 2), "empty program")])

    ast = CircuitAst(decls=decls)
    names: set[str] = set()
    for decl in decls:
        if isinstance(decl, EvalDirective):
            continue
        if decl.name in names:
            diags.append(Diagnostic(decl.span, f"duplicate name {decl.name!r}"))
            continue
        names.add(decl.name)
        if isinstance(decl, SystemDecl):
            if decl.elem is not None:
                if decl.elem < 2:
                    diags.append(
                        Diagnostic(decl.span, "elementary systems need dimension >= 2")
                    )
                    continue
                shape = SystemShape((decl.elem,))
            else:
                left, right = decl.parts
                if unknown := _unknown_system(ast.shapes, left, right):
                    diags.append(Diagnostic(decl.span, unknown))
                    continue
                shape = ast.shapes[left].compose(ast.shapes[right])
            if shape.ontic_dim > MAX_ONTIC_DIM:
                # Stop here: the declarations that use the system would each
                # add an "unknown system" diagnostic.
                diags.append(Diagnostic(decl.span, _too_wide(f"system {decl.name!r}", shape)))
                raise DslError(diags)
            ast.shapes[decl.name] = shape
        elif isinstance(decl, VectorDecl):
            if unknown := _unknown_system(ast.shapes, decl.system):
                diags.append(Diagnostic(decl.span, unknown))
                continue
            shape = ast.shapes[decl.system]
            if decl.terms is None:
                ast.boxes[decl.name] = bct.deterministic_effect(shape)
                continue
            nums, den = _vector_weights(shape, decl, diags)
            vector = State if decl.kind == "state" else Effect
            try:
                ast.boxes[decl.name] = vector(shape, nums, den)
            except ValueError as exc:
                diags.append(Diagnostic(decl.span, f"{decl.kind} {decl.name!r}: {exc}"))
        elif isinstance(decl, GateDecl):
            if unknown := _unknown_system(ast.shapes, decl.in_system, decl.out_system):
                diags.append(Diagnostic(decl.span, unknown))
                continue
            gate = _build_gate(decl, ast.shapes, diags)
            if gate is not None:
                ast.boxes[decl.name] = gate
    if diags:
        raise DslError(diags)

    refused: set[str] = set()  # already diagnosed; their evals add nothing
    for decl in decls:
        if isinstance(decl, CircuitDecl):
            stages = _check_circuit(decl, ast, diags)
            if stages is None:
                refused.add(decl.name)
            else:
                ast.circuits[decl.name] = stages
        elif isinstance(decl, EvalDirective):
            ast.evals.append(decl)
    for directive in ast.evals:
        name = directive.name
        if name not in ast.circuits and name not in ast.boxes and name not in refused:
            diags.append(
                Diagnostic(directive.span, f"eval of unknown name {name!r}")
            )
    if diags:
        raise DslError(diags)
    return ast


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _box(ast: CircuitAst, name: str):
    """A declared state, effect or gate."""
    try:
        return ast.boxes[name]
    except KeyError:
        raise KeyError(f"unknown circuit {name!r}") from None


def eval_bct(ast: CircuitAst, name: str):
    """Fold a circuit with the bilocal semantics.

    Returns a scalar for closed circuits, a :class:`State`, an
    :class:`Effect`, or a :class:`Transformation` for open ones.
    """
    if name not in ast.circuits:
        return _box(ast, name)
    value = None
    for kind, boxes in ast.circuits[name]:
        if kind == "state":
            row = reduce(bct.par_states, boxes)
            # Checked: a later state stage follows a closed circuit's scalar.
            value = row if value is None else row.scale(value)
        elif kind == "gate":
            row = reduce(bct.compose_par, boxes)
            if value is None:
                value = row
            elif isinstance(value, State):
                value = bct.apply(row, value)
            else:
                value = bct.compose_seq(value, row)
        else:
            row = reduce(bct.par_effects, boxes)
            if value is None:
                value = row
            elif isinstance(value, State):
                value = bct.pair(row, value)
            else:
                value = bct.pull(row, value)
    return value


def eval_ontic(ast: CircuitAst, name: str):
    """Fold the same circuit entirely inside classical theory."""
    if name not in ast.circuits:
        return ontic.image(_box(ast, name))
    value = None
    for _, boxes in ast.circuits[name]:
        block = reduce(classical.compose_par, map(ontic.image, boxes))
        value = block if value is None else classical.compose_seq(value, block)
    return value.scalar_value() if value.is_scalar else value


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------


def _terms_str(terms) -> str:
    parts = []
    for term in terms:
        prefix = "" if term.weight == 1 else number_text(term.weight) + " "
        parts.append(prefix + label_text(term.label))
    return " + ".join(parts)


def pretty(ast: CircuitAst) -> str:
    """Render a checked program back to canonical source text."""
    lines = []
    for decl in ast.decls:
        if isinstance(decl, SystemDecl):
            if decl.elem is not None:
                lines.append(f"system {decl.name} = elem {decl.elem}")
            else:
                lines.append(f"system {decl.name} = {decl.parts[0]} * {decl.parts[1]}")
        elif isinstance(decl, VectorDecl):
            rhs = "discard" if decl.terms is None else _terms_str(decl.terms)
            lines.append(f"{decl.kind} {decl.name} : {decl.system} = {rhs}")
        elif isinstance(decl, GateDecl):
            body = decl.body
            if body.kind == "id":
                rhs = "id"
            elif body.kind in _PAIR_GATES:
                rhs = f"{body.kind} {body.args[0]} {body.args[1]}"
            elif body.kind == "rev":
                rhs = f"rev {','.join(map(str, body.perm))} {','.join(map(str, body.bits))}"
            else:
                rhs = " + ".join(
                    f"atomic {t.src} -> {t.dst} tau {t.flip} w {number_text(t.weight)}"
                    for t in body.terms
                )
            lines.append(f"gate {decl.name} : {decl.in_system} -> {decl.out_system} = {rhs}")
        elif isinstance(decl, CircuitDecl):
            stages = " ; ".join(
                " | ".join(box.name for box in stage) for stage in decl.stages
            )
            lines.append(f"circuit {decl.name} = {stages}")
        elif isinstance(decl, EvalDirective):
            lines.append(f"eval {decl.name}")
    return "\n".join(lines) + "\n"


def eval_to_json(value) -> object:
    """JSON form of an evaluation result from either backend."""
    if isinstance(value, (int, Fraction)):
        return number_json(value)
    return value.to_json()
