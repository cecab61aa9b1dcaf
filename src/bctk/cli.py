"""Command-line entry point.

Exit codes: 0 success, 1 bad input (a usage error, a flag out of range, or
a parse, type or IO error), 2 backend disagreement in ``eval``, 3
verification failures, 4 a falsifier run found a candidate with no violation
(which would contradict the no-go theorem and flags a fatal inconsistency).  All structured output goes to stdout as JSON; diagnostics
go to stderr, one line each.  Every number is exact: flags and JSON are read
through :mod:`bctk.scalars`, so a JSON float ``0.25`` means ``1/4``, and an
integer flag takes an optional sign and ASCII digits only.

``bctk eval FILE`` and ``bctk embed FILE --gate NAME``, where neither FILE
nor NAME starts with ``-``, are read without building a parser: for such
words argparse has one reading, so :func:`_plain_args` returns the very
namespace it would, and the command prints the same bytes and exit code.
Every other command line, and so every usage error and help text, goes
through the one full parser that :func:`build_parser` builds afresh.

``bctk lct`` takes the instance flags ``--d1/--d2/--dl/--kappa`` with either
action.  Only ``refute`` takes a candidate source, one of ``--candidate``,
``--model`` or ``--random N``, and it takes ``--seed`` only with
``--random`` (``--random N`` alone uses seed 0).  ``demo`` with any of these
flags, or ``refute --seed`` without ``--random``, exits 1.

A reader that closes stdout early (``bctk verify | head -c 10``) ends the
command quietly with exit 1, as in Python's documented SIGPIPE recipe:
stdout is pointed at ``os.devnull`` so that the interpreter's final flush
raises nothing either.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import dsl, lct, ontic, verify
from .bct import Transformation
from .classical import ClassicalMap
from .scalars import number_json, parse_number
from .verify import RunConfig

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREEMENT = 2
EXIT_VERIFY = 3
EXIT_INCONSISTENT = 4


# Every value ``_dump`` encodes is a freshly built tree of dicts and lists, so
# it holds no cycle to look for.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _dump(payload: dict) -> None:
    # Prints the bytes of ``json.dumps(payload, sort_keys=True)``, one
    # top-level key at a time, so that a dense map value is written by its own
    # text writer and never becomes one list per cell.
    parts = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, ClassicalMap):
            text = value.to_json_text()
        else:
            text = _ENCODER.encode(value)
        parts.append(f"{json.dumps(key)}: {text}")
    print(f"{{{', '.join(parts)}}}")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_ast(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _err(f"cannot read {path}: {exc}")
        return None
    try:
        return dsl.parse(text)
    except dsl.DslError as exc:
        for diag in exc.diagnostics:
            _err(f"{path}:{diag}")
        return None


def _difference(value_bct, value_ontic):
    """Maximum absolute deviation between the two backends' results."""
    if isinstance(value_bct, (int, Fraction)):
        return abs(value_bct - value_ontic)
    image = ontic.image(value_bct)
    if not isinstance(value_ontic, ClassicalMap) or image.shape != value_ontic.shape:
        return 1
    return max((abs(a - b) for _, _, a, b in image.differences(value_ontic)), default=0)


def cmd_eval(args) -> int:
    ast = _load_ast(args.file)
    if ast is None:
        return EXIT_INPUT
    names = [args.name] if args.name is not None else [d.name for d in ast.evals]
    if not names:
        _err("nothing to evaluate: pass --name or add eval directives")
        return EXIT_INPUT
    disagreement = False
    for name in names:
        try:
            value_bct = dsl.eval_bct(ast, name)
            value_ontic = dsl.eval_ontic(ast, name)
        except KeyError as exc:
            _err(exc.args[0])
            return EXIT_INPUT
        diff = _difference(value_bct, value_ontic)
        if diff != 0:
            disagreement = True
        _dump(
            {
                "name": name,
                "bct": dsl.eval_to_json(value_bct),
                "ontic": (value_ontic if isinstance(value_ontic, ClassicalMap)
                          else dsl.eval_to_json(value_ontic)),
                "diff": number_json(diff),
            }
        )
    return EXIT_DISAGREEMENT if disagreement else EXIT_OK


def cmd_verify(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        trials=args.trials,
        max_dim=args.max_dim,
        corrupt=args.corrupt,
    )
    # argparse admits only known suite names, so an error from a suite is a
    # kernel fault: it propagates with its traceback rather than exiting 1.
    reports = verify.run_suites(args.suite, cfg)
    payload = {
        "config": cfg.to_json(),
        "reports": [r.to_json() for r in reports],
    }
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if args.report is not None:
        try:
            Path(args.report).write_text(text + "\n")
        except OSError as exc:
            _err(f"cannot write report: {exc}")
            return EXIT_INPUT
    failures = sum(len(r.failures) for r in reports)
    if failures:
        _err(f"{failures} verification failure(s)")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_embed(args) -> int:
    ast = _load_ast(args.file)
    if ast is None:
        return EXIT_INPUT
    gate = ast.boxes.get(args.gate)
    if not isinstance(gate, Transformation):
        _err(f"unknown gate {args.gate!r}")
        return EXIT_INPUT
    _dump(
        {
            "gate": args.gate,
            "in_wires": [list(p) for p in ontic.wire_points(gate.in_shape)],
            "out_wires": [list(p) for p in ontic.wire_points(gate.out_shape)],
            "map": ontic.ontic_map(gate),
        }
    )
    return EXIT_OK


def _random_candidates(inst: lct.LctInstance, n: int, seed: int):
    """``(name, candidate)`` for the seeded random candidates, one at a time."""
    for idx in range(n):
        rng = random.Random(verify.derive_seed(seed, "lct", idx))
        yield f"random-{idx}", lct.random_candidate(rng, inst)


def cmd_lct(args) -> int:
    if args.action == "demo":
        given = [flag for flag, value in (("--candidate", args.candidate),
                                          ("--model", args.model),
                                          ("--random", args.random),
                                          ("--seed", args.seed)) if value is not None]
        if given:
            _err(f"lct demo does not take {' or '.join(given)} (refute only)")
            return EXIT_INPUT
    elif args.seed is not None and args.random is None:
        _err("lct refute: --seed needs --random")
        return EXIT_INPUT
    try:
        kappa = (None if args.kappa is None
                 else tuple(parse_number(part) for part in args.kappa.split(",")))
        inst = lct.make_instance(args.d1, args.d2, args.dl, kappa)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_INPUT
    if args.action == "demo":
        rows, worst = lct.annihilation_table(inst)
        _dump(
            {
                "instance": inst.to_json(),
                "annihilation_table": [{"sigma": i, "tau": j, "value": number_json(value)}
                                       for i, j, value in rows],
                "max_violation": number_json(worst),
                "pairing": number_json(inst.theory_pairing),
            }
        )
        return EXIT_OK

    spec = args.model if args.model is not None else args.candidate
    if args.random is not None:
        # Drawn lazily: each candidate is falsified and dropped before the next.
        candidates = _random_candidates(inst, args.random, args.seed or 0)
    elif spec in (None, "builtin:bct-style"):
        candidates = [("builtin:bct-style", lct.bct_style_candidate(inst))]
    else:
        try:
            data = json.loads(Path(spec).read_text())
            candidates = [(spec, lct.CandidateModel.from_json(data))]
        except (OSError, ValueError) as exc:
            _err(f"cannot load candidate {spec}: {exc}")
            return EXIT_INPUT

    certificates = []
    count = 0
    by_axiom: dict[str, int] = {}
    for name, cand in candidates:
        cert = lct.falsify(cand, inst)
        count += 1
        if not cert.fatal:
            by_axiom[cert.violation] = by_axiom.get(cert.violation, 0) + 1
        if len(certificates) < 10:
            certificates.append({"candidate": name, "certificate": cert.to_json()})
    violations = sum(by_axiom.values())
    fatal = count - violations
    _dump(
        {
            "instance": inst.to_json(),
            "candidates": count,
            "violations": violations,
            "violations_by_axiom": by_axiom,
            "fatal_inconsistencies": fatal,
            "certificates": certificates,
        }
    )
    if fatal:
        _err(f"{fatal} candidate(s) produced no violation: theorem inconsistency")
        return EXIT_INCONSISTENT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits 1: it is bad input, and
    argparse's own exit code 2 means backend disagreement here."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _integer(low: int | None = None, high: int | None = None):
    """An argparse type for an integer flag: optional sign and ASCII digits
    only, where ``int`` would also take ``"\u0663"`` or ``"1_000"``."""

    def parse(text: str) -> int:
        t = text.strip()
        try:
            value = int(t) if _INTEGER_RE.fullmatch(t) else None
        except ValueError:  # more digits than ``int`` converts
            value = None
        if value is None:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The ``bctk`` parser with its four subcommands, in the order help lists them."""
    parser = _Parser(
        prog="bctk",
        description="Evaluate process diagrams, verify the ontological model, "
        "and run the latent-classical falsifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a circuit under both backends")
    p.add_argument("file")
    p.add_argument("--name", help="circuit to evaluate (default: eval directives)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("--suite", default="all", choices=list(verify.SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=_integer(), default=0)
    p.add_argument("--trials", type=_integer(0), default=200)
    p.add_argument("--max-dim", type=_integer(2, verify.MAX_DIM), default=4,
                   dest="max_dim")
    p.add_argument("--report", help="also write the JSON report to this path")
    p.add_argument(
        "--corrupt", choices=["swap"], help="inject a corrupted fixture (testing only)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("embed", help="dump the classical image of a gate")
    p.add_argument("file")
    p.add_argument("--gate", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("lct", help="latent-classical demo and falsifier")
    p.add_argument("action", choices=["demo", "refute"])
    p.add_argument("--d1", type=_integer(), default=2)
    p.add_argument("--d2", type=_integer(), default=2)
    p.add_argument("--dl", type=_integer(), default=2)
    p.add_argument("--kappa", help="latent state as comma-separated rationals")
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--candidate", help="builtin:bct-style or a path to a candidate JSON file"
    )
    source.add_argument("--model", help="path to a candidate JSON file")
    source.add_argument(
        "--random", type=_integer(1), help="refute N seeded random candidates"
    )
    p.add_argument("--seed", type=_integer(), help="seed of --random (default 0)")
    p.set_defaults(func=cmd_lct)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for ``eval FILE`` or ``embed FILE
    --gate NAME`` when no word after the command starts with ``-``; ``None``
    for any other command line."""
    if len(argv) == 2 and argv[0] == "eval" and not argv[1].startswith("-"):
        return argparse.Namespace(command="eval", file=argv[1], name=None, func=cmd_eval)
    if (len(argv) == 4 and argv[0] == "embed" and argv[2] == "--gate"
            and not argv[1].startswith("-") and not argv[3].startswith("-")):
        return argparse.Namespace(command="embed", file=argv[1], gate=argv[3],
                                  func=cmd_embed)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``eval FILE`` and ``embed FILE --gate NAME`` skip argparse: a word that
    # does not start with "-" is always a value to it, so the namespace, and
    # with it every byte of output, is the one the parser would give.
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
