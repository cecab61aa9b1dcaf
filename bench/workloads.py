"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --size N [--part K] [--inputs DIR] [--trace]

The pass is a closed loop in one thread: each item is issued after the
previous one finishes.  Every item is timed from outside the program, on the
nominal clock of :mod:`hostclock`, and its output is checked.  The last
stdout line is one JSON object with the pass's item count, failures, wall
time, item latencies, peak RSS and, with ``--trace``, the per-layer metrics
of :mod:`tracer`.  ``run.py`` starts one process per pass, so the
``lru_cache``s of ``bctk`` start cold in every pass as they do in every
``bctk`` command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
from itertools import permutations, product
from pathlib import Path

from bctk import bct, classical, cli, lct, ontic, verify
from bctk.systems import SystemShape

from hostclock import HostClock
from tracer import SUITE_TARGETS, TARGETS, Tracer

WORKLOADS = ("verify-all", "reversible-sweep", "lct-refute", "dsl-circuits")

# Items in one full-size pass.  Each pass makes the same calls whatever the
# time budget, so a pass's wall time is comparable between commits.
DEFAULT_SIZE = {
    "verify-all": 200,          # --trials of the criterion-04 run
    "reversible-sweep": 50360,  # every reversible spec with n <= 6
    "lct-refute": 3000,         # seeded candidates
    "dsl-circuits": 500,        # circuit files, one eval + one embed each
}

VERIFY_MAX_DIM = 4


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Pass:
    """Counters of one pass; ``check`` marks an item failed unless ``ok``."""

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.check_s = 0.0
        self.items = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.digest = None
        self.suite_checks: dict[str, int] = {}

    def timed(self, fn, *args):
        start = self.clock()
        result = fn(*args)
        self.latencies.append(self.clock() - start)
        return result

    def check(self, gate, *args) -> None:
        """Run the benchmark's own output check, untraced."""
        self.items += 1
        start = self.clock()
        with self.tracer.paused():
            try:
                ok = gate(*args)
            except Exception:  # a crash in the check is a failed item
                ok = False
        self.check_s += self.clock() - start
        if not ok:
            self.failed += 1


# ---------------------------------------------------------------------------
# verify-all: the criterion-04 run, `bctk verify --suite all`
# ---------------------------------------------------------------------------


def verify_all(run: Pass, seed: int, size: int, _part, _inputs) -> None:
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--trials", str(size),
            "--max-dim", str(VERIFY_MAX_DIM)]
    code, text = _cli(argv)
    # Items are counted checks; their latencies are inside run_suites, so the
    # latency sample of this workload is one per suite.
    run.latencies = [run.tracer.total_s(name) for name, _, _ in SUITE_TARGETS]
    run.digest = hashlib.sha256(text.encode()).hexdigest()
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError):
        reports = []
    if len(reports) != len(SUITE_TARGETS):
        run.items, run.failed = 1, 1
        return
    for report in reports:
        run.suite_checks[f"verify.{report['suite']}"] = report["trials"]
        good = (code == 0 and report["failures"] == [] and report["max_abs_dev"] == 0
                and report["trials"] >= size)
        run.items += report["trials"]
        run.failed += 0 if good else max(report["trials"], 1)


# ---------------------------------------------------------------------------
# reversible-sweep: the criterion-06 body over every spec with n <= 6
# ---------------------------------------------------------------------------


def reversible_specs(seed: int, size: int) -> list:
    specs = [(n, perm, bits)
             for n in range(2, 7)
             for perm in permutations(range(1, n + 1))
             for bits in product((0, 1), repeat=n)]
    random.Random(seed).shuffle(specs)
    return specs[:size]


def _reversible_item(shape, ident, perm, bits):
    spec = bct.ReversibleSpec(perm, bits)
    rev = bct.reversible(shape, spec)
    inv = bct.reversible(shape, spec.inverse())
    return (rev.is_channel(), bct.compose_seq(rev, inv) == ident,
            bct.compose_seq(inv, rev) == ident, ontic.ontic_map(rev))


def _reversible_ok(n, perm, bits, outcome) -> bool:
    is_channel, left_inverse, right_inverse, image = outcome
    expected = {((perm[i - 1] - 1) * 2 + (b ^ bits[i - 1]), (i - 1) * 2 + b)
                for i in range(1, n + 1) for b in (0, 1)}
    entries = list(image.nonzero())
    return (is_channel and left_inverse and right_inverse
            and all(v == 1 for _, _, v in entries)
            and {(r, c) for r, c, _ in entries} == expected)


def reversible_sweep(run: Pass, seed: int, size: int, _part, _inputs) -> None:
    specs = reversible_specs(seed, size)
    shapes = {n: SystemShape((n,)) for n in range(2, 7)}
    with run.tracer.paused():
        idents = {n: bct.identity(shape) for n, shape in shapes.items()}
    for n, perm, bits in specs:
        outcome = run.timed(_reversible_item, shapes[n], idents[n], perm, bits)
        run.check(_reversible_ok, n, perm, bits, outcome)


# ---------------------------------------------------------------------------
# lct-refute: `bctk lct refute --random N`, item by item
# ---------------------------------------------------------------------------


def _lct_item(inst, seed, index):
    rng = random.Random(verify.derive_seed(seed, "lct", index))
    cand = lct.random_candidate(rng, inst)
    return cand, lct.falsify(cand, inst)


def _lct_ok(cand, cert) -> bool:
    return (not cert.fatal
            and classical.choi_close(lct.jellyfish_matrix(cand)) == lct.model_pairing(cand))


def lct_refute(run: Pass, seed: int, size: int, part: int, _inputs) -> None:
    with run.tracer.paused():
        inst = lct.make_instance()
    for index in range(part * size, (part + 1) * size):
        cand, cert = run.timed(_lct_item, inst, seed, index)
        run.check(_lct_ok, cand, cert)


# ---------------------------------------------------------------------------
# dsl-circuits: `bctk eval f` then `bctk embed f --gate g0` per circuit file
# ---------------------------------------------------------------------------


def write_circuits(directory: Path, seed: int, size: int, part: int = 0) -> None:
    """The inputs of one dsl-circuits pass, written before the pass starts."""
    for index in range(part * size, (part + 1) * size):
        rng = random.Random(verify.derive_seed(seed, "dsl", index))
        source = verify.random_circuit_source(rng, max_dim=VERIFY_MAX_DIM)
        (directory / f"c{index:05d}.bct").write_text(source)


def _dsl_item(path):
    return _cli(["eval", path]), _cli(["embed", path, "--gate", "g0"])


def _dsl_ok(evaluated, embedded) -> bool:
    (eval_code, eval_out), (embed_code, embed_out) = evaluated, embedded
    rows = [json.loads(line) for line in eval_out.splitlines()]
    image = json.loads(embed_out)
    return (eval_code == 0 and embed_code == 0 and len(rows) == 1
            and rows[0]["diff"] == [0, 1] and image["gate"] == "g0")


def dsl_circuits(run: Pass, _seed: int, size: int, _part, inputs) -> None:
    paths = sorted(str(p) for p in Path(inputs).glob("*.bct"))[:size]
    for path in paths:
        evaluated, embedded = run.timed(_dsl_item, path)
        run.check(_dsl_ok, evaluated, embedded)


PASSES = {
    "verify-all": verify_all,
    "reversible-sweep": reversible_sweep,
    "lct-refute": lct_refute,
    "dsl-circuits": dsl_circuits,
}


def run_pass(workload: str, seed: int, size: int, part: int = 0, inputs=None,
             trace: bool = False) -> dict:
    """Run one pass in this process and return its counters and timings."""
    clock = HostClock()
    tracer = Tracer(TARGETS if trace else SUITE_TARGETS, clock=clock.now)
    run = Pass(tracer, clock.now)
    with clock, tracer:
        start, measured_start = clock.now(), clock.measured_s()
        PASSES[workload](run, seed, size, part, inputs)
        nominal_s = clock.now() - start
        measured_s = clock.measured_s() - measured_start
    # The benchmark's own output checks are not the program's time.
    wall_s = nominal_s - run.check_s
    result = {
        "workload": workload,
        "seed": seed,
        "items": run.items,
        "failed": run.failed,
        "wall_s": wall_s,
        # Wall seconds with the kernel left out, and the mean host-speed
        # correction of the pass, so that results show what the clock did.
        "measured_s": measured_s,
        "correction": nominal_s / measured_s,
        "kernel_ticks": clock.ticks,
        "latencies_ms": [1e3 * t for t in run.latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": run.digest,
    }
    if trace:
        metrics = tracer.metrics()
        for name, _, _ in SUITE_TARGETS:
            metrics[f"{name}.checks"] = (run.suite_checks.get(name, 0), "count")
        result["trace"] = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="which slice of the seeded inputs this pass takes")
    parser.add_argument("--inputs", help="directory of dsl-circuits input files")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.size, args.part, args.inputs,
                      args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
