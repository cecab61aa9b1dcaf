"""The bctk benchmark: one workload, timed or traced, with its outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root.  With ``--trace 0`` the command measures the
cold start of ``bctk`` several times, then runs full-size passes of the
workload, each in a fresh interpreter, for about ``--seconds`` seconds, and
reports the end-to-end metrics: medians over passes, and item latency
quantiles over every item of the run.  With ``--trace 1`` it runs one
untraced and one traced pass of the same inputs and reports the per-layer
metrics.  Times are nominal seconds (see ``hostclock.py``).  A readable
table and a machine-info line come first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The ``info`` line also gives each pass's raw time (``measured_s``) and its
mean host-speed correction.  See ``bench/README.md`` for workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# A full-size run of a loop workload goes on until p99 has ten samples
# beyond it.  verify-all's latencies are per suite.
MIN_LATENCIES = 1000
WORKER_TIMEOUT_S = 170

# Runs as ``python3 -c COLD_START BENCH``.  The time up to entering the clock
# is converted at the clock's first speed reading.
COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hostclock import HostClock
with HostClock() as clock:
    import bctk, bctk.cli
    bctk.cli.build_parser()
    print(json.dumps([clock.started, clock.first_factor, clock.now()]))
"""


class BenchError(RuntimeError):
    pass


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: a value that was actually observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """One workload at one seed; every pass runs in a fresh interpreter."""

    def __init__(self, workloads, workload: str, seed: int, size: int, workdir: Path,
                 min_latencies: int = 0):
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.size = size
        self.min_latencies = min_latencies
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def _python(self, args, timeout) -> str:
        proc = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return proc.stdout.splitlines()[-1]

    def cold_start_s(self) -> float:
        """Launch of a fresh interpreter to the end of ``build_parser()``."""
        launched = time.monotonic()
        started, factor, nominal = json.loads(self._python(["-c", COLD_START, str(BENCH)], 60))
        return (started - launched) * factor + nominal

    def run_pass(self, part: int, trace: bool = False) -> dict:
        args = [str(BENCH / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--size", str(self.size), "--part", str(part)]
        if self.workload == "dsl-circuits":
            inputs = self.workdir / f"part{part}"
            if not inputs.exists():
                inputs.mkdir()
                self.workloads.write_circuits(inputs, self.seed, self.size, part)
            args += ["--inputs", str(inputs)]
        if trace:
            args.append("--trace")
        return json.loads(self._python(args, WORKER_TIMEOUT_S))

    def timed(self, seconds: float) -> tuple[dict, list, dict]:
        self.cold_start_s()  # writes bytecode caches on the first run in a checkout
        setups = [self.cold_start_s() for _ in range(SETUP_REPEATS)]
        passes, latencies = [], []
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            passes.append(self.run_pass(len(passes)))
            latencies += passes[-1].pop("latencies_ms")
            now = time.monotonic()
            if now - begin + (now - started) > seconds and len(latencies) >= self.min_latencies:
                break  # the next pass would overrun
        median = statistics.median
        metrics = {
            "setup_s": _metric(median(setups), "s"),
            "wall_s": _metric(median(p["wall_s"] for p in passes), "s"),
            "items_per_s": _metric(median(p["items"] / p["wall_s"] for p in passes), "1/s"),
            "item_p50_ms": _metric(nearest_rank(latencies, 0.50), "ms"),
            "item_p99_ms": _metric(nearest_rank(latencies, 0.99), "ms"),
            "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in passes), "MB"),
        }
        return metrics, passes, {"setup_s": setups, "latency_samples": len(latencies)}

    def traced(self) -> tuple[dict, list, dict]:
        plain = self.run_pass(0)
        traced = self.run_pass(0, trace=True)
        for p in (plain, traced):
            del p["latencies_ms"]
        metrics = dict(traced.pop("trace"))
        metrics["trace.overhead_frac"] = _metric(traced["wall_s"] / plain["wall_s"] - 1,
                                                 "ratio")
        return metrics, [plain, traced], {}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info() -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="items per pass (trials for verify-all); default full size")
    args = parser.parse_args(argv)

    if not (SRC / "bctk" / "__init__.py").is_file():
        print(f"bench: no bctk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    size = args.size or workloads.DEFAULT_SIZE[args.workload]
    full_loop = args.size is None and args.workload != "verify-all"
    # The benchmark reads and writes only inside the checkout it runs from, so
    # the inputs go there rather than to the system temp directory;
    # .gitignore names them in case a run is killed before it removes them.
    with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=ROOT) as workdir:
        bench = Bench(workloads, args.workload, args.seed, size, Path(workdir),
                      MIN_LATENCIES if full_loop else 0)
        try:
            metrics, passes, extra = bench.traced() if args.trace else bench.timed(args.seconds)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1

    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["report_sha256"] for p in passes}
    # Every verify-all pass of a run has the same config, so the reports must
    # match byte for byte, traced or not.
    correct = failed == 0 and len(digests) == 1
    info = dict(machine_info(), workload=args.workload, seed=args.seed, trace=args.trace,
                size=size, passes=len(passes), items_per_pass=[p["items"] for p in passes],
                **{f"pass_{key}": [p[key] for p in passes]
                   for key in ("wall_s", "measured_s", "correction")},
                report_sha256=sorted(filter(None, digests)), **extra)

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} items={attempted}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<36} {failed / max(attempted, 1):>16.6g} ratio")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
