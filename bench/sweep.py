"""Run every workload over several seeds, twice, and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--trace] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, in turn, with the
``run_seconds`` of ``BENCHMARK.json``, and then the whole round again.  For
each round it prints every end-to-end metric as median and quartiles with
its unit, the sample count, and the quartile spread as a share of the median
next to the metric's bound, and beside them the raw pass time
(``measured_s``) and the host-speed correction of ``hostclock.py``.  Last it
prints by how much each median of the second round is worse than the first.
With ``--trace`` it also makes two traced runs of each workload on the first
seed and checks that their ``.calls`` counts repeat exactly; each traced run
is only ``correct`` when its ``verify-all`` report digest equals that of an
untraced pass of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    begin = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
    info["run_s"] = time.monotonic() - begin
    return info, json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def summarise(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def sweep_workload(workload, seeds) -> dict:
    runs, infos = [], []
    for seed in seeds:
        info, result = bench(workload, seed, 0)
        runs.append(result)
        infos.append(info)
        print(f"  {workload} seed={seed} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"passes={info['passes']} run_s={info['run_s']:.1f}", file=sys.stderr)
    summary = {"correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {},
               "items_per_pass": infos[0]["items_per_pass"][0],
               "passes": [info["passes"] for info in infos],
               "run_s": [info["run_s"] for info in infos], "machine": infos[0]}
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        summary["metrics"][name] = dict(summarise(values), unit=spec["unit"],
                                        bound=spec["bound"], better=spec["better"],
                                        values=values)
    # Not metrics: what the clock saw, per run the median over its passes.
    for key, unit in (("measured_s", "s"), ("correction", "ratio")):
        values = [statistics.median(info[f"pass_{key}"]) for info in infos]
        summary[key] = dict(summarise(values), unit=unit, values=values)
    return summary


def print_round(workload, summary) -> None:
    print(f"{workload}: correct={summary['correct']} attempted={summary['attempted']} "
          f"failed_frac={summary['failed'] / summary['attempted']:.6g}")
    for name, m in summary["metrics"].items():
        verdict = ("ok" if m["spread"] < m["bound"] / 3 else
                   "wide" if m["spread"] <= m["bound"] else "OVER")
        print(f"  {name:<12} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
              f"q3 {m['q3']:<12.6g} {m['unit']:<5} n={m['n']} "
              f"spread {m['spread']:.4f} bound {m['bound']} {verdict}")
    for name in ("measured_s", "correction"):
        m = summary[name]
        print(f"  {name:<12} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
              f"q3 {m['q3']:<12.6g} {m['unit']:<5} n={m['n']} spread {m['spread']:.4f}")


def worsening(first, second) -> dict:
    """Per metric, how much worse the second round's median is, as a share."""
    out = {}
    for name, m in first["metrics"].items():
        change = second["metrics"][name]["median"] / m["median"] - 1
        out[name] = change if m["better"] == "lower" else -change
    return out


def check_trace(workload, seed) -> dict:
    """Two traced runs; each also checks its traced report against an untraced one."""
    (_, first), (_, second) = bench(workload, seed, 1), bench(workload, seed, 1)

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith((".calls", ".checks", "cells", "nnz"))}

    return {"correct": first["correct"] and second["correct"],
            "counts_repeat": counts(first) == counts(second),
            "overhead_frac": [first["metrics"]["trace.overhead_frac"]["value"],
                              second["metrics"]["trace.overhead_frac"]["value"]],
            "metrics": {k: v["value"] for k, v in first["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in SPEC["workloads"]]

    out = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "rounds": [],
           "worse_by": {}}
    for number in (1, 2):
        print(f"round {number}")
        out["rounds"].append({})
        for workload in names:
            summary = sweep_workload(workload, seeds)
            out["rounds"][-1][workload] = summary
            print_round(workload, summary)
    print("second round's median worse than the first by")
    bounds = {spec["name"]: spec["bound"] for spec in SPEC["end_to_end"]}
    for workload in names:
        worse = worsening(out["rounds"][0][workload], out["rounds"][1][workload])
        out["worse_by"][workload] = worse
        print(f"  {workload}: " + ", ".join(
            f"{name} {value:+.4f}{' OVER' if value > bounds[name] else ''}"
            for name, value in worse.items()))
    if args.trace:
        out["trace"] = {}
        for workload in names:
            report = check_trace(workload, seeds[0])
            out["trace"][workload] = report
            print(f"{workload} traced: correct={report['correct']} "
                  f"counts_repeat={report['counts_repeat']} "
                  f"overhead_frac={report['overhead_frac']}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
