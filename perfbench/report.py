"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]

Each (workload, seed) pair runs perfbench/run.py in its own process, one
after another, with BENCHMARK.json's run_seconds.  For every metric the
summary gives the median over seeds, the spread (distance between the first
and third quartile as a share of the median) and, for end-to-end metrics,
the bound BENCHMARK.json fixes; error_rate is failed over attempted
operations across all runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (name, seed, proc.returncode, proc.stderr), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, (v["unit"], []))[1].append(v["value"])
        print("== %s  seeds %d-%d  error_rate %g (%d/%d)"
              % (name, args.seeds[0], args.seeds[-1], failed / attempted, failed, attempted))
        for metric, (unit, vals) in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print("%-44s %12.6g %-6s spread %.4f%s" % (
                metric, med, unit, spread, "" if bound is None else "  bound %.2f" % bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
